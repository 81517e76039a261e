//! TPC-H Q19: discounted revenue — a three-way disjunction of
//! conjunctive predicates over lineitem ⋈ part (the classic "OR of ANDs"
//! that stresses branch-free predicate evaluation). Not part of the
//! paper's Table 2 set.

use crate::db::{run_query as timed, QueryConfig, QueryRun, TpchDb};
use scc_engine::Operator as _;
use scc_engine::{AggExpr, Expr, HashAggregate, HashJoin, JoinKind, Select};
use std::collections::HashSet;

/// Columns scanned.
pub const COLUMNS: &[(&str, &[&str])] = &[
    (
        "lineitem",
        &[
            "l_partkey",
            "l_quantity",
            "l_extendedprice",
            "l_discount",
            "l_shipmode",
            "l_shipinstruct",
        ],
    ),
    ("part", &["p_partkey", "p_brand", "p_container", "p_size"]),
];

fn brand_code(db: &TpchDb, brand: &str) -> HashSet<u64> {
    db.part.str_col("p_brand").code_of(brand).map(|c| c as u64).into_iter().collect()
}

/// Executes Q19. Output: revenue (single f64, cents).
pub fn run(db: &TpchDb, cfg: &QueryConfig) -> QueryRun {
    timed(|stats| {
        // 0=l_partkey 1=l_quantity 2=l_extendedprice 3=l_discount
        // 4=l_shipmode 5=l_shipinstruct; after join: 6=p_partkey 7=p_brand
        // 8=p_container 9=p_size.
        let air: HashSet<u64> = ["AIR", "REG AIR"]
            .iter()
            .filter_map(|m| db.lineitem.str_col("l_shipmode").code_of(m))
            .map(|c| c as u64)
            .collect();
        let deliver =
            db.lineitem.str_col("l_shipinstruct").codes_matching(|s| s == "DELIVER IN PERSON");
        let li = cfg.scan_where(
            &db.lineitem,
            &[
                "l_partkey",
                "l_quantity",
                "l_extendedprice",
                "l_discount",
                "l_shipmode",
                "l_shipinstruct",
            ],
            Some(Expr::col(4).in_set(air).and(Expr::col(5).in_set(deliver))),
            stats,
        );
        let part = cfg.scan(&db.part, &["p_partkey", "p_brand", "p_container", "p_size"], stats);
        let joined = HashJoin::new(li, part, vec![0], vec![0], JoinKind::Inner);

        let sm_containers = db.part.str_col("p_container").codes_matching(|c| c.starts_with("SM"));
        let med_containers =
            db.part.str_col("p_container").codes_matching(|c| c.starts_with("MED"));
        let lg_containers = db.part.str_col("p_container").codes_matching(|c| c.starts_with("LG"));
        let clause = |brand: &str, containers: HashSet<u64>, qlo: i64, qhi: i64, size_hi: i32| {
            Expr::col(7)
                .in_set(brand_code(db, brand))
                .and(Expr::col(8).in_set(containers))
                .and(Expr::col(1).ge(Expr::lit_i64(qlo)))
                .and(Expr::col(1).le(Expr::lit_i64(qhi)))
                .and(Expr::col(9).ge(Expr::lit_i32(1)))
                .and(Expr::col(9).le(Expr::lit_i32(size_hi)))
        };
        let pred = clause("Brand#12", sm_containers, 1, 11, 5)
            .or(clause("Brand#23", med_containers, 10, 20, 10))
            .or(clause("Brand#34", lg_containers, 20, 30, 15));
        let filtered = Select::new(joined, pred);
        let revenue = Expr::lit_i64(100)
            .sub(Expr::col(3))
            .to_f64()
            .mul(Expr::col(2).to_f64())
            .mul(Expr::lit_f64(0.01));
        let mut agg = HashAggregate::new(filtered, vec![], vec![AggExpr::Sum(revenue)]);
        let batch = scc_engine::ops::collect(&mut agg);
        (batch, agg.explain())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queries::testkit::{assert_config_invariant, small_db};
    use std::collections::HashMap;

    #[test]
    fn matches_reference() {
        let db = small_db();
        let out = run(db, &QueryConfig::default()).batch;

        let raw = &db.raw;
        let part: HashMap<i64, (&String, &String, i32)> = (0..raw.part.partkey.len())
            .map(|i| {
                (
                    raw.part.partkey[i],
                    (&raw.part.brand[i], &raw.part.container[i], raw.part.size[i]),
                )
            })
            .collect();
        let mut expect = 0.0f64;
        for i in 0..raw.lineitem.orderkey.len() {
            let mode = &raw.lineitem.shipmode[i];
            if (mode != "AIR" && mode != "REG AIR")
                || raw.lineitem.shipinstruct[i] != "DELIVER IN PERSON"
            {
                continue;
            }
            let (brand, container, size) = part[&raw.lineitem.partkey[i]];
            let q = raw.lineitem.quantity[i];
            let hit = (brand == "Brand#12"
                && container.starts_with("SM")
                && (1..=11).contains(&q)
                && (1..=5).contains(&size))
                || (brand == "Brand#23"
                    && container.starts_with("MED")
                    && (10..=20).contains(&q)
                    && (1..=10).contains(&size))
                || (brand == "Brand#34"
                    && container.starts_with("LG")
                    && (20..=30).contains(&q)
                    && (1..=15).contains(&size));
            if hit {
                expect += raw.lineitem.extendedprice[i] as f64
                    * (100 - raw.lineitem.discount[i]) as f64
                    / 100.0;
            }
        }
        assert_eq!(out.len(), 1);
        assert!((out.col(0).as_f64()[0] - expect).abs() < 1.0);
    }

    #[test]
    fn invariant_under_storage_configs() {
        assert_config_invariant(19);
    }
}
