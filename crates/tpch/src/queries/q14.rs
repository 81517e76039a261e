//! TPC-H Q14: promotion effect — the share of promo-part revenue in one
//! month, using the branch-free conditional primitive.

use crate::dates::date;
use crate::db::{run_query as timed, QueryConfig, QueryRun, TpchDb};
use scc_engine::Operator as _;
use scc_engine::{AggExpr, Expr, HashAggregate, HashJoin, JoinKind, Project};

/// Columns scanned.
pub const COLUMNS: &[(&str, &[&str])] = &[
    ("lineitem", &["l_partkey", "l_extendedprice", "l_discount", "l_shipdate"]),
    ("part", &["p_partkey", "p_type"]),
];

/// Executes Q14. Output: promo_revenue percent (single f64 row).
pub fn run(db: &TpchDb, cfg: &QueryConfig) -> QueryRun {
    timed(|stats| {
        // September 1995 lineitems. 0=l_partkey 1=l_extendedprice
        // 2=l_discount 3=l_shipdate.
        let (lo, hi) = (date(1995, 9, 1), date(1995, 10, 1));
        let li = cfg.scan_where(
            &db.lineitem,
            &["l_partkey", "l_extendedprice", "l_discount", "l_shipdate"],
            Some(Expr::col(3).ge(Expr::lit_i32(lo)).and(Expr::col(3).lt(Expr::lit_i32(hi)))),
            stats,
        );
        // Parts: 4=p_partkey 5=p_type after the join.
        let part = cfg.scan(&db.part, &["p_partkey", "p_type"], stats);
        let joined = HashJoin::new(Box::new(li), Box::new(part), vec![0], vec![0], JoinKind::Inner);
        let promo = db.part.str_col("p_type").codes_matching(|t| t.starts_with("PROMO"));
        let revenue = Expr::lit_i64(100)
            .sub(Expr::col(2))
            .to_f64()
            .mul(Expr::col(1).to_f64())
            .mul(Expr::lit_f64(0.01));
        // Branch-free: promo revenue is revenue where p_type is PROMO*,
        // else 0 (the predicated select of §2.2).
        let promo_revenue = Expr::col(5).in_set(promo).cond(revenue.clone(), Expr::lit_f64(0.0));
        let proj = Project::new(Box::new(joined), vec![promo_revenue, revenue]);
        let mut agg = HashAggregate::new(
            Box::new(proj),
            vec![],
            vec![AggExpr::Sum(Expr::col(0)), AggExpr::Sum(Expr::col(1))],
        );
        let sums = scc_engine::ops::collect(&mut agg);
        let promo_sum = sums.col(0).as_f64()[0];
        let total = sums.col(1).as_f64()[0];
        let batch =
            scc_engine::Batch::new(vec![scc_engine::Vector::F64(vec![100.0 * promo_sum / total])]);
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
        let ptype: HashMap<i64, &String> =
            raw.part.partkey.iter().zip(raw.part.ptype.iter()).map(|(&k, t)| (k, t)).collect();
        let (lo, hi) = (date(1995, 9, 1), date(1995, 10, 1));
        let (mut promo, mut total) = (0.0f64, 0.0f64);
        for i in 0..raw.lineitem.orderkey.len() {
            if raw.lineitem.shipdate[i] < lo || raw.lineitem.shipdate[i] >= hi {
                continue;
            }
            let rev = raw.lineitem.extendedprice[i] as f64
                * (100 - raw.lineitem.discount[i]) as f64
                / 100.0;
            total += rev;
            if ptype[&raw.lineitem.partkey[i]].starts_with("PROMO") {
                promo += rev;
            }
        }
        assert!(total > 0.0);
        let expect = 100.0 * promo / total;
        assert!((out.col(0).as_f64()[0] - expect).abs() < 0.01);
    }

    #[test]
    fn invariant_under_storage_configs() {
        assert_config_invariant(14);
    }
}
