//! TPC-H Q17: small-quantity-order revenue — lineitems below 20% of
//! their part's average quantity, for one brand and container. The
//! correlated average decorrelates into a per-part aggregate joined
//! back. Not part of the paper's Table 2 set.

use crate::db::{run_query as timed, QueryConfig, QueryRun, TpchDb};
use scc_engine::Operator as _;
use scc_engine::{
    AggExpr, Batch, Expr, HashAggregate, HashJoin, JoinKind, Project, Select, Vector,
};
use std::collections::HashSet;

/// Columns scanned.
pub const COLUMNS: &[(&str, &[&str])] = &[
    ("lineitem", &["l_partkey", "l_quantity", "l_extendedprice"]),
    ("part", &["p_partkey", "p_brand", "p_container"]),
];

/// The brand/container constants; dbgen uses Brand#23 / MED BOX. Our
/// generator distributes brands uniformly, so any (brand, container
/// prefix) pair selects a similar fraction.
const BRAND: &str = "Brand#23";
const CONTAINER_PREFIX: &str = "MED";

/// Executes Q17. Output: avg_yearly (single f64, cents).
pub fn run(db: &TpchDb, cfg: &QueryConfig) -> QueryRun {
    timed(|stats| {
        // Parts of the brand in MED* containers. 0=p_partkey 1=p_brand
        // 2=p_container.
        let brand: HashSet<u64> =
            db.part.str_col("p_brand").code_of(BRAND).map(|c| c as u64).into_iter().collect();
        let containers =
            db.part.str_col("p_container").codes_matching(|c| c.starts_with(CONTAINER_PREFIX));
        let part = cfg.scan_where(
            &db.part,
            &["p_partkey", "p_brand", "p_container"],
            Some(Expr::col(1).in_set(brand).and(Expr::col(2).in_set(containers))),
            stats,
        );
        let part = Project::new(part, vec![Expr::col(0)]);

        // Per-part average quantity over the *qualifying* parts only
        // (semi-join first keeps the aggregate small).
        // 0=l_partkey 1=l_quantity 2=l_extendedprice.
        let li = cfg.scan(&db.lineitem, &["l_partkey", "l_quantity", "l_extendedprice"], stats);
        let mut li = HashJoin::new(li, part, vec![0], vec![0], JoinKind::LeftSemi);
        let li_all = scc_engine::ops::collect(&mut li);
        if li_all.columns.is_empty() {
            return (Batch::new(vec![Vector::F64(vec![0.0])]), li.explain());
        }
        // avg qty per part.
        let src = scc_engine::MemSource::new(li_all.columns.clone(), cfg.vector_size);
        let mut avg = HashAggregate::new(src, vec![Expr::col(0)], vec![AggExpr::Avg(Expr::col(1))]);
        let avgs = scc_engine::ops::collect(&mut avg);
        // Join back: lineitem rows with quantity < 0.2 * avg(part).
        let src = scc_engine::MemSource::new(li_all.columns, cfg.vector_size);
        let joined = HashJoin::new(
            src,
            scc_engine::MemSource::new(avgs.columns, cfg.vector_size),
            vec![0],
            vec![0],
            JoinKind::Inner,
        );
        // cols: 0=l_partkey 1=l_quantity 2=l_extendedprice 3=partkey 4=avg.
        let small =
            Select::new(joined, Expr::col(1).to_f64().lt(Expr::lit_f64(0.2).mul(Expr::col(4))));
        let mut total = HashAggregate::new(small, vec![], vec![AggExpr::Sum(Expr::col(2))]);
        let sums = scc_engine::ops::collect(&mut total);
        let sum = match &sums.columns[0] {
            Vector::I64(v) => v[0] as f64,
            Vector::F64(v) => v[0],
            _ => unreachable!("sum of extendedprice is numeric"),
        };
        let batch = Batch::new(vec![Vector::F64(vec![sum / 7.0])]);
        let explain = scc_engine::ExplainNode::phases(
            "Q17",
            vec![li.explain(), avg.explain(), total.explain()],
        );
        (batch, explain)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queries::testkit::{assert_config_invariant, small_db};
    use std::collections::{HashMap, HashSet};

    #[test]
    fn matches_reference() {
        let db = small_db();
        let out = run(db, &QueryConfig::default()).batch;

        let raw = &db.raw;
        let qualifying: HashSet<i64> = (0..raw.part.partkey.len())
            .filter(|&i| {
                raw.part.brand[i] == BRAND && raw.part.container[i].starts_with(CONTAINER_PREFIX)
            })
            .map(|i| raw.part.partkey[i])
            .collect();
        let mut qty: HashMap<i64, (i64, i64)> = HashMap::new();
        for i in 0..raw.lineitem.orderkey.len() {
            let pk = raw.lineitem.partkey[i];
            if qualifying.contains(&pk) {
                let e = qty.entry(pk).or_default();
                e.0 += raw.lineitem.quantity[i];
                e.1 += 1;
            }
        }
        let mut sum = 0.0f64;
        for i in 0..raw.lineitem.orderkey.len() {
            let pk = raw.lineitem.partkey[i];
            let Some(&(q, c)) = qty.get(&pk) else { continue };
            let avg = q as f64 / c as f64;
            if (raw.lineitem.quantity[i] as f64) < 0.2 * avg {
                sum += raw.lineitem.extendedprice[i] as f64;
            }
        }
        let expect = sum / 7.0;
        assert!(
            (out.col(0).as_f64()[0] - expect).abs() < 1.0,
            "{} vs {expect}",
            out.col(0).as_f64()[0]
        );
    }

    #[test]
    fn invariant_under_storage_configs() {
        assert_config_invariant(17);
    }
}
