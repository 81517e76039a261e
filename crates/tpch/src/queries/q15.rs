//! TPC-H Q15: top supplier — the supplier(s) with maximum quarterly
//! revenue (the `revenue` view becomes a group-by).

use crate::dates::date;
use crate::db::{run_query as timed, QueryConfig, QueryRun, TpchDb};
use scc_engine::Operator as _;
use scc_engine::{AggExpr, Expr, HashAggregate, HashJoin, JoinKind, Project, Select};

/// Columns scanned.
pub const COLUMNS: &[(&str, &[&str])] = &[
    ("lineitem", &["l_suppkey", "l_extendedprice", "l_discount", "l_shipdate"]),
    ("supplier", &["s_suppkey"]),
];

/// Executes Q15. Output: s_suppkey, total_revenue, for suppliers at the
/// maximum (ordered by suppkey).
pub fn run(db: &TpchDb, cfg: &QueryConfig) -> QueryRun {
    timed(|stats| {
        // Q1/1996 revenue per supplier. 0=l_suppkey 1=l_extendedprice
        // 2=l_discount 3=l_shipdate.
        let (lo, hi) = (date(1996, 1, 1), date(1996, 4, 1));
        let li = cfg.scan_where(
            &db.lineitem,
            &["l_suppkey", "l_extendedprice", "l_discount", "l_shipdate"],
            Some(Expr::col(3).ge(Expr::lit_i32(lo)).and(Expr::col(3).lt(Expr::lit_i32(hi)))),
            stats,
        );
        let revenue = Expr::lit_i64(100)
            .sub(Expr::col(2))
            .to_f64()
            .mul(Expr::col(1).to_f64())
            .mul(Expr::lit_f64(0.01));
        let proj = Project::new(Box::new(li), vec![Expr::col(0), revenue]);
        let mut agg = HashAggregate::new(
            Box::new(proj),
            vec![Expr::col(0)],
            vec![AggExpr::Sum(Expr::col(1))],
        );
        let view = scc_engine::ops::collect(&mut agg);
        let phase1 = agg.explain();
        // max(total_revenue): the scalar subquery, evaluated here.
        let max_rev = view.col(1).as_f64().iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let src = scc_engine::MemSource::new(view.columns.clone(), cfg.vector_size);
        let best = Select::new(Box::new(src), Expr::col(1).ge(Expr::lit_f64(max_rev)));
        // Join supplier to confirm the key exists (and model the paper's
        // plan shape). 0=s_suppkey then 1=view suppkey 2=revenue.
        let supp = cfg.scan(&db.supplier, &["s_suppkey"], stats);
        let joined = HashJoin::new(supp, Box::new(best), vec![0], vec![0], JoinKind::Inner);
        let reorder = Project::new(Box::new(joined), vec![Expr::col(0), Expr::col(2)]);
        let mut plan =
            scc_engine::OrderBy::new(Box::new(reorder), vec![scc_engine::SortKey::asc(0)]);
        let batch = scc_engine::ops::collect(&mut plan);
        (batch, scc_engine::ExplainNode::phases("Q15", vec![phase1, plan.explain()]))
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
        let (lo, hi) = (date(1996, 1, 1), date(1996, 4, 1));
        let mut per_supp: HashMap<i64, f64> = HashMap::new();
        for i in 0..raw.lineitem.orderkey.len() {
            if raw.lineitem.shipdate[i] >= lo && raw.lineitem.shipdate[i] < hi {
                *per_supp.entry(raw.lineitem.suppkey[i]).or_default() +=
                    raw.lineitem.extendedprice[i] as f64 * (100 - raw.lineitem.discount[i]) as f64
                        / 100.0;
            }
        }
        let max = per_supp.values().cloned().fold(f64::NEG_INFINITY, f64::max);
        let mut best: Vec<(i64, f64)> = per_supp.into_iter().filter(|&(_, v)| v >= max).collect();
        best.sort_by_key(|r| r.0);
        assert!(!best.is_empty());
        assert_eq!(out.len(), best.len());
        for (row, (k, v)) in best.iter().enumerate() {
            assert_eq!(out.col(0).as_i64()[row], *k);
            assert!((out.col(1).as_f64()[row] - v).abs() < 1.0);
        }
    }

    #[test]
    fn invariant_under_storage_configs() {
        assert_config_invariant(15);
    }
}
