//! TPC-H Q4: order priority checking. A semi-join of orders against late
//! lineitems.

use crate::dates::date;
use crate::db::{run_query as timed, QueryConfig, QueryRun, TpchDb};
use scc_engine::Operator as _;
use scc_engine::{AggExpr, Expr, HashAggregate, HashJoin, JoinKind, OrderBy, Project, SortKey};

/// Columns scanned.
pub const COLUMNS: &[(&str, &[&str])] = &[
    ("lineitem", &["l_orderkey", "l_commitdate", "l_receiptdate"]),
    ("orders", &["o_orderkey", "o_orderdate", "o_orderpriority"]),
];

/// Executes Q4. Output: o_orderpriority code, order_count.
pub fn run(db: &TpchDb, cfg: &QueryConfig) -> QueryRun {
    timed(|stats| {
        // Late lineitems: commitdate < receiptdate. 0=l_orderkey
        // 1=l_commitdate 2=l_receiptdate.
        let li = cfg.scan_where(
            &db.lineitem,
            &["l_orderkey", "l_commitdate", "l_receiptdate"],
            Some(Expr::col(1).lt(Expr::col(2))),
            stats,
        );
        let li = Project::new(Box::new(li), vec![Expr::col(0)]);

        // Orders in Q3/1993. 0=o_orderkey 1=o_orderdate 2=o_orderpriority.
        let lo = date(1993, 7, 1);
        let hi = date(1993, 10, 1);
        let ord = cfg.scan_where(
            &db.orders,
            &["o_orderkey", "o_orderdate", "o_orderpriority"],
            Some(Expr::col(1).ge(Expr::lit_i32(lo)).and(Expr::col(1).lt(Expr::lit_i32(hi)))),
            stats,
        );
        let semi = HashJoin::new(Box::new(ord), Box::new(li), vec![0], vec![0], JoinKind::LeftSemi);
        let agg = HashAggregate::new(Box::new(semi), vec![Expr::col(2)], vec![AggExpr::Count]);
        let mut plan = OrderBy::new(Box::new(agg), vec![SortKey::asc(0)]);
        let batch = scc_engine::ops::collect(&mut plan);
        (batch, plan.explain())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queries::testkit::{assert_config_invariant, small_db};
    use std::collections::{BTreeMap, HashSet};

    #[test]
    fn matches_reference() {
        let db = small_db();
        let out = run(db, &QueryConfig::default()).batch;

        let raw = &db.raw;
        let late: HashSet<i64> = (0..raw.lineitem.orderkey.len())
            .filter(|&i| raw.lineitem.commitdate[i] < raw.lineitem.receiptdate[i])
            .map(|i| raw.lineitem.orderkey[i])
            .collect();
        let (lo, hi) = (date(1993, 7, 1), date(1993, 10, 1));
        let mut counts: BTreeMap<String, i64> = BTreeMap::new();
        for i in 0..raw.orders.orderkey.len() {
            if raw.orders.orderdate[i] >= lo
                && raw.orders.orderdate[i] < hi
                && late.contains(&raw.orders.orderkey[i])
            {
                *counts.entry(raw.orders.orderpriority[i].clone()).or_default() += 1;
            }
        }
        assert!(!counts.is_empty());
        assert_eq!(out.len(), counts.len());
        let dict = &db.orders.str_col("o_orderpriority").dict;
        for (row, (prio, count)) in counts.iter().enumerate() {
            assert_eq!(&dict[out.col(0).as_u32()[row] as usize], prio);
            assert_eq!(out.col(1).as_i64()[row], *count);
        }
    }

    #[test]
    fn invariant_under_storage_configs() {
        assert_config_invariant(4);
    }
}
