//! TPC-H Q21: suppliers who kept orders waiting — the paper set's most
//! complex query (EXISTS / NOT EXISTS over correlated lineitems).
//!
//! Decorrelated plan: the EXISTS ("another supplier contributed to the
//! order") becomes "the order has >= 2 distinct suppliers", and the NOT
//! EXISTS ("no other supplier was late on it") becomes "the order has
//! exactly one distinct *late* supplier". Both reduce to two-level
//! distinct aggregations.

use crate::db::{run_query as timed, QueryConfig, QueryRun, TpchDb};
use crate::queries::{code_set, nation_key};
use scc_engine::Operator as _;
use scc_engine::{
    AggExpr, Expr, HashAggregate, HashJoin, JoinKind, Project, Select, SortKey, TopN,
};

/// Columns scanned.
pub const COLUMNS: &[(&str, &[&str])] = &[
    ("lineitem", &["l_orderkey", "l_suppkey", "l_receiptdate", "l_commitdate"]),
    ("orders", &["o_orderkey", "o_orderstatus"]),
    ("supplier", &["s_suppkey", "s_nationkey"]),
];

/// Executes Q21. Output: s_suppkey, numwait (top 100 by numwait desc,
/// suppkey asc).
pub fn run(db: &TpchDb, cfg: &QueryConfig) -> QueryRun {
    timed(|stats| {
        let saudi = nation_key(db, "SAUDI ARABIA");

        // Distinct (orderkey, suppkey) pairs over all lineitems, then
        // orders with >= 2 distinct suppliers.
        let li_all = cfg.scan(&db.lineitem, &["l_orderkey", "l_suppkey"], stats);
        let pairs = HashAggregate::new(
            Box::new(li_all),
            vec![Expr::col(0), Expr::col(1)],
            vec![AggExpr::Count],
        );
        let per_order =
            HashAggregate::new(Box::new(pairs), vec![Expr::col(0)], vec![AggExpr::Count]);
        let multi_supp = Select::new(Box::new(per_order), Expr::col(1).ge(Expr::lit_i64(2)));
        let multi_supp = Project::new(Box::new(multi_supp), vec![Expr::col(0)]);

        // Distinct late (orderkey, suppkey) pairs.
        let li_late = cfg.scan_where(
            &db.lineitem,
            &["l_orderkey", "l_suppkey", "l_receiptdate", "l_commitdate"],
            Some(Expr::col(2).gt(Expr::col(3))),
            stats,
        );
        let late_pairs = HashAggregate::new(
            Box::new(li_late),
            vec![Expr::col(0), Expr::col(1)],
            vec![AggExpr::Count],
        );
        // Materialize once; reuse for both the per-order count and the
        // candidate pair stream.
        let mut late_agg = HashAggregate::new(
            Box::new(late_pairs),
            vec![Expr::col(0), Expr::col(1)],
            vec![AggExpr::Count],
        );
        let late_batch = scc_engine::ops::collect(&mut late_agg);
        let late_src = || {
            Box::new(scc_engine::MemSource::new(late_batch.columns[..2].to_vec(), cfg.vector_size))
        };

        // Orders with exactly one late supplier.
        let late_per_order =
            HashAggregate::new(late_src(), vec![Expr::col(0)], vec![AggExpr::Count]);
        let single_late = Select::new(Box::new(late_per_order), Expr::col(1).eq(Expr::lit_i64(1)));
        let single_late = Project::new(Box::new(single_late), vec![Expr::col(0)]);

        // Candidate pairs: late pair AND order has >=2 suppliers AND only
        // one late supplier AND order status 'F'.
        let cand =
            HashJoin::new(late_src(), Box::new(single_late), vec![0], vec![0], JoinKind::LeftSemi);
        let cand = HashJoin::new(
            Box::new(cand),
            Box::new(multi_supp),
            vec![0],
            vec![0],
            JoinKind::LeftSemi,
        );
        let f_code = code_set(&db.orders, "o_orderstatus", "F");
        let ord_f = cfg.scan_where(
            &db.orders,
            &["o_orderkey", "o_orderstatus"],
            Some(Expr::col(1).in_set(f_code)),
            stats,
        );
        let ord_f = Project::new(Box::new(ord_f), vec![Expr::col(0)]);
        let cand =
            HashJoin::new(Box::new(cand), Box::new(ord_f), vec![0], vec![0], JoinKind::LeftSemi);

        // Saudi suppliers only; count waits per supplier.
        // cand: 0=orderkey 1=suppkey; join adds 2=s_suppkey 3=s_nationkey.
        let supp = cfg.scan_where(
            &db.supplier,
            &["s_suppkey", "s_nationkey"],
            Some(Expr::col(1).eq(Expr::lit_i64(saudi))),
            stats,
        );
        let joined =
            HashJoin::new(Box::new(cand), Box::new(supp), vec![1], vec![0], JoinKind::Inner);
        let agg = HashAggregate::new(Box::new(joined), vec![Expr::col(1)], vec![AggExpr::Count]);
        let mut plan = TopN::new(Box::new(agg), vec![SortKey::desc(1), SortKey::asc(0)], 100);
        let batch = scc_engine::ops::collect(&mut plan);
        (batch, scc_engine::ExplainNode::phases("Q21", vec![late_agg.explain(), plan.explain()]))
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
        let saudi = nation_key(db, "SAUDI ARABIA");
        let saudi_supp: HashSet<i64> = raw
            .supplier
            .suppkey
            .iter()
            .zip(raw.supplier.nationkey.iter())
            .filter(|(_, &n)| n == saudi)
            .map(|(&s, _)| s)
            .collect();
        let f_orders: HashSet<i64> = raw
            .orders
            .orderkey
            .iter()
            .zip(raw.orders.orderstatus.iter())
            .filter(|(_, s)| s.as_str() == "F")
            .map(|(&o, _)| o)
            .collect();
        let mut supps: HashMap<i64, HashSet<i64>> = HashMap::new();
        let mut late_supps: HashMap<i64, HashSet<i64>> = HashMap::new();
        for i in 0..raw.lineitem.orderkey.len() {
            let ok = raw.lineitem.orderkey[i];
            let sk = raw.lineitem.suppkey[i];
            supps.entry(ok).or_default().insert(sk);
            if raw.lineitem.receiptdate[i] > raw.lineitem.commitdate[i] {
                late_supps.entry(ok).or_default().insert(sk);
            }
        }
        let mut numwait: HashMap<i64, i64> = HashMap::new();
        for (ok, late) in &late_supps {
            if late.len() == 1 && supps[ok].len() >= 2 && f_orders.contains(ok) {
                let sk = *late.iter().next().unwrap();
                if saudi_supp.contains(&sk) {
                    *numwait.entry(sk).or_default() += 1;
                }
            }
        }
        let mut rows: Vec<(i64, i64)> = numwait.into_iter().collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        rows.truncate(100);
        assert!(!rows.is_empty(), "no waiting Saudi suppliers at this SF");
        assert_eq!(out.len(), rows.len());
        for (row, (k, c)) in rows.iter().enumerate() {
            assert_eq!(out.col(0).as_i64()[row], *k, "suppkey at {row}");
            assert_eq!(out.col(1).as_i64()[row], *c);
        }
    }

    #[test]
    fn invariant_under_storage_configs() {
        assert_config_invariant(21);
    }
}
