//! TPC-H Q10: returned item reporting — customers who returned goods in
//! a quarter, by lost revenue. Not part of the paper's Table 2 set;
//! included so the substrate covers more of the benchmark.

use crate::dates::date;
use crate::db::{run_query as timed, QueryConfig, QueryRun, TpchDb};
use crate::queries::code_set;
use scc_engine::Operator as _;
use scc_engine::{AggExpr, Expr, HashAggregate, HashJoin, JoinKind, Project, SortKey, TopN};

/// Columns scanned.
pub const COLUMNS: &[(&str, &[&str])] = &[
    ("customer", &["c_custkey", "c_nationkey", "c_acctbal"]),
    ("orders", &["o_orderkey", "o_custkey", "o_orderdate"]),
    ("lineitem", &["l_orderkey", "l_extendedprice", "l_discount", "l_returnflag"]),
];

/// Executes Q10. Output: c_custkey, revenue, c_acctbal, c_nationkey
/// (top 20 by revenue desc).
pub fn run(db: &TpchDb, cfg: &QueryConfig) -> QueryRun {
    timed(|stats| {
        // Orders of Q4/1993. 0=o_orderkey 1=o_custkey 2=o_orderdate.
        let (lo, hi) = (date(1993, 10, 1), date(1994, 1, 1));
        let ord = cfg.scan_where(
            &db.orders,
            &["o_orderkey", "o_custkey", "o_orderdate"],
            Some(Expr::col(2).ge(Expr::lit_i32(lo)).and(Expr::col(2).lt(Expr::lit_i32(hi)))),
            stats,
        );
        // Returned lineitems. 0=l_orderkey 1=l_extendedprice 2=l_discount
        // 3=l_returnflag.
        let returned = code_set(&db.lineitem, "l_returnflag", "R");
        let li = cfg.scan_where(
            &db.lineitem,
            &["l_orderkey", "l_extendedprice", "l_discount", "l_returnflag"],
            Some(Expr::col(3).in_set(returned)),
            stats,
        );
        // li ⋈ orders: 0..=3 li cols, 4=o_orderkey 5=o_custkey 6=o_orderdate.
        let li_ord = HashJoin::new(li, ord, vec![0], vec![0], JoinKind::Inner);
        // ⋈ customer: 7=c_custkey 8=c_nationkey 9=c_acctbal.
        let cust = cfg.scan(&db.customer, &["c_custkey", "c_nationkey", "c_acctbal"], stats);
        let all = HashJoin::new(li_ord, cust, vec![5], vec![0], JoinKind::Inner);
        let revenue = Expr::lit_i64(100)
            .sub(Expr::col(2))
            .to_f64()
            .mul(Expr::col(1).to_f64())
            .mul(Expr::lit_f64(0.01));
        let proj = Project::new(all, vec![Expr::col(7), revenue, Expr::col(9), Expr::col(8)]);
        let agg = HashAggregate::new(
            proj,
            vec![Expr::col(0), Expr::col(2), Expr::col(3)],
            vec![AggExpr::Sum(Expr::col(1))],
        );
        // Output: custkey, revenue, acctbal, nationkey.
        let reorder =
            Project::new(agg, vec![Expr::col(0), Expr::col(3), Expr::col(1), Expr::col(2)]);
        let mut plan = TopN::new(reorder, vec![SortKey::desc(1), SortKey::asc(0)], 20);
        let batch = scc_engine::ops::collect(&mut plan);
        (batch, plan.explain())
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
        let (lo, hi) = (date(1993, 10, 1), date(1994, 1, 1));
        let order_cust: HashMap<i64, i64> = (0..raw.orders.orderkey.len())
            .filter(|&i| raw.orders.orderdate[i] >= lo && raw.orders.orderdate[i] < hi)
            .map(|i| (raw.orders.orderkey[i], raw.orders.custkey[i]))
            .collect();
        let mut revenue: HashMap<i64, f64> = HashMap::new();
        for i in 0..raw.lineitem.orderkey.len() {
            if raw.lineitem.returnflag[i] != "R" {
                continue;
            }
            let Some(&ck) = order_cust.get(&raw.lineitem.orderkey[i]) else { continue };
            *revenue.entry(ck).or_default() += raw.lineitem.extendedprice[i] as f64
                * (100 - raw.lineitem.discount[i]) as f64
                / 100.0;
        }
        let mut rows: Vec<(i64, f64)> = revenue.into_iter().collect();
        rows.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
        rows.truncate(20);
        assert!(!rows.is_empty());
        assert_eq!(out.len(), rows.len());
        for (row, (ck, rev)) in rows.iter().enumerate() {
            assert_eq!(out.col(0).as_i64()[row], *ck, "custkey at {row}");
            assert!((out.col(1).as_f64()[row] - rev).abs() < 1.0);
        }
    }

    #[test]
    fn invariant_under_storage_configs() {
        assert_config_invariant(10);
    }
}
