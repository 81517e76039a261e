//! TPC-H Q12: shipping modes and order priority — conditional counting
//! via the branch-free `Cond` primitive. Not part of the paper's Table 2
//! set; included for substrate coverage.

use crate::dates::date;
use crate::db::{run_query as timed, QueryConfig, QueryRun, TpchDb};
use scc_engine::Operator as _;
use scc_engine::{AggExpr, Expr, HashAggregate, HashJoin, JoinKind, OrderBy, Project, SortKey};
use std::collections::HashSet;

/// Columns scanned.
pub const COLUMNS: &[(&str, &[&str])] = &[
    ("lineitem", &["l_orderkey", "l_shipmode", "l_shipdate", "l_commitdate", "l_receiptdate"]),
    ("orders", &["o_orderkey", "o_orderpriority"]),
];

/// Executes Q12. Output: l_shipmode code, high_line_count,
/// low_line_count (ordered by shipmode).
pub fn run(db: &TpchDb, cfg: &QueryConfig) -> QueryRun {
    timed(|stats| {
        // Lineitems received in 1994 by MAIL or SHIP, with the
        // late-commit chain ship < commit < receipt.
        let (lo, hi) = (date(1994, 1, 1), date(1995, 1, 1));
        let modes: HashSet<u64> = ["MAIL", "SHIP"]
            .iter()
            .filter_map(|m| db.lineitem.str_col("l_shipmode").code_of(m))
            .map(|c| c as u64)
            .collect();
        // 0=l_orderkey 1=l_shipmode 2=l_shipdate 3=l_commitdate
        // 4=l_receiptdate.
        let li = cfg.scan_where(
            &db.lineitem,
            &["l_orderkey", "l_shipmode", "l_shipdate", "l_commitdate", "l_receiptdate"],
            Some(
                Expr::col(1)
                    .in_set(modes)
                    .and(Expr::col(3).lt(Expr::col(4)))
                    .and(Expr::col(2).lt(Expr::col(3)))
                    .and(Expr::col(4).ge(Expr::lit_i32(lo)))
                    .and(Expr::col(4).lt(Expr::lit_i32(hi))),
            ),
            stats,
        );
        // ⋈ orders: 5=o_orderkey 6=o_orderpriority.
        let ord = cfg.scan(&db.orders, &["o_orderkey", "o_orderpriority"], stats);
        let joined = HashJoin::new(li, ord, vec![0], vec![0], JoinKind::Inner);
        // High priority = 1-URGENT or 2-HIGH (branch-free conditional
        // counting, the paper's predication idiom).
        let high: HashSet<u64> = ["1-URGENT", "2-HIGH"]
            .iter()
            .filter_map(|p| db.orders.str_col("o_orderpriority").code_of(p))
            .map(|c| c as u64)
            .collect();
        let is_high = Expr::col(6).in_set(high);
        let high_ind = is_high.clone().cond(Expr::lit_i64(1), Expr::lit_i64(0));
        let low_ind = is_high.cond(Expr::lit_i64(0), Expr::lit_i64(1));
        let proj = Project::new(joined, vec![Expr::col(1), high_ind, low_ind]);
        let agg = HashAggregate::new(
            proj,
            vec![Expr::col(0)],
            vec![AggExpr::Sum(Expr::col(1)), AggExpr::Sum(Expr::col(2))],
        );
        let mut plan = OrderBy::new(agg, vec![SortKey::asc(0)]);
        let batch = scc_engine::ops::collect(&mut plan);
        (batch, plan.explain())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queries::testkit::{assert_config_invariant, small_db};
    use std::collections::{BTreeMap, HashMap};

    #[test]
    fn matches_reference() {
        let db = small_db();
        let out = run(db, &QueryConfig::default()).batch;

        let raw = &db.raw;
        let prio: HashMap<i64, &String> = raw
            .orders
            .orderkey
            .iter()
            .zip(raw.orders.orderpriority.iter())
            .map(|(&o, p)| (o, p))
            .collect();
        let (lo, hi) = (date(1994, 1, 1), date(1995, 1, 1));
        let mut groups: BTreeMap<String, (i64, i64)> = BTreeMap::new();
        for i in 0..raw.lineitem.orderkey.len() {
            let mode = &raw.lineitem.shipmode[i];
            if mode != "MAIL" && mode != "SHIP" {
                continue;
            }
            if !(raw.lineitem.shipdate[i] < raw.lineitem.commitdate[i]
                && raw.lineitem.commitdate[i] < raw.lineitem.receiptdate[i]
                && raw.lineitem.receiptdate[i] >= lo
                && raw.lineitem.receiptdate[i] < hi)
            {
                continue;
            }
            let p = prio[&raw.lineitem.orderkey[i]];
            let e = groups.entry(mode.clone()).or_default();
            if p == "1-URGENT" || p == "2-HIGH" {
                e.0 += 1;
            } else {
                e.1 += 1;
            }
        }
        assert!(!groups.is_empty());
        assert_eq!(out.len(), groups.len());
        let dict = &db.lineitem.str_col("l_shipmode").dict;
        for (row, (mode, (h, l))) in groups.iter().enumerate() {
            assert_eq!(&dict[out.col(0).as_u32()[row] as usize], mode);
            assert_eq!(out.col(1).as_i64()[row], *h);
            assert_eq!(out.col(2).as_i64()[row], *l);
        }
    }

    #[test]
    fn invariant_under_storage_configs() {
        assert_config_invariant(12);
    }
}
