//! TPC-H Q3: shipping priority. customer ⋈ orders ⋈ lineitem with a
//! revenue top-10.

use crate::dates::date;
use crate::db::{run_query as timed, QueryConfig, QueryRun, TpchDb};
use crate::queries::code_set;
use scc_engine::Operator as _;
use scc_engine::{AggExpr, Expr, HashAggregate, HashJoin, JoinKind, Project, SortKey, TopN};

/// Columns scanned.
pub const COLUMNS: &[(&str, &[&str])] = &[
    ("customer", &["c_custkey", "c_mktsegment"]),
    ("orders", &["o_orderkey", "o_custkey", "o_orderdate", "o_shippriority"]),
    ("lineitem", &["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"]),
];

/// Executes Q3. Output: l_orderkey, revenue, o_orderdate, o_shippriority
/// (top 10 by revenue desc, orderdate asc).
pub fn run(db: &TpchDb, cfg: &QueryConfig) -> QueryRun {
    timed(|stats| {
        let cut = date(1995, 3, 15);
        // Build side: BUILDING customers. 0=c_custkey 1=c_mktsegment.
        let building = code_set(&db.customer, "c_mktsegment", "BUILDING");
        let cust = cfg.scan_where(
            &db.customer,
            &["c_custkey", "c_mktsegment"],
            Some(Expr::col(1).in_set(building)),
            stats,
        );
        let cust = Project::new(Box::new(cust), vec![Expr::col(0)]);

        // Orders before the cutoff. 0=o_orderkey 1=o_custkey 2=o_orderdate
        // 3=o_shippriority.
        let ord = cfg.scan_where(
            &db.orders,
            &["o_orderkey", "o_custkey", "o_orderdate", "o_shippriority"],
            Some(Expr::col(2).lt(Expr::lit_i32(cut))),
            stats,
        );
        // After join: 0..=3 orders cols, 4 = c_custkey.
        let ord_cust =
            HashJoin::new(Box::new(ord), Box::new(cust), vec![1], vec![0], JoinKind::Inner);

        // Lineitems shipped after the cutoff. 0=l_orderkey
        // 1=l_extendedprice 2=l_discount 3=l_shipdate.
        let li = cfg.scan_where(
            &db.lineitem,
            &["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"],
            Some(Expr::col(3).gt(Expr::lit_i32(cut))),
            stats,
        );
        // After join: 0..=3 lineitem cols, 4=o_orderkey 5=o_custkey
        // 6=o_orderdate 7=o_shippriority 8=c_custkey.
        let joined =
            HashJoin::new(Box::new(li), Box::new(ord_cust), vec![0], vec![0], JoinKind::Inner);
        let revenue = Expr::lit_i64(100)
            .sub(Expr::col(2))
            .to_f64()
            .mul(Expr::col(1).to_f64())
            .mul(Expr::lit_f64(0.01));
        let proj =
            Project::new(Box::new(joined), vec![Expr::col(0), revenue, Expr::col(6), Expr::col(7)]);
        // Group by orderkey, orderdate, shippriority; sum revenue.
        let agg = HashAggregate::new(
            Box::new(proj),
            vec![Expr::col(0), Expr::col(2), Expr::col(3)],
            vec![AggExpr::Sum(Expr::col(1))],
        );
        // Output order: orderkey, revenue, orderdate, shippriority.
        let reorder = Project::new(
            Box::new(agg),
            vec![Expr::col(0), Expr::col(3), Expr::col(1), Expr::col(2)],
        );
        let mut plan = TopN::new(
            Box::new(reorder),
            vec![SortKey::desc(1), SortKey::asc(2), SortKey::asc(0)],
            10,
        );
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

        let cut = date(1995, 3, 15);
        let raw = &db.raw;
        let building: std::collections::HashSet<i64> = raw
            .customer
            .custkey
            .iter()
            .zip(&raw.customer.mktsegment)
            .filter(|(_, s)| s.as_str() == "BUILDING")
            .map(|(&k, _)| k)
            .collect();
        let mut order_info: HashMap<i64, (i32, i32)> = HashMap::new();
        for i in 0..raw.orders.orderkey.len() {
            if raw.orders.orderdate[i] < cut && building.contains(&raw.orders.custkey[i]) {
                order_info.insert(
                    raw.orders.orderkey[i],
                    (raw.orders.orderdate[i], raw.orders.shippriority[i]),
                );
            }
        }
        let mut rev: HashMap<i64, f64> = HashMap::new();
        for i in 0..raw.lineitem.orderkey.len() {
            if raw.lineitem.shipdate[i] > cut && order_info.contains_key(&raw.lineitem.orderkey[i])
            {
                *rev.entry(raw.lineitem.orderkey[i]).or_default() +=
                    raw.lineitem.extendedprice[i] as f64 * (100 - raw.lineitem.discount[i]) as f64
                        / 100.0;
            }
        }
        let mut rows: Vec<(i64, f64, i32, i32)> = rev
            .iter()
            .map(|(&ok, &r)| {
                let (d, p) = order_info[&ok];
                (ok, r, d, p)
            })
            .collect();
        rows.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.2.cmp(&b.2)).then(a.0.cmp(&b.0)));
        rows.truncate(10);
        assert!(!rows.is_empty(), "selectivity sanity");
        assert_eq!(out.len(), rows.len());
        for (row, expect) in rows.iter().enumerate() {
            assert_eq!(out.col(0).as_i64()[row], expect.0, "orderkey at {row}");
            assert!((out.col(1).as_f64()[row] - expect.1).abs() < 1.0);
            assert_eq!(out.col(2).as_i32()[row], expect.2);
        }
    }

    #[test]
    fn invariant_under_storage_configs() {
        assert_config_invariant(3);
    }
}
