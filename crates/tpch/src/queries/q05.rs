//! TPC-H Q5: local supplier volume. A five-way join with the
//! customer-and-supplier-in-the-same-nation condition.

use crate::dates::date;
use crate::db::{run_query as timed, QueryConfig, QueryRun, TpchDb};
use crate::queries::code_set;
use scc_engine::Operator as _;
use scc_engine::{
    AggExpr, Expr, HashAggregate, HashJoin, JoinKind, OrderBy, Project, Select, SortKey,
};

/// Columns scanned.
pub const COLUMNS: &[(&str, &[&str])] = &[
    ("region", &["r_regionkey", "r_name"]),
    ("nation", &["n_nationkey", "n_name", "n_regionkey"]),
    ("supplier", &["s_suppkey", "s_nationkey"]),
    ("customer", &["c_custkey", "c_nationkey"]),
    ("orders", &["o_orderkey", "o_custkey", "o_orderdate"]),
    ("lineitem", &["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"]),
];

/// Executes Q5. Output: n_name code, revenue (desc).
pub fn run(db: &TpchDb, cfg: &QueryConfig) -> QueryRun {
    timed(|stats| {
        // ASIA nations. 0=n_nationkey 1=n_name 2=n_regionkey, then join
        // region: 3=r_regionkey 4=r_name.
        let region = cfg.scan(&db.region, &["r_regionkey", "r_name"], stats);
        let asia = code_set(&db.region, "r_name", "ASIA");
        let region = Select::new(region, Expr::col(1).in_set(asia));
        let nation = cfg.scan(&db.nation, &["n_nationkey", "n_name", "n_regionkey"], stats);
        let nation =
            HashJoin::new(Box::new(nation), Box::new(region), vec![2], vec![0], JoinKind::Inner);
        let nation = Project::new(Box::new(nation), vec![Expr::col(0), Expr::col(1)]);

        // Suppliers in those nations. 0=s_suppkey 1=s_nationkey then
        // 2=n_nationkey 3=n_name.
        let supp = cfg.scan(&db.supplier, &["s_suppkey", "s_nationkey"], stats);
        let supp =
            HashJoin::new(Box::new(supp), Box::new(nation), vec![1], vec![0], JoinKind::Inner);

        // Orders in 1994 joined to their customers. 0=o_orderkey
        // 1=o_custkey 2=o_orderdate then 3=c_custkey 4=c_nationkey.
        let (lo, hi) = (date(1994, 1, 1), date(1995, 1, 1));
        let ord = cfg.scan_where(
            &db.orders,
            &["o_orderkey", "o_custkey", "o_orderdate"],
            Some(Expr::col(2).ge(Expr::lit_i32(lo)).and(Expr::col(2).lt(Expr::lit_i32(hi)))),
            stats,
        );
        let cust = cfg.scan(&db.customer, &["c_custkey", "c_nationkey"], stats);
        let ord_cust =
            HashJoin::new(Box::new(ord), Box::new(cust), vec![1], vec![0], JoinKind::Inner);

        // Lineitem probe: 0=l_orderkey 1=l_suppkey 2=l_extendedprice
        // 3=l_discount; join suppliers: 4=s_suppkey 5=s_nationkey
        // 6=n_nationkey 7=n_name; join orders: 8=o_orderkey 9=o_custkey
        // 10=o_orderdate 11=c_custkey 12=c_nationkey.
        let li = cfg.scan(
            &db.lineitem,
            &["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"],
            stats,
        );
        let li_supp =
            HashJoin::new(Box::new(li), Box::new(supp), vec![1], vec![0], JoinKind::Inner);
        let all =
            HashJoin::new(Box::new(li_supp), Box::new(ord_cust), vec![0], vec![0], JoinKind::Inner);
        // The local-supplier condition: customer and supplier share the
        // nation.
        let local = Select::new(all, Expr::col(12).eq(Expr::col(5)));
        let revenue = Expr::lit_i64(100)
            .sub(Expr::col(3))
            .to_f64()
            .mul(Expr::col(2).to_f64())
            .mul(Expr::lit_f64(0.01));
        let proj = Project::new(Box::new(local), vec![Expr::col(7), revenue]);
        let agg = HashAggregate::new(
            Box::new(proj),
            vec![Expr::col(0)],
            vec![AggExpr::Sum(Expr::col(1))],
        );
        let mut plan = OrderBy::new(Box::new(agg), vec![SortKey::desc(1)]);
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
        // ASIA = region 2; nations in it.
        let asia_nations: HashMap<i64, String> = raw
            .nation
            .nationkey
            .iter()
            .zip(raw.nation.name.iter())
            .zip(raw.nation.regionkey.iter())
            .filter(|(_, &r)| r == 2)
            .map(|((&k, n), _)| (k, n.clone()))
            .collect();
        let supp_nation: HashMap<i64, i64> = raw
            .supplier
            .suppkey
            .iter()
            .zip(raw.supplier.nationkey.iter())
            .map(|(&s, &n)| (s, n))
            .collect();
        let cust_nation: HashMap<i64, i64> = raw
            .customer
            .custkey
            .iter()
            .zip(raw.customer.nationkey.iter())
            .map(|(&c, &n)| (c, n))
            .collect();
        let (lo, hi) = (date(1994, 1, 1), date(1995, 1, 1));
        let order_cust: HashMap<i64, i64> = (0..raw.orders.orderkey.len())
            .filter(|&i| raw.orders.orderdate[i] >= lo && raw.orders.orderdate[i] < hi)
            .map(|i| (raw.orders.orderkey[i], raw.orders.custkey[i]))
            .collect();
        let mut revenue: HashMap<String, f64> = HashMap::new();
        for i in 0..raw.lineitem.orderkey.len() {
            let Some(&ck) = order_cust.get(&raw.lineitem.orderkey[i]) else { continue };
            let sn = supp_nation[&raw.lineitem.suppkey[i]];
            if cust_nation[&ck] != sn {
                continue;
            }
            let Some(nname) = asia_nations.get(&sn) else { continue };
            *revenue.entry(nname.clone()).or_default() += raw.lineitem.extendedprice[i] as f64
                * (100 - raw.lineitem.discount[i]) as f64
                / 100.0;
        }
        let mut rows: Vec<(String, f64)> = revenue.into_iter().collect();
        rows.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
        assert_eq!(out.len(), rows.len());
        let dict = &db.nation.str_col("n_name").dict;
        for (row, (name, rev)) in rows.iter().enumerate() {
            assert_eq!(&dict[out.col(0).as_u32()[row] as usize], name, "row {row}");
            assert!((out.col(1).as_f64()[row] - rev).abs() < 1.0);
        }
    }

    #[test]
    fn invariant_under_storage_configs() {
        assert_config_invariant(5);
    }
}
