//! TPC-H Q7: volume shipping between two nations, grouped by year.

use crate::dates::date;
use crate::db::{run_query as timed, QueryConfig, QueryRun, TpchDb};
use crate::queries::nation_key;
use scc_engine::Operator as _;
use scc_engine::{
    AggExpr, Expr, HashAggregate, HashJoin, JoinKind, OrderBy, Project, Select, SortKey,
};
use std::collections::HashSet;

/// Columns scanned.
pub const COLUMNS: &[(&str, &[&str])] = &[
    ("supplier", &["s_suppkey", "s_nationkey"]),
    ("customer", &["c_custkey", "c_nationkey"]),
    ("orders", &["o_orderkey", "o_custkey"]),
    ("lineitem", &["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount", "l_shipdate"]),
];

/// Executes Q7. Output: supp_nationkey, cust_nationkey, year index
/// (0 = 1995, 1 = 1996), volume; ordered by the three keys.
pub fn run(db: &TpchDb, cfg: &QueryConfig) -> QueryRun {
    timed(|stats| {
        let fr = nation_key(db, "FRANCE");
        let de = nation_key(db, "GERMANY");
        let pair: HashSet<u64> = [fr as u64, de as u64].into_iter().collect();

        // Suppliers in FRANCE/GERMANY. 0=s_suppkey 1=s_nationkey.
        let supp = cfg.scan_where(
            &db.supplier,
            &["s_suppkey", "s_nationkey"],
            Some(Expr::col(1).in_set(pair.clone())),
            stats,
        );

        // Customers in FRANCE/GERMANY joined through orders.
        // 0=o_orderkey 1=o_custkey then 2=c_custkey 3=c_nationkey.
        let cust = cfg.scan_where(
            &db.customer,
            &["c_custkey", "c_nationkey"],
            Some(Expr::col(1).in_set(pair)),
            stats,
        );
        let ord = cfg.scan(&db.orders, &["o_orderkey", "o_custkey"], stats);
        let ord_cust =
            HashJoin::new(Box::new(ord), Box::new(cust), vec![1], vec![0], JoinKind::Inner);

        // Lineitems shipped 1995-1996. 0=l_orderkey 1=l_suppkey
        // 2=l_extendedprice 3=l_discount 4=l_shipdate; join suppliers:
        // 5=s_suppkey 6=s_nationkey; join orders: 7=o_orderkey 8=o_custkey
        // 9=c_custkey 10=c_nationkey.
        let (lo, hi) = (date(1995, 1, 1), date(1996, 12, 31));
        let li = cfg.scan_where(
            &db.lineitem,
            &["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount", "l_shipdate"],
            Some(Expr::col(4).ge(Expr::lit_i32(lo)).and(Expr::col(4).le(Expr::lit_i32(hi)))),
            stats,
        );
        let li_supp =
            HashJoin::new(Box::new(li), Box::new(supp), vec![1], vec![0], JoinKind::Inner);
        let all =
            HashJoin::new(Box::new(li_supp), Box::new(ord_cust), vec![0], vec![0], JoinKind::Inner);
        // Opposite-nation pairs only: (FR->DE) or (DE->FR).
        let cross = Select::new(all, Expr::col(6).ne(Expr::col(10)));
        let volume = Expr::lit_i64(100)
            .sub(Expr::col(3))
            .to_f64()
            .mul(Expr::col(2).to_f64())
            .mul(Expr::lit_f64(0.01));
        // Year index: 0 for 1995, 1 for 1996.
        let year = Expr::col(4).bucket_i32(vec![date(1996, 1, 1)]);
        let proj = Project::new(Box::new(cross), vec![Expr::col(6), Expr::col(10), year, volume]);
        let agg = HashAggregate::new(
            Box::new(proj),
            vec![Expr::col(0), Expr::col(1), Expr::col(2)],
            vec![AggExpr::Sum(Expr::col(3))],
        );
        let mut plan =
            OrderBy::new(Box::new(agg), vec![SortKey::asc(0), SortKey::asc(1), SortKey::asc(2)]);
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
        let fr = nation_key(db, "FRANCE");
        let de = nation_key(db, "GERMANY");
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
        let order_cust: HashMap<i64, i64> = raw
            .orders
            .orderkey
            .iter()
            .zip(raw.orders.custkey.iter())
            .map(|(&o, &c)| (o, c))
            .collect();
        let (lo, hi) = (date(1995, 1, 1), date(1996, 12, 31));
        let mut groups: BTreeMap<(i64, i64, i32), f64> = BTreeMap::new();
        for i in 0..raw.lineitem.orderkey.len() {
            let ship = raw.lineitem.shipdate[i];
            if ship < lo || ship > hi {
                continue;
            }
            let sn = supp_nation[&raw.lineitem.suppkey[i]];
            let cn = cust_nation[&order_cust[&raw.lineitem.orderkey[i]]];
            let valid = (sn == fr && cn == de) || (sn == de && cn == fr);
            if !valid {
                continue;
            }
            let year = i32::from(ship >= date(1996, 1, 1));
            *groups.entry((sn, cn, year)).or_default() += raw.lineitem.extendedprice[i] as f64
                * (100 - raw.lineitem.discount[i]) as f64
                / 100.0;
        }
        assert!(!groups.is_empty());
        assert_eq!(out.len(), groups.len());
        for (row, ((sn, cn, y), vol)) in groups.iter().enumerate() {
            assert_eq!(out.col(0).as_i64()[row], *sn);
            assert_eq!(out.col(1).as_i64()[row], *cn);
            assert_eq!(out.col(2).as_i32()[row], *y);
            assert!((out.col(3).as_f64()[row] - vol).abs() < 1.0);
        }
    }

    #[test]
    fn invariant_under_storage_configs() {
        assert_config_invariant(7);
    }
}
