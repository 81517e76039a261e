//! Property tests for the TPC-H generator: invariants must hold at any
//! (tiny) scale factor and seed.

use proptest::prelude::*;
use scc_tpch::dates::{date, ymd};
use scc_tpch::gen::generate;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    #[ignore = "~6 s in a debug build; CI's release stress job runs it (--include-ignored)"]
    fn generator_invariants(sf_scaled in 5u32..30, seed in any::<u64>()) {
        let sf = sf_scaled as f64 / 10_000.0; // 0.0005 .. 0.003
        let t = generate(sf, seed);

        // Row-count relations.
        let n_orders = t.orders.orderkey.len();
        let n_lines = t.lineitem.orderkey.len();
        prop_assert!(n_lines >= n_orders, "every order has >= 1 line");
        prop_assert!(n_lines <= 7 * n_orders);
        prop_assert_eq!(t.partsupp.partkey.len(), 4 * t.part.partkey.len());
        prop_assert_eq!(t.nation.name.len(), 25);
        prop_assert_eq!(t.region.name.len(), 5);

        // Key integrity.
        let nc = t.customer.custkey.len() as i64;
        prop_assert!(t.orders.custkey.iter().all(|&c| (1..=nc).contains(&c)));
        let np = t.part.partkey.len() as i64;
        prop_assert!(t.lineitem.partkey.iter().all(|&p| (1..=np).contains(&p)));
        let ns = t.supplier.suppkey.len() as i64;
        prop_assert!(t.lineitem.suppkey.iter().all(|&s| (1..=ns).contains(&s)));

        // Lineitems clustered by order key, line numbers restart at 1.
        prop_assert!(t.lineitem.orderkey.windows(2).all(|w| w[0] <= w[1]));
        for i in 0..n_lines {
            if i == 0 || t.lineitem.orderkey[i] != t.lineitem.orderkey[i - 1] {
                prop_assert_eq!(t.lineitem.linenumber[i], 1);
            }
        }

        // Date window and ordering.
        for i in 0..n_lines {
            let ship = t.lineitem.shipdate[i];
            let receipt = t.lineitem.receiptdate[i];
            prop_assert!(receipt > ship);
            let (y, _, _) = ymd(ship);
            prop_assert!((1992..=1998).contains(&y));
        }
        let last_order = date(1998, 8, 2) - 151;
        prop_assert!(t.orders.orderdate.iter().all(|&d| d >= 0 && d <= last_order));

        // Value domains.
        prop_assert!(t.lineitem.quantity.iter().all(|&q| (1..=50).contains(&q)));
        prop_assert!(t.lineitem.discount.iter().all(|&d| (0..=10).contains(&d)));
        prop_assert!(t.lineitem.tax.iter().all(|&x| (0..=8).contains(&x)));
        prop_assert!(t.lineitem.extendedprice.iter().all(|&p| p > 0));

        // Order status consistency with line status.
        for (o, status) in t.orders.orderkey.iter().zip(&t.orders.orderstatus) {
            let lines: Vec<&String> = t
                .lineitem
                .orderkey
                .iter()
                .zip(&t.lineitem.linestatus)
                .filter(|(ok, _)| *ok == o)
                .map(|(_, s)| s)
                .collect();
            if status == "F" {
                prop_assert!(lines.iter().all(|s| s.as_str() == "F"));
            }
        }
    }

    #[test]
    fn same_seed_same_data(seed in any::<u64>()) {
        let a = generate(0.001, seed);
        let b = generate(0.001, seed);
        prop_assert_eq!(a.lineitem.extendedprice, b.lineitem.extendedprice);
        prop_assert_eq!(a.orders.totalprice, b.orders.totalprice);
    }

    #[test]
    fn different_seeds_differ(seed in any::<u64>()) {
        let a = generate(0.001, seed);
        let b = generate(0.001, seed.wrapping_add(1));
        prop_assert_ne!(a.lineitem.shipdate, b.lineitem.shipdate);
    }
}
