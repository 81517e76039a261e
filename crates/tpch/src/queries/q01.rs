//! TPC-H Q1: pricing summary report. Scan-heavy aggregation over
//! lineitem — the paper's headline scan query.

use crate::dates::date;
use crate::db::{run_query as timed, QueryConfig, QueryRun, TpchDb};
use scc_engine::Operator as _;
use scc_engine::{AggExpr, Expr, HashAggregate, OrderBy, SortKey};

/// Columns scanned.
pub const COLUMNS: &[(&str, &[&str])] = &[(
    "lineitem",
    &[
        "l_returnflag",
        "l_linestatus",
        "l_quantity",
        "l_extendedprice",
        "l_discount",
        "l_tax",
        "l_shipdate",
    ],
)];

/// Executes Q1. Output columns: returnflag code, linestatus code,
/// sum_qty, sum_base_price, sum_disc_price, sum_charge, avg_qty,
/// avg_price, avg_disc, count_order.
pub fn run(db: &TpchDb, cfg: &QueryConfig) -> QueryRun {
    timed(|stats| {
        // Scan layout: 0=returnflag 1=linestatus 2=quantity 3=extprice
        // 4=discount 5=tax 6=shipdate.
        let cutoff = date(1998, 12, 1) - 90;
        let filtered = cfg.scan_where(
            &db.lineitem,
            &[
                "l_returnflag",
                "l_linestatus",
                "l_quantity",
                "l_extendedprice",
                "l_discount",
                "l_tax",
                "l_shipdate",
            ],
            Some(Expr::col(6).le(Expr::lit_i32(cutoff))),
            stats,
        );
        // disc_price = extprice * (100 - discount) / 100
        let disc_price = Expr::lit_i64(100)
            .sub(Expr::col(4))
            .to_f64()
            .mul(Expr::col(3).to_f64())
            .mul(Expr::lit_f64(0.01));
        // charge = disc_price * (100 + tax) / 100
        let charge = Expr::lit_i64(100)
            .sub(Expr::col(4))
            .to_f64()
            .mul(Expr::lit_i64(100).add(Expr::col(5)).to_f64())
            .mul(Expr::col(3).to_f64())
            .mul(Expr::lit_f64(0.0001));
        let mut plan = OrderBy::new(
            Box::new(HashAggregate::new(
                Box::new(filtered),
                vec![Expr::col(0), Expr::col(1)],
                vec![
                    AggExpr::Sum(Expr::col(2)),
                    AggExpr::Sum(Expr::col(3)),
                    AggExpr::Sum(disc_price),
                    AggExpr::Sum(charge),
                    AggExpr::Avg(Expr::col(2)),
                    AggExpr::Avg(Expr::col(3)),
                    AggExpr::Avg(Expr::col(4)),
                    AggExpr::Count,
                ],
            )),
            // Dictionary order == lexicographic order (dicts are sorted).
            vec![SortKey::asc(0), SortKey::asc(1)],
        );
        let batch = scc_engine::ops::collect(&mut plan);
        (batch, plan.explain())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queries::testkit::{assert_config_invariant, small_db};
    use std::collections::BTreeMap;

    #[test]
    fn matches_reference() {
        let db = small_db();
        let out = run(db, &QueryConfig::default()).batch;

        // Straight-Rust reference over the raw columns.
        let l = &db.raw.lineitem;
        let cutoff = date(1998, 12, 1) - 90;
        type Group = (i64, i64, f64, f64, i64); // sum_qty, sum_base, sum_disc, sum_charge, count
        let mut groups: BTreeMap<(String, String), Group> = BTreeMap::new();
        for i in 0..l.orderkey.len() {
            if l.shipdate[i] > cutoff {
                continue;
            }
            let g = groups.entry((l.returnflag[i].clone(), l.linestatus[i].clone())).or_default();
            g.0 += l.quantity[i];
            g.1 += l.extendedprice[i];
            let disc = l.extendedprice[i] as f64 * (100 - l.discount[i]) as f64 / 100.0;
            g.2 += disc;
            g.3 += disc * (100 + l.tax[i]) as f64 / 100.0;
            g.4 += 1;
        }
        assert_eq!(out.len(), groups.len());
        let rf_dict = &db.lineitem.str_col("l_returnflag").dict;
        let ls_dict = &db.lineitem.str_col("l_linestatus").dict;
        for (row, ((rf, ls), g)) in groups.iter().enumerate() {
            assert_eq!(&rf_dict[out.col(0).as_u32()[row] as usize], rf);
            assert_eq!(&ls_dict[out.col(1).as_u32()[row] as usize], ls);
            assert_eq!(out.col(2).as_i64()[row], g.0, "sum_qty for {rf}{ls}");
            assert_eq!(out.col(3).as_i64()[row], g.1);
            assert!((out.col(4).as_f64()[row] - g.2).abs() < 1.0);
            assert!((out.col(5).as_f64()[row] - g.3).abs() < 1.0);
            assert_eq!(out.col(9).as_i64()[row], g.4);
            // Averages consistent with sums.
            assert!((out.col(6).as_f64()[row] - g.0 as f64 / g.4 as f64).abs() < 1e-6);
        }
    }

    #[test]
    fn invariant_under_storage_configs() {
        assert_config_invariant(1);
    }

    /// Golden test for the explain tree: plan shape, labels and row
    /// counts are fully determined by the fixed small_db seed, so the
    /// structural rendering (no wall times) must be byte-stable.
    #[test]
    fn explain_tree_structure_is_stable() {
        let db = small_db();
        let run = run(db, &QueryConfig::default());
        let golden = "OrderBy(keys=2)  rows=3 vectors=1\n\
                      └─ HashAggregate(keys=2, aggs=8)  rows=3 vectors=1\n   \
                      └─ Select  rows=60306 vectors=59\n      \
                      └─ Scan(lineitem: l_returnflag, l_linestatus, l_quantity, \
                      l_extendedprice, l_discount, l_tax, l_shipdate)  rows=60306 vectors=59\n";
        assert_eq!(run.explain.render_structure(), golden);
    }
}
