//! TPC-H Q6: forecasting revenue change. Pure scan-select-aggregate; the
//! most selective of the paper's scan queries.

use crate::dates::date;
use crate::db::{run_query as timed, QueryConfig, QueryRun, TpchDb};
use scc_engine::Operator as _;
use scc_engine::{AggExpr, Expr, HashAggregate};

/// Columns scanned.
pub const COLUMNS: &[(&str, &[&str])] =
    &[("lineitem", &["l_shipdate", "l_discount", "l_quantity", "l_extendedprice"])];

/// Executes Q6. Output: a single revenue value (f64, cents).
pub fn run(db: &TpchDb, cfg: &QueryConfig) -> QueryRun {
    timed(|stats| {
        // 0=shipdate 1=discount 2=quantity 3=extendedprice.
        let lo = date(1994, 1, 1);
        let hi = date(1995, 1, 1);
        // discount between 0.05 and 0.07 => integer percent 5..=7.
        let pred = Expr::col(0)
            .ge(Expr::lit_i32(lo))
            .and(Expr::col(0).lt(Expr::lit_i32(hi)))
            .and(Expr::col(1).ge(Expr::lit_i64(5)))
            .and(Expr::col(1).le(Expr::lit_i64(7)))
            .and(Expr::col(2).lt(Expr::lit_i64(24)));
        let filtered = cfg.scan_where(
            &db.lineitem,
            &["l_shipdate", "l_discount", "l_quantity", "l_extendedprice"],
            Some(pred),
            stats,
        );
        let revenue = Expr::col(3).to_f64().mul(Expr::col(1).to_f64()).mul(Expr::lit_f64(0.01));
        let mut plan = HashAggregate::new(Box::new(filtered), vec![], vec![AggExpr::Sum(revenue)]);
        let batch = scc_engine::ops::collect(&mut plan);
        (batch, plan.explain())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queries::testkit::{assert_config_invariant, small_db};

    #[test]
    fn matches_reference() {
        let db = small_db();
        let out = run(db, &QueryConfig::default()).batch;
        let l = &db.raw.lineitem;
        let (lo, hi) = (date(1994, 1, 1), date(1995, 1, 1));
        let mut expect = 0.0f64;
        let mut rows = 0usize;
        for i in 0..l.orderkey.len() {
            if l.shipdate[i] >= lo
                && l.shipdate[i] < hi
                && (5..=7).contains(&l.discount[i])
                && l.quantity[i] < 24
            {
                expect += l.extendedprice[i] as f64 * l.discount[i] as f64 / 100.0;
                rows += 1;
            }
        }
        assert!(rows > 0, "selectivity sanity");
        assert_eq!(out.len(), 1);
        assert!((out.col(0).as_f64()[0] - expect).abs() < 1.0);
    }

    #[test]
    fn invariant_under_storage_configs() {
        assert_config_invariant(6);
    }
}
