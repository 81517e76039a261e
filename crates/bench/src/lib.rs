//! Experiment harness shared by the per-table/per-figure binaries.
//!
//! Every binary under `src/bin/exp_*.rs` regenerates one table or figure
//! of the paper (see DESIGN.md §3 for the index). Binaries print
//! fixed-width text tables shaped like the paper's, plus the paper's
//! published values where applicable so shapes can be compared at a
//! glance.

#![warn(missing_docs)]

use scc_core::{analyze, compress_with_plan, AnalyzeOpts, Plan};
use std::time::Instant;

pub mod data;
pub mod metrics;

/// Median-of-`runs` wall time for `f`, in seconds. `f` must do the same
/// work every call.
pub fn time_median(runs: usize, mut f: impl FnMut()) -> f64 {
    assert!(runs >= 1);
    let mut times = Vec::with_capacity(runs);
    for _ in 0..runs {
        let t0 = Instant::now();
        f();
        times.push(t0.elapsed().as_secs_f64());
    }
    times.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    times[times.len() / 2]
}

/// Bytes-per-second over a measured time, in MB/s (2^20).
pub fn mb_per_sec(bytes: usize, seconds: f64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0) / seconds
}

/// Bytes-per-second over a measured time, in GB/s (2^30).
pub fn gb_per_sec(bytes: usize, seconds: f64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0 * 1024.0) / seconds
}

/// Reads an f64 experiment parameter from the environment, with default.
pub fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Reads a usize experiment parameter from the environment, with default.
pub fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// `exp_ablation_schemes`' table rows for TPC-H at scale factor `sf`:
/// per scannable lineitem and orders column, the analyzer's choice, its
/// estimated and realized bits/value, and the cheapest estimate of each
/// scheme family.
pub fn ablation_schemes_rows(sf: f64) -> Vec<String> {
    let raw = scc_tpch::generate(sf, 0xAB1A);
    let widen = |v: &[i32]| v.iter().map(|&d| d as i64).collect::<Vec<_>>();
    let (l, o) = (&raw.lineitem, &raw.orders);
    [
        ("l_orderkey", l.orderkey.clone()),
        ("l_partkey", l.partkey.clone()),
        ("l_suppkey", l.suppkey.clone()),
        ("l_quantity", l.quantity.clone()),
        ("l_extendedprice", l.extendedprice.clone()),
        ("l_discount", l.discount.clone()),
        ("l_tax", l.tax.clone()),
        ("l_shipdate", widen(&l.shipdate)),
        ("l_linenumber", widen(&l.linenumber)),
        ("o_orderkey", o.orderkey.clone()),
        ("o_custkey", o.custkey.clone()),
        ("o_totalprice", o.totalprice.clone()),
        ("o_orderdate", widen(&o.orderdate)),
    ]
    .iter()
    .map(|(name, values)| scheme_choice_row(name, values))
    .collect()
}

fn scheme_choice_row(name: &str, values: &[i64]) -> String {
    let analysis = analyze(values, &AnalyzeOpts::default());
    let Some(best) = analysis.best() else {
        return format!("{name:<18} (empty)");
    };
    let seg = compress_with_plan(values, &best.plan);
    assert_eq!(seg.decompress(), values);
    // The best candidate per scheme family, for comparison.
    let family_best = |f: fn(&Plan<i64>) -> bool| {
        analysis
            .candidates
            .iter()
            .filter(|c| f(&c.plan))
            .map(|c| c.est_bits_per_value)
            .fold(f64::INFINITY, f64::min)
    };
    format!(
        "{:<18} {:<10} b={:<2} {:>7.2} real {:>6.2} | PFOR {:>6.2} DELTA {:>6.2} PDICT {:>6.2}",
        name,
        best.plan.name(),
        best.plan.bit_width(),
        best.est_bits_per_value,
        seg.stats().bits_per_value,
        family_best(|p| matches!(p, Plan::Pfor { .. })),
        family_best(|p| matches!(p, Plan::PforDelta { .. })),
        family_best(|p| matches!(p, Plan::Pdict { .. })),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_timing_is_positive() {
        let t = time_median(3, || {
            std::hint::black_box((0..10_000u64).sum::<u64>());
        });
        assert!(t > 0.0);
    }

    #[test]
    fn ablation_schemes_rows_match_the_captured_table() {
        let captured = include_str!("../../../results/exp_ablation_schemes.txt");
        let want: Vec<&str> =
            captured.lines().filter(|l| l.starts_with("l_") || l.starts_with("o_")).collect();
        assert_eq!(ablation_schemes_rows(0.02), want);
    }

    #[test]
    fn bandwidth_units() {
        assert!((mb_per_sec(1024 * 1024, 1.0) - 1.0).abs() < 1e-12);
        assert!((gb_per_sec(1 << 30, 2.0) - 0.5).abs() < 1e-12);
    }
}
