//! Experiment harness shared by the per-table/per-figure binaries.
//!
//! Every binary under `src/bin/exp_*.rs` regenerates one table or figure
//! of the paper (see DESIGN.md §3 for the index). Binaries print
//! fixed-width text tables shaped like the paper's, plus the paper's
//! published values where applicable so shapes can be compared at a
//! glance.

#![warn(missing_docs)]

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
    fn bandwidth_units() {
        assert!((mb_per_sec(1024 * 1024, 1.0) - 1.0).abs() < 1e-12);
        assert!((gb_per_sec(1 << 30, 2.0) - 0.5).abs() < 1e-12);
    }
}
