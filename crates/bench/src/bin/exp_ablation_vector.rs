//! Ablation — the vector-size design choice (§2.3: "the vector size is
//! typically a few hundreds of tuples").
//!
//! Sweeps the tuples-per-vector knob on a scan+filter+aggregate pipeline:
//! tiny vectors pay per-call overhead (the Volcano regime), huge vectors
//! spill the working set out of cache (the page-wise regime); the paper's
//! few-hundred-to-1K sweet spot sits between.
//!
//! Environment: `SCC_ROWS` (default 8 Mi).

use scc_bench::{env_usize, gb_per_sec, time_median};
use scc_engine::{AggExpr, Expr, HashAggregate, Operator, Select};
use scc_storage::disk::stats_handle;
use scc_storage::{Compression, Disk, Layout, Scan, ScanMode, ScanOptions, TableBuilder};
use std::sync::Arc;

fn main() {
    let metrics = scc_bench::metrics::init();
    let rows = env_usize("SCC_ROWS", 8 * 1024 * 1024);
    let table = TableBuilder::new("t")
        .compression(Compression::Auto)
        .add_i64("v", (0..rows as i64).map(|i| (i * 37) % 2000).collect())
        .add_i64("w", (0..rows as i64).map(|i| (i * 13) % 500).collect())
        .build();
    println!("vector-size ablation: select v < 1000, sum(w) over {rows} rows");
    println!("{:>8} {:>12} {:>14}", "vector", "GB/s", "vs 1024");
    let mut at_1024 = 0.0f64;
    let mut results = Vec::new();
    for vs in [128usize, 256, 512, 1024, 2048, 4096, 16_384, 65_536] {
        let t = time_median(3, || {
            let scan = Scan::new(
                Arc::clone(&table),
                &["v", "w"],
                ScanOptions {
                    mode: ScanMode::Compressed,
                    vector_size: vs,
                    disk: Disk::middle_end(),
                    layout: Layout::Dsm,
                    ..Default::default()
                },
                stats_handle(),
                None,
            );
            let filtered = Select::new(scan, Expr::col(0).lt(Expr::lit_i64(1000)));
            let mut agg = HashAggregate::new(filtered, vec![], vec![AggExpr::Sum(Expr::col(1))]);
            std::hint::black_box(agg.next());
        });
        let bw = gb_per_sec(rows * 16, t);
        if vs == 1024 {
            at_1024 = bw;
        }
        results.push((vs, bw));
    }
    for (vs, bw) in results {
        println!("{:>8} {:>12.2} {:>13.2}x", vs, bw, bw / at_1024);
    }
    println!("\nexpected shape: throughput rises steeply from 128 to ~1K tuples (per-");
    println!("vector overheads amortize), then flattens or dips as the per-vector");
    println!("working set outgrows the cache.");
    metrics.finish();
}
