//! Figure 1 as an end-to-end experiment — three storage designs scanning
//! the same column through the same query pipeline:
//!
//! 1. **uncompressed** — full-width I/O, no decompression;
//! 2. **Sybase-IQ style** (§2.1) — LZRW1-compressed pages, decompressed
//!    page-wise between I/O and RAM (the left side of Figure 1);
//! 3. **ColumnBM/X100** — PFOR segments decompressed vector-wise on the
//!    RAM-CPU cache boundary (the right side of Figure 1).
//!
//! Environment: `SCC_ROWS` (default 8 Mi).

use scc_bench::{env_usize, time_median};
use scc_engine::{AggExpr, Expr, HashAggregate, Operator, Select};
use scc_storage::disk::stats_handle;
use scc_storage::{
    Compression, DecompressionGranularity, Disk, Layout, Scan, ScanMode, ScanOptions, ScanSnapshot,
    TableBuilder,
};
use std::sync::Arc;

fn main() {
    let metrics = scc_bench::metrics::init();
    let rows = env_usize("SCC_ROWS", 8 * 1024 * 1024);
    // Warehouse-shaped column: clustered values, mild repetition.
    let values: Vec<i64> = (0..rows as i64).map(|i| 40_000 + (i * 37) % 2_000).collect();
    let designs: Vec<(&str, Compression, ScanMode, DecompressionGranularity)> = vec![
        (
            "uncompressed",
            Compression::None,
            ScanMode::Uncompressed,
            DecompressionGranularity::VectorWise,
        ),
        (
            "Sybase-IQ style (lzrw1 pages)",
            Compression::Lzrw1Pages,
            ScanMode::Compressed,
            DecompressionGranularity::PageWise,
        ),
        (
            "ColumnBM (PFOR vector-wise)",
            Compression::Auto,
            ScanMode::Compressed,
            DecompressionGranularity::VectorWise,
        ),
    ];
    println!("Figure 1 end to end: select v < 41000, sum(v) over {rows} rows");
    println!(
        "{:<30} {:>8} {:>10} {:>10} {:>10} {:>11}",
        "design", "ratio", "cpu ms", "io ms", "total ms", "RAM MB"
    );
    for (label, compression, mode, granularity) in designs {
        let table =
            TableBuilder::new("col").compression(compression).add_i64("v", values.clone()).build();
        let stats = stats_handle();
        let mut result = 0i64;
        // Every timed run does identical work, so draining the shared
        // handle at the end of each run leaves the last run's true
        // per-run counters — no averaging over an accumulated total.
        let mut per_run = ScanSnapshot::default();
        let cpu = time_median(3, || {
            let scan = Scan::new(
                Arc::clone(&table),
                &["v"],
                ScanOptions {
                    mode,
                    granularity,
                    vector_size: 1024,
                    disk: Disk::low_end(),
                    layout: Layout::Dsm,
                    ..Default::default()
                },
                Arc::clone(&stats),
                None,
            );
            let filtered = Select::new(scan, Expr::col(0).lt(Expr::lit_i64(41_000)));
            let mut agg = HashAggregate::new(filtered, vec![], vec![AggExpr::Sum(Expr::col(0))]);
            result = agg.next().expect("one group").col(0).as_i64()[0];
            per_run = stats.take();
        });
        let io = per_run.io_seconds();
        let total = cpu + (io - cpu).max(0.0);
        let ratio = table.plain_bytes() as f64 / table.compressed_bytes() as f64;
        println!(
            "{:<30} {:>8.2} {:>10.1} {:>10.1} {:>10.1} {:>11.1}",
            label,
            if matches!(mode, ScanMode::Uncompressed) { 1.0 } else { ratio },
            cpu * 1000.0,
            io * 1000.0,
            total * 1000.0,
            per_run.ram_traffic_bytes as f64 / (1024.0 * 1024.0),
        );
        std::hint::black_box(result);
    }
    println!("\npaper shape (Fig. 1 + §2.1): page-level LZRW1 cuts I/O but pays heavy");
    println!("CPU decompression and triple RAM traffic; PFOR vector-wise cuts I/O");
    println!("*more* (better ratio on integer columns) at a fraction of the CPU cost.");
    metrics.finish();
}
