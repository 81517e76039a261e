//! A tour of the ColumnBM-style storage manager: build a table, scan it
//! compressed and uncompressed, watch the buffer pool absorb re-scans,
//! and compare vector-wise with page-wise decompression.
//!
//! ```text
//! cargo run --release --example column_store
//! ```

use scc::engine::{Expr, Operator, Select};
use scc::storage::disk::stats_handle;
use scc::storage::{
    BufferPool, Compression, DecompressionGranularity, Disk, Layout, Scan, ScanMode, ScanOptions,
    TableBuilder,
};
use std::sync::{Arc, Mutex};

fn main() {
    // A sensor-log style table: timestamps (monotone), device ids (low
    // cardinality), readings (clustered), status strings.
    let n = 2_000_000usize;
    let table = TableBuilder::new("sensor_log")
        .compression(Compression::Auto)
        .add_i64("ts", (0..n as i64).map(|i| 1_700_000_000 + i * 3).collect())
        .add_u32("device", (0..n).map(|i| (i % 157) as u32).collect())
        .add_i32("reading", (0..n).map(|i| 400 + ((i * 2_654_435_761) % 97) as i32).collect())
        .add_str(
            "status",
            (0..n).map(|i| ["OK", "OK", "OK", "WARN", "FAIL"][i % 5].to_string()).collect(),
        )
        .build();
    println!(
        "table: {} rows, {:.1} MB plain -> {:.1} MB compressed ({:.2}x)",
        table.n_rows(),
        table.plain_bytes() as f64 / 1e6,
        table.compressed_bytes() as f64 / 1e6,
        table.ratio()
    );
    for (name, col) in table.columns() {
        println!("  {name:<8} {:>9} -> {:>9} bytes", col.plain_bytes(), col.compressed_bytes());
    }

    // Scan + filter through the engine: count FAIL rows.
    let fail = table.str_col("status").codes_matching(|s| s == "FAIL");
    let stats = stats_handle();
    let scan = Scan::new(
        Arc::clone(&table),
        &["ts", "status"],
        ScanOptions { disk: Disk::low_end(), ..Default::default() },
        Arc::clone(&stats),
        None,
    );
    let mut filtered = Select::new(scan, Expr::col(1).in_set(fail));
    let mut fails = 0usize;
    while let Some(batch) = filtered.next() {
        fails += batch.len();
    }
    println!(
        "\nFAIL rows: {fails} — scan read {:.2} MB compressed, modeled {:.1} ms of I/O",
        stats.snapshot().io_bytes as f64 / 1e6,
        stats.snapshot().io_seconds() * 1000.0
    );

    // Buffer pool: the compressed cache holds the whole table; a second
    // scan does no I/O at all.
    let pool = Arc::new(Mutex::new(BufferPool::new(table.compressed_bytes() + 1024)));
    for pass in 1..=2 {
        let stats = stats_handle();
        let mut scan = Scan::new(
            Arc::clone(&table),
            &["reading"],
            ScanOptions { disk: Disk::low_end(), ..Default::default() },
            Arc::clone(&stats),
            Some(Arc::clone(&pool)),
        );
        while scan.next().is_some() {}
        println!(
            "pass {pass}: {} pool hits, {} misses, {:.2} MB charged to disk",
            stats.snapshot().pool_hits,
            stats.snapshot().pool_misses,
            stats.snapshot().io_bytes as f64 / 1e6
        );
    }

    // Page-wise vs vector-wise RAM traffic on the same scan.
    for (label, granularity) in [
        ("vector-wise (RAM-CPU cache)", DecompressionGranularity::VectorWise),
        ("page-wise  (I/O-RAM)", DecompressionGranularity::PageWise),
    ] {
        let stats = stats_handle();
        let mut scan = Scan::new(
            Arc::clone(&table),
            &["ts", "reading"],
            ScanOptions {
                mode: ScanMode::Compressed,
                granularity,
                vector_size: 1024,
                disk: Disk::middle_end(),
                layout: Layout::Dsm,
                ..Default::default()
            },
            Arc::clone(&stats),
            None,
        );
        while scan.next().is_some() {}
        println!(
            "{label}: {:.1} MB of RAM traffic",
            stats.snapshot().ram_traffic_bytes as f64 / 1e6
        );
    }
}
