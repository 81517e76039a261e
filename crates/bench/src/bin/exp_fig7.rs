//! Figure 7 — I/O-RAM (page-wise) vs RAM-CPU cache (vector-wise) PFOR
//! decompression, as a function of the exception rate.
//!
//! Page-wise decompresses each 64 Ki-row segment into a RAM page and then
//! copies vectors out of it — three trips through the cache hierarchy;
//! vector-wise decodes 1024 values at a time straight into a
//! cache-resident vector. L2-miss counters are unavailable here
//! (DESIGN.md §4, substitution 4); the RAM-traffic column reports the
//! byte movement that causes those misses.
//!
//! Environment: `SCC_ROWS` rows in the test column (default 8 Mi).

use scc_bench::{env_usize, gb_per_sec, time_median};
use scc_engine::ops::collect;
use scc_engine::Operator;
use scc_storage::disk::stats_handle;
use scc_storage::{
    Compression, DecompressionGranularity, Disk, Layout, Scan, ScanMode, ScanOptions, TableBuilder,
};
use std::sync::Arc;

fn main() {
    let metrics = scc_bench::metrics::init();
    let rows = env_usize("SCC_ROWS", 8 * 1024 * 1024);
    println!("Figure 7: page-wise (I/O-RAM) vs vector-wise (RAM-CPU cache) decompression");
    println!("{rows} rows of i64, b=8 PFOR codes, exception rate swept");
    println!(
        "{:>6} {:>14} {:>14} {:>10} {:>12} {:>12}",
        "E", "page GB/s", "vector GB/s", "vec/page", "pageRAM MB", "vecRAM MB"
    );
    for pct in [0, 5, 10, 20, 30, 50, 75, 100] {
        let rate = pct as f64 / 100.0;
        let values64 = scc_bench::data::with_exception_rate(rows, rate, 8, 0xF17 + pct as u64);
        let values: Vec<i64> = values64.iter().map(|&v| v as i64).collect();
        let table =
            TableBuilder::new("col").compression(Compression::Auto).add_i64("x", values).build();
        let run = |granularity| {
            let stats = stats_handle();
            let opts = ScanOptions {
                mode: ScanMode::Compressed,
                granularity,
                vector_size: 1024,
                disk: Disk::middle_end(),
                layout: Layout::Dsm,
                ..Default::default()
            };
            let mut total = 0usize;
            // Drain the shared handle per run so the reported RAM
            // traffic is a true per-run figure, not total/run-count.
            let mut per_run = scc_storage::ScanSnapshot::default();
            let t = time_median(3, || {
                let mut scan =
                    Scan::new(Arc::clone(&table), &["x"], opts, Arc::clone(&stats), None);
                // Consume every vector (the query side of the pipeline).
                total = 0;
                while let Some(batch) = scan.next() {
                    total += batch.len();
                }
                per_run = stats.take();
            });
            assert_eq!(total, rows);
            (t, per_run.ram_traffic_bytes)
        };
        let (t_page, ram_page) = run(DecompressionGranularity::PageWise);
        let (t_vec, ram_vec) = run(DecompressionGranularity::VectorWise);
        let out_bytes = rows * 8;
        println!(
            "{:>5.2} {:>14.2} {:>14.2} {:>9.2}x {:>12.0} {:>12.0}",
            rate,
            gb_per_sec(out_bytes, t_page),
            gb_per_sec(out_bytes, t_vec),
            t_page / t_vec,
            ram_page as f64 / (1024.0 * 1024.0),
            ram_vec as f64 / (1024.0 * 1024.0),
        );
    }
    let _ = collect(&mut scc_engine::MemSource::from_i64(vec![vec![]], 8)); // keep engine linked
    println!("\npaper shape: vector-wise is uniformly faster; the gap is the cost of");
    println!("writing the decompressed page back to RAM and re-reading it (extra L2");
    println!("misses), visible above as ~3x RAM traffic for page-wise.");
    metrics.finish();
}
