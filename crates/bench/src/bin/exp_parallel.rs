//! §6 outlook — parallel decompression on multi-core CPUs.
//!
//! "With the upcoming families of multi-core CPUs ... highly
//! data-intensive applications suffer not only from disk but also from a
//! main-memory bandwidth bottleneck. Preliminary results show that our
//! high-performance (de-)compression routines can already improve this
//! bandwidth on parallel architectures."
//!
//! Two sweeps:
//!
//! 1. **Raw decode** — segments are independent, so decompression
//!    parallelizes trivially: decode a multi-segment PFOR column with
//!    1..=N threads via `thread::scope`.
//! 2. **Full scan path** — the same parallelism through the storage
//!    stack: `Scan::into_plan` workers pull segments through the modeled
//!    disk and shared buffer pool and run a Q6-style `Select` over the
//!    codes, decoding only survivors; one thread is the serial plan on
//!    the calling thread.
//!
//! Environment: `SCC_ROWS` (default 16 Mi, raw sweep), `SCC_PIPE_ROWS`
//! (default 4 Mi, pipeline sweep), `SCC_MAX_THREADS` (default: detected
//! `available_parallelism`; set explicitly to probe past a container's
//! cgroup quota).

use scc_bench::data::with_exception_rate;
use scc_bench::{env_usize, gb_per_sec, time_median};
use scc_core::pfor;
use scc_engine::Expr;
use scc_storage::disk::stats_handle;
use scc_storage::{pool_handle, Scan, ScanOptions, TableBuilder};
use std::sync::Arc;
use std::thread;

fn thread_counts(max: usize) -> Vec<usize> {
    let mut counts = Vec::new();
    let mut t = 1usize;
    while t <= max {
        counts.push(t);
        t *= 2;
    }
    if counts.last() != Some(&max) {
        counts.push(max);
    }
    counts
}

fn raw_decode_sweep(rows: usize, max_threads: usize) {
    let seg_rows = 1 << 20;
    let values = with_exception_rate(rows, 0.05, 8, 0x9A7);
    let segments: Vec<_> = values.chunks(seg_rows).map(|c| pfor::compress(c, 0, 8)).collect();
    println!("raw decode: {} segments x {} values, 5% exceptions, b=8", segments.len(), seg_rows);
    println!("{:>8} {:>12} {:>10}", "threads", "GB/s", "scaling");
    let mut base = 0.0f64;
    for t_count in thread_counts(max_threads) {
        let t = time_median(3, || {
            thread::scope(|scope| {
                for worker in 0..t_count {
                    let segs = &segments;
                    scope.spawn(move || {
                        let mut out: Vec<u64> = Vec::with_capacity(seg_rows);
                        let mut i = worker;
                        while i < segs.len() {
                            out.clear();
                            segs[i].decompress_into(&mut out);
                            std::hint::black_box(out.last());
                            i += t_count;
                        }
                    });
                }
            });
        });
        let bw = gb_per_sec(rows * 8, t);
        if t_count == 1 {
            base = bw;
        }
        println!("{:>8} {:>12.2} {:>9.2}x", t_count, bw, bw / base);
    }
}

/// Q6-shaped pipeline: scan (disk -> pool -> codes) under a pushed-down
/// `Select` that keeps ~10% of rows, drained on the calling thread.
fn pipeline_sweep(rows: usize, max_threads: usize) {
    let seg_rows = 1 << 18;
    let key: Vec<i64> =
        with_exception_rate(rows, 0.05, 8, 0xC0FFEE).into_iter().map(|v| v as i64).collect();
    let val: Vec<i64> = (0..rows as i64).collect();
    let table = TableBuilder::new("pipe")
        .seg_rows(seg_rows)
        .add_i64("key", key.clone())
        .add_i64("val", val)
        .build();
    let pool =
        pool_handle(table.col("key").compressed_bytes() + table.col("val").compressed_bytes());
    // ~10% selectivity on the PFOR'd key column.
    let cutoff = 26i64;
    let expect = key.iter().filter(|&&k| k < cutoff).count();
    println!(
        "\nfull scan path: {} rows, {} segments, select key < {cutoff} (~{:.0}% pass)",
        rows,
        table.n_segments(),
        100.0 * expect as f64 / rows as f64
    );
    println!("{:>8} {:>12} {:>10} {:>12}", "threads", "Mrows/s", "scaling", "rows out");
    let mut base = 0.0f64;
    for t_count in thread_counts(max_threads) {
        let mut rows_out = 0usize;
        let run = |rows_out: &mut usize| {
            let mut plan = Scan::new(
                Arc::clone(&table),
                &["key", "val"],
                ScanOptions::default(),
                stats_handle(),
                Some(Arc::clone(&pool)),
            )
            .into_plan(Some(Expr::col(0).lt(Expr::lit_i64(cutoff))), t_count);
            let batch = scc_engine::ops::collect(plan.as_mut());
            *rows_out = batch.len();
        };
        run(&mut rows_out); // warm the pool so every timed run hits it
        let t = time_median(3, || run(&mut rows_out));
        assert_eq!(rows_out, expect, "parallel select diverged at {t_count} threads");
        let mrows = rows as f64 / 1e6 / t;
        if t_count == 1 {
            base = mrows;
        }
        println!("{:>8} {:>12.1} {:>9.2}x {:>12}", t_count, mrows, mrows / base, rows_out);
    }
}

fn main() {
    let metrics = scc_bench::metrics::init();
    let rows = env_usize("SCC_ROWS", 16 * 1024 * 1024);
    let pipe_rows = env_usize("SCC_PIPE_ROWS", 4 * 1024 * 1024);
    let detected = thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
    let max_threads = env_usize("SCC_MAX_THREADS", detected);
    println!("parallel decompression ({detected} CPUs detected, sweeping to {max_threads})");
    raw_decode_sweep(rows, max_threads);
    pipeline_sweep(pipe_rows, max_threads);
    println!("\npaper shape: aggregate decompression bandwidth scales with cores until");
    println!("the memory bus saturates — compression raises the *effective* memory");
    println!("bandwidth the same way it raises effective disk bandwidth.");
    metrics.finish();
}
