//! Compressed-domain predicate pushdown: scan codes, not values.
//!
//! Two sweeps, both comparing `code_scan: true` (the filter fused into
//! the scan may evaluate the predicate against packed PFOR codes and
//! decode only survivors, block-granular, and does so for the vectors
//! where its cost rule says that is cheaper) against `code_scan: false`
//! (the decode-then-test baseline):
//!
//! 1. A synthetic filtered aggregate `select sum(pay) where key < K`
//!    over a uniform i32 column, at selectivities from 0.01% to 100%.
//!    Uniform data is the *hard* case for block skipping — a block
//!    only skips when none of its 128 rows survive — so the decode
//!    savings reported here are a lower bound.
//! 2. TPC-H Q1 and Q6 (the paper's §6 queries), reporting decoded
//!    output bytes and the engine's values_decoded/values_skipped
//!    accounting from EXPLAIN ANALYZE.
//!
//! Environment: `SCC_ROWS` (default 4 Mi) sizes the synthetic table,
//! `SCC_SF` (default 0.05) the TPC-H database.

use scc_bench::{env_f64, env_usize};
use scc_engine::{AggExpr, Expr, HashAggregate, Operator};
use scc_storage::disk::stats_handle;
use scc_storage::{Compression, Scan, ScanOptions, TableBuilder};
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let metrics = scc_bench::metrics::init();
    let rows = env_usize("SCC_ROWS", 4 * 1024 * 1024);
    let sf = env_f64("SCC_SF", 0.05);

    // --- Sweep 1: synthetic selectivity ladder -------------------------
    // key is uniform in [0, 10_000); `key < K` selects K/10_000 of the
    // rows. The 14-bit PFOR window covers the whole domain, so the
    // predicate re-encodes into code space (a wrapped window with
    // exceptions would only support Eq/Ne and fall back to decoding).
    // pay is the gathered payload column.
    //
    // The generator must avalanche: a merely affine scramble leaves
    // near-constant deltas and the analyzer picks PFOR-DELTA, which
    // (deliberately) never compiles predicates into code space.
    let mix = |i: usize| {
        let mut x = (i as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    };
    let table = TableBuilder::new("t")
        .compression(Compression::Auto)
        .add_i32("key", (0..rows).map(|i| (mix(i) % 10_000) as i32).collect())
        .add_i64("pay", (0..rows).map(|i| (mix(i + 31) % 10_000) as i64).collect())
        .build();
    println!("compressed-domain pushdown: select sum(pay) where key < K, {rows} rows");
    println!(
        "{:>8} {:>10} {:>12} {:>12} {:>12} {:>10}",
        "sel %", "mode", "cpu ms", "output MB", "skipped", "speedup"
    );
    // One filtered aggregate at `key < k`: (seconds, ledger, values
    // skipped).
    let run = |k: i32, code_scan: bool| {
        let stats = stats_handle();
        let t0 = Instant::now();
        let filtered = Scan::new(
            Arc::clone(&table),
            &["key", "pay"],
            ScanOptions { code_scan, ..ScanOptions::default() },
            Arc::clone(&stats),
            None,
        )
        .into_plan(Some(Expr::col(0).lt(Expr::lit_i32(k))), 1);
        let mut agg = HashAggregate::new(filtered, vec![], vec![AggExpr::Sum(Expr::col(1))]);
        std::hint::black_box(agg.next().expect("one group"));
        let secs = t0.elapsed().as_secs_f64();
        (secs, stats.take(), agg.explain().values_totals().1)
    };
    // Untimed, so that the first row does not pay for the process
    // warming up.
    run(1, false);
    for k in [1i32, 10, 100, 1_000, 5_000, 10_000] {
        let sel = k as f64 / 10_000.0;
        // The two modes alternate, 21 runs each, so that a change in the
        // machine's speed lands on both; each row is a median.
        let mut runs: [Vec<_>; 2] = Default::default();
        for i in 0..21 {
            for code_scan in [i % 2 == 1, i % 2 == 0] {
                runs[code_scan as usize].push(run(k, code_scan));
            }
        }
        let mut baseline_ms = 0.0f64;
        for (code_scan, mut runs) in [false, true].into_iter().zip(runs) {
            runs.sort_by(|a, b| a.0.total_cmp(&b.0));
            let (cpu, per_run, skipped) = runs[runs.len() / 2];
            let cpu_ms = cpu * 1e3;
            let output_mb = per_run.output_bytes as f64 / (1024.0 * 1024.0);
            let label = if code_scan { "codes" } else { "decode" };
            let speedup = if code_scan { baseline_ms / cpu_ms } else { 1.0 };
            if !code_scan {
                baseline_ms = cpu_ms;
            }
            println!(
                "{:>8.2} {label:>10} {cpu_ms:>12.2} {output_mb:>12.2} {skipped:>12} \
                 {speedup:>9.2}x",
                sel * 100.0,
            );
        }
    }

    // --- Sweep 2: TPC-H Q1 / Q6 ---------------------------------------
    eprintln!("generating TPC-H at SF {sf}...");
    let db = scc_tpch::TpchDb::generate(sf, 42);
    println!("\nTPC-H (SF {sf}):");
    println!(
        "{:>4} {:>10} {:>12} {:>12} {:>14} {:>14}",
        "Q", "mode", "cpu ms", "output MB", "decoded", "skipped"
    );
    for q in [1u32, 6] {
        for code_scan in [false, true] {
            let cfg = scc_tpch::QueryConfig { code_scan, ..Default::default() };
            // One warmup, then a measured run (run_query times itself).
            scc_tpch::queries::run_query(&db, &cfg, q);
            let run = scc_tpch::queries::run_query(&db, &cfg, q);
            let (decoded, skipped) = run.explain.values_totals();
            let cpu_ms = run.cpu_seconds * 1e3;
            let output_mb = run.stats.output_bytes as f64 / (1024.0 * 1024.0);
            let label = if code_scan { "codes" } else { "decode" };
            println!(
                "{q:>4} {label:>10} {cpu_ms:>12.2} {output_mb:>12.2} {decoded:>14} {skipped:>14}"
            );
        }
    }

    println!("\nexpected shape: the code scan is never slower than decode-then-test");
    println!("beyond noise. Testing a code costs more than decoding and testing a");
    println!("value, so over two columns the filter tests codes only where nearly");
    println!("every 128-block is dead (0.01-0.1%), skipping most of the decode, and");
    println!("from 1% up runs the decode-then-test path itself. Q1 and Q6 decode");
    println!("every value in both modes: no vector of theirs pays for codes.");
    metrics.finish();
}
