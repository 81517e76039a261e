//! One scan path under threads: `Scan::into_plan` on N workers must
//! reproduce the serial plan byte for byte — same batches, same order,
//! same first error — and book the same totals into the one shared
//! ledger, with or without a pushed-down predicate and with code scans
//! on or off.

use proptest::prelude::*;
use scc_engine::ops::{collect, try_collect};
use scc_engine::{Batch, Expr, Operator};
use scc_storage::disk::{stats_handle, DiskRead, ReadOutcome};
use scc_storage::{
    pool_handle, ChunkId, Disk, DiskHandle, FaultPlan, FaultyDisk, RetryPolicy, Scan, ScanMode,
    ScanOptions, ScanSnapshot, Table, TableBuilder,
};
use std::sync::{Arc, Mutex};
use std::thread;

const ROWS: usize = 10_000;
const SEG_ROWS: usize = 1024;

/// Scrambled so segments compress as PFOR (a sequential column would
/// pick PFOR-DELTA, which never answers predicates in code space).
fn mix(i: usize) -> usize {
    i.wrapping_mul(2654435761) >> 7
}

/// `seq` is sequential, so it compresses as PFOR-DELTA and never
/// answers a predicate in code space. `clu` is clustered in runs of
/// [`RUN`] rows: a third of the runs hold values below 100, the rest
/// values from 100 up.
fn build_table() -> Arc<Table> {
    let key: Vec<i64> = (0..ROWS).map(|i| (mix(i) % 5000) as i64).collect();
    let val: Vec<i64> = (0..ROWS as i64).map(|i| i * i % 100_000).collect();
    let flag = (0..ROWS).map(|i| ["A", "B", "C"][mix(i) % 3].to_string()).collect();
    let clu = |i: usize| match mix(i / RUN) % 3 {
        0 => (mix(i) % 100) as i64,
        _ => (100 + mix(i) % 9900) as i64,
    };
    TableBuilder::new("bf")
        .seg_rows(SEG_ROWS)
        .add_i64("key", key)
        .add_i64("val", val)
        .add_str("flag", flag)
        .add_i64("seq", (0..ROWS as i64).collect())
        .add_i64("clu", (0..ROWS).map(clu).collect())
        .build()
}

const COLS: [&str; 3] = ["key", "val", "flag"];

/// Rows per run of `clu`, and per vector where the filter should switch
/// modes inside a segment.
const RUN: usize = 256;

fn scan(table: &Arc<Table>, opts: ScanOptions, stats: &scc_storage::StatsHandle) -> Scan {
    Scan::new(Arc::clone(table), &COLS, opts, Arc::clone(stats), None)
}

/// Measured decode time differs run to run; everything else in the
/// ledger is a pure function of the work done.
fn deterministic(mut s: ScanSnapshot) -> ScanSnapshot {
    s.decompress_ns = 0;
    s
}

fn run(
    table: &Arc<Table>,
    opts: ScanOptions,
    predicate: Option<Expr>,
    threads: usize,
) -> (Batch, ScanSnapshot) {
    let stats = stats_handle();
    let mut plan = scan(table, opts, &stats).into_plan(predicate, threads);
    (collect(plan.as_mut()), deterministic(stats.snapshot()))
}

fn faulty(plan: FaultPlan) -> DiskHandle {
    Arc::new(Mutex::new(FaultyDisk::new(Disk::middle_end(), plan)))
}

#[test]
fn every_thread_count_matches_serial_output_and_ledger() {
    let table = build_table(); // 10 segments, one partial
    let (serial, serial_stats) = run(&table, ScanOptions::default(), None, 1);
    assert_eq!(serial.len(), ROWS);
    assert!(serial_stats.io_ns > 0 && serial_stats.output_bytes > 0);
    for threads in 2..=4 {
        let (out, stats) = run(&table, ScanOptions::default(), None, threads);
        assert_eq!(out, serial, "threads={threads}");
        assert_eq!(stats, serial_stats, "threads={threads}");
    }
}

#[test]
fn disjoint_ranges_on_real_threads_charge_one_ledger_like_serial() {
    let table = build_table();
    let (serial, serial_stats) = run(&table, ScanOptions::default(), None, 1);
    for workers in [2usize, 3, 4, 7] {
        let per = table.n_segments().div_ceil(workers);
        let stats = stats_handle();
        let mut parts: Vec<Batch> = Vec::new();
        thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let n = table.n_segments();
                    let range = (w * per).min(n)..((w + 1) * per).min(n);
                    let mut part = scan(&table, ScanOptions::default(), &stats)
                        .try_with_segment_range(range)
                        .unwrap();
                    scope.spawn(move || collect(&mut part))
                })
                .collect();
            parts.extend(handles.into_iter().map(|h| h.join().expect("worker panicked")));
        });
        let mut all = parts.remove(0);
        for p in &parts {
            for (a, b) in all.columns.iter_mut().zip(&p.columns) {
                a.append(b);
            }
        }
        assert_eq!(all, serial, "{workers} workers");
        assert_eq!(deterministic(stats.snapshot()), serial_stats, "{workers} workers");
    }
}

#[test]
fn segment_range_restricts_the_parallel_plan_too() {
    let table = build_table();
    let restricted = |threads| {
        let stats = stats_handle();
        let mut plan = scan(&table, ScanOptions::default(), &stats)
            .try_with_segment_range(3..7)
            .unwrap()
            .into_plan(None, threads);
        (collect(plan.as_mut()), deterministic(stats.snapshot()))
    };
    let (serial, serial_stats) = restricted(1);
    assert_eq!(serial.len(), 4 * SEG_ROWS);
    assert_eq!(restricted(3), (serial, serial_stats));
}

#[test]
fn shared_pool_absorbs_a_parallel_rescan() {
    let table = build_table();
    let pool = pool_handle(1 << 20);
    let stats = stats_handle();
    for _ in 0..2 {
        let mut plan = Scan::new(
            Arc::clone(&table),
            &["key"],
            ScanOptions::default(),
            Arc::clone(&stats),
            Some(Arc::clone(&pool)),
        )
        .into_plan(None, 3);
        collect(plan.as_mut());
    }
    let s = stats.snapshot();
    assert_eq!(s.pool_hits, s.pool_misses, "second pass served from pool");
}

#[test]
fn more_threads_than_segments_spawns_one_worker_per_segment() {
    let table = TableBuilder::new("two").seg_rows(2048).add_i64("key", (0..3000).collect()).build();
    let mut plan =
        Scan::new(table, &["key"], ScanOptions::default(), stats_handle(), None).into_plan(None, 8);
    assert_eq!(plan.label(), "Exchange(partitions=2, workers=2)");
    let out = collect(plan.as_mut());
    assert_eq!(out.len(), 3000);
    assert_eq!(out.col(0).as_i64()[2999], 2999);
}

#[test]
fn quarantine_error_surfaces_in_serial_position() {
    let table = build_table();
    let plan = FaultPlan { seed: 3, bit_flip: 1.0, truncate: 0.0, transient_fail: 0.0 };
    let outcome = |threads| {
        let mut p = scan(&table, ScanOptions::default(), &stats_handle())
            .with_fault_injection(faulty(plan), RetryPolicy::default())
            .into_plan(None, threads);
        try_collect(p.as_mut()).expect_err("every delivery corrupt")
    };
    let serial_err = outcome(1);
    assert!(matches!(serial_err, scc_core::Error::ChunkQuarantined { .. }), "{serial_err}");
    assert_eq!(outcome(3), serial_err);
}

#[test]
fn uncompressed_mode_parallelizes_too() {
    let table = build_table();
    let opts = ScanOptions { mode: ScanMode::Uncompressed, ..Default::default() };
    assert_eq!(run(&table, opts, None, 2), run(&table, opts, None, 1));
}

#[test]
fn exchange_reports_the_workers_summed_fragment_profiles() {
    let table = build_table();
    // Whole vectors of `clu` fail, so after each segment's first vector
    // the filter leaves the four columns packed for a dead one.
    let pred = Expr::col(3).lt(Expr::lit_i64(50));
    let explain = |threads| {
        let opts = ScanOptions { vector_size: RUN, ..Default::default() };
        let cols = [COLS[0], COLS[1], COLS[2], "clu"];
        let mut plan = Scan::new(Arc::clone(&table), &cols, opts, stats_handle(), None)
            .into_plan(Some(pred.clone()), threads);
        collect(plan.as_mut());
        plan.explain()
    };
    let serial = explain(1);
    let parallel = explain(2);
    assert_eq!(parallel.label, "Exchange(partitions=10, workers=2)");
    let [select] = &parallel.children[..] else { panic!("one fragment tree: {parallel:?}") };
    assert_eq!(
        (select.label.as_str(), select.children[0].label.as_str()),
        ("Select", "Scan(bf: key, val, flag, clu)")
    );
    // Same rows, vectors and compressed-domain counts as the serial
    // plan's Select and Scan; only wall time differs.
    for (mine, theirs) in [(select, &serial), (&select.children[0], &serial.children[0])] {
        assert_eq!(
            (mine.profile.rows, mine.profile.vectors),
            (theirs.profile.rows, theirs.profile.vectors),
            "{}",
            mine.label
        );
    }
    assert_eq!(parallel.values_totals(), serial.values_totals());
    assert!(parallel.values_totals().1 > 0, "workers answered part of the scan in code space");
}

/// A disk whose first read panics: stands in for a worker dying.
struct ExplodingDisk;

impl DiskRead for ExplodingDisk {
    fn read_seconds(&self, _bytes: u64) -> f64 {
        0.0
    }

    fn read_chunk(&mut self, _id: ChunkId, _attempt: u32, _payload: Option<&[u8]>) -> ReadOutcome {
        panic!("disk exploded");
    }
}

#[test]
#[should_panic(expected = "disk exploded")]
fn worker_panic_propagates_to_the_consumer() {
    // One segment, so exactly one worker: the panic that reaches the
    // consumer is the disk's, not a sibling's poisoned-lock follow-up.
    let table = TableBuilder::new("one").seg_rows(2048).add_i64("key", (0..2048).collect()).build();
    let disk: DiskHandle = Arc::new(Mutex::new(ExplodingDisk));
    let mut plan = Scan::new(table, &["key"], ScanOptions::default(), stats_handle(), None)
        .with_fault_injection(disk, RetryPolicy::default())
        .into_plan(None, 2);
    let _ = plan.try_next();
}

#[test]
fn dropping_an_undrained_plan_stops_and_joins_its_workers() {
    let table = build_table();
    let stats = stats_handle();
    let mut plan = scan(&table, ScanOptions::default(), &stats).into_plan(None, 2);
    assert!(plan.try_next().unwrap().is_some());
    drop(plan); // must not deadlock on workers parked on the full channel
                // Joined, not detached: no worker (or fragment of one) is left
                // holding the ledger.
    assert_eq!(Arc::strong_count(&stats), 1);
}

#[test]
#[should_panic(expected = "at least one thread")]
fn zero_threads_panics() {
    let table = build_table();
    let _ = scan(&table, ScanOptions::default(), &stats_handle()).into_plan(None, 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The property the old parallel scan broke: under a pushed-down
    /// predicate the serial code scan books survivors only, so a plan
    /// that decodes everything on its workers cannot book "the same
    /// totals". Batches must agree across all four (threads, code_scan)
    /// shapes; the ledger must agree across thread counts for each
    /// code_scan setting, fault counters included. Vectors are [`RUN`]
    /// rows, four to a segment, and the band on the clustered `clu`
    /// kills whole vectors: alone it runs both modes inside one scan;
    /// under the six other conjuncts, testing codes costs more than
    /// decoding what it would skip, and the filter stays on values.
    #[test]
    fn q6_style_predicate_same_batches_same_ledger(
        lo in 0i64..4000,
        width in 1i64..1500,
        val_cut in 0i64..100_000,
        clu_cut in 0i64..100,
        fault_seed in 0u64..1000,
    ) {
        let table = build_table();
        let flag_b = table.str_col("flag").codes_matching(|s| s == "B");
        let band = Expr::col(4).lt(Expr::lit_i64(clu_cut));
        let q6 = band
            .clone()
            .and(Expr::col(0).ge(Expr::lit_i64(lo)))
            .and(Expr::col(0).lt(Expr::lit_i64(lo + width)))
            .and(Expr::col(1).lt(Expr::lit_i64(val_cut)))
            .and(Expr::col(2).in_set(flag_b))
            .and(Expr::lit_i64(val_cut / 2).lt(Expr::col(1)))
            .and(Expr::col(0).lt(Expr::col(1)))
            .and(Expr::col(3).ge(Expr::lit_i64(lo)));
        // Recoverable faults: a 20-attempt budget always gets through,
        // so every shape scans every segment.
        let plan = FaultPlan { seed: fault_seed, bit_flip: 0.2, truncate: 0.05, transient_fail: 0.1 };
        for (pred, both_modes) in [(band, true), (q6, false)] {
            let shape = |threads: usize, code_scan: bool| {
                let stats = stats_handle();
                let opts = ScanOptions { code_scan, vector_size: RUN, ..Default::default() };
                let cols = [COLS[0], COLS[1], COLS[2], "seq", "clu"];
                let mut p = Scan::new(Arc::clone(&table), &cols, opts, Arc::clone(&stats), None)
                    .with_fault_injection(
                        faulty(plan),
                        RetryPolicy { max_attempts: 20, backoff_seconds: 0.001 },
                    )
                    .into_plan(Some(pred.clone()), threads);
                let out = collect(p.as_mut());
                (out, deterministic(stats.snapshot()), p.explain().values_totals())
            };
            let (reference, eager_stats, _) = shape(1, false);
            for code_scan in [false, true] {
                let (serial, serial_stats, serial_totals) = shape(1, code_scan);
                let (parallel, parallel_stats, parallel_totals) = shape(2, code_scan);
                prop_assert_eq!(&serial, &reference, "code_scan={}", code_scan);
                prop_assert_eq!(&parallel, &reference, "threads=2 code_scan={}", code_scan);
                prop_assert_eq!(parallel_stats, serial_stats, "code_scan={}", code_scan);
                prop_assert_eq!(parallel_totals, serial_totals, "code_scan={}", code_scan);
                prop_assert_eq!(serial_stats.quarantined_chunks, 0);
            }
            // Code mode decodes survivors only, on either thread count.
            let (_, lazy_stats, (_, skipped)) = shape(2, true);
            prop_assert_eq!(skipped > 0, both_modes, "skipped {}", skipped);
            prop_assert_eq!(lazy_stats.output_bytes < eager_stats.output_bytes, both_modes);
            prop_assert_eq!(
                ScanSnapshot { output_bytes: 0, ..lazy_stats },
                ScanSnapshot { output_bytes: 0, ..eager_stats },
                "code scans change what is decoded, never what is read"
            );
        }
    }
}
