//! What `Scan::into_plan` emits and books. Without a predicate the scan
//! decodes every column itself — serial or on workers — into batches
//! equal to a bare scan's, with the same ledger totals; with one, the
//! filter fused into the scan still answers in code space.

use scc_engine::ops::try_collect;
use scc_engine::Expr;
use scc_obs::trace::{self, TraceConfig};
use scc_storage::disk::stats_handle;
use scc_storage::{Scan, ScanOptions, ScanSnapshot, StatsHandle, Table, TableBuilder};
use std::sync::Arc;

const ROWS: usize = 10_000;
const SEG_ROWS: usize = 2048;
const COLS: [&str; 3] = ["key", "val", "flag"];
/// Bytes per row of `COLS`: i64, i32 and a u32 dictionary code.
const ROW_BYTES: usize = 8 + 4 + 4;

/// Scrambled so segments compress as PFOR and predicates run in code
/// space (a sequential column would pick PFOR-DELTA).
fn mix(i: usize) -> usize {
    i.wrapping_mul(2_654_435_761) >> 7
}

/// Five segments, the last one partial.
fn table() -> Arc<Table> {
    TableBuilder::new("plan")
        .seg_rows(SEG_ROWS)
        .add_i64("key", (0..ROWS).map(|i| (mix(i) % 5000) as i64).collect())
        .add_i32("val", (0..ROWS).map(|i| (mix(i + 7) % 97) as i32).collect())
        .add_str("flag", (0..ROWS).map(|i| ["A", "B", "C"][mix(i) % 3].to_string()).collect())
        .build()
}

fn scan(t: &Arc<Table>, opts: ScanOptions, stats: &StatsHandle) -> Scan {
    Scan::new(Arc::clone(t), &COLS, opts, Arc::clone(stats), None)
}

/// The ledger without its one measured field.
fn counted(mut s: ScanSnapshot) -> ScanSnapshot {
    s.decompress_ns = 0;
    s
}

#[test]
fn unfiltered_plans_emit_decoded_batches_equal_to_the_code_scan() {
    let t = table();
    // A bare scan (code scans on, nothing to filter) is the reference.
    let code_stats = stats_handle();
    let mut bare = scan(&t, ScanOptions::default(), &code_stats);
    let reference = try_collect(&mut bare).unwrap();
    assert_eq!(reference.len(), ROWS);
    let mut decoded = Vec::new();
    for threads in [1, 2] {
        let stats = stats_handle();
        let mut plan = scan(&t, ScanOptions::default(), &stats).into_plan(None, threads);
        assert_eq!(try_collect(plan.as_mut()).unwrap(), reference, "threads={threads}");
        assert_eq!(counted(stats.snapshot()), counted(code_stats.snapshot()), "threads={threads}");
        decoded.push(plan.explain().values_totals());
    }
    // The scan books what it decoded, so the plan's totals do not depend
    // on where the scan ran.
    assert_eq!(decoded, [((ROWS * COLS.len()) as u64, 0); 2]);
    // With code scans off nothing is compressed-domain accounting.
    let off = ScanOptions { code_scan: false, ..Default::default() };
    let mut plan = scan(&t, off, &stats_handle()).into_plan(None, 1);
    assert_eq!(try_collect(plan.as_mut()).unwrap(), reference);
    assert_eq!(plan.explain().values_totals(), (0, 0));
}

#[test]
fn filtered_plans_still_answer_in_code_space() {
    let t = table();
    for threads in [1, 2] {
        let pred = Expr::col(0).eq(Expr::lit_i64(7));
        let mut plan =
            scan(&t, ScanOptions::default(), &stats_handle()).into_plan(Some(pred), threads);
        let out = try_collect(plan.as_mut()).unwrap();
        assert!(out.col(0).as_i64().iter().all(|&k| k == 7), "threads={threads}");
        let (decoded, skipped) = plan.explain().values_totals();
        assert!(skipped > 0, "threads={threads}: nothing skipped ({decoded} decoded)");
    }
}

#[test]
fn unfiltered_scan_books_every_decoded_value_once() {
    let t = table();
    trace::drain();
    trace::set_collect(true);
    trace::configure(TraceConfig { sample_rate: 1.0, slow_ns: 0 });
    let stats = stats_handle();
    let rows = {
        let _root = trace::start_root("test.scan");
        let mut plan = scan(&t, ScanOptions::default(), &stats).into_plan(None, 1);
        try_collect(plan.as_mut()).unwrap().len()
    };
    trace::set_collect(false);
    assert_eq!(rows, ROWS);
    let s = stats.snapshot();
    assert_eq!(s.output_bytes, (ROWS * ROW_BYTES) as u64);
    assert!(s.decompress_ns > 0);
    // One `scan.segment` span per segment, each carrying the values
    // decoded from it.
    let values: Vec<u64> = trace::drain()
        .iter()
        .filter(|s| s.name == "scan.segment")
        .map(|s| {
            let attrs = &s.attrs[..s.n_attrs as usize];
            attrs.iter().find(|(k, _)| *k == "values").expect("values tag").1
        })
        .collect();
    let per_segment: Vec<u64> = (0..ROWS.div_ceil(SEG_ROWS))
        .map(|seg| (SEG_ROWS.min(ROWS - seg * SEG_ROWS) * COLS.len()) as u64)
        .collect();
    assert_eq!(values, per_segment);
}
