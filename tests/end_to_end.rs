//! Cross-crate integration: storage → engine pipelines over compressed
//! tables, equality across every storage configuration.

use scc::engine::{AggExpr, Expr, HashAggregate, Operator};
use scc::storage::disk::stats_handle;
use scc::storage::{
    BufferPool, Compression, DecompressionGranularity, Disk, Layout, Scan, ScanMode, ScanOptions,
    Table, TableBuilder,
};
use std::sync::{Arc, Mutex};

fn build_table() -> Arc<Table> {
    let n = 50_000usize;
    TableBuilder::new("events")
        .seg_rows(8192)
        .compression(Compression::Auto)
        .add_i64("id", (0..n as i64).collect())
        .add_i64("amount", (0..n).map(|i| ((i * 37) % 1000) as i64).collect())
        .add_i32("day", (0..n).map(|i| (i / 100) as i32).collect())
        .add_str("kind", (0..n).map(|i| ["buy", "sell", "hold"][i % 3].to_string()).collect())
        .build()
}

fn total_amount_of_kind(table: &Arc<Table>, kind: &str, opts: ScanOptions) -> i64 {
    let stats = stats_handle();
    let code = table.str_col("kind").codes_matching(|s| s == kind);
    let filtered = Scan::new(Arc::clone(table), &["amount", "kind"], opts, stats, None)
        .into_plan(Some(Expr::col(1).in_set(code)), 1);
    let mut agg = HashAggregate::new(filtered, vec![], vec![AggExpr::Sum(Expr::col(0))]);
    let out = agg.next().expect("one global group");
    out.col(0).as_i64()[0]
}

#[test]
fn query_result_invariant_across_all_storage_configs() {
    let table = build_table();
    let reference = total_amount_of_kind(&table, "sell", ScanOptions::default());
    assert!(reference > 0);
    for mode in [ScanMode::Compressed, ScanMode::Uncompressed] {
        for layout in [Layout::Dsm, Layout::Pax] {
            for granularity in
                [DecompressionGranularity::VectorWise, DecompressionGranularity::PageWise]
            {
                for vector_size in [128, 1024, 4096] {
                    for code_scan in [false, true] {
                        let opts = ScanOptions {
                            mode,
                            layout,
                            granularity,
                            vector_size,
                            disk: Disk::low_end(),
                            code_scan,
                        };
                        assert_eq!(
                            total_amount_of_kind(&table, "sell", opts),
                            reference,
                            "{mode:?}/{layout:?}/{granularity:?}/vs{vector_size}/cs{code_scan}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn compressed_scan_beats_uncompressed_on_io() {
    let table = build_table();
    let io_of = |mode| {
        let stats = stats_handle();
        let mut scan = Scan::new(
            Arc::clone(&table),
            &["id", "amount", "day"],
            ScanOptions { mode, ..Default::default() },
            Arc::clone(&stats),
            None,
        );
        while scan.next().is_some() {}
        stats.snapshot().io_bytes
    };
    let compressed = io_of(ScanMode::Compressed);
    let uncompressed = io_of(ScanMode::Uncompressed);
    assert!(
        compressed * 3 < uncompressed,
        "compressed {compressed} vs uncompressed {uncompressed}"
    );
}

#[test]
fn buffer_pool_compressed_caching_beats_uncompressed_budget() {
    // The RAM-CPU caching argument: with a budget that holds the whole
    // table compressed but not uncompressed, re-scans hit only in the
    // compressed design.
    let table = build_table();
    let budget = table.compressed_bytes() + 4096;
    assert!(budget < table.plain_bytes(), "test premise: budget between sizes");
    let run = |mode| {
        let pool = Arc::new(Mutex::new(BufferPool::new(budget)));
        let stats = stats_handle();
        for _ in 0..2 {
            let mut scan = Scan::new(
                Arc::clone(&table),
                &["id", "amount", "day", "kind"],
                ScanOptions { mode, ..Default::default() },
                Arc::clone(&stats),
                Some(Arc::clone(&pool)),
            );
            while scan.next().is_some() {}
        }
        let s = stats.snapshot();
        (s.pool_hits, s.pool_misses)
    };
    let (hits_c, _misses_c) = run(ScanMode::Compressed);
    let (hits_u, misses_u) = run(ScanMode::Uncompressed);
    assert!(hits_c > 0, "compressed re-scan should hit");
    // The uncompressed working set exceeds the budget for at least some
    // columns, so it must keep missing more than the compressed one.
    assert!(misses_u > hits_u || hits_c > hits_u, "unc hits {hits_u} misses {misses_u}");
}

#[test]
fn segment_wire_format_survives_storage_roundtrip() {
    // Compress a column with the core API, serialize every segment, and
    // reload: same bytes, same values.
    let values: Vec<u32> =
        (0..100_000).map(|i| if i % 500 == 0 { i * 3_000 } else { i % 900 }).collect();
    let (seg, _) = scc::core::compress_auto(&values).expect("compressible");
    let bytes = seg.to_bytes();
    let reloaded = scc::core::Segment::<u32>::from_bytes(&bytes).expect("valid");
    assert_eq!(reloaded, seg);
    assert_eq!(reloaded.decompress(), values);
    assert_eq!(reloaded.to_bytes(), bytes, "serialization is canonical");
}
