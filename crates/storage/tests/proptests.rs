//! Property tests: storage round-trips and accounting invariants.

use proptest::prelude::*;
use scc_engine::Operator;
use scc_storage::disk::stats_handle;
use scc_storage::{
    Cell, Compression, DecompressionGranularity, Disk, Layout, MergingScan, Scan, ScanMode,
    ScanOptions, TableBuilder, TableDeltas,
};
use std::sync::Arc;

fn collect_col0_i64(scan: &mut dyn Operator) -> Vec<i64> {
    let mut out = Vec::new();
    while let Some(batch) = scan.next() {
        out.extend_from_slice(batch.col(0).as_i64());
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn scan_roundtrips_any_column(
        values in prop::collection::vec(prop_oneof![4 => 0i64..1000, 1 => any::<i64>()], 1..6000),
        vs_pow in 0u32..4,
        compressed in any::<bool>(),
        pagewise in any::<bool>(),
    ) {
        let vector_size = 128usize << vs_pow;
        let table = TableBuilder::new("t")
            .seg_rows(2048)
            .compression(Compression::Auto)
            .add_i64("x", values.clone())
            .build();
        let opts = ScanOptions {
            mode: if compressed { ScanMode::Compressed } else { ScanMode::Uncompressed },
            granularity: if pagewise {
                DecompressionGranularity::PageWise
            } else {
                DecompressionGranularity::VectorWise
            },
            vector_size,
            disk: Disk::low_end(),
            layout: Layout::Dsm,
            code_scan: true,
        };
        let mut scan = Scan::new(table, &["x"], opts, stats_handle(), None);
        prop_assert_eq!(collect_col0_i64(&mut scan), values);
    }

    #[test]
    fn io_accounting_is_consistent(values in prop::collection::vec(0i64..500, 1..5000)) {
        let table = TableBuilder::new("t")
            .seg_rows(1024)
            .add_i64("x", values.clone())
            .build();
        let stats = stats_handle();
        let mut scan = Scan::new(
            Arc::clone(&table),
            &["x"],
            ScanOptions::default(),
            Arc::clone(&stats),
            None,
        );
        while scan.next().is_some() {}
        let s = stats.snapshot();
        // Exactly the column's compressed bytes are charged, once.
        prop_assert_eq!(s.io_bytes, table.col("x").compressed_bytes());
        prop_assert_eq!(s.output_bytes, (values.len() * 8) as u64);
        prop_assert!(s.io_ns > 0);
        prop_assert_eq!(s.pool_misses as usize, table.n_segments());
    }

    #[test]
    fn deltas_merge_like_a_reference_implementation(
        base in prop::collection::vec(0i64..1000, 1..3000),
        edits in prop::collection::vec((0usize..3000, -50i64..0), 0..60),
        deletes in prop::collection::vec(0usize..3000, 0..60),
        appends in prop::collection::vec(1000i64..2000, 0..60),
    ) {
        let table = TableBuilder::new("t")
            .seg_rows(1024)
            .add_i64("x", base.clone())
            .build();
        let mut deltas = TableDeltas::new();
        let mut reference = base.clone();
        for (row, val) in &edits {
            if *row < base.len() {
                deltas.update(0, *row, Cell::I64(*val));
                reference[*row] = *val;
            }
        }
        let mut deleted = vec![false; base.len()];
        for &row in &deletes {
            if row < base.len() {
                deltas.delete(row);
                deleted[row] = true;
            }
        }
        let mut expect: Vec<i64> = reference
            .iter()
            .zip(&deleted)
            .filter(|(_, &d)| !d)
            .map(|(&v, _)| v)
            .collect();
        for &a in &appends {
            deltas.append(vec![Cell::I64(a)]);
            expect.push(a);
        }
        let mut scan = MergingScan::new(
            table,
            &["x"],
            ScanOptions { vector_size: 256, ..Default::default() },
            stats_handle(),
            Arc::new(deltas),
        );
        prop_assert_eq!(collect_col0_i64(&mut scan), expect);
    }

    #[test]
    fn string_columns_roundtrip_via_codes(
        picks in prop::collection::vec(0usize..5, 1..2000),
    ) {
        let words = ["alpha", "beta", "gamma", "delta", "epsilon"];
        let values: Vec<String> = picks.iter().map(|&i| words[i].to_string()).collect();
        let table = TableBuilder::new("t")
            .seg_rows(1024)
            .add_str("s", values.clone())
            .build();
        let mut scan = Scan::new(
            Arc::clone(&table),
            &["s"],
            ScanOptions::default(),
            stats_handle(),
            None,
        );
        let dict = &table.str_col("s").dict;
        let mut row = 0usize;
        while let Some(batch) = scan.next() {
            for &code in batch.col(0).as_u32() {
                prop_assert_eq!(&dict[code as usize], &values[row]);
                row += 1;
            }
        }
        prop_assert_eq!(row, values.len());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn point_lookups_match_plain_values(
        values in prop::collection::vec(prop_oneof![6 => 0i64..300, 1 => any::<i64>()], 1..4000),
        probes in prop::collection::vec(0usize..4000, 1..40),
        lz_pages in any::<bool>(),
    ) {
        let compression = if lz_pages { Compression::Lzrw1Pages } else { Compression::Auto };
        let table = TableBuilder::new("t")
            .seg_rows(1024)
            .compression(compression)
            .add_i64("x", values.clone())
            .build();
        for &p in &probes {
            if p < values.len() {
                prop_assert_eq!(table.get_cell("x", p), values[p]);
            }
        }
    }
}
