//! Partition manifest: which rows (and therefore which segments) of a
//! table live on which cluster node.
//!
//! A table is **range-partitioned** into contiguous, segment-aligned row
//! ranges. Range partitioning is the order-preserving scheme: partition
//! `p` holds rows `[bounds[p].0, bounds[p].1)`, so concatenating the
//! partition scans in partition order reproduces the serial scan of the
//! unsharded table byte for byte. (Hash placement is exposed for
//! key-routed point lookups via [`hash_partition`], but scans are served
//! from the range manifest.)
//!
//! Segment alignment matters twice: each partition compresses its
//! segments independently starting at a segment boundary, so a
//! partition's encoded segments are exactly the corresponding segments
//! of the full table; and a `SegmentRange` request for rows `[a, b)` of
//! the logical table maps onto whole partitions without splitting a
//! compression block.

use crate::{Column, NumColumn, Table, TableBuilder, SEGMENT_ROWS};
use scc_engine::Vector;
use std::sync::Arc;

/// Where every row range of one table lives: partition bounds plus the
/// primary/replica node assignment for each partition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionManifest {
    /// Logical (unsharded) table name.
    pub table: String,
    /// Total rows in the logical table.
    pub n_rows: usize,
    /// Rows per segment in every partition (and in the logical table).
    pub seg_rows: usize,
    /// Half-open row ranges `[start, end)`, one per partition, covering
    /// `0..n_rows` in order. Every `start` is a multiple of `seg_rows`.
    pub bounds: Vec<(usize, usize)>,
    /// Node index hosting each partition's primary copy.
    pub primary: Vec<usize>,
    /// Node index hosting each partition's replica copy (same as
    /// primary when the cluster has a single node or replication is
    /// disabled).
    pub replica: Vec<usize>,
}

impl PartitionManifest {
    /// Range-partitions `n_rows` into `partitions` contiguous,
    /// segment-aligned ranges, as even as segment granularity allows,
    /// and assigns partition `p` to primary node `p % nodes` with its
    /// replica on the next node round-robin.
    ///
    /// With fewer segments than partitions the trailing partitions are
    /// empty (`start == end`); scans over them return no rows, which
    /// keeps the partition count stable as tables grow.
    pub fn range(
        table: &str,
        n_rows: usize,
        seg_rows: usize,
        partitions: usize,
        nodes: usize,
    ) -> Self {
        assert!(partitions > 0, "need at least one partition");
        assert!(nodes > 0, "need at least one node");
        assert!(seg_rows > 0, "seg_rows must be positive");
        let total_segs = n_rows.div_ceil(seg_rows);
        let base = total_segs / partitions;
        let extra = total_segs % partitions;
        let mut bounds = Vec::with_capacity(partitions);
        let mut seg = 0usize;
        for p in 0..partitions {
            let take = base + usize::from(p < extra);
            let start = (seg * seg_rows).min(n_rows);
            let end = ((seg + take) * seg_rows).min(n_rows);
            bounds.push((start, end));
            seg += take;
        }
        let primary: Vec<usize> = (0..partitions).map(|p| p % nodes).collect();
        let replica: Vec<usize> = if nodes == 1 {
            primary.clone()
        } else {
            (0..partitions).map(|p| (p + 1) % nodes).collect()
        };
        Self { table: table.to_string(), n_rows, seg_rows, bounds, primary, replica }
    }

    /// Number of partitions.
    pub fn partitions(&self) -> usize {
        self.bounds.len()
    }

    /// Rows in partition `p`.
    pub fn rows_in(&self, p: usize) -> usize {
        self.bounds[p].1 - self.bounds[p].0
    }

    /// The name a partition's table is registered under in a shard's
    /// catalog: `"{table}#p{p}"`. The `#` cannot appear in a TPC-H or
    /// demo table name, so partition names never collide with logical
    /// ones.
    pub fn partition_name(&self, p: usize) -> String {
        partition_name(&self.table, p)
    }

    /// The partition holding logical `row`, by binary search over the
    /// bounds. Empty partitions are skipped (their `start == end` range
    /// contains no row).
    pub fn partition_of_row(&self, row: usize) -> Option<usize> {
        if row >= self.n_rows {
            return None;
        }
        self.bounds.iter().position(|&(s, e)| s <= row && row < e)
    }

    /// True when every partition is non-empty and the bounds tile
    /// `0..n_rows` on segment boundaries — the invariant the
    /// constructor establishes; checked again when a manifest arrives
    /// over a config file.
    pub fn is_well_formed(&self) -> bool {
        let mut prev = 0usize;
        for &(s, e) in &self.bounds {
            // Trailing empty partitions start at n_rows, which is only
            // segment-aligned when the last segment is full.
            if s != prev || e < s || (s % self.seg_rows != 0 && s != self.n_rows) {
                return false;
            }
            prev = e;
        }
        prev == self.n_rows
    }
}

/// The catalog name of partition `p` of `table`.
pub fn partition_name(table: &str, p: usize) -> String {
    format!("{table}#p{p}")
}

/// Hash placement for key-routed point lookups: which partition a key
/// belongs to under hash partitioning. Splitmix-style finalizer so
/// nearby keys spread; stable across platforms.
pub fn hash_partition(key: u64, partitions: usize) -> usize {
    assert!(partitions > 0);
    let mut x = key.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (x ^ (x >> 31)) as usize % partitions
}

/// Default partition count for a table: one per node, doubled so a
/// crashed node's load spreads over several survivors rather than one.
pub fn default_partitions(nodes: usize) -> usize {
    (2 * nodes).max(1)
}

/// Builds the physical partition tables of `table` under `manifest`:
/// partition `p` is a table named [`partition_name`]`(table, p)` holding
/// exactly rows `bounds[p]`, with the same segment size and — because
/// the bounds are segment-aligned and the analyzer is deterministic —
/// the *same encoded segment bytes* as the corresponding segments of
/// the unsharded table. String columns are re-encoded against the full
/// table's dictionary so shard-returned codes are globally meaningful.
///
/// # Panics
/// Panics if `manifest` is malformed or its `n_rows`/`seg_rows`
/// disagree with the table's.
pub fn partition_table(table: &Table, manifest: &PartitionManifest) -> Vec<Arc<Table>> {
    assert!(manifest.is_well_formed(), "malformed manifest for {}", manifest.table);
    assert_eq!(manifest.n_rows, table.n_rows(), "manifest rows != table rows");
    assert_eq!(manifest.seg_rows, table.seg_rows(), "manifest seg_rows != table seg_rows");
    (0..manifest.partitions())
        .map(|p| {
            let (start, end) = manifest.bounds[p];
            let rows = end - start;
            let mut b = TableBuilder::new(&manifest.partition_name(p)).seg_rows(table.seg_rows());
            for (ci, (name, col)) in table.columns().iter().enumerate() {
                match col {
                    Column::Num(n) => {
                        let v = if rows == 0 {
                            match n {
                                NumColumn::I32(_) => Vector::I32(Vec::new()),
                                NumColumn::I64(_) => Vector::I64(Vec::new()),
                                NumColumn::U32(_) => Vector::U32(Vec::new()),
                            }
                        } else {
                            table.try_read_rows(ci, start, rows).expect("in-bounds partition read")
                        };
                        b = match v {
                            Vector::I32(v) => b.add_i32(name, v),
                            Vector::I64(v) => b.add_i64(name, v),
                            Vector::U32(v) => b.add_u32(name, v),
                            _ => unreachable!("numeric column read"),
                        };
                    }
                    Column::Str(s) => {
                        let codes = if rows == 0 {
                            Vec::new()
                        } else {
                            match table.try_read_rows(ci, start, rows) {
                                Ok(Vector::U32(codes)) => codes,
                                other => unreachable!("string column read yielded {other:?}"),
                            }
                        };
                        let values: Vec<String> =
                            codes.iter().map(|&c| s.dict[c as usize].clone()).collect();
                        b = b.add_str_with_dict(name, values, s.dict.clone());
                    }
                    Column::Blob(total) => {
                        // Blobs have no cells; charge the partition its
                        // proportional share of the I/O weight.
                        let share = if table.n_rows() == 0 {
                            0
                        } else {
                            total * rows as u64 / table.n_rows() as u64
                        };
                        b = b.add_blob(name, share);
                    }
                }
            }
            b.build()
        })
        .collect()
}

/// Convenience: a manifest with the crate-default [`SEGMENT_ROWS`].
pub fn range_default(
    table: &str,
    n_rows: usize,
    partitions: usize,
    nodes: usize,
) -> PartitionManifest {
    PartitionManifest::range(table, n_rows, SEGMENT_ROWS, partitions, nodes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_tile_rows_on_segment_boundaries() {
        for (rows, segr, parts) in
            [(100, 128, 3), (64 * 1024 * 5 + 17, 64 * 1024, 4), (8192 * 6, 8192, 4), (0, 128, 2)]
        {
            let m = PartitionManifest::range("t", rows, segr, parts, 3);
            assert!(m.is_well_formed(), "{rows}/{segr}/{parts}: {:?}", m.bounds);
            assert_eq!(m.partitions(), parts);
            let total: usize = (0..parts).map(|p| m.rows_in(p)).sum();
            assert_eq!(total, rows);
        }
    }

    #[test]
    fn partitions_are_as_even_as_segments_allow() {
        let m = PartitionManifest::range("t", 10 * 128, 128, 4, 2);
        // 10 segments over 4 partitions: 3,3,2,2.
        let segs: Vec<usize> = m.bounds.iter().map(|&(s, e)| (e - s) / 128).collect();
        assert_eq!(segs, vec![3, 3, 2, 2]);
    }

    #[test]
    fn row_lookup_matches_bounds() {
        let m = PartitionManifest::range("t", 1000, 128, 3, 3);
        for row in [0, 127, 128, 511, 999] {
            let p = m.partition_of_row(row).unwrap();
            let (s, e) = m.bounds[p];
            assert!(s <= row && row < e);
        }
        assert_eq!(m.partition_of_row(1000), None);
    }

    #[test]
    fn primary_and_replica_never_coincide_with_multiple_nodes() {
        let m = PartitionManifest::range("t", 1 << 20, 1 << 16, 8, 3);
        for p in 0..8 {
            assert_ne!(m.primary[p], m.replica[p], "partition {p}");
        }
    }

    #[test]
    fn partition_tables_reproduce_the_unsharded_segments_byte_for_byte() {
        let rows = 128 * 10 + 57; // partial final segment
        let modes = ["AIR", "RAIL", "SHIP", "TRUCK"];
        let full = TableBuilder::new("t")
            .seg_rows(128)
            .add_i64("k", (0..rows as i64).collect())
            .add_i32("v", (0..rows).map(|i| (i * 7 % 100) as i32).collect())
            .add_str("s", (0..rows).map(|i| modes[i % 4].to_string()).collect())
            .add_blob("c", 9999)
            .build();
        let m = PartitionManifest::range("t", rows, 128, 3, 2);
        let parts = partition_table(&full, &m);
        assert_eq!(parts.len(), 3);
        // Row content concatenates back to the full table...
        for (ci, (name, col)) in full.columns().iter().enumerate() {
            if matches!(col, Column::Blob(_)) {
                continue;
            }
            let mut got: Vec<i64> = Vec::new();
            for (p, part) in parts.iter().enumerate() {
                for r in 0..m.rows_in(p) {
                    got.push(part.get_cell(name, r));
                }
            }
            let want: Vec<i64> = (0..rows).map(|r| full.get_cell(name, r)).collect();
            assert_eq!(got, want, "column {name} ({ci})");
        }
        // ...and the *encoded* segments are the very same bytes.
        fn wire_bytes(col: &Column, seg: usize) -> Option<&[u8]> {
            match col {
                Column::Num(n) => n.segment_wire(seg),
                Column::Str(s) => s.codes.segment_wire(seg),
                Column::Blob(_) => None,
            }
        }
        for (p, part) in parts.iter().enumerate() {
            let first_seg = m.bounds[p].0 / 128;
            for (name, col) in part.columns() {
                let n_segs = match col {
                    Column::Num(n) => n.n_segments(),
                    Column::Str(s) => s.codes.n_segments(),
                    Column::Blob(_) => continue,
                };
                for s in 0..n_segs {
                    assert_eq!(
                        wire_bytes(col, s),
                        wire_bytes(full.col(name), first_seg + s),
                        "partition {p} column {name} segment {s}"
                    );
                }
            }
            // Dictionary is the global one, not a local re-derivation.
            assert_eq!(part.str_col("s").dict, full.str_col("s").dict);
        }
    }

    #[test]
    fn hash_partition_spreads_and_is_stable() {
        let mut counts = [0usize; 4];
        for k in 0..4000u64 {
            counts[hash_partition(k, 4)] += 1;
        }
        for c in counts {
            assert!((800..1200).contains(&c), "skewed: {counts:?}");
        }
        assert_eq!(hash_partition(42, 4), hash_partition(42, 4));
    }
}
