//! Differential updates (§2.3): in-memory delta structures over
//! immutable compressed tables.
//!
//! "The idea is to store modifications in (in-memory) delta structures,
//! and to treat the tables on disk as 'immutable' objects that are only
//! updated in a batched manner. During the scan, data from disk and
//! delta structures are merged ... merging the deltas can be applied
//! *after* decompression, and chunks need to be re-compressed only
//! periodically."
//!
//! [`TableDeltas`] records cell updates, row deletions and appended rows;
//! [`MergingScan`] wraps the compressed [`Scan`] and applies them on the
//! decompressed vectors; [`materialize`] is the periodic batch merge that
//! produces a fresh compressed table.

use crate::column::{Column, Compression, NumColumn};
use crate::scan::{Scan, ScanOptions};
use crate::table::{Table, TableBuilder};
use scc_engine::{Batch, Operator, Vector};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// One updated / appended cell value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Cell {
    /// 32-bit signed.
    I32(i32),
    /// 64-bit signed.
    I64(i64),
    /// Dictionary code.
    U32(u32),
}

impl Cell {
    fn write_into(self, v: &mut Vector, i: usize) {
        match (self, v) {
            (Cell::I32(x), Vector::I32(col)) => col[i] = x,
            (Cell::I64(x), Vector::I64(col)) => col[i] = x,
            (Cell::U32(x), Vector::U32(col)) => col[i] = x,
            (c, v) => panic!("cell {c:?} does not match column type {v:?}"),
        }
    }

    fn push_into(self, v: &mut Vector) {
        match (self, v) {
            (Cell::I32(x), Vector::I32(col)) => col.push(x),
            (Cell::I64(x), Vector::I64(col)) => col.push(x),
            (Cell::U32(x), Vector::U32(col)) => col.push(x),
            (c, v) => panic!("cell {c:?} does not match column type {v:?}"),
        }
    }
}

/// Delta structures for one table.
#[derive(Debug, Default, Clone)]
pub struct TableDeltas {
    /// Deleted base-table row ids.
    deletes: BTreeSet<usize>,
    /// `column index -> (row -> new value)`.
    updates: BTreeMap<usize, BTreeMap<usize, Cell>>,
    /// Appended rows, one `Cell` per *scannable* column in table order.
    appends: Vec<Vec<Cell>>,
}

impl TableDeltas {
    /// Creates an empty delta set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Marks a base row deleted (idempotent).
    pub fn delete(&mut self, row: usize) {
        self.deletes.insert(row);
    }

    /// Records an update of one cell.
    pub fn update(&mut self, col: usize, row: usize, value: Cell) {
        self.updates.entry(col).or_default().insert(row, value);
    }

    /// Appends a new row (`cells` aligned with the table's scannable
    /// columns in declaration order).
    pub fn append(&mut self, cells: Vec<Cell>) {
        self.appends.push(cells);
    }

    /// Number of pending modifications.
    pub fn len(&self) -> usize {
        self.deletes.len()
            + self.updates.values().map(BTreeMap::len).sum::<usize>()
            + self.appends.len()
    }

    /// True when no modifications are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A scan that merges deltas into the decompressed stream: updates are
/// patched onto the vectors, deleted rows are compacted away, appended
/// rows stream out after the base table.
pub struct MergingScan {
    inner: Scan,
    deltas: Arc<TableDeltas>,
    /// Scanned column indexes in the *table*, parallel to the output.
    table_cols: Vec<usize>,
    /// Base-table row id of the next vector's first row.
    pos: usize,
    /// Cursor into `deltas.appends`.
    append_pos: usize,
    vector_size: usize,
}

impl MergingScan {
    /// Wraps a scan of `cols` over `table`.
    pub fn new(
        table: Arc<Table>,
        cols: &[&str],
        opts: ScanOptions,
        stats: crate::disk::StatsHandle,
        deltas: Arc<TableDeltas>,
    ) -> Self {
        let table_cols = cols.iter().map(|c| table.col_index(c)).collect();
        let vector_size = opts.vector_size;
        let inner = Scan::new(table, cols, opts, stats, None);
        Self { inner, deltas, table_cols, pos: 0, append_pos: 0, vector_size }
    }

    fn next_appends(&mut self) -> Option<Batch> {
        if self.append_pos >= self.deltas.appends.len() {
            return None;
        }
        let take = self.vector_size.min(self.deltas.appends.len() - self.append_pos);
        // Column vectors typed after the first appended row.
        let mut columns: Vec<Vector> = self
            .table_cols
            .iter()
            .map(|&c| match self.deltas.appends[self.append_pos][c] {
                Cell::I32(_) => Vector::I32(Vec::with_capacity(take)),
                Cell::I64(_) => Vector::I64(Vec::with_capacity(take)),
                Cell::U32(_) => Vector::U32(Vec::with_capacity(take)),
            })
            .collect();
        for row in &self.deltas.appends[self.append_pos..self.append_pos + take] {
            for (slot, &c) in self.table_cols.iter().enumerate() {
                row[c].push_into(&mut columns[slot]);
            }
        }
        self.append_pos += take;
        Some(Batch::new(columns))
    }
}

impl Operator for MergingScan {
    fn try_next(&mut self) -> Result<Option<Batch>, scc_core::Error> {
        loop {
            let Some(mut batch) = self.inner.try_next()? else {
                return Ok(self.next_appends());
            };
            let n = batch.len();
            let base = self.pos;
            self.pos += n;
            // Patch updates onto the decompressed vectors.
            for (slot, &c) in self.table_cols.iter().enumerate() {
                if let Some(col_updates) = self.deltas.updates.get(&c) {
                    for (&row, &cell) in col_updates.range(base..base + n) {
                        cell.write_into(&mut batch.columns[slot], row - base);
                    }
                }
            }
            // Compact deletions away.
            let has_deletes = self.deltas.deletes.range(base..base + n).next().is_some();
            if has_deletes {
                let keep: Vec<usize> =
                    (0..n).filter(|i| !self.deltas.deletes.contains(&(base + i))).collect();
                if keep.is_empty() {
                    continue;
                }
                return Ok(Some(batch.gather(&keep)));
            }
            return Ok(Some(batch));
        }
    }
}

/// The periodic batch merge: scans the table with its deltas applied and
/// rebuilds a fresh compressed table (numeric columns only; string
/// columns come through as code columns against the old dictionary).
pub fn materialize(table: &Arc<Table>, deltas: &Arc<TableDeltas>, opts: ScanOptions) -> Arc<Table> {
    let names: Vec<&str> = table
        .columns()
        .iter()
        .filter(|(_, c)| !matches!(c, Column::Blob(_)))
        .map(|(n, _)| n.as_str())
        .collect();
    let stats = crate::disk::stats_handle();
    let mut scan = MergingScan::new(Arc::clone(table), &names, opts, stats, Arc::clone(deltas));
    let merged = scc_engine::ops::collect(&mut scan);
    let mut builder = TableBuilder::new(&table.name).seg_rows(table.seg_rows());
    builder = builder.compression(Compression::Auto);
    for (slot, name) in names.iter().enumerate() {
        builder = match &merged.columns[slot] {
            Vector::I32(v) => builder.add_i32(name, v.clone()),
            Vector::I64(v) => builder.add_i64(name, v.clone()),
            Vector::U32(v) => builder.add_u32(name, v.clone()),
            other => panic!("unmergeable column type {other:?}"),
        };
    }
    builder.build()
}

/// Reads back the scannable-column count of a table (helper for building
/// aligned append rows).
pub fn scannable_columns(table: &Table) -> usize {
    table.columns().iter().filter(|(_, c)| !matches!(c, Column::Blob(_))).count()
}

/// Looks up the numeric value of a scannable column for appends testing.
pub fn column_is_numeric(table: &Table, name: &str) -> bool {
    matches!(
        table.col(name),
        Column::Num(NumColumn::I32(_) | NumColumn::I64(_) | NumColumn::U32(_))
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::stats_handle;

    fn base_table() -> Arc<Table> {
        TableBuilder::new("t")
            .seg_rows(1024)
            .add_i64("k", (0..5000).collect())
            .add_i32("v", (0..5000).map(|i| i % 100).collect())
            .build()
    }

    fn scan_all(table: &Arc<Table>, deltas: &Arc<TableDeltas>) -> Batch {
        let mut scan = MergingScan::new(
            Arc::clone(table),
            &["k", "v"],
            ScanOptions { vector_size: 512, ..Default::default() },
            stats_handle(),
            Arc::clone(deltas),
        );
        scc_engine::ops::collect(&mut scan)
    }

    #[test]
    fn empty_deltas_are_transparent() {
        let t = base_table();
        let out = scan_all(&t, &Arc::new(TableDeltas::new()));
        assert_eq!(out.len(), 5000);
        assert_eq!(out.col(0).as_i64()[4999], 4999);
    }

    #[test]
    fn updates_overwrite_decompressed_values() {
        let t = base_table();
        let mut d = TableDeltas::new();
        d.update(1, 0, Cell::I32(-5));
        d.update(1, 2500, Cell::I32(-6));
        d.update(0, 4999, Cell::I64(1_000_000));
        let out = scan_all(&t, &Arc::new(d));
        assert_eq!(out.col(1).as_i32()[0], -5);
        assert_eq!(out.col(1).as_i32()[2500], -6);
        assert_eq!(out.col(0).as_i64()[4999], 1_000_000);
        // Neighbours untouched.
        assert_eq!(out.col(1).as_i32()[1], 1);
    }

    #[test]
    fn deletes_compact_rows() {
        let t = base_table();
        let mut d = TableDeltas::new();
        for row in [0usize, 1, 2, 4999, 1234] {
            d.delete(row);
        }
        let out = scan_all(&t, &Arc::new(d));
        assert_eq!(out.len(), 4995);
        assert_eq!(out.col(0).as_i64()[0], 3);
        assert!(!out.col(0).as_i64().contains(&1234));
    }

    #[test]
    fn appends_stream_after_base() {
        let t = base_table();
        let mut d = TableDeltas::new();
        for i in 0..700 {
            d.append(vec![Cell::I64(10_000 + i), Cell::I32(7)]);
        }
        let out = scan_all(&t, &Arc::new(d));
        assert_eq!(out.len(), 5700);
        assert_eq!(out.col(0).as_i64()[5000], 10_000);
        assert_eq!(out.col(0).as_i64()[5699], 10_699);
        assert_eq!(out.col(1).as_i32()[5500], 7);
    }

    #[test]
    fn mixed_workload_and_materialize() {
        let t = base_table();
        let mut d = TableDeltas::new();
        d.delete(10);
        d.update(1, 20, Cell::I32(-1));
        d.append(vec![Cell::I64(99_999), Cell::I32(3)]);
        let d = Arc::new(d);
        let merged_scan = scan_all(&t, &d);
        // Periodic batch merge produces an equivalent compressed table.
        let fresh = materialize(&t, &d, ScanOptions { vector_size: 512, ..Default::default() });
        assert_eq!(fresh.n_rows(), 5000);
        let fresh_out = scan_all(&fresh, &Arc::new(TableDeltas::new()));
        assert_eq!(fresh_out, merged_scan);
        // And it is still compressed.
        assert!(fresh.compressed_bytes() < fresh.plain_bytes());
    }

    #[test]
    fn delta_bookkeeping() {
        let mut d = TableDeltas::new();
        assert!(d.is_empty());
        d.delete(1);
        d.delete(1); // idempotent
        d.update(0, 5, Cell::I64(1));
        d.append(vec![Cell::I64(2)]);
        assert_eq!(d.len(), 3);
    }
}
