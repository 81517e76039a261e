//! Compressed-column handles for lazy materialization.
//!
//! A [`SegmentHandle`] is the storage side of the engine's
//! `CodeCol` contract: one handle per (column, segment) pair of a
//! [`Table`], held by the batches a [`crate::Scan`] emits for a
//! `Select` above it (`into_plan` with a predicate). `Select`
//! evaluates pushed-down predicates against the *codes* through
//! [`SegmentHandle::try_select`]; decompression happens only when an
//! operator actually needs values — either the whole window
//! ([`SegmentHandle::materialize`]) or just the surviving rows
//! ([`SegmentHandle::gather`], block-granular).
//!
//! `decode_window` is the one decode routine: the scan calls it
//! directly when nothing reads codes and books each batch once, and
//! `materialize` calls it and books each call. Either way decompression
//! is charged to the scan's [`StatsHandle`] on whichever thread it
//! happens, so `decompress_ns`/`output_bytes` keep meaning "values
//! actually decoded". Chunk I/O is *not* charged here — the scan
//! charged it when it entered the segment, and skipping decode never
//! skips the read of the compressed bytes.

use crate::column::{Column, ColumnStore, NumColumn, StoredSegment};
use crate::disk::StatsHandle;
use crate::table::Table;
use scc_core::{type_literal, Error, TypedLit, Value, ValuePred, BLOCK};
use scc_engine::{CodeCol, ColType, PushPred, Vector};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

/// A `CodeCol` over one stored segment of one column. String columns
/// expose their dictionary codes (predicates arrive pre-translated to
/// code sets, same as the eager scan's contract).
pub struct SegmentHandle {
    table: Arc<Table>,
    col: usize,
    seg: usize,
    stats: StatsHandle,
    /// Values decoded through this handle so far, wherever that
    /// happened; the scan's per-segment trace span reports it.
    decoded: AtomicU64,
}

impl SegmentHandle {
    /// Builds a handle for segment `seg` of column `col` (a table
    /// column index), charging decode work to `stats`.
    pub fn new(table: Arc<Table>, col: usize, seg: usize, stats: StatsHandle) -> Self {
        Self { table, col, seg, stats, decoded: AtomicU64::new(0) }
    }

    /// Values decoded through this handle so far.
    pub(crate) fn values_decoded(&self) -> u64 {
        self.decoded.load(Relaxed)
    }

    /// Books one decode: its wall time, the values it decoded and the
    /// bytes it delivered into output vectors.
    fn charge_decode(&self, t0: Instant, values: u64, produced: u64) {
        self.stats.charge_decompress(t0.elapsed());
        self.stats.charge_output(produced);
        self.decoded.fetch_add(values, Relaxed);
    }

    fn column(&self) -> &Column {
        &self.table.columns()[self.col].1
    }
}

/// True when the stored form of `col`'s segment `seg` supports
/// code-space selection (a patched-compressed segment; plain and
/// LZRW1-page segments have no code representation to scan).
pub(crate) fn segment_is_compressed(col: &Column, seg: usize) -> bool {
    fn check<V: Value>(s: &ColumnStore<V>, seg: usize) -> bool {
        matches!(s.segments[seg], StoredSegment::Compressed(..))
    }
    match col {
        Column::Num(NumColumn::I32(s)) => check(s, seg),
        Column::Num(NumColumn::I64(s)) => check(s, seg),
        Column::Num(NumColumn::U32(s)) => check(s, seg),
        Column::Str(sc) => check(&sc.codes, seg),
        Column::Blob(_) => false,
    }
}

/// Rows stored in segment `seg` (shorter for the tail segment).
fn rows_in_segment<V: Value>(store: &ColumnStore<V>, seg: usize) -> usize {
    store.seg_rows.min(store.len() - seg * store.seg_rows)
}

fn select_typed<V: Value>(
    store: &ColumnStore<V>,
    seg: usize,
    pred: &PushPred,
    offset: usize,
    out: &mut [bool],
) -> Result<bool, Error> {
    let StoredSegment::Compressed(s, _) = &store.segments[seg] else {
        return Ok(false);
    };
    let vp = match pred {
        PushPred::Cmp { op, lit } => match type_literal::<V>(*op, *lit) {
            TypedLit::Lit(v) => ValuePred::Cmp { op: *op, lit: v },
            // Out-of-domain literal: constant outcome, no codes read.
            TypedLit::AlwaysTrue => {
                out.fill(true);
                return Ok(true);
            }
            TypedLit::AlwaysFalse => {
                out.fill(false);
                return Ok(true);
            }
        },
        PushPred::InSet(set) => ValuePred::InSet(set.clone()),
    };
    let Some(cp) = s.compile_predicate(&vp) else {
        return Ok(false);
    };
    s.try_select_range(&cp, offset, out)?;
    Ok(true)
}

/// Decodes rows `[offset, offset + len)` of `col`'s segment `seg` into
/// one fresh vector. Returns it with the bytes it holds; the caller
/// books both.
pub(crate) fn decode_window(
    col: &Column,
    seg: usize,
    offset: usize,
    len: usize,
) -> Result<(Vector, u64), Error> {
    fn typed<V: Value>(
        store: &ColumnStore<V>,
        seg: usize,
        offset: usize,
        len: usize,
        wrap: fn(Vec<V>) -> Vector,
    ) -> Result<(Vector, u64), Error> {
        let mut out = vec![V::default(); len];
        store.try_decode_segment_range(seg, offset, &mut out)?;
        Ok((wrap(out), (len * V::byte_width()) as u64))
    }
    match col {
        Column::Num(NumColumn::I32(s)) => typed(s, seg, offset, len, Vector::I32),
        Column::Num(NumColumn::I64(s)) => typed(s, seg, offset, len, Vector::I64),
        Column::Num(NumColumn::U32(s)) => typed(s, seg, offset, len, Vector::U32),
        Column::Str(sc) => typed(&sc.codes, seg, offset, len, Vector::U32),
        Column::Blob(_) => unreachable!("blob columns cannot be scanned"),
    }
}

fn gather_typed<V: Value>(
    handle: &SegmentHandle,
    store: &ColumnStore<V>,
    offset: usize,
    rows: &[usize],
) -> Result<(Vec<V>, u64), Error> {
    let seg = handle.seg;
    let seg_len = rows_in_segment(store, seg);
    let mut out = Vec::with_capacity(rows.len());
    let mut buf = [V::default(); BLOCK];
    let mut cur_block = usize::MAX;
    let mut decoded = 0u64;
    let t0 = Instant::now();
    for &r in rows {
        let pos = offset + r;
        let blk = pos / BLOCK;
        if blk != cur_block {
            let blk_start = blk * BLOCK;
            let blk_len = BLOCK.min(seg_len - blk_start);
            store.try_decode_segment_range(seg, blk_start, &mut buf[..blk_len])?;
            decoded += blk_len as u64;
            cur_block = blk;
        }
        out.push(buf[pos % BLOCK]);
    }
    handle.charge_decode(t0, decoded, (rows.len() * V::byte_width()) as u64);
    Ok((out, decoded))
}

impl CodeCol for SegmentHandle {
    fn col_type(&self) -> ColType {
        match self.column() {
            Column::Num(NumColumn::I32(_)) => ColType::I32,
            Column::Num(NumColumn::I64(_)) => ColType::I64,
            Column::Num(NumColumn::U32(_)) | Column::Str(_) => ColType::U32,
            Column::Blob(_) => unreachable!("blob columns cannot be scanned"),
        }
    }

    fn try_select(&self, pred: &PushPred, offset: usize, out: &mut [bool]) -> Result<bool, Error> {
        match self.column() {
            Column::Num(NumColumn::I32(s)) => select_typed(s, self.seg, pred, offset, out),
            Column::Num(NumColumn::I64(s)) => select_typed(s, self.seg, pred, offset, out),
            Column::Num(NumColumn::U32(s)) => select_typed(s, self.seg, pred, offset, out),
            Column::Str(sc) => select_typed(&sc.codes, self.seg, pred, offset, out),
            Column::Blob(_) => unreachable!("blob columns cannot be scanned"),
        }
    }

    fn materialize(&self, offset: usize, len: usize) -> Result<Vector, Error> {
        let t0 = Instant::now();
        let (v, bytes) = decode_window(self.column(), self.seg, offset, len)?;
        self.charge_decode(t0, len as u64, bytes);
        Ok(v)
    }

    fn gather(&self, offset: usize, rows: &[usize]) -> Result<(Vector, u64), Error> {
        Ok(match self.column() {
            Column::Num(NumColumn::I32(s)) => {
                let (v, d) = gather_typed(self, s, offset, rows)?;
                (Vector::I32(v), d)
            }
            Column::Num(NumColumn::I64(s)) => {
                let (v, d) = gather_typed(self, s, offset, rows)?;
                (Vector::I64(v), d)
            }
            Column::Num(NumColumn::U32(s)) => {
                let (v, d) = gather_typed(self, s, offset, rows)?;
                (Vector::U32(v), d)
            }
            Column::Str(sc) => {
                let (v, d) = gather_typed(self, &sc.codes, offset, rows)?;
                (Vector::U32(v), d)
            }
            Column::Blob(_) => unreachable!("blob columns cannot be scanned"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::stats_handle;
    use crate::table::TableBuilder;
    use scc_core::PredOp;

    fn table() -> Arc<Table> {
        // Value orders are scrambled so the analyzer picks PFOR (a
        // sequential column would compress as PFOR-DELTA, which never
        // answers predicates in code space).
        let mix = |i: usize| i.wrapping_mul(2654435761) >> 7;
        TableBuilder::new("lz")
            .seg_rows(2048)
            .add_i64("key", (0..10_000).collect())
            .add_i32("val", (0..10_000).map(|i| (mix(i) % 97) as i32).collect())
            .add_str("flag", (0..10_000).map(|i| ["A", "B", "C"][mix(i) % 3].to_string()).collect())
            .build()
    }

    #[test]
    fn select_matches_decode_then_test() {
        let t = table();
        let h = SegmentHandle::new(Arc::clone(&t), t.col_index("val"), 1, stats_handle());
        let mut sel = vec![false; 1024];
        assert!(h.try_select(&PushPred::Cmp { op: PredOp::Lt, lit: 10 }, 0, &mut sel).unwrap());
        let Vector::I32(vals) = h.materialize(0, 1024).unwrap() else { panic!("i32") };
        for (i, (&s, &v)) in sel.iter().zip(&vals).enumerate() {
            assert_eq!(s, v < 10, "row {i}");
        }
    }

    #[test]
    fn out_of_domain_literal_short_circuits() {
        let t = table();
        // val is i32; an i64 literal beyond i32::MAX can never match Eq
        // and always matches Lt.
        let h = SegmentHandle::new(Arc::clone(&t), t.col_index("val"), 0, stats_handle());
        let mut sel = vec![true; 256];
        assert!(h
            .try_select(&PushPred::Cmp { op: PredOp::Eq, lit: i64::MAX }, 0, &mut sel)
            .unwrap());
        assert!(sel.iter().all(|&s| !s));
        assert!(h
            .try_select(&PushPred::Cmp { op: PredOp::Lt, lit: i64::MAX }, 0, &mut sel)
            .unwrap());
        assert!(sel.iter().all(|&s| s));
        // Negative literal against unsigned dictionary codes: Ge is
        // always true, Eq always false.
        let hs = SegmentHandle::new(Arc::clone(&t), t.col_index("flag"), 0, stats_handle());
        assert!(hs.try_select(&PushPred::Cmp { op: PredOp::Ge, lit: -1 }, 0, &mut sel).unwrap());
        assert!(sel.iter().all(|&s| s));
    }

    #[test]
    fn in_set_selects_dictionary_codes() {
        let t = table();
        let codes = t.str_col("flag").codes_matching(|s| s == "B");
        let h = SegmentHandle::new(Arc::clone(&t), t.col_index("flag"), 0, stats_handle());
        let mut sel = vec![false; 2048];
        assert!(h.try_select(&PushPred::InSet(codes), 0, &mut sel).unwrap());
        let Vector::U32(vals) = h.materialize(0, 2048).unwrap() else { panic!("u32") };
        let b = t.str_col("flag").code_of("B").unwrap();
        for (&s, &v) in sel.iter().zip(&vals) {
            assert_eq!(s, v == b);
        }
    }

    #[test]
    fn gather_is_block_granular_and_charges_stats() {
        let t = table();
        let stats = stats_handle();
        let h = SegmentHandle::new(Arc::clone(&t), t.col_index("key"), 2, Arc::clone(&stats));
        // Rows within two distinct 128-blocks: exactly 256 values decode.
        let (v, decoded) = h.gather(0, &[3, 4, 700]).unwrap();
        assert_eq!(decoded, 256);
        let Vector::I64(v) = v else { panic!("i64") };
        assert_eq!(v, vec![2 * 2048 + 3, 2 * 2048 + 4, 2 * 2048 + 700]);
        assert_eq!(stats.snapshot().output_bytes, 3 * 8, "charged for delivered rows");
    }

    #[test]
    fn unaligned_select_offset_is_a_typed_error() {
        let t = table();
        let h = SegmentHandle::new(Arc::clone(&t), t.col_index("val"), 0, stats_handle());
        let mut sel = vec![false; 128];
        let err =
            h.try_select(&PushPred::Cmp { op: PredOp::Ge, lit: 0 }, 77, &mut sel).unwrap_err();
        assert_eq!(err, Error::UnalignedRange { start: 77 });
    }
}
