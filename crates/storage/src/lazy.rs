//! Late materialization: the filter a scan runs over its packed codes.
//!
//! Free functions over one (column, segment, window) reach the stored
//! form directly: [`decode_window`] decodes rows into a fresh vector,
//! [`select_window`] tests a pushed predicate against the packed codes
//! without decoding, and [`gather_window`] decodes only the 128-value
//! blocks that hold the requested rows. String columns expose their
//! dictionary codes (predicates arrive pre-translated to code sets).
//!
//! A [`Filter`] is the predicate `Scan::into_plan` fuses into the scan.
//! Per vector, each `col OP literal` / `col IN set` conjunct is tested
//! against the codes of a patched segment; every other conjunct decodes
//! the columns it reads and is evaluated over those alone. Surviving
//! rows are then decoded from the still-packed columns: nothing for a
//! dead vector, everything for a fully passing one, touched blocks
//! otherwise. The filter books what it decodes into the scan's
//! [`ScanStats`] as it happens; chunk I/O was charged when the scan
//! entered the segment, and skipping decode never skips that read.

use crate::column::{Column, ColumnStore, NumColumn, StoredSegment};
use crate::disk::ScanStats;
use crate::table::Table;
use scc_core::{type_literal, Error, PredOp, TypedLit, Value, ValuePred, BLOCK};
use scc_engine::ops::select::selected_rows;
use scc_engine::{Batch, Expr, Vector};
use std::collections::HashSet;
use std::time::Instant;

/// A conjunct a segment may answer over its codes: one column compared
/// against a literal in the `i64` carrier (exact for every integer
/// type), or tested for membership in a set keyed like
/// [`Vector::key_at`]. The literal is re-encoded into the column's value
/// type and, when the segment's scheme allows, into code space.
enum PushPred {
    /// `column OP literal`.
    Cmp { op: PredOp, lit: i64 },
    /// `column IN set`.
    InSet(HashSet<u64>),
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

/// Evaluates `pred` over rows `[offset, offset + out.len())` of `col`'s
/// segment `seg` without decoding, writing the selection into `out`.
/// `Ok(false)` means the segment cannot answer in code space (delta
/// coding, a wrapped window, plain or LZRW1 storage): decode and test
/// the values instead. `Ok(true)` means `out` holds exactly the rows a
/// decode-then-test evaluation would select.
fn select_window(
    col: &Column,
    seg: usize,
    pred: &PushPred,
    offset: usize,
    out: &mut [bool],
) -> Result<bool, Error> {
    match col {
        Column::Num(NumColumn::I32(s)) => select_typed(s, seg, pred, offset, out),
        Column::Num(NumColumn::I64(s)) => select_typed(s, seg, pred, offset, out),
        Column::Num(NumColumn::U32(s)) => select_typed(s, seg, pred, offset, out),
        Column::Str(sc) => select_typed(&sc.codes, seg, pred, offset, out),
        Column::Blob(_) => unreachable!("blob columns cannot be scanned"),
    }
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
    store: &ColumnStore<V>,
    seg: usize,
    offset: usize,
    rows: &[usize],
    wrap: fn(Vec<V>) -> Vector,
) -> Result<(Vector, u64, u64), Error> {
    let seg_len = rows_in_segment(store, seg);
    let mut out = Vec::with_capacity(rows.len());
    let mut buf = [V::default(); BLOCK];
    let mut cur_block = usize::MAX;
    let mut decoded = 0u64;
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
    Ok((wrap(out), decoded, (rows.len() * V::byte_width()) as u64))
}

/// Decodes only the rows at `rows` (ascending, relative to `offset`) of
/// `col`'s segment `seg`, a whole 128-value block at a time. Returns the
/// gathered vector, the values decoded to serve it and the bytes it
/// holds; the caller books them.
fn gather_window(
    col: &Column,
    seg: usize,
    offset: usize,
    rows: &[usize],
) -> Result<(Vector, u64, u64), Error> {
    match col {
        Column::Num(NumColumn::I32(s)) => gather_typed(s, seg, offset, rows, Vector::I32),
        Column::Num(NumColumn::I64(s)) => gather_typed(s, seg, offset, rows, Vector::I64),
        Column::Num(NumColumn::U32(s)) => gather_typed(s, seg, offset, rows, Vector::U32),
        Column::Str(sc) => gather_typed(&sc.codes, seg, offset, rows, Vector::U32),
        Column::Blob(_) => unreachable!("blob columns cannot be scanned"),
    }
}

/// Flattens an `And` tree into its conjuncts (any other node is a
/// single conjunct).
fn split_conjuncts<'a>(e: &'a Expr, out: &mut Vec<&'a Expr>) {
    if let Expr::And(a, b) = e {
        split_conjuncts(a, out);
        split_conjuncts(b, out);
    } else {
        out.push(e);
    }
}

/// The `i64` carrier of an exact integer literal (`f64` literals are
/// not pushable: their comparisons are not representable in code space).
fn literal_of(e: &Expr) -> Option<i64> {
    match e {
        Expr::LitI32(v) => Some(*v as i64),
        Expr::LitI64(v) => Some(*v),
        Expr::LitU32(v) => Some(*v as i64),
        _ => None,
    }
}

/// `lit OP col` reads as `col mirror(OP) lit`.
fn mirror(op: PredOp) -> PredOp {
    match op {
        PredOp::Eq => PredOp::Eq,
        PredOp::Ne => PredOp::Ne,
        PredOp::Lt => PredOp::Gt,
        PredOp::Le => PredOp::Ge,
        PredOp::Gt => PredOp::Lt,
        PredOp::Ge => PredOp::Le,
    }
}

/// Recognizes a conjunct the compressed domain can evaluate: a single
/// column compared against an integer literal (either side), or a
/// column set-membership test.
fn as_pushable(e: &Expr) -> Option<(usize, PushPred)> {
    let cmp = |a: &Expr, b: &Expr, op: PredOp| match (a, b) {
        (Expr::Col(i), rhs) => literal_of(rhs).map(|lit| (*i, PushPred::Cmp { op, lit })),
        (lhs, Expr::Col(i)) => {
            literal_of(lhs).map(|lit| (*i, PushPred::Cmp { op: mirror(op), lit }))
        }
        _ => None,
    };
    match e {
        Expr::Eq(a, b) => cmp(a, b, PredOp::Eq),
        Expr::Ne(a, b) => cmp(a, b, PredOp::Ne),
        Expr::Lt(a, b) => cmp(a, b, PredOp::Lt),
        Expr::Le(a, b) => cmp(a, b, PredOp::Le),
        Expr::Gt(a, b) => cmp(a, b, PredOp::Gt),
        Expr::Ge(a, b) => cmp(a, b, PredOp::Ge),
        Expr::InSet(inner, set) => match &**inner {
            Expr::Col(i) => Some((*i, PushPred::InSet(set.clone()))),
            _ => None,
        },
        _ => None,
    }
}

/// One conjunct of a [`Filter`].
struct Conjunct {
    /// The column and literal a patched segment may test in code space.
    push: Option<(usize, PushPred)>,
    /// The scan columns the conjunct reads.
    cols: Vec<usize>,
    /// The conjunct with column `cols[i]` renumbered to `i`.
    expr: Expr,
}

/// A predicate over a scan's output columns, compiled for the scan to
/// run per vector (see the module docs).
pub(crate) struct Filter {
    /// The outcome of the conjuncts that read no column.
    constant: bool,
    conjuncts: Vec<Conjunct>,
}

/// One vector a scan read: rows `[offset, offset + len)` of segment
/// `seg`, each column decoded or, while still packed, `None`.
pub(crate) struct Window {
    pub(crate) seg: usize,
    pub(crate) offset: usize,
    pub(crate) len: usize,
    pub(crate) vectors: Vec<Option<Vector>>,
}

impl Filter {
    /// Compiles `predicate`.
    pub(crate) fn new(predicate: &Expr) -> Self {
        let mut parts = Vec::new();
        split_conjuncts(predicate, &mut parts);
        let (mut constant, mut conjuncts) = (true, Vec::new());
        for part in parts {
            let (mut cols, mut expr) = (Vec::new(), part.clone());
            expr.visit_cols_mut(&mut |i| {
                *i = cols.iter().position(|c| c == i).unwrap_or_else(|| {
                    cols.push(*i);
                    cols.len() - 1
                });
            });
            if cols.is_empty() {
                // A folded out-of-domain literal: evaluate it once.
                let one_row = Batch::new(vec![Vector::Mask(vec![true])]);
                constant &= expr.eval(&one_row).as_mask()[0];
            } else {
                conjuncts.push(Conjunct { push: as_pushable(part), cols, expr });
            }
        }
        Self { constant, conjuncts }
    }

    /// Filters one window of a scan of `table`'s columns `cols`, booking
    /// every decode into `stats`. Conjuncts are not short-circuited.
    /// Returns the dense survivors (`None` when no row passed) and the
    /// values decoded and skipped.
    pub(crate) fn apply(
        &self,
        table: &Table,
        cols: &[usize],
        w: Window,
        stats: &ScanStats,
    ) -> Result<(Option<Batch>, u64, u64), Error> {
        let Window { seg, offset, len: n, mut vectors } = w;
        let column = |slot: usize| &table.columns()[cols[slot]].1;
        let book = |t0: Instant, bytes: u64| {
            stats.charge_decompress(t0.elapsed());
            stats.charge_output(bytes);
        };
        let decode = |slot: usize| {
            let t0 = Instant::now();
            let (v, bytes) = decode_window(column(slot), seg, offset, n)?;
            book(t0, bytes);
            Ok::<_, Error>(v)
        };
        let (mut decoded, mut skipped) = (0u64, 0u64);
        let mut mask = vec![self.constant; n];
        let mut sel = vec![false; n];
        for c in &self.conjuncts {
            if let Some((slot, pred)) = &c.push {
                if vectors[*slot].is_none()
                    && select_window(column(*slot), seg, pred, offset, &mut sel)?
                {
                    mask.iter_mut().zip(&sel).for_each(|(m, s)| *m &= *s);
                    continue;
                }
            }
            // Decode what the conjunct reads, evaluate it over those
            // columns alone, and put them back.
            let mut local = Vec::with_capacity(c.cols.len());
            for &slot in &c.cols {
                local.push(match vectors[slot].take() {
                    Some(v) => v,
                    None => {
                        decoded += n as u64;
                        decode(slot)?
                    }
                });
            }
            let local = Batch::new(local);
            mask.iter_mut().zip(c.expr.eval_ref(&local).as_mask()).for_each(|(m, s)| *m &= *s);
            for (&slot, v) in c.cols.iter().zip(local.columns) {
                vectors[slot] = Some(v);
            }
        }
        let rows = selected_rows(&mask);
        if rows.is_empty() {
            skipped = n as u64 * vectors.iter().filter(|v| v.is_none()).count() as u64;
            return Ok((None, decoded, skipped));
        }
        let mut out = Vec::with_capacity(vectors.len());
        for (slot, v) in vectors.into_iter().enumerate() {
            out.push(match v {
                Some(v) if rows.len() == n => v,
                Some(v) => v.gather(&rows),
                None if rows.len() == n => {
                    decoded += n as u64;
                    decode(slot)?
                }
                None => {
                    let t0 = Instant::now();
                    let (v, values, bytes) = gather_window(column(slot), seg, offset, &rows)?;
                    book(t0, bytes);
                    decoded += values;
                    skipped += (n as u64).saturating_sub(values);
                    v
                }
            });
        }
        Ok((Some(Batch::new(out)), decoded, skipped))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::{stats_handle, ScanSnapshot};
    use crate::scan::{Scan, ScanOptions};
    use crate::table::TableBuilder;
    use scc_engine::ops::collect;
    use scc_engine::{OpProfile, Operator};
    use std::sync::Arc;

    const ROWS: usize = 10_000;

    fn table() -> Arc<Table> {
        // Value orders are scrambled so the analyzer picks PFOR; the
        // sequential `key` compresses as PFOR-DELTA, which never answers
        // predicates in code space.
        let mix = |i: usize| i.wrapping_mul(2654435761) >> 7;
        TableBuilder::new("lz")
            .seg_rows(2048)
            .add_i64("key", (0..ROWS as i64).collect())
            .add_i32("val", (0..ROWS).map(|i| (mix(i) % 97) as i32).collect())
            .add_str("flag", (0..ROWS).map(|i| ["A", "B", "C"][mix(i) % 3].to_string()).collect())
            .add_i64("wide", (0..ROWS).map(|i| (mix(i + 77) % 1000) as i64).collect())
            .build()
    }

    fn col<'a>(t: &'a Table, name: &str) -> &'a Column {
        &t.columns()[t.col_index(name)].1
    }

    /// `pred` over `cols` through a filtered scan: the output, the
    /// `Select` row's profile and the ledger.
    fn filtered(
        t: &Arc<Table>,
        cols: &[&str],
        pred: Expr,
        code_scan: bool,
    ) -> (Batch, OpProfile, ScanSnapshot) {
        let stats = stats_handle();
        let opts = ScanOptions { code_scan, ..Default::default() };
        let mut plan =
            Scan::new(Arc::clone(t), cols, opts, Arc::clone(&stats), None).into_plan(Some(pred), 1);
        let out = collect(plan.as_mut());
        (out, plan.profile(), stats.snapshot())
    }

    /// Values a block-granular gather of the table rows `rows` decodes.
    fn block_values(rows: &[i64]) -> u64 {
        let mut blocks: Vec<usize> = rows.iter().map(|&r| r as usize / BLOCK).collect();
        blocks.dedup();
        blocks.iter().map(|b| BLOCK.min(ROWS - b * BLOCK) as u64).sum()
    }

    #[test]
    fn select_matches_decode_then_test() {
        let t = table();
        let mut sel = vec![false; 1024];
        let pred = PushPred::Cmp { op: PredOp::Lt, lit: 10 };
        assert!(select_window(col(&t, "val"), 1, &pred, 0, &mut sel).unwrap());
        let (Vector::I32(vals), _) = decode_window(col(&t, "val"), 1, 0, 1024).unwrap() else {
            panic!("i32")
        };
        for (i, (&s, &v)) in sel.iter().zip(&vals).enumerate() {
            assert_eq!(s, v < 10, "row {i}");
        }
    }

    #[test]
    fn out_of_domain_literal_short_circuits() {
        let t = table();
        // val is i32; an i64 literal beyond i32::MAX can never match Eq
        // and always matches Lt.
        let mut sel = vec![true; 256];
        let cmp = |op, lit| PushPred::Cmp { op, lit };
        assert!(select_window(col(&t, "val"), 0, &cmp(PredOp::Eq, i64::MAX), 0, &mut sel).unwrap());
        assert!(sel.iter().all(|&s| !s));
        assert!(select_window(col(&t, "val"), 0, &cmp(PredOp::Lt, i64::MAX), 0, &mut sel).unwrap());
        assert!(sel.iter().all(|&s| s));
        // Negative literal against unsigned dictionary codes: Ge is
        // always true, Eq always false.
        assert!(select_window(col(&t, "flag"), 0, &cmp(PredOp::Ge, -1), 0, &mut sel).unwrap());
        assert!(sel.iter().all(|&s| s));
    }

    #[test]
    fn in_set_selects_dictionary_codes() {
        let t = table();
        let codes = t.str_col("flag").codes_matching(|s| s == "B");
        let mut sel = vec![false; 2048];
        assert!(select_window(col(&t, "flag"), 0, &PushPred::InSet(codes), 0, &mut sel).unwrap());
        let (Vector::U32(vals), _) = decode_window(col(&t, "flag"), 0, 0, 2048).unwrap() else {
            panic!("u32")
        };
        let b = t.str_col("flag").code_of("B").unwrap();
        for (&s, &v) in sel.iter().zip(&vals) {
            assert_eq!(s, v == b);
        }
    }

    #[test]
    fn gather_is_block_granular_and_charges_stats() {
        let t = table();
        // Rows within two distinct 128-blocks: exactly 256 values decode,
        // and the bytes to charge are those of the delivered rows.
        let (v, decoded, bytes) = gather_window(col(&t, "key"), 2, 0, &[3, 4, 700]).unwrap();
        assert_eq!((decoded, bytes), (256, 3 * 8));
        let Vector::I64(v) = v else { panic!("i64") };
        assert_eq!(v, vec![2 * 2048 + 3, 2 * 2048 + 4, 2 * 2048 + 700]);
    }

    #[test]
    fn unaligned_select_offset_is_a_typed_error() {
        let t = table();
        let mut sel = vec![false; 128];
        let pred = PushPred::Cmp { op: PredOp::Ge, lit: 0 };
        let err = select_window(col(&t, "val"), 0, &pred, 77, &mut sel).unwrap_err();
        assert_eq!(err, Error::UnalignedRange { start: 77 });
    }

    #[test]
    fn pushdown_selects_codes_and_gathers_survivors() {
        let t = table();
        let pred = Expr::col(0).eq(Expr::lit_i64(7));
        let (out, profile, ledger) = filtered(&t, &["wide", "key"], pred.clone(), true);
        let (reference, ..) = filtered(&t, &["wide", "key"], pred, false);
        assert_eq!(out, reference, "pushdown must not change results");
        assert!(out.col(0).as_i64().iter().all(|&w| w == 7) && !out.is_empty());
        // The predicate ran in code space; both columns decoded only the
        // blocks holding survivors, and delivered only the survivors.
        let gathered = block_values(out.col(1).as_i64());
        assert_eq!(profile.values_decoded, 2 * gathered);
        assert_eq!(profile.values_skipped, 2 * ROWS as u64 - 2 * gathered);
        assert!(profile.values_skipped > profile.values_decoded, "most blocks hold no survivor");
        assert_eq!(ledger.output_bytes, out.len() as u64 * (8 + 8));
    }

    #[test]
    fn unanswerable_pushdown_falls_back_to_decode() {
        let t = table();
        // key is PFOR-DELTA: its segments cannot answer in code space.
        let (out, profile, ledger) =
            filtered(&t, &["key"], Expr::col(0).ge(Expr::lit_i64(9990)), true);
        assert_eq!(out.col(0).as_i64(), (9990..ROWS as i64).collect::<Vec<_>>());
        // Every vector decoded the column in full, once.
        assert_eq!((profile.values_decoded, profile.values_skipped), (ROWS as u64, 0));
        assert_eq!(ledger.output_bytes, ROWS as u64 * 8);
    }

    #[test]
    fn dead_batch_decodes_nothing() {
        let t = table();
        let (out, profile, ledger) =
            filtered(&t, &["val", "key"], Expr::col(0).lt(Expr::lit_i32(0)), true);
        assert!(out.is_empty());
        assert_eq!(ledger.output_bytes, 0, "no survivor, no decode");
        assert_eq!((profile.values_decoded, profile.values_skipped), (0, 2 * ROWS as u64));
    }

    #[test]
    fn conjunct_split_pushes_each_side() {
        let t = table();
        // wide pushable; the val conjunct is arithmetic, so it decodes.
        let pred = Expr::col(0)
            .lt(Expr::lit_i64(500))
            .and(Expr::col(1).add(Expr::lit_i32(1)).gt(Expr::lit_i32(3)));
        let (out, profile, ledger) = filtered(&t, &["wide", "val", "key"], pred.clone(), true);
        let (reference, ..) = filtered(&t, &["wide", "val", "key"], pred, false);
        assert_eq!(out, reference);
        // val decoded in full; wide and key only in survivor blocks.
        let gathered = block_values(out.col(2).as_i64());
        assert_eq!(profile.values_decoded, ROWS as u64 + 2 * gathered);
        assert_eq!(ledger.output_bytes, ROWS as u64 * 4 + out.len() as u64 * (8 + 8));
    }

    #[test]
    fn reversed_literal_and_inset_are_pushable() {
        let (i, pp) = as_pushable(&Expr::lit_i64(5).lt(Expr::col(2))).expect("pushable");
        assert_eq!(i, 2);
        assert!(matches!(pp, PushPred::Cmp { op: PredOp::Gt, lit: 5 }));
        let set: HashSet<u64> = [1u64, 2].into_iter().collect();
        let (i, pp) = as_pushable(&Expr::col(0).in_set(set)).expect("pushable");
        assert_eq!(i, 0);
        assert!(matches!(pp, PushPred::InSet(_)));
        // Float literals and arithmetic are not pushable.
        assert!(as_pushable(&Expr::col(0).lt(Expr::lit_f64(1.0))).is_none());
        assert!(as_pushable(&Expr::col(0).add(Expr::lit_i64(1)).lt(Expr::lit_i64(2))).is_none());
    }

    #[test]
    fn column_free_conjuncts_fold_to_a_constant() {
        let t = table();
        for (live, rows) in [(true, ROWS), (false, 0)] {
            let pred = Expr::col(0).ge(Expr::lit_i32(0)).and(Expr::lit_bool(live));
            let (out, ..) = filtered(&t, &["val"], pred, true);
            assert_eq!(out.len(), rows, "constant {live}");
        }
    }
}
