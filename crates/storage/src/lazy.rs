//! Late materialization: the filter a scan runs per vector, over packed
//! codes or decoded values, whichever a fixed cost rule says is cheaper.
//!
//! Free functions over one (column, segment, window) reach the stored
//! form directly: [`decode_window`] decodes rows into a fresh vector and
//! [`gather_window`] decodes only the 128-value blocks that hold the
//! requested rows. String columns expose their dictionary codes
//! (predicates arrive pre-translated to code sets).
//!
//! A [`Filter`] is the predicate `Scan::into_plan` fuses into the scan.
//! A `col OP literal` / `col IN set` conjunct is compiled into code space
//! once per segment. In *value mode* the scan has decoded every column
//! and such a conjunct is one typed loop over its column that ANDs into
//! the mask. In *code mode* patched columns stay packed, the conjunct
//! tests their codes, and survivors are decoded afterwards: nothing for
//! a dead vector, everything for a fully passing one, touched blocks
//! otherwise. Any other conjunct decodes the columns it reads. Testing a
//! code costs more than decoding and testing a value (the compare
//! kernels unpack, then band-test), so code mode pays only when enough
//! blocks are dead to skip decoding other columns: [`Filter::code_mode`].
//! A segment's first vector runs in value mode, so serial scans and
//! per-segment workers choose alike. Decodes are booked into the scan's
//! [`ScanStats`] as they happen; chunk I/O was charged on segment entry,
//! and skipping decode never skips that read.

use crate::column::{Column, ColumnStore, NumColumn, StoredSegment};
use crate::disk::ScanStats;
use crate::table::Table;
use scc_core::{type_literal, CodePredicate, Error, PredOp, TypedLit, Value, ValuePred, BLOCK};
use scc_engine::ops::select::selected_rows;
use scc_engine::{Batch, Expr, Vector};
use std::collections::HashSet;
use std::time::Instant;

// The mode rule's per-value costs: ns at the benchmark's 4.2 GHz reference
// clock, 2 vCPU AVX2 (EXPERIMENTS.md, "Codes or values, per vector").
/// Decoding a value: the ladder's `core.decode_ns_per_value`.
const DECODE: f64 = 0.16;
/// Testing a packed code against a predicate compiled for its segment:
/// the ladder's `core.select_ns_per_value`.
const SELECT: f64 = 0.41;
/// Testing a decoded `i32` in place: no rung times it, so the typed loop
/// was timed beside the decode and select rungs' passes. `u32` and 64-bit
/// compares cost up to 2.2 times as much; for them the rule leans to values.
const TEST: f64 = 0.15;

/// Calls `$f(store, wrap, args..)` on the value store of a scannable
/// column, where `wrap` is enum `$ty`'s `I32`, `I64` or `U32` variant
/// for the store's value type (string columns scan as `U32` codes).
macro_rules! on_store {
    ($col:expr, $ty:ident, $f:ident($($arg:expr),*)) => {
        match $col {
            Column::Num(NumColumn::I32(s)) => $f(s, $ty::I32, $($arg),*),
            Column::Num(NumColumn::I64(s)) => $f(s, $ty::I64, $($arg),*),
            Column::Num(NumColumn::U32(s)) => $f(s, $ty::U32, $($arg),*),
            Column::Str(sc) => $f(&sc.codes, $ty::U32, $($arg),*),
            Column::Blob(_) => unreachable!("blob columns cannot be scanned"),
        }
    };
}
pub(crate) use on_store;

/// A conjunct a segment may answer over its codes: one column compared
/// against a literal in the `i64` carrier (exact for every integer
/// type), or tested for membership in a set keyed like
/// [`Vector::key_at`].
#[derive(Clone)]
enum PushPred {
    /// `column OP literal`.
    Cmp { op: PredOp, lit: i64 },
    /// `column IN set`.
    InSet(HashSet<u64>),
}

/// A [`PushPred`] compiled over one segment's codes.
#[derive(Clone)]
enum Compiled {
    I32(CodePredicate<i32>),
    I64(CodePredicate<i64>),
    U32(CodePredicate<u32>),
}

/// True when the stored form of `col`'s segment `seg` supports
/// code-space selection (a patched-compressed segment; plain and
/// LZRW1-page segments have no code representation to scan).
pub(crate) fn segment_is_compressed(col: &Column, seg: usize) -> bool {
    fn check<V: Value>(s: &ColumnStore<V>, _: fn(Vec<V>) -> Vector, seg: usize) -> bool {
        matches!(s.segments[seg], StoredSegment::Compressed(..))
    }
    on_store!(col, Vector, check(seg))
}

/// Compiles `pred` for `col`'s segment `seg`; `None` when the segment
/// cannot answer it in code space (delta coding, a wrapped window, plain
/// or LZRW1 storage, or a literal outside the column type's domain,
/// which planners fold away): decode and test the values instead.
fn compile(col: &Column, seg: usize, pred: &PushPred) -> Option<Compiled> {
    fn typed<V: Value>(
        store: &ColumnStore<V>,
        wrap: fn(CodePredicate<V>) -> Compiled,
        seg: usize,
        pred: &PushPred,
    ) -> Option<Compiled> {
        let vp = match pred {
            PushPred::Cmp { op, lit } => match type_literal::<V>(*op, *lit) {
                TypedLit::Lit(v) => ValuePred::Cmp { op: *op, lit: v },
                TypedLit::AlwaysTrue | TypedLit::AlwaysFalse => return None,
            },
            PushPred::InSet(set) => ValuePred::InSet(set.clone()),
        };
        let StoredSegment::Compressed(s, _) = &store.segments[seg] else { return None };
        s.compile_predicate(&vp).map(wrap)
    }
    on_store!(col, Compiled, typed(seg, pred))
}

impl Compiled {
    /// Tests rows `[offset, offset + out.len())` of `col`'s segment
    /// `seg`, the one this was compiled for, without decoding: `out`
    /// receives exactly the rows a decode-then-test evaluation selects.
    fn select(
        &self,
        col: &Column,
        seg: usize,
        offset: usize,
        out: &mut [bool],
    ) -> Result<(), Error> {
        fn typed<V: Value>(
            store: &ColumnStore<V>,
            cp: &CodePredicate<V>,
            seg: usize,
            offset: usize,
            out: &mut [bool],
        ) -> Result<(), Error> {
            let StoredSegment::Compressed(s, _) = &store.segments[seg] else {
                unreachable!("compiled over a patched segment")
            };
            s.try_select_range(cp, offset, out)
        }
        match (self, col) {
            (Compiled::I32(cp), Column::Num(NumColumn::I32(s))) => typed(s, cp, seg, offset, out),
            (Compiled::I64(cp), Column::Num(NumColumn::I64(s))) => typed(s, cp, seg, offset, out),
            (Compiled::U32(cp), Column::Num(NumColumn::U32(s))) => typed(s, cp, seg, offset, out),
            (Compiled::U32(cp), Column::Str(sc)) => typed(&sc.codes, cp, seg, offset, out),
            _ => unreachable!("compiled for this column"),
        }
    }
}

/// ANDs `pred` over the decoded column `v` into `mask`, in place: the
/// literal typed like [`compile`] types it, then one loop per operator,
/// so that each is a branch-free compare.
fn and_values(pred: &PushPred, v: &Vector, mask: &mut [bool]) {
    fn typed<V: Value>(pred: &PushPred, values: &[V], mask: &mut [bool]) {
        fn and<V: Copy>(mask: &mut [bool], values: &[V], test: impl Fn(V) -> bool) {
            mask.iter_mut().zip(values).for_each(|(m, &v)| *m &= test(v));
        }
        let (op, lit) = match pred {
            PushPred::InSet(set) => return and(mask, values, |v| set.contains(&v.to_u64_lossy())),
            PushPred::Cmp { op, lit } => (*op, type_literal::<V>(*op, *lit)),
        };
        match (op, lit) {
            (_, TypedLit::AlwaysTrue) => {}
            (_, TypedLit::AlwaysFalse) => mask.fill(false),
            (PredOp::Eq, TypedLit::Lit(l)) => and(mask, values, |v| v == l),
            (PredOp::Ne, TypedLit::Lit(l)) => and(mask, values, |v| v != l),
            (PredOp::Lt, TypedLit::Lit(l)) => and(mask, values, |v| v < l),
            (PredOp::Le, TypedLit::Lit(l)) => and(mask, values, |v| v <= l),
            (PredOp::Gt, TypedLit::Lit(l)) => and(mask, values, |v| v > l),
            (PredOp::Ge, TypedLit::Lit(l)) => and(mask, values, |v| v >= l),
        }
    }
    match v {
        Vector::I32(x) => typed(pred, x, mask),
        Vector::I64(x) => typed(pred, x, mask),
        Vector::U32(x) => typed(pred, x, mask),
        other => unreachable!("a scan yields integer columns, not {:?}", other.col_type()),
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
        wrap: fn(Vec<V>) -> Vector,
        seg: usize,
        offset: usize,
        len: usize,
    ) -> Result<(Vector, u64), Error> {
        let mut out = vec![V::default(); len];
        store.try_decode_segment_range(seg, offset, &mut out)?;
        Ok((wrap(out), (len * V::byte_width()) as u64))
    }
    on_store!(col, Vector, typed(seg, offset, len))
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
    fn typed<V: Value>(
        store: &ColumnStore<V>,
        wrap: fn(Vec<V>) -> Vector,
        seg: usize,
        offset: usize,
        rows: &[usize],
    ) -> Result<(Vector, u64, u64), Error> {
        let seg_len = store.seg_rows.min(store.len() - seg * store.seg_rows);
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
    on_store!(col, Vector, typed(seg, offset, rows))
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
#[derive(Clone)]
struct Conjunct {
    /// The column and literal of a pushable conjunct, and their test
    /// compiled for the segment the scan is in.
    push: Option<(usize, PushPred)>,
    compiled: Option<Compiled>,
    /// The scan columns the conjunct reads.
    cols: Vec<usize>,
    /// The conjunct with column `cols[i]` renumbered to `i`.
    expr: Expr,
}

/// A predicate over a scan's output columns, compiled for the scan to
/// run per vector (see the module docs). Each scan owns one.
#[derive(Clone)]
pub(crate) struct Filter {
    /// The outcome of the conjuncts that read no column.
    constant: bool,
    conjuncts: Vec<Conjunct>,
    /// In the segment the scan is in: the packed columns code mode can
    /// skip, and the conjuncts it answers over codes.
    packed: usize,
    pushed: usize,
    code_mode: bool,
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
                let push = as_pushable(part);
                conjuncts.push(Conjunct { push, compiled: None, cols, expr });
            }
        }
        Self { constant, conjuncts, packed: 0, pushed: 0, code_mode: false }
    }

    /// Enters segment `seg` of a scan of `table`'s columns `cols`:
    /// compiles the pushable conjuncts for it and runs its first vector
    /// in value mode.
    pub(crate) fn enter(&mut self, table: &Table, cols: &[usize], seg: usize) {
        let column = |slot: usize| &table.columns()[cols[slot]].1;
        for c in &mut self.conjuncts {
            c.compiled = c.push.as_ref().and_then(|(slot, pred)| compile(column(*slot), seg, pred));
        }
        // A column a conjunct decodes in code mode is never skipped.
        let decodes =
            |s| self.conjuncts.iter().any(|c| c.compiled.is_none() && c.cols.contains(&s));
        self.packed = (0..cols.len())
            .filter(|&s| segment_is_compressed(column(s), seg) && !decodes(s))
            .count();
        self.pushed = self.conjuncts.iter().filter(|c| c.compiled.is_some()).count();
        self.code_mode = false;
    }

    /// Whether the scan leaves patched columns packed for the next
    /// vector. After each vector the filter applies the fixed rule
    /// `dead × packed × DECODE > pushed × (SELECT − TEST)`: code mode
    /// skips decoding the `packed` columns in the 128-blocks the mask
    /// left dead (`dead`, a fraction of its blocks), and tests `pushed`
    /// conjuncts over codes instead of values.
    pub(crate) fn code_mode(&self) -> bool {
        self.code_mode
    }

    /// Filters one window of a scan of `table`'s columns `cols`, booking
    /// every decode into `stats`. Conjuncts are not short-circuited.
    /// Returns the dense survivors (`None` when no row passed) and the
    /// values decoded and skipped.
    pub(crate) fn apply(
        &mut self,
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
        let mut sel = Vec::new();
        for c in &self.conjuncts {
            if let Some((slot, pred)) = &c.push {
                match (&vectors[*slot], &c.compiled) {
                    (Some(v), _) => and_values(pred, v, &mut mask),
                    (None, Some(compiled)) => {
                        sel.resize(n, false);
                        compiled.select(column(*slot), seg, offset, &mut sel)?;
                        mask.iter_mut().zip(&sel).for_each(|(m, s)| *m &= *s);
                    }
                    (None, None) => {
                        decoded += n as u64;
                        let v = decode(*slot)?;
                        and_values(pred, &v, &mut mask);
                        vectors[*slot] = Some(v);
                    }
                }
                continue;
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
        // A branch-free OR per block: most blocks hold a survivor.
        let blocks = mask.chunks(BLOCK);
        let dead = blocks.clone().filter(|b| !b.iter().fold(false, |a, &m| a | m)).count();
        let dead = dead as f64 / blocks.len() as f64;
        self.code_mode = dead * self.packed as f64 * DECODE > self.pushed as f64 * (SELECT - TEST);
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
    use scc_engine::{ExplainNode, Operator};
    use std::sync::Arc;

    const ROWS: usize = 10_000;
    const SEG_ROWS: usize = 2048;

    fn mix(i: usize) -> usize {
        i.wrapping_mul(2654435761) >> 7
    }

    fn table() -> Arc<Table> {
        // Value orders are scrambled so the analyzer picks PFOR; the
        // sequential `key` (the row id) compresses as PFOR-DELTA, which
        // never answers predicates in code space.
        TableBuilder::new("lz")
            .seg_rows(SEG_ROWS)
            .add_i64("key", (0..ROWS as i64).collect())
            .add_i32("val", (0..ROWS).map(|i| (mix(i) % 97) as i32).collect())
            .add_str("flag", (0..ROWS).map(|i| ["A", "B", "C"][mix(i) % 3].to_string()).collect())
            .add_i64("wide", (0..ROWS).map(|i| (mix(i + 77) % 1000) as i64).collect())
            .add_i64("pay", (0..ROWS).map(|i| (mix(i + 5) % 10_000) as i64).collect())
            .build()
    }

    fn col<'a>(t: &'a Table, name: &str) -> &'a Column {
        &t.columns()[t.col_index(name)].1
    }

    /// `pred` over rows `[offset, ..)` of `col`'s segment `seg`, over
    /// codes; `Ok(false)` when the segment cannot answer it there.
    fn select_window(
        col: &Column,
        seg: usize,
        pred: &PushPred,
        offset: usize,
        out: &mut [bool],
    ) -> Result<bool, Error> {
        let Some(compiled) = compile(col, seg, pred) else { return Ok(false) };
        compiled.select(col, seg, offset, out).map(|()| true)
    }

    /// `pred` over `cols` through a filtered scan in 128-row vectors, so
    /// one vector is one block: the output, the plan's explain tree
    /// (`Select` over `Scan`) and the ledger.
    fn filtered(
        t: &Arc<Table>,
        cols: &[&str],
        pred: Expr,
        code_scan: bool,
    ) -> (Batch, ExplainNode, ScanSnapshot) {
        plan(t, cols, pred, ScanOptions { code_scan, vector_size: BLOCK, ..Default::default() })
    }

    /// [`filtered`] under any scan options.
    fn plan(
        t: &Arc<Table>,
        cols: &[&str],
        pred: Expr,
        opts: ScanOptions,
    ) -> (Batch, ExplainNode, ScanSnapshot) {
        let stats = stats_handle();
        let mut p =
            Scan::new(Arc::clone(t), cols, opts, Arc::clone(&stats), None).into_plan(Some(pred), 1);
        let out = collect(p.as_mut());
        (out, p.explain(), stats.snapshot())
    }

    fn decoded_skipped(node: &ExplainNode) -> (u64, u64) {
        (node.profile.values_decoded, node.profile.values_skipped)
    }

    /// For a scan of [`table`] in 128-row vectors whose rule tips on one
    /// dead vector, when exactly the table rows `survivors` pass: the
    /// rows of its code-mode vectors that hold a survivor, the rows of
    /// its dead code-mode vectors, and the survivors among the former.
    /// Every vector runs in code mode except a segment's first and one
    /// right after a vector with a survivor.
    fn code_mode_rows(survivors: &[i64]) -> (u64, u64, u64) {
        let vector = |row: i64| row as usize / BLOCK;
        let live: HashSet<usize> = survivors.iter().map(|&r| vector(r)).collect();
        let code = |v: usize| !(v * BLOCK).is_multiple_of(SEG_ROWS) && !live.contains(&(v - 1));
        let (mut live_rows, mut dead_rows) = (0, 0);
        for v in (0..ROWS.div_ceil(BLOCK)).filter(|&v| code(v)) {
            let len = BLOCK.min(ROWS - v * BLOCK) as u64;
            *if live.contains(&v) { &mut live_rows } else { &mut dead_rows } += len;
        }
        let gathered = survivors.iter().filter(|&&r| code(vector(r))).count() as u64;
        (live_rows, dead_rows, gathered)
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
        let cmp = |op, lit| PushPred::Cmp { op, lit };
        let in_place = |name: &str, pred: PushPred| {
            let (v, _) = decode_window(col(&t, name), 0, 0, 256).unwrap();
            // The outcome is constant, so no code space is compiled.
            assert!(!select_window(col(&t, name), 0, &pred, 0, &mut [false; 256]).unwrap());
            let mut mask = vec![true; 256];
            and_values(&pred, &v, &mut mask);
            mask
        };
        // val is i32; an i64 literal beyond i32::MAX can never match Eq
        // and always matches Lt.
        assert!(in_place("val", cmp(PredOp::Eq, i64::MAX)).iter().all(|&s| !s));
        assert!(in_place("val", cmp(PredOp::Lt, i64::MAX)).iter().all(|&s| s));
        // Negative literal against unsigned dictionary codes: Ge is
        // always true, Eq always false.
        assert!(in_place("flag", cmp(PredOp::Ge, -1)).iter().all(|&s| s));
        assert!(in_place("flag", cmp(PredOp::Eq, -1)).iter().all(|&s| !s));
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
    fn in_place_test_matches_expr_evaluation() {
        // One segment per value type, values straddling zero where the
        // type allows it.
        let n = 1024;
        let signed = |i: usize| (mix(i) % 200) as i64 - 100;
        let t = TableBuilder::new("typed")
            .seg_rows(n)
            .add_i32("i32", (0..n).map(|i| signed(i) as i32).collect())
            .add_i64("i64", (0..n).map(signed).collect())
            .add_u32("u32", (0..n).map(|i| (mix(i) % 200) as u32).collect())
            .build();
        let compare = |op, a: Expr, b: Expr| match op {
            PredOp::Eq => a.eq(b),
            PredOp::Ne => a.ne(b),
            PredOp::Lt => a.lt(b),
            PredOp::Le => a.le(b),
            PredOp::Gt => a.gt(b),
            PredOp::Ge => a.ge(b),
        };
        let before: Vec<bool> = (0..n).map(|i| i % 3 != 0).collect();
        // The in-place test ANDs into `before`; over codes it writes the
        // selection itself.
        let check = |column: &Column, v: &Vector, e: &Expr, want: &[bool], what: &str| {
            let (slot, pred) = as_pushable(e).expect("pushable");
            assert_eq!(slot, 0);
            let mut mask = before.clone();
            and_values(&pred, v, &mut mask);
            let anded: Vec<bool> = before.iter().zip(want).map(|(b, w)| b & w).collect();
            assert_eq!(mask, anded, "{what}: values");
            let mut sel = vec![false; n];
            if select_window(column, 0, &pred, 0, &mut sel).unwrap() {
                assert_eq!(sel, want, "{what}: codes");
            }
        };
        let lits = [
            i64::MIN,
            i32::MIN as i64 - 1,
            -101,
            -100,
            -1,
            0,
            37,
            99,
            199,
            200,
            u32::MAX as i64 + 1,
            i64::MAX,
        ];
        for name in ["i32", "i64", "u32"] {
            let column = col(&t, name);
            let (v, _) = decode_window(column, 0, 0, n).unwrap();
            // Widened to i64, every literal compares exactly.
            let widened = Batch::new(vec![Vector::I64(match &v {
                Vector::I32(x) => x.iter().map(|&y| y as i64).collect(),
                Vector::I64(x) => x.clone(),
                Vector::U32(x) => x.iter().map(|&y| y as i64).collect(),
                other => panic!("{other:?}"),
            })]);
            let own = Batch::new(vec![v.clone()]);
            // The literal as the column's own type, when it has one.
            let typed = |lit: i64| match &v {
                Vector::I32(_) => i32::try_from(lit).ok().map(Expr::lit_i32),
                Vector::I64(_) => Some(Expr::lit_i64(lit)),
                _ => u32::try_from(lit).ok().map(Expr::lit_u32),
            };
            for op in PredOp::ALL {
                for lit in lits {
                    for lit_first in [false, true] {
                        let build = |l: Expr| match lit_first {
                            false => compare(op, Expr::col(0), l),
                            true => compare(op, l, Expr::col(0)),
                        };
                        let e = build(Expr::lit_i64(lit));
                        let want = e.eval(&widened).as_mask().to_vec();
                        if let Some(l) = typed(lit) {
                            assert_eq!(build(l).eval(&own).as_mask(), &want[..], "{name} {lit}");
                        }
                        let what = format!("{name} {op:?} {lit} lit_first={lit_first}");
                        check(column, &v, &e, &want, &what);
                    }
                }
            }
            let keys = [v.key_at(0), v.key_at(5), (-5i64) as u64, (-5i32) as u32 as u64, 12_345];
            let e = Expr::col(0).in_set(keys.into_iter().collect());
            check(column, &v, &e, e.eval(&own).as_mask(), &format!("{name} in set"));
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
        let cols = ["wide", "key", "val", "flag", "pay"];
        let pred = Expr::col(0).eq(Expr::lit_i64(7));
        let (out, explain, ledger) = filtered(&t, &cols, pred.clone(), true);
        let (reference, ..) = filtered(&t, &cols, pred, false);
        assert_eq!(out, reference, "pushdown must not change results");
        assert!(out.col(0).as_i64().iter().all(|&w| w == 7) && !out.is_empty());
        // Code-mode vectors tested wide's codes and decoded, in all five
        // columns, only the blocks holding survivors, delivering only
        // the survivors; the scan decoded every other vector whole.
        let (live, dead, gathered) = code_mode_rows(out.col(1).as_i64());
        assert_eq!(decoded_skipped(&explain), (5 * live, 5 * dead));
        let value_rows = ROWS as u64 - live - dead;
        assert_eq!(decoded_skipped(&explain.children[0]), (5 * value_rows, 0));
        assert!(dead > value_rows, "most vectors skip");
        assert_eq!(ledger.output_bytes, (value_rows + gathered) * (8 + 8 + 4 + 4 + 8));
    }

    #[test]
    fn unanswerable_pushdown_falls_back_to_decode() {
        let t = table();
        // key is PFOR-DELTA: its segments cannot answer in code space,
        // so code mode would skip nothing and never runs.
        let (out, explain, ledger) =
            filtered(&t, &["key"], Expr::col(0).ge(Expr::lit_i64(9990)), true);
        assert_eq!(out.col(0).as_i64(), (9990..ROWS as i64).collect::<Vec<_>>());
        // The scan decoded the column in full, once.
        assert_eq!(decoded_skipped(&explain), (0, 0));
        assert_eq!(explain.values_totals(), (ROWS as u64, 0));
        assert_eq!(ledger.output_bytes, ROWS as u64 * 8);
    }

    #[test]
    fn dead_batch_decodes_nothing() {
        let t = table();
        let (out, explain, ledger) =
            filtered(&t, &["val", "key"], Expr::col(0).lt(Expr::lit_i32(0)), true);
        assert!(out.is_empty());
        // `val < 0` is constant over every code window, so testing it
        // costs nothing in code mode: after each segment's first vector
        // every vector is dropped undecoded.
        let (live, dead, _) = code_mode_rows(&[]);
        assert_eq!((live, dead), (0, (ROWS - 5 * BLOCK) as u64));
        assert_eq!(decoded_skipped(&explain), (0, 2 * dead));
        assert_eq!(ledger.output_bytes, (ROWS as u64 - dead) * (4 + 8), "no survivor, no decode");
    }

    #[test]
    fn conjunct_split_pushes_each_side() {
        let t = table();
        // wide pushable; the val conjunct is arithmetic, so it decodes.
        let cols = ["wide", "val", "key", "flag", "pay"];
        let pred = Expr::col(0)
            .eq(Expr::lit_i64(7))
            .and(Expr::col(1).add(Expr::lit_i32(1)).gt(Expr::lit_i32(3)));
        let (out, explain, ledger) = filtered(&t, &cols, pred.clone(), true);
        let (reference, ..) = filtered(&t, &cols, pred, false);
        assert_eq!(out, reference);
        // In code mode val decoded in full; wide, key, flag and pay only
        // in survivor blocks.
        let (live, dead, gathered) = code_mode_rows(out.col(2).as_i64());
        assert_eq!(decoded_skipped(&explain), (live + dead + 4 * live, 4 * dead));
        let value_rows = ROWS as u64 - live - dead;
        let bytes = value_rows * 32 + (live + dead) * 4 + gathered * (8 + 8 + 4 + 8);
        assert_eq!(ledger.output_bytes, bytes);
    }

    #[test]
    fn uniform_q6_shaped_predicate_stays_in_value_mode() {
        // Q6's shape: five conjuncts over three of four columns pass ~2 %
        // of the rows, at random. A few 128-blocks die, but skipping them
        // never pays for testing five conjuncts over codes.
        let hash = |i: usize, k: u64| {
            let x = (i as u64 ^ k).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            (x ^ (x >> 29)).wrapping_mul(0xBF58_476D_1CE4_E5B9) >> 32
        };
        let column = |k: u64, m: u64| (0..ROWS).map(|i| (hash(i, k) % m) as i64).collect();
        let t = TableBuilder::new("q6")
            .seg_rows(SEG_ROWS)
            .add_i32("ship", (0..ROWS).map(|i| (hash(i, 1) % 2526) as i32).collect())
            .add_i64("disc", column(2, 11))
            .add_i64("qty", column(3, 50))
            .add_i64("price", column(4, 100_000))
            .build();
        let pred = Expr::col(0)
            .ge(Expr::lit_i32(730))
            .and(Expr::col(0).lt(Expr::lit_i32(1095)))
            .and(Expr::col(1).ge(Expr::lit_i64(5)))
            .and(Expr::col(1).le(Expr::lit_i64(7)))
            .and(Expr::col(2).lt(Expr::lit_i64(24)));
        let cols = ["ship", "disc", "qty", "price"];
        let opts = |code_scan| ScanOptions { code_scan, ..Default::default() };
        let (out, explain, _) = plan(&t, &cols, pred.clone(), opts(true));
        let (reference, ..) = plan(&t, &cols, pred, opts(false));
        assert_eq!(out, reference);
        assert!(!out.is_empty() && out.len() < ROWS / 20, "{} rows", out.len());
        assert_eq!(decoded_skipped(&explain), (0, 0), "no vector ran in code mode");
        assert_eq!(explain.values_totals(), (4 * ROWS as u64, 0));
    }

    #[test]
    fn clustered_selective_predicate_switches_modes() {
        // Two segments of eight 1024-row vectors. `clu < 100` holds in
        // every row of each segment's vectors 3 and 4 and in no other.
        const SEG: usize = 8 * 1024;
        let clu = |i: usize| match i % SEG / 1024 {
            3 | 4 => (mix(i) % 100) as i64,
            _ => (100 + mix(i) % 9900) as i64,
        };
        let mut builder = TableBuilder::new("clustered")
            .seg_rows(SEG)
            .add_i64("clu", (0..2 * SEG).map(clu).collect());
        let payload = ["a", "b", "c", "d", "e"];
        for (k, name) in payload.into_iter().enumerate() {
            let values = (0..2 * SEG).map(|i| (mix(i + 31 * k) % 1000) as i64).collect();
            builder = builder.add_i64(name, values);
        }
        let t = builder.build();
        let run = |code_scan| {
            let cols = ["clu", "a", "b", "c", "d", "e"];
            let pred = Expr::col(0).lt(Expr::lit_i64(100));
            plan(&t, &cols, pred, ScanOptions { code_scan, ..Default::default() })
        };
        let (out, explain, _) = run(true);
        assert_eq!(out, run(false).0);
        assert_eq!(out.len(), 2 * 2 * 1024);
        // Per segment: vector 0 runs in value mode; 1-3 in code mode (1
        // and 2 skipped, 3 passing whole and decoded); 4 and 5 in value
        // mode after a dense vector; 6 and 7 in code mode again, skipped.
        let vector = 6 * 1024;
        assert_eq!(decoded_skipped(&explain), (2 * vector, 2 * 4 * vector));
        assert_eq!(decoded_skipped(&explain.children[0]), (2 * 3 * vector, 0));
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
