//! Selection: filters rows by a mask-valued expression and compacts the
//! survivors into dense output vectors.
//!
//! When the input batch carries compressed columns (a scan's
//! [`LazyCol`] side channel), the predicate is split into conjuncts and
//! each `col OP literal` / `col IN set` conjunct is pushed into code
//! space via [`CodeCol::try_select`] — the column's packed codes are
//! compared directly against the re-encoded literal, no decoding.
//! Conjuncts that cannot be answered in code space materialize exactly
//! the columns they read and evaluate normally. Surviving rows are then
//! gathered from the still-compressed columns block-by-block, so a
//! selective filter decodes a small fraction of the values a
//! decode-then-filter plan would.

use crate::batch::{Batch, PushPred, Vector};
use crate::explain::{ExplainNode, OpProfile};
use crate::expr::Expr;
use crate::ops::Operator;
use scc_core::PredOp;
use std::borrow::Cow;

/// Filter operator. Empty result vectors are skipped, so downstream
/// operators always see non-empty batches.
pub struct Select {
    input: Box<dyn Operator>,
    predicate: Expr,
    profile: OpProfile,
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

/// The `i64` wire value of an exact integer literal (`f64` literals are
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

fn collect_cols(e: &Expr, out: &mut Vec<usize>) {
    match e {
        Expr::Col(i) => out.push(*i),
        Expr::LitI32(_)
        | Expr::LitI64(_)
        | Expr::LitU32(_)
        | Expr::LitF64(_)
        | Expr::LitBool(_) => {}
        Expr::Add(a, b)
        | Expr::Sub(a, b)
        | Expr::Mul(a, b)
        | Expr::Eq(a, b)
        | Expr::Ne(a, b)
        | Expr::Lt(a, b)
        | Expr::Le(a, b)
        | Expr::Gt(a, b)
        | Expr::Ge(a, b)
        | Expr::And(a, b)
        | Expr::Or(a, b) => {
            collect_cols(a, out);
            collect_cols(b, out);
        }
        Expr::ToF64(a) | Expr::Not(a) | Expr::InSet(a, _) | Expr::BucketI32(a, _) => {
            collect_cols(a, out)
        }
        Expr::Cond(m, t, e2) => {
            collect_cols(m, out);
            collect_cols(t, out);
            collect_cols(e2, out);
        }
    }
}

/// The distinct columns an expression reads.
fn referenced_cols(e: &Expr) -> Vec<usize> {
    let mut out = Vec::new();
    collect_cols(e, &mut out);
    out.sort_unstable();
    out.dedup();
    out
}

impl Select {
    /// Builds a filter over `input`.
    pub fn new(input: impl Operator + 'static, predicate: Expr) -> Self {
        Self { input: Box::new(input), predicate, profile: OpProfile::default() }
    }

    /// Evaluates the predicate over a batch that still carries
    /// compressed columns. Returns the combined selection mask and the
    /// number of values decoded for fallback conjuncts.
    fn eval_with_pushdown(&self, batch: &mut Batch) -> Result<(Vec<bool>, u64), scc_core::Error> {
        let n = batch.len();
        let mut mask = vec![true; n];
        let mut decoded = 0u64;
        let mut conjuncts = Vec::new();
        split_conjuncts(&self.predicate, &mut conjuncts);
        let mut sel = vec![false; n];
        for c in conjuncts {
            if let Some((col, pp)) = as_pushable(c) {
                if let Some(lz) = batch.lazy_col(col) {
                    if lz.col.try_select(&pp, lz.offset, &mut sel)? {
                        for (m, s) in mask.iter_mut().zip(&sel) {
                            *m &= *s;
                        }
                        continue;
                    }
                }
            }
            // Fall back: decode the columns this conjunct reads, then
            // evaluate it like any expression.
            for col in referenced_cols(c) {
                decoded += batch.materialize_col(col)?;
            }
            let v = c.eval_ref(batch);
            for (m, s) in mask.iter_mut().zip(v.as_mask()) {
                *m &= *s;
            }
        }
        Ok((mask, decoded))
    }

    fn produce(&mut self) -> Result<Option<Batch>, scc_core::Error> {
        loop {
            let Some(mut batch) = self.input.try_next()? else {
                return Ok(None);
            };
            let n = batch.len();
            let (mask, mut decoded) = if batch.has_lazy() {
                let (mask, decoded) = self.eval_with_pushdown(&mut batch)?;
                (Cow::Owned(Vector::Mask(mask)), decoded)
            } else {
                (self.predicate.eval_ref(&batch), 0)
            };
            // Predicated compaction (§2.2 / Ross PODS'02): always store
            // the index, advance the cursor by the boolean — no
            // data-dependent branch for the CPU to mispredict.
            let mut indices = vec![0usize; n];
            let mut j = 0usize;
            for (i, &m) in mask.as_mask().iter().enumerate() {
                indices[j] = i;
                j += m as usize;
            }
            indices.truncate(j);
            // Columns still compressed decode only their survivors:
            // everything when the whole batch passed, nothing when the
            // batch died, touched blocks otherwise.
            let mut skipped = 0u64;
            let out = if indices.is_empty() {
                for i in 0..batch.columns.len() {
                    if let Some(lz) = batch.take_lazy(i) {
                        skipped += lz.len as u64;
                    }
                }
                None
            } else if indices.len() == n {
                decoded += batch.ensure_values()?;
                Some(batch)
            } else {
                let mut cols = Vec::with_capacity(batch.columns.len());
                for i in 0..batch.columns.len() {
                    match batch.take_lazy(i) {
                        Some(lz) => {
                            let (v, d) = lz.col.gather(lz.offset, &indices)?;
                            decoded += d;
                            skipped += (lz.len as u64).saturating_sub(d);
                            cols.push(v);
                        }
                        None => cols.push(batch.columns[i].gather(&indices)),
                    }
                }
                Some(Batch::new(cols))
            };
            self.profile.values_decoded += decoded;
            self.profile.values_skipped += skipped;
            scc_obs::counter_add!("engine.select.values_decoded", decoded);
            scc_obs::counter_add!("engine.select.values_skipped", skipped);
            if let Some(b) = out {
                return Ok(Some(b));
            }
        }
    }
}

impl Operator for Select {
    fn try_next(&mut self) -> Result<Option<Batch>, scc_core::Error> {
        let start = scc_obs::clock();
        let out = self.produce();
        self.profile.record(start, &out);
        out
    }

    fn label(&self) -> String {
        "Select".into()
    }

    fn profile(&self) -> OpProfile {
        self.profile
    }

    fn explain(&self) -> ExplainNode {
        ExplainNode::new(self.label(), self.profile, vec![self.input.explain()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{CodeCol, ColType, LazyCol};
    use crate::ops::{collect, source::MemSource};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    #[test]
    fn filters_and_compacts() {
        let src = MemSource::from_i64(vec![(0..100).collect()], 7);
        let mut sel = Select::new(Box::new(src), Expr::col(0).lt(Expr::lit_i64(10)));
        let out = collect(&mut sel);
        assert_eq!(out.col(0).as_i64(), &(0..10).collect::<Vec<_>>()[..]);
    }

    #[test]
    fn all_pass_short_circuits() {
        let src = MemSource::from_i64(vec![(0..50).collect()], 50);
        let mut sel = Select::new(Box::new(src), Expr::col(0).ge(Expr::lit_i64(0)));
        assert_eq!(sel.next().unwrap().len(), 50);
    }

    #[test]
    fn none_pass_yields_none() {
        let src = MemSource::from_i64(vec![(0..50).collect()], 8);
        let mut sel = Select::new(Box::new(src), Expr::col(0).lt(Expr::lit_i64(0)));
        assert!(sel.next().is_none());
    }

    #[test]
    fn multi_column_rows_stay_aligned() {
        let src = MemSource::new(
            vec![
                Vector::I64((0..20).collect()),
                Vector::F64((0..20).map(|i| i as f64 * 0.5).collect()),
            ],
            6,
        );
        let mut sel = Select::new(Box::new(src), Expr::col(0).ge(Expr::lit_i64(15)));
        let out = collect(&mut sel);
        assert_eq!(out.col(0).as_i64(), &[15, 16, 17, 18, 19]);
        assert_eq!(out.col(1).as_f64(), &[7.5, 8.0, 8.5, 9.0, 9.5]);
    }

    /// In-memory [`CodeCol`]: answers `Cmp`/`InSet` in "code space"
    /// (directly over its values, which is what a storage handle does
    /// after re-encoding the literal) and counts how many values each
    /// path touches.
    struct FakeCodeCol {
        values: Vec<i64>,
        selectable: bool,
        decoded: AtomicU64,
        selects: AtomicU64,
    }

    impl FakeCodeCol {
        fn new(values: Vec<i64>, selectable: bool) -> Arc<Self> {
            Arc::new(Self {
                values,
                selectable,
                decoded: AtomicU64::new(0),
                selects: AtomicU64::new(0),
            })
        }
    }

    impl CodeCol for FakeCodeCol {
        fn col_type(&self) -> ColType {
            ColType::I64
        }

        fn try_select(
            &self,
            pred: &PushPred,
            offset: usize,
            out: &mut [bool],
        ) -> Result<bool, scc_core::Error> {
            if !self.selectable {
                return Ok(false);
            }
            self.selects.fetch_add(out.len() as u64, Ordering::Relaxed);
            for (i, o) in out.iter_mut().enumerate() {
                let v = self.values[offset + i];
                *o = match pred {
                    PushPred::Cmp { op, lit } => match op {
                        PredOp::Eq => v == *lit,
                        PredOp::Ne => v != *lit,
                        PredOp::Lt => v < *lit,
                        PredOp::Le => v <= *lit,
                        PredOp::Gt => v > *lit,
                        PredOp::Ge => v >= *lit,
                    },
                    PushPred::InSet(set) => set.contains(&(v as u64)),
                };
            }
            Ok(true)
        }

        fn materialize(&self, offset: usize, len: usize) -> Result<Vector, scc_core::Error> {
            self.decoded.fetch_add(len as u64, Ordering::Relaxed);
            Ok(Vector::I64(self.values[offset..offset + len].to_vec()))
        }

        fn gather(&self, offset: usize, rows: &[usize]) -> Result<(Vector, u64), scc_core::Error> {
            self.decoded.fetch_add(rows.len() as u64, Ordering::Relaxed);
            Ok((
                Vector::I64(rows.iter().map(|&r| self.values[offset + r]).collect()),
                rows.len() as u64,
            ))
        }
    }

    /// One-batch source carrying lazy columns.
    struct LazySource {
        batch: Option<Batch>,
    }

    impl Operator for LazySource {
        fn try_next(&mut self) -> Result<Option<Batch>, scc_core::Error> {
            Ok(self.batch.take())
        }
    }

    fn lazy_batch(cols: &[Arc<FakeCodeCol>], offset: usize, len: usize) -> Batch {
        let lazies: Vec<Option<LazyCol>> = cols
            .iter()
            .map(|c| Some(LazyCol::new(Arc::clone(c) as Arc<dyn CodeCol>, offset, len)))
            .collect();
        let placeholders = lazies.iter().map(|l| l.as_ref().unwrap().placeholder()).collect();
        Batch::with_lazy(placeholders, lazies)
    }

    #[test]
    fn pushdown_selects_codes_and_gathers_survivors() {
        let key = FakeCodeCol::new((0..100).collect(), true);
        let val = FakeCodeCol::new((0..100).map(|i| i * 3).collect(), true);
        let src = LazySource { batch: Some(lazy_batch(&[key.clone(), val.clone()], 0, 100)) };
        let mut sel = Select::new(src, Expr::col(0).lt(Expr::lit_i64(10)));
        let out = collect(&mut sel);
        assert_eq!(out.col(0).as_i64(), &(0..10).collect::<Vec<_>>()[..]);
        assert_eq!(out.col(1).as_i64(), &(0..10).map(|i| i * 3).collect::<Vec<_>>()[..]);
        // The predicate ran in code space; only survivors were decoded.
        assert_eq!(key.selects.load(Ordering::Relaxed), 100);
        assert_eq!(key.decoded.load(Ordering::Relaxed), 10);
        assert_eq!(val.decoded.load(Ordering::Relaxed), 10);
        let p = sel.profile();
        assert_eq!(p.values_decoded, 20, "10 survivors x 2 columns");
        assert_eq!(p.values_skipped, 180, "90 pruned rows x 2 columns");
    }

    #[test]
    fn unanswerable_pushdown_falls_back_to_decode() {
        let key = FakeCodeCol::new((0..64).collect(), false);
        let src = LazySource { batch: Some(lazy_batch(std::slice::from_ref(&key), 0, 64)) };
        let mut sel = Select::new(src, Expr::col(0).ge(Expr::lit_i64(60)));
        let out = collect(&mut sel);
        assert_eq!(out.col(0).as_i64(), &[60, 61, 62, 63]);
        // Fallback materialized the whole column once; the gather then
        // found it already decoded.
        assert_eq!(key.decoded.load(Ordering::Relaxed), 64);
        assert_eq!(sel.profile().values_decoded, 64);
        assert_eq!(sel.profile().values_skipped, 0);
    }

    #[test]
    fn dead_batch_decodes_nothing() {
        let key = FakeCodeCol::new((0..256).collect(), true);
        let src = LazySource { batch: Some(lazy_batch(std::slice::from_ref(&key), 0, 256)) };
        let mut sel = Select::new(src, Expr::col(0).lt(Expr::lit_i64(0)));
        assert!(sel.next().is_none());
        assert_eq!(key.decoded.load(Ordering::Relaxed), 0, "no survivor, no decode");
        assert_eq!(sel.profile().values_skipped, 256);
    }

    #[test]
    fn conjunct_split_pushes_each_side() {
        // col0 pushable, col1 conjunct uses arithmetic -> fallback.
        let a = FakeCodeCol::new((0..50).collect(), true);
        let b = FakeCodeCol::new((0..50).map(|i| i % 7).collect(), true);
        let src = LazySource { batch: Some(lazy_batch(&[a.clone(), b.clone()], 0, 50)) };
        let pred = Expr::col(0)
            .lt(Expr::lit_i64(25))
            .and(Expr::col(1).add(Expr::lit_i64(1)).gt(Expr::lit_i64(3)));
        let mut sel = Select::new(src, pred);
        let out = collect(&mut sel);
        let want: Vec<i64> = (0..25).filter(|i| i % 7 + 1 > 3).collect();
        assert_eq!(out.col(0).as_i64(), &want[..]);
        // col0 answered in code space, col1 forced a full materialize.
        assert_eq!(a.selects.load(Ordering::Relaxed), 50);
        assert_eq!(b.decoded.load(Ordering::Relaxed), 50);
    }

    #[test]
    fn reversed_literal_and_inset_are_pushable() {
        let (i, pp) = as_pushable(&Expr::lit_i64(5).lt(Expr::col(2))).expect("pushable");
        assert_eq!(i, 2);
        assert!(matches!(pp, PushPred::Cmp { op: PredOp::Gt, lit: 5 }));
        let set: std::collections::HashSet<u64> = [1u64, 2].into_iter().collect();
        let (i, pp) = as_pushable(&Expr::col(0).in_set(set)).expect("pushable");
        assert_eq!(i, 0);
        assert!(matches!(pp, PushPred::InSet(_)));
        // Float literals and arithmetic are not pushable.
        assert!(as_pushable(&Expr::col(0).lt(Expr::lit_f64(1.0))).is_none());
        assert!(as_pushable(&Expr::col(0).add(Expr::lit_i64(1)).lt(Expr::lit_i64(2))).is_none());
    }
}
