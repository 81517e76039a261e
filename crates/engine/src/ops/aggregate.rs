//! Hash aggregation with grouping, a column at a time: per batch the
//! key and input expressions are evaluated once, one group-id pass maps
//! every row to its group, and one typed loop per aggregate folds the
//! batch in. Groups keep first-seen order and f64 sums keep row order,
//! so results equal a row-at-a-time loop bit for bit (DESIGN.md §2).

use crate::batch::{Batch, ColType, Vector};
use crate::explain::{ExplainNode, OpProfile};
use crate::expr::Expr;
use crate::ops::Operator;
use std::borrow::Cow;

/// An aggregate over an expression.
#[derive(Debug, Clone)]
pub enum AggExpr {
    /// Sum (integer or float, from the expression's type).
    Sum(Expr),
    /// Row count.
    Count,
    /// Mean as f64 (input promoted).
    Avg(Expr),
    /// Minimum.
    Min(Expr),
    /// Maximum.
    Max(Expr),
}

impl AggExpr {
    fn input(&self) -> Option<&Expr> {
        match self {
            AggExpr::Sum(e) | AggExpr::Avg(e) | AggExpr::Min(e) | AggExpr::Max(e) => Some(e),
            AggExpr::Count => None,
        }
    }
}

/// Largest slot table the group-id pass indexes directly.
const SLOTS: usize = 4096;

/// Marks an unused slot in [`Groups`]' index and in the slot table.
const EMPTY: u32 = u32::MAX;

/// Runs `$body` with `$x` bound to the slice of an integer vector.
macro_rules! with_ints {
    ($v:expr, $x:ident => $body:expr, $other:expr) => {
        match $v {
            Vector::I32($x) => $body,
            Vector::I64($x) => $body,
            Vector::U32($x) => $body,
            _ => $other,
        }
    };
}

/// `(min, max − min + 1)` of integer keys, when that range fits [`SLOTS`].
fn span<T: Copy + Into<i64>>(x: &[T]) -> Option<(i64, usize)> {
    let (lo, hi) = x.iter().fold((i64::MAX, i64::MIN), |(lo, hi), &v| {
        let v = v.into();
        (lo.min(v), hi.max(v))
    });
    let range = hi as i128 - lo as i128 + 1;
    (1..=SLOTS as i128).contains(&range).then_some((lo, range as usize))
}

/// Adds each row's mixed-radix digit `(key − min) · stride` to its slot.
fn add_digit<T: Copy + Into<i64>>(x: &[T], min: i64, stride: usize, slots: &mut [u32]) {
    for (s, &v) in slots.iter_mut().zip(x) {
        *s += ((v.into() - min) as usize * stride) as u32;
    }
}

/// Group keys in first-seen order — `width` widened values
/// ([`Vector::key_at`]) per group in one flat store — with an
/// open-addressing index from key to group id (multiplicative hash,
/// linear probing).
#[derive(Default)]
struct Groups {
    width: usize,
    len: usize,
    keys: Vec<u64>,
    index: Vec<u32>,
    shift: u32,
    /// Per-batch slot table of the direct-indexed path.
    slots: Vec<u32>,
    /// One row's key, for probing.
    probe: Vec<u64>,
    /// Rows per group, in [`LANES`] partials.
    counts: Vec<i64>,
}

impl Groups {
    fn new(width: usize) -> Self {
        Self { width, probe: vec![0; width], ..Self::default() }
    }

    fn home(&self, key: &[u64]) -> usize {
        let h = key.iter().fold(0u64, |h, &k| (h ^ k).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        (h >> self.shift) as usize
    }

    /// The id of the group whose key is in `self.probe`, adding it when
    /// it is new.
    fn find_or_insert(&mut self) -> u32 {
        if 2 * (self.len + 1) > self.index.len() {
            let size = (2 * self.index.len()).max(16);
            self.index = vec![EMPTY; size];
            self.shift = 64 - size.trailing_zeros();
            for g in 0..self.len {
                let mut i = self.home(&self.keys[g * self.width..(g + 1) * self.width]);
                while self.index[i] != EMPTY {
                    i = (i + 1) & (self.index.len() - 1);
                }
                self.index[i] = g as u32;
            }
        }
        let mut i = self.home(&self.probe);
        loop {
            let g = self.index[i];
            if g == EMPTY {
                let g = self.len as u32;
                self.index[i] = g;
                self.keys.extend_from_slice(&self.probe);
                self.counts.extend([0; LANES]);
                self.len += 1;
                return g;
            }
            let at = g as usize * self.width;
            if self.keys[at..at + self.width] == self.probe[..] {
                return g;
            }
            i = (i + 1) & (self.index.len() - 1);
        }
    }

    /// Probes the group of row `row`.
    fn row(&mut self, keys: &[Cow<'_, Vector>], row: usize) -> u32 {
        for (slot, k) in self.probe.iter_mut().zip(keys) {
            *slot = k.key_at(row);
        }
        self.find_or_insert()
    }

    /// The group-id pass: writes each of `n` rows' group id into `gids`,
    /// adding unseen keys in row order, and counts the rows per group.
    fn assign(&mut self, keys: &[Cow<'_, Vector>], n: usize, gids: &mut Vec<u32>) {
        gids.clear();
        gids.resize(n, 0);
        // Each row's mixed-radix slot, while the keys' ranges fit.
        let mut size = 1;
        for k in keys {
            match with_ints!(&**k, x => span(x), None) {
                Some((min, range)) if size * range <= SLOTS => {
                    with_ints!(&**k, x => add_digit(x, min, size, gids), unreachable!());
                    size *= range;
                }
                _ => {
                    size = 0;
                    break;
                }
            }
        }
        if size == 0 {
            for (row, g) in gids.iter_mut().enumerate() {
                *g = self.row(keys, row);
            }
        } else {
            self.slots.clear();
            self.slots.resize(size, EMPTY);
            for (row, g) in gids.iter_mut().enumerate() {
                let s = *g as usize;
                if self.slots[s] == EMPTY {
                    self.slots[s] = self.row(keys, row);
                }
                *g = self.slots[s];
            }
        }
        for (i, &g) in gids.iter().enumerate() {
            self.counts[g as usize * LANES + i % LANES] += 1;
        }
    }

    /// Key column `k` of the output, one value per group.
    fn key_column(&self, k: usize, ty: ColType) -> Vector {
        let vals = self.keys.iter().skip(k).step_by(self.width);
        match ty {
            ColType::I32 => Vector::I32(vals.map(|&v| v as u32 as i32).collect()),
            ColType::I64 => Vector::I64(vals.map(|&v| v as i64).collect()),
            ColType::U32 => Vector::U32(vals.map(|&v| v as u32).collect()),
            ColType::F64 => Vector::F64(vals.map(|&v| f64::from_bits(v)).collect()),
        }
    }
}

/// Integer accumulators keep this many partials per group (row `i` feeds
/// partial `i % LANES`), so consecutive rows of one group do not wait on
/// each other's store; f64 sums keep one partial to stay in row order.
const LANES: usize = 4;

/// One aggregate's running state, an array indexed by group id (times
/// [`LANES`] for integers). `Count` and `Avg` divide by the group's row
/// count, which [`Groups`] keeps once for all aggregates.
enum State {
    Count,
    I64(Vec<i64>),
    F64(Vec<f64>),
    AvgInt(Vec<i128>),
    AvgF64(Vec<f64>),
}

/// `acc[gid[i] · lanes + i % lanes] ⊕= x[i]` for one batch, in row order.
#[inline]
fn fold<A, T: Copy>(acc: &mut [A], lanes: usize, gids: &[u32], x: &[T], f: impl Fn(&mut A, T)) {
    for (i, (&g, &v)) in gids.iter().zip(x).enumerate() {
        f(&mut acc[g as usize * lanes + i % lanes], v);
    }
}

/// [`fold`] of integer input, widened to i64, into [`LANES`] partials.
fn fold_int<A, T: Copy + Into<i64>>(acc: &mut [A], gids: &[u32], x: &[T], f: impl Fn(&mut A, i64)) {
    fold(acc, LANES, gids, x, |a, v| f(a, v.into()))
}

impl State {
    /// The state for `agg`, typed by its first input (integer when no
    /// input was ever seen).
    fn new(agg: &AggExpr, input: Option<&Vector>) -> Self {
        let float = matches!(input, Some(Vector::F64(_)));
        match agg {
            AggExpr::Count => State::Count,
            AggExpr::Avg(_) if float => State::AvgF64(Vec::new()),
            AggExpr::Avg(_) => State::AvgInt(Vec::new()),
            _ if float => State::F64(Vec::new()),
            _ => State::I64(Vec::new()),
        }
    }

    /// Extends the state to `n` groups with `agg`'s identity.
    fn grow(&mut self, agg: &AggExpr, n: usize) {
        let (int, float) = match agg {
            AggExpr::Min(_) => (i64::MAX, f64::INFINITY),
            AggExpr::Max(_) => (i64::MIN, f64::NEG_INFINITY),
            _ => (0, 0.0),
        };
        match self {
            State::Count => {}
            State::I64(a) => a.resize(n * LANES, int),
            State::AvgInt(a) => a.resize(n * LANES, 0),
            State::F64(a) | State::AvgF64(a) => a.resize(n, float),
        }
    }

    /// One tight loop folding a batch's `input` into the groups `gids`.
    fn update(&mut self, agg: &AggExpr, input: Option<&Vector>, gids: &[u32]) {
        let non_int = || panic!("integer aggregate over non-integer input");
        match (self, agg, input) {
            (State::Count, ..) => {}
            (State::I64(a), AggExpr::Sum(_), Some(v)) => {
                with_ints!(v, x => fold_int(a, gids, x, |a, v| *a += v), non_int())
            }
            (State::I64(a), AggExpr::Min(_), Some(v)) => {
                with_ints!(v, x => fold_int(a, gids, x, |a, v| *a = (*a).min(v)), non_int())
            }
            (State::I64(a), AggExpr::Max(_), Some(v)) => {
                with_ints!(v, x => fold_int(a, gids, x, |a, v| *a = (*a).max(v)), non_int())
            }
            (State::AvgInt(s), _, Some(v)) => {
                with_ints!(v, x => fold_int(s, gids, x, |s, v| *s += i128::from(v)), non_int())
            }
            (State::F64(a), AggExpr::Sum(_), Some(Vector::F64(x)))
            | (State::AvgF64(a), _, Some(Vector::F64(x))) => fold(a, 1, gids, x, |a, v| *a += v),
            (State::F64(a), AggExpr::Min(_), Some(Vector::F64(x))) => {
                fold(a, 1, gids, x, |a, v| *a = a.min(v))
            }
            (State::F64(a), AggExpr::Max(_), Some(Vector::F64(x))) => {
                fold(a, 1, gids, x, |a, v| *a = a.max(v))
            }
            _ => panic!("aggregate input changed type between batches"),
        }
    }

    /// The output column, given each group's row count.
    fn finish(mut self, agg: &AggExpr, counts: &[i64]) -> Vector {
        self.grow(agg, counts.len());
        let avg = |s: f64, c: i64| if c == 0 { f64::NAN } else { s / c as f64 };
        match self {
            State::Count => Vector::I64(counts.to_vec()),
            State::I64(a) => Vector::I64(
                a.chunks(LANES)
                    .map(|l| match agg {
                        AggExpr::Min(_) => l.iter().copied().fold(i64::MAX, i64::min),
                        AggExpr::Max(_) => l.iter().copied().fold(i64::MIN, i64::max),
                        _ => l.iter().sum(),
                    })
                    .collect(),
            ),
            State::F64(a) => Vector::F64(a),
            State::AvgInt(s) => Vector::F64(
                s.chunks(LANES)
                    .zip(counts)
                    .map(|(l, &c)| avg(l.iter().sum::<i128>() as f64, c))
                    .collect(),
            ),
            State::AvgF64(s) => {
                Vector::F64(s.iter().zip(counts).map(|(&s, &c)| avg(s, c)).collect())
            }
        }
    }
}

/// Blocking hash group-by. Consumes the whole input on the first `next()`
/// call and emits one batch: the key columns (original types preserved)
/// followed by one column per aggregate.
pub struct HashAggregate {
    input: Box<dyn Operator>,
    keys: Vec<Expr>,
    aggs: Vec<AggExpr>,
    done: bool,
    profile: OpProfile,
}

impl HashAggregate {
    /// Builds a group-by over `input`. With no keys, produces exactly one
    /// global group (even on empty input there is one output row, matching
    /// SQL aggregate semantics only for COUNT; sums of empty input report
    /// their identity).
    pub fn new(input: impl Operator + 'static, keys: Vec<Expr>, aggs: Vec<AggExpr>) -> Self {
        Self { input: Box::new(input), keys, aggs, done: false, profile: OpProfile::default() }
    }

    fn produce(&mut self) -> Result<Option<Batch>, scc_core::Error> {
        if self.done {
            return Ok(None);
        }
        self.done = true;
        let mut groups = Groups::new(self.keys.len());
        let mut gids: Vec<u32> = Vec::new();
        // Key types and aggregate states, fixed by the first rows.
        let mut typed: Option<(Vec<ColType>, Vec<State>)> = None;
        while let Some(batch) = self.input.try_next()? {
            if batch.is_empty() {
                continue;
            }
            let keys: Vec<Cow<Vector>> = self.keys.iter().map(|k| k.eval_ref(&batch)).collect();
            let inputs: Vec<Option<Cow<Vector>>> =
                self.aggs.iter().map(|a| a.input().map(|e| e.eval_ref(&batch))).collect();
            let (_, states) = typed.get_or_insert_with(|| {
                let states =
                    self.aggs.iter().zip(&inputs).map(|(a, v)| State::new(a, v.as_deref()));
                (keys.iter().map(|k| k.col_type()).collect(), states.collect())
            });
            groups.assign(&keys, batch.len(), &mut gids);
            for ((state, agg), input) in states.iter_mut().zip(&self.aggs).zip(&inputs) {
                state.grow(agg, groups.len);
                state.update(agg, input.as_deref(), &gids);
            }
        }
        let (key_types, states) = match typed {
            Some(typed) => typed,
            // Keyed group-by over an empty input: no groups, no rows.
            None if !self.keys.is_empty() => return Ok(None),
            // Global aggregate over empty input: one identity row.
            None => {
                groups.find_or_insert();
                (Vec::new(), self.aggs.iter().map(|a| State::new(a, None)).collect())
            }
        };
        let counts: Vec<i64> = groups.counts.chunks(LANES).map(|l| l.iter().sum()).collect();
        let mut columns: Vec<Vector> =
            key_types.iter().enumerate().map(|(k, &ty)| groups.key_column(k, ty)).collect();
        columns.extend(states.into_iter().zip(&self.aggs).map(|(s, a)| s.finish(a, &counts)));
        Ok(Some(Batch::new(columns)))
    }
}

impl Operator for HashAggregate {
    fn try_next(&mut self) -> Result<Option<Batch>, scc_core::Error> {
        let start = scc_obs::clock();
        let out = self.produce();
        self.profile.record(start, &out);
        out
    }

    fn label(&self) -> String {
        format!("HashAggregate(keys={}, aggs={})", self.keys.len(), self.aggs.len())
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
    use crate::ops::source::MemSource;

    #[test]
    fn group_by_with_sums_and_counts() {
        // keys 0,1,0,1,...; values 0..10
        let keys: Vec<i64> = (0..10).map(|i| i % 2).collect();
        let vals: Vec<i64> = (0..10).collect();
        let src = MemSource::from_i64(vec![keys, vals], 3);
        let mut agg = HashAggregate::new(
            Box::new(src),
            vec![Expr::col(0)],
            vec![AggExpr::Sum(Expr::col(1)), AggExpr::Count, AggExpr::Avg(Expr::col(1))],
        );
        let out = agg.next().unwrap();
        assert!(agg.next().is_none());
        assert_eq!(out.len(), 2);
        // Groups in first-seen order: key 0 then key 1.
        assert_eq!(out.col(0).as_i64(), &[0, 1]);
        assert_eq!(out.col(1).as_i64(), &[20, 25]); // 0+2+4+6+8, 1+3+5+7+9
        assert_eq!(out.col(2).as_i64(), &[5, 5]);
        assert_eq!(out.col(3).as_f64(), &[4.0, 5.0]);
    }

    #[test]
    fn composite_keys() {
        let a: Vec<i64> = vec![1, 1, 2, 2, 1];
        let b: Vec<i64> = vec![10, 20, 10, 10, 10];
        let src = MemSource::from_i64(vec![a, b], 2);
        let mut agg = HashAggregate::new(
            Box::new(src),
            vec![Expr::col(0), Expr::col(1)],
            vec![AggExpr::Count],
        );
        let out = agg.next().unwrap();
        assert_eq!(out.len(), 3);
        assert_eq!(out.col(2).as_i64(), &[2, 1, 2]); // (1,10), (1,20), (2,10)
    }

    #[test]
    fn min_max_float() {
        let src = MemSource::new(vec![Vector::F64(vec![3.5, -1.0, 2.0])], 8);
        let mut agg = HashAggregate::new(
            Box::new(src),
            vec![],
            vec![AggExpr::Min(Expr::col(0)), AggExpr::Max(Expr::col(0))],
        );
        let out = agg.next().unwrap();
        assert_eq!(out.col(0).as_f64(), &[-1.0]);
        assert_eq!(out.col(1).as_f64(), &[3.5]);
    }

    #[test]
    fn global_aggregate_over_empty_input() {
        let src = MemSource::from_i64(vec![vec![]], 8);
        let mut agg = HashAggregate::new(Box::new(src), vec![], vec![AggExpr::Count]);
        let out = agg.next().unwrap();
        assert_eq!(out.col(0).as_i64(), &[0]);
    }

    #[test]
    fn float_sum_typed_by_input() {
        let src = MemSource::new(vec![Vector::F64(vec![0.5, 0.25])], 8);
        let mut agg = HashAggregate::new(Box::new(src), vec![], vec![AggExpr::Sum(Expr::col(0))]);
        let out = agg.next().unwrap();
        assert_eq!(out.col(0).as_f64(), &[0.75]);
    }
}
