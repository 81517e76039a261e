//! Vectorized expression evaluation.
//!
//! Expressions compile to trees evaluated one vector at a time; every
//! arithmetic/comparison node is a tight loop over the operand vectors
//! (the engine's "primitives"). Type promotion is minimal and explicit:
//! integer ops stay integer, `to_f64` promotes, comparisons yield masks.

use crate::batch::{Batch, Vector};
use std::borrow::Cow;
use std::collections::HashSet;

/// A vectorized expression.
#[derive(Debug, Clone)]
pub enum Expr {
    /// Input column by position.
    Col(usize),
    /// Literal i32.
    LitI32(i32),
    /// Literal i64.
    LitI64(i64),
    /// Literal u32.
    LitU32(u32),
    /// Literal f64.
    LitF64(f64),
    /// Literal boolean mask — a constant-folded predicate. Produced when
    /// a pushed-down literal falls outside its column's domain (e.g. a
    /// negative literal against an unsigned column), where the answer is
    /// known without looking at any value.
    LitBool(bool),
    /// Addition.
    Add(Box<Expr>, Box<Expr>),
    /// Subtraction.
    Sub(Box<Expr>, Box<Expr>),
    /// Multiplication.
    Mul(Box<Expr>, Box<Expr>),
    /// Promote to f64.
    ToF64(Box<Expr>),
    /// Comparison: equal.
    Eq(Box<Expr>, Box<Expr>),
    /// Comparison: not equal.
    Ne(Box<Expr>, Box<Expr>),
    /// Comparison: less than.
    Lt(Box<Expr>, Box<Expr>),
    /// Comparison: less or equal.
    Le(Box<Expr>, Box<Expr>),
    /// Comparison: greater than.
    Gt(Box<Expr>, Box<Expr>),
    /// Comparison: greater or equal.
    Ge(Box<Expr>, Box<Expr>),
    /// Logical and of two masks.
    And(Box<Expr>, Box<Expr>),
    /// Logical or of two masks.
    Or(Box<Expr>, Box<Expr>),
    /// Logical not of a mask.
    Not(Box<Expr>),
    /// Membership of a (widened) value in a set — how string predicates
    /// arrive after dictionary translation.
    InSet(Box<Expr>, HashSet<u64>),
    /// Branch-free conditional: `mask ? then : else` per row (the
    /// predicated select primitive; both branches are evaluated).
    Cond(Box<Expr>, Box<Expr>, Box<Expr>),
    /// Bucket an i32 input by sorted boundaries: result is the number of
    /// boundaries `<=` the value (e.g. year extraction from day numbers
    /// with year-start boundaries).
    BucketI32(Box<Expr>, Vec<i32>),
}

/// One operand of a binary primitive: a vector, or a literal read as a
/// scalar.
#[derive(Clone, Copy)]
enum Arg<'a, T> {
    Col(&'a [T]),
    Val(T),
}

/// The binary primitive: `f` over two vectors, a vector and a scalar
/// (either side, operand order kept) or two scalars.
fn map2<T: Copy, R: Clone>(a: Arg<T>, b: Arg<T>, n: usize, f: impl Fn(T, T) -> R) -> Vec<R> {
    match (a, b) {
        (Arg::Col(x), Arg::Col(y)) => {
            debug_assert_eq!(x.len(), y.len());
            x.iter().zip(y).map(|(&x, &y)| f(x, y)).collect()
        }
        (Arg::Col(x), Arg::Val(y)) => x.iter().map(|&x| f(x, y)).collect(),
        (Arg::Val(x), Arg::Col(y)) => y.iter().map(|&y| f(x, y)).collect(),
        (Arg::Val(x), Arg::Val(y)) => vec![f(x, y); n],
    }
}

/// A binary node's operand: `None` for a numeric literal, which the
/// primitive reads as a scalar, otherwise the (borrowed) vector.
fn operand<'a>(e: &Expr, batch: &'a Batch) -> Option<Cow<'a, Vector>> {
    match e {
        Expr::LitI32(_) | Expr::LitI64(_) | Expr::LitU32(_) | Expr::LitF64(_) => None,
        _ => Some(e.eval_ref(batch)),
    }
}

/// The typed [`Arg`] of operand `$e` (evaluated as `$v`, see
/// [`operand`]) when it is a `$vec` vector or a `$lit` literal.
macro_rules! arg {
    ($e:expr, $v:expr, $vec:path, $lit:path) => {
        match ($e, $v.as_deref()) {
            ($lit(s), _) => Some(Arg::Val(*s)),
            (_, Some($vec(x))) => Some(Arg::Col(x.as_slice())),
            _ => None,
        }
    };
}

/// The binary primitive `$f` over operands `$a`, `$b` of the first
/// listed `$vec` vector / `$lit` literal type both have, its result
/// wrapped in `$out`; any other pair panics with "`$what` type mismatch".
macro_rules! binary {
    ($a:expr, $b:expr, $batch:expr, $f:expr, $what:literal,
     $($vec:path, $lit:path => $out:path);*) => {{
        let (a, b, batch): (&Expr, &Expr, &Batch) = ($a, $b, $batch);
        let (va, vb) = (operand(a, batch), operand(b, batch));
        $(if let (Some(x), Some(y)) = (arg!(a, va, $vec, $lit), arg!(b, vb, $vec, $lit)) {
            $out(map2(x, y, batch.len(), $f))
        } else)* {
            panic!(concat!($what, " type mismatch"))
        }
    }};
}

/// Integer and f64 arithmetic (u32 dictionary codes have none).
macro_rules! arith {
    ($a:expr, $b:expr, $batch:expr, $f:expr) => {
        binary!($a, $b, $batch, $f, "arith",
            Vector::I32, Expr::LitI32 => Vector::I32;
            Vector::I64, Expr::LitI64 => Vector::I64;
            Vector::F64, Expr::LitF64 => Vector::F64)
    };
}

/// Comparisons of any value type, yielding a mask.
macro_rules! compare {
    ($a:expr, $b:expr, $batch:expr, $f:expr) => {
        binary!($a, $b, $batch, $f, "compare",
            Vector::I32, Expr::LitI32 => Vector::Mask;
            Vector::I64, Expr::LitI64 => Vector::Mask;
            Vector::U32, Expr::LitU32 => Vector::Mask;
            Vector::F64, Expr::LitF64 => Vector::Mask)
    };
}

impl Expr {
    /// Column reference.
    pub fn col(i: usize) -> Expr {
        Expr::Col(i)
    }

    /// i64 literal.
    pub fn lit_i64(v: i64) -> Expr {
        Expr::LitI64(v)
    }

    /// i32 literal.
    pub fn lit_i32(v: i32) -> Expr {
        Expr::LitI32(v)
    }

    /// u32 literal.
    pub fn lit_u32(v: u32) -> Expr {
        Expr::LitU32(v)
    }

    /// f64 literal.
    pub fn lit_f64(v: f64) -> Expr {
        Expr::LitF64(v)
    }

    /// Constant boolean mask (always-true / always-false predicate).
    pub fn lit_bool(v: bool) -> Expr {
        Expr::LitBool(v)
    }

    /// `self + rhs`.
    #[allow(clippy::should_implement_trait)] // vectorized-expression DSL, not std ops
    pub fn add(self, rhs: Expr) -> Expr {
        Expr::Add(Box::new(self), Box::new(rhs))
    }

    /// `self - rhs`.
    #[allow(clippy::should_implement_trait)] // vectorized-expression DSL, not std ops
    pub fn sub(self, rhs: Expr) -> Expr {
        Expr::Sub(Box::new(self), Box::new(rhs))
    }

    /// `self * rhs`.
    #[allow(clippy::should_implement_trait)] // vectorized-expression DSL, not std ops
    pub fn mul(self, rhs: Expr) -> Expr {
        Expr::Mul(Box::new(self), Box::new(rhs))
    }

    /// Promote to f64.
    pub fn to_f64(self) -> Expr {
        Expr::ToF64(Box::new(self))
    }

    /// `self == rhs` mask.
    pub fn eq(self, rhs: Expr) -> Expr {
        Expr::Eq(Box::new(self), Box::new(rhs))
    }

    /// `self != rhs` mask.
    pub fn ne(self, rhs: Expr) -> Expr {
        Expr::Ne(Box::new(self), Box::new(rhs))
    }

    /// `self < rhs` mask.
    pub fn lt(self, rhs: Expr) -> Expr {
        Expr::Lt(Box::new(self), Box::new(rhs))
    }

    /// `self <= rhs` mask.
    pub fn le(self, rhs: Expr) -> Expr {
        Expr::Le(Box::new(self), Box::new(rhs))
    }

    /// `self > rhs` mask.
    pub fn gt(self, rhs: Expr) -> Expr {
        Expr::Gt(Box::new(self), Box::new(rhs))
    }

    /// `self >= rhs` mask.
    pub fn ge(self, rhs: Expr) -> Expr {
        Expr::Ge(Box::new(self), Box::new(rhs))
    }

    /// Mask conjunction.
    pub fn and(self, rhs: Expr) -> Expr {
        Expr::And(Box::new(self), Box::new(rhs))
    }

    /// Mask disjunction.
    pub fn or(self, rhs: Expr) -> Expr {
        Expr::Or(Box::new(self), Box::new(rhs))
    }

    /// Mask negation.
    #[allow(clippy::should_implement_trait)] // vectorized-expression DSL, not std ops
    pub fn not(self) -> Expr {
        Expr::Not(Box::new(self))
    }

    /// Set membership over widened values.
    pub fn in_set(self, set: HashSet<u64>) -> Expr {
        Expr::InSet(Box::new(self), set)
    }

    /// Per-row conditional (`self` must evaluate to a mask).
    pub fn cond(self, then: Expr, otherwise: Expr) -> Expr {
        Expr::Cond(Box::new(self), Box::new(then), Box::new(otherwise))
    }

    /// Bucket by sorted i32 boundaries.
    pub fn bucket_i32(self, boundaries: Vec<i32>) -> Expr {
        debug_assert!(boundaries.windows(2).all(|w| w[0] < w[1]));
        Expr::BucketI32(Box::new(self), boundaries)
    }

    /// Calls `f` on every column reference in the tree; `f` may
    /// renumber it.
    pub fn visit_cols_mut(&mut self, f: &mut impl FnMut(&mut usize)) {
        match self {
            Expr::Col(i) => f(i),
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
                a.visit_cols_mut(f);
                b.visit_cols_mut(f);
            }
            Expr::ToF64(a) | Expr::Not(a) | Expr::InSet(a, _) | Expr::BucketI32(a, _) => {
                a.visit_cols_mut(f)
            }
            Expr::Cond(m, t, e) => {
                m.visit_cols_mut(f);
                t.visit_cols_mut(f);
                e.visit_cols_mut(f);
            }
        }
    }

    /// Evaluates against a batch, producing one vector of `batch.len()`
    /// values.
    pub fn eval(&self, batch: &Batch) -> Vector {
        self.eval_ref(batch).into_owned()
    }

    /// [`Self::eval`] without copies: a column reference borrows the
    /// batch's vector, `to_f64` of an f64 passes its input through, and
    /// arithmetic and comparisons read a literal operand as a scalar
    /// instead of broadcasting it (X100's `_val` primitives).
    pub fn eval_ref<'a>(&self, batch: &'a Batch) -> Cow<'a, Vector> {
        let n = batch.len();
        Cow::Owned(match self {
            Expr::Col(i) => return Cow::Borrowed(batch.col(*i)),
            Expr::LitI32(v) => Vector::I32(vec![*v; n]),
            Expr::LitI64(v) => Vector::I64(vec![*v; n]),
            Expr::LitU32(v) => Vector::U32(vec![*v; n]),
            Expr::LitF64(v) => Vector::F64(vec![*v; n]),
            Expr::LitBool(v) => Vector::Mask(vec![*v; n]),
            Expr::Add(a, b) => arith!(a, b, batch, |x, y| x + y),
            Expr::Sub(a, b) => arith!(a, b, batch, |x, y| x - y),
            Expr::Mul(a, b) => arith!(a, b, batch, |x, y| x * y),
            Expr::ToF64(a) => {
                let v = a.eval_ref(batch);
                Vector::F64(match &*v {
                    Vector::F64(_) => return v,
                    Vector::I32(x) => x.iter().map(|&v| v as f64).collect(),
                    Vector::I64(x) => x.iter().map(|&v| v as f64).collect(),
                    Vector::U32(x) => x.iter().map(|&v| v as f64).collect(),
                    Vector::Mask(_) => panic!("cannot promote to f64"),
                })
            }
            Expr::Eq(a, b) => compare!(a, b, batch, |x, y| x == y),
            Expr::Ne(a, b) => compare!(a, b, batch, |x, y| x != y),
            Expr::Lt(a, b) => compare!(a, b, batch, |x, y| x < y),
            Expr::Le(a, b) => compare!(a, b, batch, |x, y| x <= y),
            Expr::Gt(a, b) => compare!(a, b, batch, |x, y| x > y),
            Expr::Ge(a, b) => compare!(a, b, batch, |x, y| x >= y),
            Expr::And(a, b) => {
                let (av, bv) = (a.eval_ref(batch), b.eval_ref(batch));
                let (am, bm) = (av.as_mask(), bv.as_mask());
                Vector::Mask(am.iter().zip(bm).map(|(&x, &y)| x & y).collect())
            }
            Expr::Or(a, b) => {
                let (av, bv) = (a.eval_ref(batch), b.eval_ref(batch));
                let (am, bm) = (av.as_mask(), bv.as_mask());
                Vector::Mask(am.iter().zip(bm).map(|(&x, &y)| x | y).collect())
            }
            Expr::Not(a) => Vector::Mask(a.eval_ref(batch).as_mask().iter().map(|&x| !x).collect()),
            Expr::InSet(a, set) => {
                let av = a.eval_ref(batch);
                Vector::Mask((0..n).map(|i| set.contains(&av.key_at(i))).collect())
            }
            Expr::Cond(m, t, e) => {
                cond_select(m.eval_ref(batch).as_mask(), &t.eval_ref(batch), &e.eval_ref(batch))
            }
            Expr::BucketI32(a, bounds) => {
                let av = a.eval_ref(batch);
                let x = av.as_i32();
                Vector::I32(x.iter().map(|v| bounds.partition_point(|b| b <= v) as i32).collect())
            }
        })
    }
}

fn cond_select(mask: &[bool], t: &Vector, e: &Vector) -> Vector {
    match (t, e) {
        (Vector::I32(a), Vector::I32(b)) => Vector::I32(
            mask.iter().zip(a.iter().zip(b)).map(|(&m, (&x, &y))| if m { x } else { y }).collect(),
        ),
        (Vector::I64(a), Vector::I64(b)) => Vector::I64(
            mask.iter().zip(a.iter().zip(b)).map(|(&m, (&x, &y))| if m { x } else { y }).collect(),
        ),
        (Vector::U32(a), Vector::U32(b)) => Vector::U32(
            mask.iter().zip(a.iter().zip(b)).map(|(&m, (&x, &y))| if m { x } else { y }).collect(),
        ),
        (Vector::F64(a), Vector::F64(b)) => Vector::F64(
            mask.iter().zip(a.iter().zip(b)).map(|(&m, (&x, &y))| if m { x } else { y }).collect(),
        ),
        _ => panic!("cond branch type mismatch"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch() -> Batch {
        Batch::new(vec![
            Vector::I64(vec![1, 2, 3, 4, 5]),
            Vector::F64(vec![0.1, 0.2, 0.3, 0.4, 0.5]),
            Vector::U32(vec![7, 8, 7, 9, 7]),
        ])
    }

    #[test]
    fn arithmetic_and_promotion() {
        let e = Expr::col(0).to_f64().mul(Expr::col(1));
        let v = e.eval(&batch());
        let f = v.as_f64();
        assert!((f[4] - 2.5).abs() < 1e-12);
    }

    #[test]
    fn comparisons_yield_masks() {
        let e = Expr::col(0).ge(Expr::lit_i64(3));
        assert_eq!(e.eval(&batch()).as_mask(), &[false, false, true, true, true]);
    }

    #[test]
    fn boolean_combinators() {
        let e = Expr::col(0)
            .ge(Expr::lit_i64(2))
            .and(Expr::col(0).le(Expr::lit_i64(4)))
            .or(Expr::col(0).eq(Expr::lit_i64(1)));
        assert_eq!(e.eval(&batch()).as_mask(), &[true, true, true, true, false]);
        let n = Expr::col(0).eq(Expr::lit_i64(1)).not();
        assert_eq!(n.eval(&batch()).as_mask(), &[false, true, true, true, true]);
    }

    #[test]
    fn in_set_membership() {
        let set: HashSet<u64> = [7u64, 9].into_iter().collect();
        let e = Expr::col(2).in_set(set);
        assert_eq!(e.eval(&batch()).as_mask(), &[true, false, true, true, true]);
    }

    #[test]
    fn literals_broadcast() {
        let e = Expr::lit_f64(2.0).mul(Expr::col(1));
        let v = e.eval(&batch());
        assert_eq!(v.len(), 5);
        assert!((v.as_f64()[1] - 0.4).abs() < 1e-12);
    }

    #[test]
    fn columns_and_f64_promotion_borrow() {
        let b = batch();
        assert!(matches!(Expr::col(0).eval_ref(&b), Cow::Borrowed(_)));
        assert!(matches!(Expr::col(1).to_f64().eval_ref(&b), Cow::Borrowed(_)));
        assert!(matches!(Expr::col(0).to_f64().eval_ref(&b), Cow::Owned(Vector::F64(_))));
    }

    #[test]
    #[should_panic(expected = "type mismatch")]
    fn mixed_type_arith_panics() {
        Expr::col(0).add(Expr::col(1)).eval(&batch());
    }

    #[test]
    fn cond_selects_per_row() {
        let e = Expr::col(0).ge(Expr::lit_i64(3)).cond(Expr::col(0), Expr::lit_i64(0));
        assert_eq!(e.eval(&batch()).as_i64(), &[0, 0, 3, 4, 5]);
    }

    #[test]
    fn cond_f64_branches() {
        let e = Expr::col(2).eq(Expr::lit_u32(7)).cond(Expr::col(1), Expr::lit_f64(0.0));
        let v = e.eval(&batch());
        assert_eq!(v.as_f64(), &[0.1, 0.0, 0.3, 0.0, 0.5]);
    }

    #[test]
    fn visit_cols_mut_reaches_every_column() {
        let mut e = Expr::col(3)
            .lt(Expr::col(1).add(Expr::lit_i64(1)))
            .cond(Expr::col(3).to_f64(), Expr::col(0).in_set(HashSet::new()));
        let mut seen = Vec::new();
        e.visit_cols_mut(&mut |i| {
            seen.push(*i);
            *i += 10;
        });
        assert_eq!(seen, [3, 1, 3, 0]);
        e.visit_cols_mut(&mut |i| seen.push(*i));
        assert_eq!(&seen[4..], [13, 11, 13, 10]);
    }

    #[test]
    fn bucket_counts_boundaries() {
        let b = Batch::new(vec![Vector::I32(vec![-5, 0, 10, 365, 366, 1000])]);
        let e = Expr::col(0).bucket_i32(vec![0, 366]);
        assert_eq!(e.eval(&b).as_i32(), &[0, 1, 1, 1, 2, 2]);
    }
}
