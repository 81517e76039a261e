//! Compressed-domain predicate execution: re-encode the literal, scan
//! the codes.
//!
//! A `Select` over a PFOR segment does not need the values — it needs to
//! know, per slot, whether `value OP literal` holds. Since PFOR codes
//! are order-embedded offsets from `base` (whenever the `2^b` window
//! does not wrap the domain), the comparison can be answered entirely in
//! code space: re-encode the literal once per segment into a code-domain
//! band `[lo, hi]` and let the packed compare kernels of
//! [`scc_bitpack::cmp`] emit the selection vector without materializing
//! a single value. PDICT is even better off: evaluate the predicate once
//! per *dictionary entry* and scan the codes against the qualifying-id
//! bitset. This is the MorphStore argument applied to the paper's
//! schemes (ROADMAP item 1).
//!
//! # Literal re-encoding rules
//!
//! The literal is carried as `i64` on the wire and typed via
//! [`Value::try_from_i64`], which never casts: a literal outside the
//! column type's domain folds to a constant outcome ([`const_outcome`]),
//! so `-7` against a `u32` column is *always-false* for `Eq`/`Lt`/`Le`
//! and *always-true* for `Ne`/`Gt`/`Ge` — not a wrapped bit pattern.
//! Within the type, the same below/above folding repeats against the
//! segment's code window: a literal below `base` or beyond
//! `base + 2^b - 1` classifies every coded slot constantly.
//!
//! `wrapping_offset` is bijective in the window but **not monotone**
//! when the window wraps the domain (e.g. a PFOR base near the top of
//! `u32`), so ordering comparisons must never be translated through it
//! blindly: [`Segment::compile_predicate`] checks window orderedness
//! first and compiles ordering ops only for ordered windows; wrapped
//! windows still admit the exact `Eq`/`Ne` membership translation, and
//! everything else falls back to decode-then-select (`None`).
//!
//! # Exceptions
//!
//! Coded tests only bind coded slots. Exception slots hold gap codes
//! (arbitrary link distances, not data), so whatever the kernel reports
//! there is overwritten: the patch walk re-tests each exception *value*
//! with the value-domain predicate and patches the selection vector —
//! the same LOOP2 structure as decode, with a 1-byte patch target.

use std::collections::HashSet;

use crate::error::Error;
use crate::patch::{walk_patch_list, BLOCK};
use crate::segment::{SchemeKind, Segment};
use crate::value::Value;
use scc_bitpack::{get_one, mask};

/// Comparison operator of a pushed-down predicate. The numeric tags are
/// the wire tags of the server protocol (which re-exports this type).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PredOp {
    /// `=`
    Eq = 1,
    /// `<>`
    Ne = 2,
    /// `<`
    Lt = 3,
    /// `<=`
    Le = 4,
    /// `>`
    Gt = 5,
    /// `>=`
    Ge = 6,
}

impl PredOp {
    /// All six operators, in tag order.
    pub const ALL: [PredOp; 6] =
        [PredOp::Eq, PredOp::Ne, PredOp::Lt, PredOp::Le, PredOp::Gt, PredOp::Ge];

    /// Stable numeric tag (1..=6) used by the server wire format.
    pub fn tag(self) -> u8 {
        self as u8
    }

    /// Inverse of [`tag`](Self::tag).
    pub fn from_tag(tag: u8) -> Option<PredOp> {
        Some(match tag {
            1 => PredOp::Eq,
            2 => PredOp::Ne,
            3 => PredOp::Lt,
            4 => PredOp::Le,
            5 => PredOp::Gt,
            6 => PredOp::Ge,
            _ => return None,
        })
    }

    /// `v OP lit` in the value domain.
    #[inline(always)]
    pub fn test<T: Ord>(self, v: T, lit: T) -> bool {
        match self {
            PredOp::Eq => v == lit,
            PredOp::Ne => v != lit,
            PredOp::Lt => v < lit,
            PredOp::Le => v <= lit,
            PredOp::Gt => v > lit,
            PredOp::Ge => v >= lit,
        }
    }
}

/// Outcome of `v OP lit` when the literal is outside the domain that
/// `v` ranges over — below every possible `v` (`below = true`) or above
/// every possible `v` (`below = false`). This single table defines the
/// cross-sign comparison semantics for the whole system: a negative
/// literal against an unsigned column is *below*, so `Eq`/`Lt`/`Le` are
/// always-false and `Ne`/`Gt`/`Ge` always-true.
#[inline]
pub fn const_outcome(op: PredOp, below: bool) -> bool {
    match op {
        PredOp::Eq => false,
        PredOp::Ne => true,
        // `v < lit`: false when lit is below every v, true when above.
        PredOp::Lt | PredOp::Le => !below,
        PredOp::Gt | PredOp::Ge => below,
    }
}

/// A wire literal after typing against a column's value type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TypedLit<V> {
    /// The literal is representable; compare against this value.
    Lit(V),
    /// Out-of-domain literal: every row passes.
    AlwaysTrue,
    /// Out-of-domain literal: no row passes.
    AlwaysFalse,
}

/// Types an `i64` wire literal against column type `V`, folding
/// out-of-domain literals to their constant outcome per
/// [`const_outcome`]. This is the **only** sanctioned way to narrow a
/// pushed-down literal — casting (`as`) silently wraps and answers the
/// wrong question for cross-sign comparisons.
pub fn type_literal<V: Value>(op: PredOp, lit: i64) -> TypedLit<V> {
    match V::try_from_i64(lit) {
        Ok(v) => TypedLit::Lit(v),
        Err(below) => {
            if const_outcome(op, below) {
                TypedLit::AlwaysTrue
            } else {
                TypedLit::AlwaysFalse
            }
        }
    }
}

/// A value-domain predicate over one column of type `V`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValuePred<V> {
    /// `v OP lit`.
    Cmp {
        /// Comparison operator.
        op: PredOp,
        /// Typed literal.
        lit: V,
    },
    /// `v ∈ set`, keyed by [`Value::to_u64_lossy`] (the engine's `InSet`
    /// key function).
    InSet(HashSet<u64>),
}

impl<V: Value> ValuePred<V> {
    /// Evaluates the predicate against a decoded value.
    #[inline]
    pub fn test(&self, v: V) -> bool {
        match self {
            ValuePred::Cmp { op, lit } => op.test(v, *lit),
            ValuePred::InSet(set) => set.contains(&v.to_u64_lossy()),
        }
    }
}

/// The code-domain test a predicate compiles to for one segment.
#[derive(Debug, Clone, PartialEq, Eq)]
enum CodedTest {
    /// Every coded slot has this outcome (the literal cleared or missed
    /// the whole code window). Exception slots are still patched.
    Const(bool),
    /// Coded slot passes iff `lo <= code <= hi` (xor `negate`).
    Range { lo: u32, hi: u32, negate: bool },
    /// Coded slot passes iff its code is set in this bitset (PDICT
    /// qualifying dictionary ids).
    Set(Vec<u64>),
}

/// A predicate compiled against one segment: the value-domain test (for
/// exception patching and fallback) plus the code-domain test the scan
/// kernels execute.
#[derive(Debug, Clone)]
pub struct CodePredicate<V> {
    pred: ValuePred<V>,
    coded: CodedTest,
}

impl<V: Value> CodePredicate<V> {
    /// The value-domain predicate this was compiled from.
    pub fn value_pred(&self) -> &ValuePred<V> {
        &self.pred
    }

    /// True when every coded slot already has a constant outcome (only
    /// exceptions need testing).
    pub fn is_const(&self) -> bool {
        matches!(self.coded, CodedTest::Const(_))
    }
}

impl<V: Value> Segment<V> {
    /// True when the segment's `2^b` code window does not wrap the
    /// domain of `V`, i.e. `code -> value` is monotone and code-space
    /// comparisons order exactly like value-space ones.
    fn window_is_ordered(&self) -> bool {
        self.base <= V::apply_offset(self.base, mask(self.b))
    }

    /// Compiles a value-domain predicate into a code-domain test for
    /// this segment, or `None` when the predicate cannot be answered in
    /// code space (PFOR-DELTA codes are differences; ordering ops over a
    /// wrapped PFOR window have no monotone translation; arbitrary sets
    /// have no band). `None` means "decode, then test" — never an
    /// approximation.
    pub fn compile_predicate(&self, pred: &ValuePred<V>) -> Option<CodePredicate<V>> {
        let coded = match self.scheme {
            // Delta codes are first differences: no per-slot test exists.
            SchemeKind::PforDelta => return None,
            SchemeKind::Pfor => match pred {
                ValuePred::Cmp { op, lit } => self.compile_for_cmp(*op, *lit)?,
                // Membership is exact under any window (code -> value is
                // bijective, wrapped or not): probe every representable
                // code's value against the set and scan the bitset. Wide
                // windows would need a 2^b-bit set — decode instead.
                ValuePred::InSet(set) => {
                    const MAX_SET_BITS: u32 = 16;
                    if self.b > MAX_SET_BITS {
                        return None;
                    }
                    let span = mask(self.b);
                    let mut bits = vec![0u64; (span as usize + 1).div_ceil(64)];
                    let mut n_set = 0u64;
                    for c in 0..=span {
                        let v = V::apply_offset(self.base, c);
                        if set.contains(&v.to_u64_lossy()) {
                            bits[c as usize >> 6] |= 1 << (c & 63);
                            n_set += 1;
                        }
                    }
                    if n_set == 0 {
                        CodedTest::Const(false)
                    } else if n_set == span as u64 + 1 {
                        CodedTest::Const(true)
                    } else {
                        CodedTest::Set(bits)
                    }
                }
            },
            SchemeKind::Pdict => {
                // One predicate evaluation per dictionary entry, then the
                // scan is pure id-set membership.
                let mut bits = vec![0u64; self.dict.len().div_ceil(64)];
                let mut n_set = 0usize;
                for (i, &v) in self.dict.iter().enumerate() {
                    if pred.test(v) {
                        bits[i >> 6] |= 1 << (i & 63);
                        n_set += 1;
                    }
                }
                if n_set == self.dict.len() {
                    CodedTest::Const(true)
                } else if n_set == 0 {
                    CodedTest::Const(false)
                } else {
                    CodedTest::Set(bits)
                }
            }
        };
        Some(CodePredicate { pred: pred.clone(), coded })
    }

    /// PFOR band compilation: classify the literal against the window
    /// `[base, base + 2^b - 1]` and emit a code band. See the module
    /// docs for the ordered/wrapped split.
    fn compile_for_cmp(&self, op: PredOp, lit: V) -> Option<CodedTest> {
        let span = mask(self.b);
        if !self.window_is_ordered() {
            // Wrapped window: `wrapping_offset` is bijective but not
            // monotone, so only exact membership ops translate. Using
            // the offset for ordering here is precisely the bug the
            // regression tests pin down.
            let off = lit.wrapping_offset(self.base);
            return match op {
                PredOp::Eq | PredOp::Ne => {
                    if off <= span as u64 {
                        Some(CodedTest::Range {
                            lo: off as u32,
                            hi: off as u32,
                            negate: op == PredOp::Ne,
                        })
                    } else {
                        // Literal not representable at this width: no
                        // coded slot can equal it.
                        Some(CodedTest::Const(op == PredOp::Ne))
                    }
                }
                _ => None,
            };
        }
        let top = V::apply_offset(self.base, span);
        if lit < self.base {
            // Below every codable value.
            return Some(CodedTest::Const(const_outcome(op, true)));
        }
        if lit > top {
            return Some(CodedTest::Const(const_outcome(op, false)));
        }
        // In-window: the offset is exact and monotone.
        let c = lit.wrapping_offset(self.base) as u32;
        Some(match op {
            PredOp::Eq => CodedTest::Range { lo: c, hi: c, negate: false },
            PredOp::Ne => CodedTest::Range { lo: c, hi: c, negate: true },
            PredOp::Lt if c == 0 => CodedTest::Const(false),
            PredOp::Lt => CodedTest::Range { lo: 0, hi: c - 1, negate: false },
            PredOp::Le => CodedTest::Range { lo: 0, hi: c, negate: false },
            PredOp::Gt if c == span => CodedTest::Const(false),
            PredOp::Gt => CodedTest::Range { lo: c + 1, hi: span, negate: false },
            PredOp::Ge => CodedTest::Range { lo: c, hi: span, negate: false },
        })
    }

    /// Evaluates a compiled predicate over values
    /// `[start, start + out.len())`, writing one selection flag per
    /// slot — without decoding the values. `start` must be
    /// block-aligned, exactly like
    /// [`try_decode_range`](Segment::try_decode_range), and the
    /// selection agrees slot-for-slot with decoding the same range and
    /// testing [`CodePredicate::value_pred`] on each value.
    ///
    /// Per block: the coded test runs over the packed codes (LOOP1,
    /// vectorized in the active kernel tier), then the exception walk
    /// re-tests each exception value and patches its selection flag
    /// (LOOP2).
    pub fn try_select_range(
        &self,
        cp: &CodePredicate<V>,
        start: usize,
        out: &mut [bool],
    ) -> Result<(), Error> {
        if !start.is_multiple_of(BLOCK) {
            return Err(Error::UnalignedRange { start });
        }
        if start + out.len() > self.n {
            return Err(Error::RangeOutOfBounds { start, len: out.len(), n: self.n });
        }
        debug_assert!(
            self.scheme != SchemeKind::PforDelta,
            "compile_predicate never compiles PFOR-DELTA"
        );
        let vertical = self.layout() == crate::segment::Layout::Vertical;
        let mut written = 0usize;
        let mut blk = start / BLOCK;
        while written < out.len() {
            let len = self.block_len(blk);
            let take = len.min(out.len() - written);
            if vertical {
                // A vertical block's codes interleave across the whole
                // 128-value block, so the compare kernel always runs over
                // the full block: straight into `out` when the block fits,
                // else into a stack buffer whose prefix is copied. (The
                // kernels handle a horizontal tail block themselves,
                // driven by the buffer length.)
                let codes = self.block_codes(blk, len)?;
                let mut buf = [false; BLOCK];
                let flags =
                    if take == len { &mut out[written..written + len] } else { &mut buf[..len] };
                match &cp.coded {
                    CodedTest::Const(v) => flags.fill(*v),
                    CodedTest::Range { lo, hi, negate } => {
                        scc_bitpack::vert::cmp_range(codes, self.b, *lo, *hi, *negate, flags);
                    }
                    CodedTest::Set(bits) => {
                        scc_bitpack::vert::cmp_in_set(codes, self.b, bits, flags)
                    }
                }
                let (patch_start, exc_start, exc_count) = self.block_exceptions(blk);
                walk_patch_list(
                    patch_start,
                    exc_count,
                    len,
                    |p| scc_bitpack::vert::get_one(codes, self.b, len, p),
                    |pos, k| flags[pos] = cp.pred.test(self.exceptions[exc_start + k]),
                );
                if take < len {
                    out[written..written + take].copy_from_slice(&buf[..take]);
                }
            } else {
                let sel = &mut out[written..written + take];
                // Validates code availability for every position < take,
                // which also covers the gap-code reads of the patch walk.
                let codes = self.block_codes(blk, take)?;
                match &cp.coded {
                    CodedTest::Const(v) => sel.fill(*v),
                    CodedTest::Range { lo, hi, negate } => {
                        scc_bitpack::cmp_range(codes, self.b, *lo, *hi, *negate, sel);
                    }
                    CodedTest::Set(bits) => scc_bitpack::cmp_in_set(codes, self.b, bits, sel),
                }
                let (patch_start, exc_start, exc_count) = self.block_exceptions(blk);
                walk_patch_list(
                    patch_start,
                    exc_count,
                    take,
                    |p| get_one(codes, self.b, p),
                    |pos, k| sel[pos] = cp.pred.test(self.exceptions[exc_start + k]),
                );
            }
            written += take;
            blk += 1;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn const_outcome_table() {
        // Literal below every column value (e.g. -7 vs u32).
        assert!(!const_outcome(PredOp::Eq, true));
        assert!(const_outcome(PredOp::Ne, true));
        assert!(!const_outcome(PredOp::Lt, true));
        assert!(!const_outcome(PredOp::Le, true));
        assert!(const_outcome(PredOp::Gt, true));
        assert!(const_outcome(PredOp::Ge, true));
        // Literal above every column value.
        assert!(!const_outcome(PredOp::Eq, false));
        assert!(const_outcome(PredOp::Ne, false));
        assert!(const_outcome(PredOp::Lt, false));
        assert!(const_outcome(PredOp::Le, false));
        assert!(!const_outcome(PredOp::Gt, false));
        assert!(!const_outcome(PredOp::Ge, false));
    }

    #[test]
    fn negative_literal_vs_unsigned_column_folds_constantly() {
        for op in PredOp::ALL {
            let t = type_literal::<u32>(op, -7);
            let want =
                if const_outcome(op, true) { TypedLit::AlwaysTrue } else { TypedLit::AlwaysFalse };
            assert_eq!(t, want, "{op:?}");
            // And the same literal types exactly against signed columns.
            assert_eq!(type_literal::<i32>(op, -7), TypedLit::Lit(-7i32), "{op:?}");
        }
        // Above-domain folding for narrow types.
        assert_eq!(type_literal::<i32>(PredOp::Lt, i64::MAX), TypedLit::AlwaysTrue);
        assert_eq!(type_literal::<u32>(PredOp::Gt, u32::MAX as i64 + 1), TypedLit::AlwaysFalse);
        assert_eq!(type_literal::<u64>(PredOp::Ge, -1), TypedLit::AlwaysTrue);
        assert_eq!(type_literal::<i64>(PredOp::Ge, -1), TypedLit::Lit(-1i64));
    }

    #[test]
    fn wire_tags_cover_all_ops() {
        for op in PredOp::ALL {
            assert_eq!(PredOp::from_tag(op.tag()), Some(op));
        }
        assert_eq!(PredOp::from_tag(0), None);
        assert_eq!(PredOp::from_tag(7), None);
    }
}
