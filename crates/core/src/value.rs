//! The value-type abstraction over which the patched compression schemes
//! are generic.
//!
//! The paper implements its kernels for "all applicable datatypes"; we do
//! the same with a sealed-style trait implemented for `u32`, `u64`, `i32`
//! and `i64`. All frame-of-reference arithmetic is *wrapping*, which makes
//! the code↔value mapping bijective within a `2^b` window regardless of
//! where the base sits in the domain (including negative bases and
//! wrap-around windows).

use std::fmt::Debug;
use std::hash::Hash;

/// A fixed-width integer type that can be compressed by PFOR, PFOR-DELTA
/// and PDICT.
pub trait Value: Copy + Eq + Ord + Hash + Debug + Default + Send + Sync + 'static {
    /// Width of the type in bits (32 or 64).
    const BITS: u32;
    /// Human-readable type name used in headers and reports.
    const NAME: &'static str;

    /// `self - base` modulo the type width, widened to `u64`.
    ///
    /// A value is codable at width `b` iff this offset is `< 2^b`.
    fn wrapping_offset(self, base: Self) -> u64;

    /// Inverse of [`wrapping_offset`](Self::wrapping_offset):
    /// `base + offset` modulo the type width.
    fn apply_offset(base: Self, offset: u32) -> Self;

    /// Wrapping difference, used for delta encoding.
    fn wrapping_sub_v(self, other: Self) -> Self;

    /// Wrapping sum, used for the running sum in PFOR-DELTA decode.
    fn wrapping_add_v(self, other: Self) -> Self;

    /// Serializes in little-endian order.
    fn write_le(self, out: &mut Vec<u8>);

    /// Deserializes from exactly [`byte_width`](Self::byte_width) bytes.
    fn read_le(bytes: &[u8]) -> Self;

    /// Lossy conversion used by data generators and tests.
    fn from_u64_lossy(v: u64) -> Self;

    /// Lossy conversion used by histograms and reports.
    fn to_u64_lossy(self) -> u64;

    /// Exact conversion from a wire literal (`i64` is the carrier type of
    /// pushed-down predicates). `Err(below)` reports which side of the
    /// type's domain the literal falls on: `Err(true)` when it is below
    /// every representable value (a negative literal against an unsigned
    /// column), `Err(false)` when above (e.g. `u64::MAX as i64`-overflow
    /// territory for `i32`). The predicate compiler folds such literals
    /// to constant outcomes instead of ever casting — see
    /// [`crate::predicate::type_literal`].
    fn try_from_i64(v: i64) -> Result<Self, bool>;

    /// Width of the type in bytes.
    #[inline]
    fn byte_width() -> usize {
        (Self::BITS / 8) as usize
    }

    /// Fused unpack + frame-of-reference decode:
    /// `out[i] = apply_offset(base, code_i)` for `out.len()` codes, in one
    /// pass through the kernel dispatch of [`scc_bitpack::fused`].
    ///
    /// # Panics
    /// Panics if `packed` is shorter than
    /// `scc_bitpack::packed_words(out.len(), b)` or `b > 32`.
    fn fused_unpack_for(packed: &[u32], b: u32, base: Self, out: &mut [Self]);

    /// Fused unpack + delta running sum:
    /// `out[i] = seed + Σ_{j<=i} (delta_base + code_j)` (wrapping), i.e. a
    /// whole exception-free PFOR-DELTA block in one pass.
    ///
    /// # Panics
    /// Same contract as [`fused_unpack_for`](Self::fused_unpack_for).
    fn fused_unpack_delta(packed: &[u32], b: u32, delta_base: Self, seed: Self, out: &mut [Self]);

    /// In-place inclusive wrapping prefix sum seeded with `seed`:
    /// `out[i] = seed + Σ_{j<=i} out[j]`.
    fn prefix_sum(out: &mut [Self], seed: Self);

    /// Vertical-layout twin of [`fused_unpack_for`](Self::fused_unpack_for):
    /// same contract, but `packed` is in the [`scc_bitpack::vert`] 4-lane
    /// layout (full 128-value blocks vertical, trailing partial block
    /// horizontal).
    fn vert_unpack_for(packed: &[u32], b: u32, base: Self, out: &mut [Self]);

    /// Vertical-layout fused unpack + lane-stride delta decode:
    /// `out[i] = seeds[i % 4] + Σ_{j <= i, j ≡ i (mod 4)} (delta_base +
    /// code_j)` (wrapping) — four independent running sums, one per lane.
    fn vert_unpack_delta(
        packed: &[u32],
        b: u32,
        delta_base: Self,
        seeds: &[Self; 4],
        out: &mut [Self],
    );

    /// In-place lane-stride wrapping prefix sum: lane `i % 4` accumulates
    /// independently from `seeds[i % 4]`.
    fn vert_prefix_sum(out: &mut [Self], seeds: &[Self; 4]);
}

/// Reinterprets a value slice as its unsigned-of-equal-width twin so the
/// [`scc_bitpack::fused`] kernels (which operate on `u32`/`u64` lanes) can
/// serve the signed types too. Sound because the types are guaranteed to
/// have identical size, alignment and bit-validity, and all kernel
/// arithmetic is wrapping (two's-complement-transparent).
macro_rules! as_unsigned_mut {
    ($out:expr, $ty:ty, $uns:ty) => {{
        let out: &mut [$ty] = $out;
        // SAFETY: `$ty` and `$uns` are the same-width integer types
        // (identical layout, every bit pattern valid for both); the
        // reborrow covers exactly the same memory for the same lifetime.
        unsafe { std::slice::from_raw_parts_mut(out.as_mut_ptr() as *mut $uns, out.len()) }
    }};
}

macro_rules! impl_value {
    ($ty:ty, $uns:ty, $bits:expr, $name:expr, $for_fn:ident, $delta_fn:ident, $prefix_fn:ident) => {
        impl Value for $ty {
            const BITS: u32 = $bits;
            const NAME: &'static str = $name;

            #[inline(always)]
            fn wrapping_offset(self, base: Self) -> u64 {
                (self as $uns).wrapping_sub(base as $uns) as u64
            }

            #[inline(always)]
            fn apply_offset(base: Self, offset: u32) -> Self {
                (base as $uns).wrapping_add(offset as $uns) as $ty
            }

            #[inline(always)]
            fn wrapping_sub_v(self, other: Self) -> Self {
                self.wrapping_sub(other)
            }

            #[inline(always)]
            fn wrapping_add_v(self, other: Self) -> Self {
                self.wrapping_add(other)
            }

            #[inline]
            fn write_le(self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }

            #[inline]
            fn read_le(bytes: &[u8]) -> Self {
                <$ty>::from_le_bytes(bytes[..Self::byte_width()].try_into().unwrap())
            }

            #[inline]
            fn from_u64_lossy(v: u64) -> Self {
                v as $ty
            }

            #[inline]
            fn to_u64_lossy(self) -> u64 {
                self as $uns as u64
            }

            #[inline]
            fn try_from_i64(v: i64) -> Result<Self, bool> {
                // `v < 0` cleanly splits the two failure sides for every
                // implementor: a too-small literal is negative, a
                // too-large one positive.
                <$ty>::try_from(v).map_err(|_| v < 0)
            }

            #[inline]
            fn fused_unpack_for(packed: &[u32], b: u32, base: Self, out: &mut [Self]) {
                scc_bitpack::fused::$for_fn(
                    packed,
                    b,
                    base as $uns,
                    as_unsigned_mut!(out, $ty, $uns),
                );
            }

            #[inline]
            fn fused_unpack_delta(
                packed: &[u32],
                b: u32,
                delta_base: Self,
                seed: Self,
                out: &mut [Self],
            ) {
                scc_bitpack::fused::$delta_fn(
                    packed,
                    b,
                    delta_base as $uns,
                    seed as $uns,
                    as_unsigned_mut!(out, $ty, $uns),
                );
            }

            #[inline]
            fn prefix_sum(out: &mut [Self], seed: Self) {
                scc_bitpack::fused::$prefix_fn(as_unsigned_mut!(out, $ty, $uns), seed as $uns);
            }

            #[inline]
            fn vert_unpack_for(packed: &[u32], b: u32, base: Self, out: &mut [Self]) {
                scc_bitpack::vert::$for_fn(
                    packed,
                    b,
                    base as $uns,
                    as_unsigned_mut!(out, $ty, $uns),
                );
            }

            #[inline]
            fn vert_unpack_delta(
                packed: &[u32],
                b: u32,
                delta_base: Self,
                seeds: &[Self; 4],
                out: &mut [Self],
            ) {
                let seeds = seeds.map(|s| s as $uns);
                scc_bitpack::vert::$delta_fn(
                    packed,
                    b,
                    delta_base as $uns,
                    &seeds,
                    as_unsigned_mut!(out, $ty, $uns),
                );
            }

            #[inline]
            fn vert_prefix_sum(out: &mut [Self], seeds: &[Self; 4]) {
                let seeds = seeds.map(|s| s as $uns);
                scc_bitpack::vert::$prefix_fn(as_unsigned_mut!(out, $ty, $uns), &seeds);
            }
        }
    };
}

impl_value!(u32, u32, 32, "u32", unpack_for32, unpack_delta32, prefix_sum32);
impl_value!(i32, u32, 32, "i32", unpack_for32, unpack_delta32, prefix_sum32);
impl_value!(u64, u64, 64, "u64", unpack_for64, unpack_delta64, prefix_sum64);
impl_value!(i64, u64, 64, "i64", unpack_for64, unpack_delta64, prefix_sum64);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offset_roundtrip_u32() {
        for (v, base) in [(10u32, 3u32), (3, 10), (0, u32::MAX), (u32::MAX, 0)] {
            let off = v.wrapping_offset(base);
            assert_eq!(u32::apply_offset(base, off as u32), v);
        }
    }

    #[test]
    fn offset_roundtrip_signed() {
        for (v, base) in [(-5i32, -100i32), (100, -100), (i32::MIN, i32::MAX)] {
            let off = v.wrapping_offset(base);
            assert_eq!(i32::apply_offset(base, off as u32), v);
        }
        // Small windows around a negative base produce small offsets.
        assert_eq!((-98i32).wrapping_offset(-100), 2);
        assert_eq!((-98i64).wrapping_offset(-100), 2);
    }

    #[test]
    fn offset_window_u64() {
        let base = u64::MAX - 10;
        let v = base + 7;
        assert_eq!(v.wrapping_offset(base), 7);
        assert_eq!(u64::apply_offset(base, 7), v);
        // Wrap across the top of the domain.
        let v2 = 5u64;
        let off = v2.wrapping_offset(base);
        assert_eq!(u64::apply_offset(base, off as u32), v2);
    }

    #[test]
    fn fused_hooks_match_scalar_semantics_for_signed_types() {
        let codes: Vec<u32> = (0..300u32).map(|i| (i.wrapping_mul(7)) & 0xff).collect();
        let packed = scc_bitpack::pack_vec(&codes, 8);

        let mut out = vec![0i32; 300];
        i32::fused_unpack_for(&packed, 8, -1000, &mut out);
        for (o, &c) in out.iter().zip(codes.iter()) {
            assert_eq!(*o, i32::apply_offset(-1000, c));
        }

        let mut out64 = vec![0i64; 300];
        i64::fused_unpack_delta(&packed, 8, -3, -50, &mut out64);
        let mut acc = -50i64;
        for (o, &c) in out64.iter().zip(codes.iter()) {
            acc = acc.wrapping_add(-3).wrapping_add(c as i64);
            assert_eq!(*o, acc);
        }

        let mut ps = vec![-2i32, 5, -9];
        i32::prefix_sum(&mut ps, 100);
        assert_eq!(ps, vec![98, 103, 94]);
    }

    #[test]
    fn le_roundtrip() {
        fn check<V: Value>(v: V) {
            let mut buf = Vec::new();
            v.write_le(&mut buf);
            assert_eq!(buf.len(), V::byte_width());
            assert_eq!(V::read_le(&buf), v);
        }
        check(0x1234_5678u32);
        check(-42i32);
        check(0x1234_5678_9abc_def0u64);
        check(i64::MIN);
    }
}
