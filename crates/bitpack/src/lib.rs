//! Bit-packing and bit-stream kernels for super-scalar compression.
//!
//! This crate implements the `PACK[b]` / `UNPACK[b]` routines from
//! *Super-Scalar RAM-CPU Cache Compression* (Zukowski et al., ICDE 2006,
//! §3.1): the transformation between arrays of machine-addressable `u32`
//! codes and dense `b`-bit patterns, for every width `0 <= b <= 32`.
//!
//! The hot kernels process values in groups of 32 (so a group always packs
//! into exactly `b` 32-bit words and every group starts word-aligned, which
//! the segment format exploits for 128-value entry points). They are
//! monomorphized per width via const generics and dispatched through a
//! function-pointer table, so the inner loops contain no data-dependent
//! branches and are fully unrolled by the compiler — the property the paper
//! calls *loop-pipelinable*.
//!
//! The crate also provides:
//! - [`BitWriter`] / [`BitReader`]: LSB-first bit streams used by the
//!   variable-width baseline codecs (Golomb, Elias, Huffman);
//! - [`delta`]: delta-encoding and running-sum kernels used by PFOR-DELTA.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod bitio;
pub mod cmp;
pub mod delta;
pub mod fused;
mod group;
pub mod kernel;
mod scalar;
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod simd;
pub mod vert;
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod vsimd;

pub use bitio::{BitReader, BitWriter};
pub use cmp::{cmp_in_set, cmp_range};

/// Number of values in one packing group. Groups always start word-aligned.
pub const GROUP: usize = 32;

/// Mask with the low `b` bits set (`b <= 32`).
#[inline(always)]
pub const fn mask(b: u32) -> u32 {
    if b >= 32 {
        u32::MAX
    } else {
        (1u32 << b) - 1
    }
}

/// Number of `u32` words needed to pack `n` values of `b` bits each under
/// this crate's layout (full 32-value groups are word-aligned; the tail is
/// packed densely starting at a fresh word boundary).
#[inline]
pub const fn packed_words(n: usize, b: u32) -> usize {
    let full_groups = n / GROUP;
    let tail = n % GROUP;
    full_groups * b as usize + (tail * b as usize).div_ceil(32)
}

/// Packs `values` (each must fit in `b` bits; upper bits are ignored) into
/// `out`. `out` must have exactly [`packed_words`]`(values.len(), b)`
/// elements. Dispatches through the runtime kernel table, where every
/// class runs the scalar group kernels (only the vertical pack,
/// [`vert::pack`], has a SIMD routine).
///
/// # Panics
/// Panics if `b > 32` or `out` has the wrong length.
pub fn pack(values: &[u32], b: u32, out: &mut [u32]) {
    assert!(b <= 32, "bit width {b} out of range");
    assert_eq!(
        out.len(),
        packed_words(values.len(), b),
        "output buffer has wrong length for n={} b={b}",
        values.len()
    );
    (kernel::driver().pack)(values, b, out);
}

/// Scalar (reference) horizontal pack; the dispatch table's base tier.
pub(crate) fn pack_scalar(values: &[u32], b: u32, out: &mut [u32]) {
    if b == 0 {
        return;
    }
    let kernel = group::PACK[b as usize];
    let words_per_group = b as usize;
    let full = values.len() / GROUP;
    for g in 0..full {
        let src: &[u32; GROUP] = values[g * GROUP..(g + 1) * GROUP].try_into().unwrap();
        kernel(src, &mut out[g * words_per_group..(g + 1) * words_per_group]);
    }
    let tail = &values[full * GROUP..];
    if !tail.is_empty() {
        scalar::pack_tail(tail, b, &mut out[full * words_per_group..]);
    }
}

/// Convenience wrapper around [`pack`] that allocates the output buffer.
pub fn pack_vec(values: &[u32], b: u32) -> Vec<u32> {
    let mut out = vec![0u32; packed_words(values.len(), b)];
    pack(values, b, &mut out);
    out
}

/// Why an unpack request is malformed. Returned by [`try_unpack`]; the
/// panicking entry points format the same messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnpackError {
    /// `b > 32`.
    WidthOutOfRange {
        /// The rejected bit width.
        b: u32,
    },
    /// `packed` has fewer words than [`packed_words`]`(n, b)` requires.
    TooShort {
        /// Words available in the packed buffer.
        have: usize,
        /// Words required for the requested value count and width.
        need: usize,
    },
}

impl std::fmt::Display for UnpackError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            UnpackError::WidthOutOfRange { b } => write!(f, "bit width {b} out of range"),
            UnpackError::TooShort { have, need } => {
                write!(f, "packed buffer too short: have {have} words, need {need}")
            }
        }
    }
}

impl std::error::Error for UnpackError {}

/// Validates an unpack request of `n` values at width `b` against a
/// packed buffer of `packed_len` words.
pub(crate) fn check_unpack(packed_len: usize, b: u32, n: usize) -> Result<(), UnpackError> {
    if b > 32 {
        return Err(UnpackError::WidthOutOfRange { b });
    }
    let need = packed_words(n, b);
    if packed_len < need {
        return Err(UnpackError::TooShort { have: packed_len, need });
    }
    Ok(())
}

/// Unpacks `n = out.len()` `b`-bit values from `packed` into `out`,
/// returning an error instead of panicking on a malformed request. This
/// is the entry point decoders use on untrusted (on-disk / on-wire)
/// layouts, so a truncated section surfaces as a corruption error
/// rather than a panic.
pub fn try_unpack(packed: &[u32], b: u32, out: &mut [u32]) -> Result<(), UnpackError> {
    check_unpack(packed.len(), b, out.len())?;
    (kernel::driver().unpack)(packed, b, out);
    Ok(())
}

/// Unpacks `n = out.len()` `b`-bit values from `packed` into `out`.
///
/// # Panics
/// Panics if `b > 32` or `packed` is shorter than
/// [`packed_words`]`(out.len(), b)`.
pub fn unpack(packed: &[u32], b: u32, out: &mut [u32]) {
    try_unpack(packed, b, out).unwrap_or_else(|e| panic!("{e}"));
}

/// Convenience wrapper around [`unpack`] that allocates the output buffer.
pub fn unpack_vec(packed: &[u32], b: u32, n: usize) -> Vec<u32> {
    let mut out = vec![0u32; n];
    unpack(packed, b, &mut out);
    out
}

/// Extracts the single `b`-bit value at logical position `index` without
/// unpacking its neighbours. Used by fine-grained (random) segment access.
#[inline]
pub fn get_one(packed: &[u32], b: u32, index: usize) -> u32 {
    debug_assert!(b <= 32);
    if b == 0 {
        return 0;
    }
    let group = index / GROUP;
    let in_group = index % GROUP;
    let bitpos = group * GROUP * b as usize + in_group * b as usize;
    let word = bitpos >> 5;
    let off = (bitpos & 31) as u32;
    let lo = packed[word] >> off;
    if off + b <= 32 {
        lo & mask(b)
    } else {
        let hi = packed[word + 1] << (32 - off);
        (lo | hi) & mask(b)
    }
}

/// Smallest bit width that can represent `v`.
#[inline]
pub const fn width_of(v: u32) -> u32 {
    32 - v.leading_zeros()
}

/// Smallest bit width that can represent every value in `values`.
pub fn width_for(values: &[u32]) -> u32 {
    let mut acc = 0u32;
    for &v in values {
        acc |= v;
    }
    width_of(acc)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(values: &[u32], b: u32) {
        let masked: Vec<u32> = values.iter().map(|&v| v & mask(b)).collect();
        let packed = pack_vec(&masked, b);
        assert_eq!(packed.len(), packed_words(values.len(), b));
        let out = unpack_vec(&packed, b, values.len());
        assert_eq!(out, masked, "roundtrip failed for b={b} n={}", values.len());
        for (i, &m) in masked.iter().enumerate() {
            assert_eq!(get_one(&packed, b, i), m, "get_one({i}) for b={b}");
        }
    }

    #[test]
    fn roundtrip_all_widths_multiple_of_group() {
        let values: Vec<u32> = (0..256u32).map(|i| i.wrapping_mul(2654435761)).collect();
        for b in 0..=32 {
            roundtrip(&values, b);
        }
    }

    #[test]
    fn roundtrip_all_widths_with_tail() {
        let values: Vec<u32> = (0..100u32).map(|i| i.wrapping_mul(40503).rotate_left(7)).collect();
        for b in 0..=32 {
            roundtrip(&values, b);
        }
    }

    #[test]
    fn roundtrip_tiny_inputs() {
        for n in 0..=33 {
            let values: Vec<u32> = (0..n as u32).map(|i| i * 3 + 1).collect();
            for b in [0, 1, 2, 7, 13, 24, 31, 32] {
                roundtrip(&values, b);
            }
        }
    }

    #[test]
    fn packed_words_matches_bit_count() {
        // Full groups are word aligned: 32 values of b bits = b words.
        assert_eq!(packed_words(32, 5), 5);
        assert_eq!(packed_words(64, 5), 10);
        // Tails round up to whole words.
        assert_eq!(packed_words(33, 5), 6);
        assert_eq!(packed_words(1, 1), 1);
        assert_eq!(packed_words(0, 17), 0);
        assert_eq!(packed_words(128, 0), 0);
    }

    #[test]
    fn width_helpers() {
        assert_eq!(width_of(0), 0);
        assert_eq!(width_of(1), 1);
        assert_eq!(width_of(255), 8);
        assert_eq!(width_of(256), 9);
        assert_eq!(width_of(u32::MAX), 32);
        assert_eq!(width_for(&[]), 0);
        assert_eq!(width_for(&[3, 8, 2]), 4);
    }

    #[test]
    fn mask_edges() {
        assert_eq!(mask(0), 0);
        assert_eq!(mask(1), 1);
        assert_eq!(mask(31), 0x7fff_ffff);
        assert_eq!(mask(32), u32::MAX);
    }

    #[test]
    fn zero_width_unpack_clears_output() {
        let mut out = vec![7u32; 50];
        unpack(&[], 0, &mut out);
        assert!(out.iter().all(|&v| v == 0));
    }

    #[test]
    fn try_unpack_reports_malformed_requests() {
        let mut out = [0u32; 64];
        let err = try_unpack(&[0u32; 3], 8, &mut out).unwrap_err();
        assert_eq!(err, UnpackError::TooShort { have: 3, need: 16 });
        assert_eq!(err.to_string(), "packed buffer too short: have 3 words, need 16");
        let err = try_unpack(&[0u32; 3], 33, &mut out).unwrap_err();
        assert_eq!(err, UnpackError::WidthOutOfRange { b: 33 });
        assert_eq!(err.to_string(), "bit width 33 out of range");
        // A valid request succeeds and fills the buffer.
        let packed = pack_vec(&[7u32; 64], 8);
        try_unpack(&packed, 8, &mut out).unwrap();
        assert!(out.iter().all(|&v| v == 7));
    }

    #[test]
    #[should_panic(expected = "packed buffer too short")]
    fn unpack_still_panics_on_short_buffer() {
        let mut out = [0u32; 64];
        unpack(&[0u32; 3], 8, &mut out);
    }

    #[test]
    #[should_panic(expected = "bit width")]
    fn pack_rejects_width_over_32() {
        pack(&[1], 33, &mut [0; 2]);
    }

    #[test]
    #[should_panic(expected = "wrong length")]
    fn pack_rejects_wrong_output_len() {
        pack(&[1, 2, 3], 8, &mut [0; 10]);
    }
}
