//! PFOR — Patched Frame-Of-Reference compression.
//!
//! Codes are `b`-bit offsets from a per-segment base value. Unlike classic
//! FOR, the base need not be the column minimum: values below the base (or
//! more than `2^b - 1` above it) are stored as exceptions and patched in
//! after the branch-free decode loop.
//!
//! Three compression kernels are provided, matching Figure 5 of the paper:
//!
//! * [`CompressKernel::Naive`] — `if-then-else` in the inner loop; suffers
//!   branch mispredictions at intermediate exception rates.
//! * [`CompressKernel::Predicated`] — the miss-list append is predicated
//!   (always store, advance the cursor by a boolean), turning the control
//!   dependency into a data dependency.
//! * [`CompressKernel::DoubleCursor`] — two independent predicated cursors
//!   run over the two halves of the input, giving the CPU two independent
//!   dependency chains.
//!
//! All three produce byte-identical segments.

use crate::segment::{Layout, SchemeKind, Segment, SegmentAssembly};
use crate::value::Value;

/// Compression inner-loop strategy (Figure 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CompressKernel {
    /// Branchy exception test.
    Naive,
    /// Predicated miss-list append.
    Predicated,
    /// Two predicated cursors over the two input halves — the paper's most
    /// stable variant, used by default.
    #[default]
    DoubleCursor,
}

/// Returns the number of values codable at width `b` from `base`, i.e. with
/// `0 <= v - base < 2^b` (wrapping).
#[inline]
fn limit(b: u32) -> u64 {
    1u64 << b
}

/// LOOP1, naive: branch per value.
fn find_exceptions_naive<V: Value>(
    values: &[V],
    base: V,
    b: u32,
    codes: &mut [u32],
    miss: &mut Vec<u32>,
) {
    let lim = limit(b);
    for (i, &v) in values.iter().enumerate() {
        let off = v.wrapping_offset(base);
        if off < lim {
            codes[i] = off as u32;
        } else {
            codes[i] = 0;
            miss.push(i as u32);
        }
    }
}

/// LOOP1, predicated: always append, bump the list cursor by a boolean.
fn find_exceptions_predicated<V: Value>(
    values: &[V],
    base: V,
    b: u32,
    codes: &mut [u32],
    miss: &mut Vec<u32>,
) {
    let lim = limit(b);
    let n = values.len();
    miss.resize(n, 0);
    let mut j = 0usize;
    for (i, &v) in values.iter().enumerate() {
        let off = v.wrapping_offset(base);
        codes[i] = off as u32; // masked to b bits at pack time
        miss[j] = i as u32;
        j += (off >= lim) as usize;
    }
    miss.truncate(j);
}

/// LOOP1, double-cursor: two independent predicated scans over the two
/// halves; their miss lists concatenate into one sorted list.
fn find_exceptions_double_cursor<V: Value>(
    values: &[V],
    base: V,
    b: u32,
    codes: &mut [u32],
    miss: &mut Vec<u32>,
) {
    let lim = limit(b);
    let n = values.len();
    let m = n / 2;
    let mut miss_lo = vec![0u32; m + 1];
    let mut miss_hi = vec![0u32; n - m + 1];
    let mut j_lo = 0usize;
    let mut j_hi = 0usize;
    for i in 0..m {
        let off_lo = values[i].wrapping_offset(base);
        let off_hi = values[i + m].wrapping_offset(base);
        codes[i] = off_lo as u32;
        codes[i + m] = off_hi as u32;
        miss_lo[j_lo] = i as u32;
        miss_hi[j_hi] = (i + m) as u32;
        j_lo += (off_lo >= lim) as usize;
        j_hi += (off_hi >= lim) as usize;
    }
    // Odd tail element.
    if n > 2 * m {
        let i = n - 1;
        let off = values[i].wrapping_offset(base);
        codes[i] = off as u32;
        miss_hi[j_hi] = i as u32;
        j_hi += (off >= lim) as usize;
    }
    miss.clear();
    miss.extend_from_slice(&miss_lo[..j_lo]);
    miss.extend_from_slice(&miss_hi[..j_hi]);
}

pub(crate) fn find_exceptions<V: Value>(
    kernel: CompressKernel,
    values: &[V],
    base: V,
    b: u32,
    codes: &mut [u32],
    miss: &mut Vec<u32>,
) {
    match kernel {
        CompressKernel::Naive => find_exceptions_naive(values, base, b, codes, miss),
        CompressKernel::Predicated => find_exceptions_predicated(values, base, b, codes, miss),
        CompressKernel::DoubleCursor => find_exceptions_double_cursor(values, base, b, codes, miss),
    }
}

/// Compresses `values` with PFOR at width `b` from `base`, using the given
/// LOOP1 kernel, packing the codes in the requested [`Layout`].
///
/// The two layouts are logically identical (same codes, same exceptions,
/// same sizes); only the bit order inside each 128-value block differs.
///
/// # Panics
/// Panics if `b > 32` or `values.len() > 2^25`.
pub fn compress_in<V: Value>(
    values: &[V],
    base: V,
    b: u32,
    kernel: CompressKernel,
    layout: Layout,
) -> Segment<V> {
    assert!(b <= 32, "bit width {b} out of range");
    let mut codes = vec![0u32; values.len()];
    let mut miss = Vec::new();
    find_exceptions(kernel, values, base, b, &mut codes, &mut miss);
    SegmentAssembly {
        scheme: SchemeKind::Pfor,
        b,
        base,
        codes: &mut codes,
        miss: &miss,
        delta_bases: Vec::new(),
        dict: Vec::new(),
        layout,
    }
    .finish(|pos| values[pos])
}

/// Compresses `values` with PFOR at width `b` from `base`, using the given
/// LOOP1 kernel. Horizontal layout (the paper's): this is the byte-stable
/// entry point the format conformance and corruption corpora pin.
pub fn compress_with<V: Value>(
    values: &[V],
    base: V,
    b: u32,
    kernel: CompressKernel,
) -> Segment<V> {
    compress_in(values, base, b, kernel, Layout::Horizontal)
}

/// Compresses with the default (double-cursor) kernel.
pub fn compress<V: Value>(values: &[V], base: V, b: u32) -> Segment<V> {
    compress_with(values, base, b, CompressKernel::default())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(values: &[u32], base: u32, b: u32) -> Segment<u32> {
        let seg = compress(values, base, b);
        assert_eq!(seg.decompress(), values, "b={b} base={base}");
        seg
    }

    #[test]
    fn no_exceptions_when_range_fits() {
        let values: Vec<u32> = (100..1100).collect();
        let seg = roundtrip(&values, 100, 10);
        assert_eq!(seg.exception_count(), 0);
        assert!(seg.stats().ratio > 2.5);
    }

    #[test]
    fn outliers_become_exceptions() {
        let mut values: Vec<u32> = (0..1000).map(|i| i % 16).collect();
        values[500] = 1_000_000;
        values[7] = u32::MAX;
        let seg = roundtrip(&values, 0, 4);
        assert_eq!(seg.exception_count(), 2);
    }

    #[test]
    fn values_below_base_are_exceptions() {
        let values = vec![50u32, 60, 10, 70, 55];
        let seg = roundtrip(&values, 50, 5);
        // 10 is below the base; 60,70,55,50 fit in [50, 82).
        assert_eq!(seg.exception_count(), 1);
    }

    #[test]
    fn all_kernels_produce_identical_segments() {
        let values: Vec<u64> =
            (0..5000u64).map(|i| if i % 37 == 0 { i * 1_000_003 } else { i % 200 }).collect();
        let a = compress_with(&values, 0, 8, CompressKernel::Naive);
        let b = compress_with(&values, 0, 8, CompressKernel::Predicated);
        let c = compress_with(&values, 0, 8, CompressKernel::DoubleCursor);
        assert_eq!(a, b);
        assert_eq!(b, c);
        assert_eq!(a.decompress(), values);
    }

    #[test]
    fn compulsory_exceptions_at_small_widths() {
        // b=1 with a rare outlier: stepping stones every 2 positions keep
        // the list connected within each 128-value block.
        let mut values: Vec<u32> = vec![0; 256];
        values[0] = 100; // exception at block position 0
        values[255] = 100; // exception near the end of block 1
        let seg = roundtrip(&values, 0, 1);
        // Block 0: exception at 0 only => no gap to bridge (list ends).
        // Block 1: exception at 127 only => patch_start points straight at
        // it, no compulsories needed either.
        assert_eq!(seg.exception_count(), 2);

        // But two distant exceptions in ONE block need stepping stones.
        let mut values2: Vec<u32> = vec![0; 128];
        values2[0] = 100;
        values2[100] = 100;
        let seg2 = roundtrip(&values2, 0, 1);
        // Gap 0 -> 100 at cap 2 needs 49 compulsories (positions 2,4,...,98).
        assert_eq!(seg2.exception_count(), 51);
    }

    #[test]
    fn b_zero_constant_column() {
        let values = vec![42u32; 1000];
        let seg = roundtrip(&values, 42, 0);
        assert_eq!(seg.exception_count(), 0);
        assert!(seg.stats().bits_per_value < 1.0);
    }

    #[test]
    fn b_32_codes_everything() {
        let values: Vec<u32> = (0..300).map(|i| i * 2_654_435).collect();
        let seg = roundtrip(&values, 0, 32);
        assert_eq!(seg.exception_count(), 0);
    }

    #[test]
    fn empty_and_single() {
        roundtrip(&[], 0, 5);
        roundtrip(&[7], 0, 5);
        roundtrip(&[7], 100, 5); // single exception
    }

    #[test]
    fn fine_grained_get_matches_decompress() {
        let values: Vec<u32> =
            (0..777).map(|i| if i % 13 == 0 { i * 99_991 } else { 50 + i % 30 }).collect();
        let seg = compress(&values, 50, 5);
        let full = seg.decompress();
        assert_eq!(full, values);
        for (i, &v) in values.iter().enumerate() {
            assert_eq!(seg.get(i), v, "index {i}");
        }
    }

    #[test]
    fn decode_range_block_aligned() {
        let values: Vec<u32> = (0..1000).map(|i| i % 64).collect();
        let seg = compress(&values, 0, 6);
        let mut out = vec![0u32; 300];
        seg.try_decode_range(128, &mut out).unwrap();
        assert_eq!(out, &values[128..428]);
    }

    #[test]
    fn streaming_iterator_matches_decompress() {
        let values: Vec<u32> =
            (0..1000).map(|i| if i % 31 == 0 { i * 1_000_003 } else { i % 64 }).collect();
        let seg = compress(&values, 0, 6);
        let iterated: Vec<u32> = seg.iter().collect();
        assert_eq!(iterated, values);
        assert_eq!(seg.iter().len(), values.len());
        // Partial consumption keeps size_hint exact.
        let mut it = seg.iter();
        for _ in 0..300 {
            it.next();
        }
        assert_eq!(it.len(), 700);
        // IntoIterator on &Segment.
        let doubled: Vec<u64> = (&seg).into_iter().map(|v| v as u64 * 2).collect();
        assert_eq!(doubled[5], values[5] as u64 * 2);
    }

    #[test]
    fn signed_values_with_negative_base() {
        let values: Vec<i32> = (-500..500).collect();
        let seg = compress(&values, -500, 10);
        assert_eq!(seg.decompress(), values);
        assert_eq!(seg.exception_count(), 0);
    }
}
