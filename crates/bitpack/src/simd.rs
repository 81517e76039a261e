//! AVX2 decoders for the horizontal layout (compiled only with
//! `feature = "simd"`): unpack, the fused FOR / DELTA decodes and the
//! prefix sums. Horizontal pack and compare have no SIMD routine; every
//! class runs the scalar ones (`kernel.rs` holds the table).
//!
//! # Unpack
//!
//! One 32-value group at width `B` occupies `B` packed words. The kernel
//! produces the group as 4 vectors of 8 lanes. For vector `j` (values
//! `8j..8j+8`), lane `k`'s value starts at bit `pos = (8j+k)·B`. All
//! eight lanes' source words fit inside an 8-word window starting at
//! `w0 = (8jB)>>5` whenever `B <= 28`: the last bit touched is at window
//! offset `((8jB) & 31) + 8B - 1 <= 31 + 8·28 - 1 = 254 < 256`. So the
//! kernel is one unaligned 8-word load, two `vpermd` gathers (the lane's
//! low word and the word after it), a variable right shift, a variable
//! left shift for the straddled high bits, `or`, `and mask`:
//!
//! ```text
//! lo = vpermd(window, idx0)        # word holding the value's low bits
//! hi = vpermd(window, idx1)        # the next word (straddle source)
//! v  = ((lo >> (pos&31)) | (hi << (32 - (pos&31)))) & mask(B)
//! ```
//!
//! When a lane does not straddle, its left-shift count is >= 32 and
//! `vpsllvd` yields 0 for it (and any sub-32 garbage dies under the
//! mask), so the same branch-free expression is correct for every lane.
//! Widths 29..=31 cannot fit the single-load window and fall back to
//! scalar; width 32 and 0 are trivial and also go scalar.
//!
//! # Overread guard
//!
//! The j=3 load reads words `[(24B)>>5, (24B)>>5 + 8)`, i.e. up to 7
//! words past the group's own `B` words. Drivers therefore use the SIMD
//! path only while `req_words(B)` words are readable from the group
//! base, finishing the remainder with the scalar kernels — results are
//! byte-identical either way, and no load ever leaves the caller's
//! slice.

use crate::GROUP;
use core::arch::x86_64::*;

/// Readable words required at a group base for the AVX2 unpack of width
/// `b`: the j=3 window start plus its 8-word load.
#[inline]
fn req_words(b: u32) -> usize {
    ((24 * b as usize) >> 5) + 8
}

/// Per-vector lane constants for width `B`, vector `j`. `#[inline(always)]`
/// so LLVM const-folds everything after monomorphization (the same trick
/// `group.rs` plays with its accumulator loops).
#[inline(always)]
#[allow(clippy::needless_range_loop)]
fn lane_consts<const B: u32>(j: usize) -> (usize, [i32; 8], [i32; 8], [i32; 8], [i32; 8]) {
    let w0 = (8 * j as u32 * B) >> 5;
    let mut idx0 = [0i32; 8];
    let mut idx1 = [0i32; 8];
    let mut shr = [0i32; 8];
    let mut shl = [0i32; 8];
    for k in 0..8 {
        let pos = (8 * j as u32 + k as u32) * B;
        let w = (pos >> 5) - w0;
        idx0[k] = w as i32;
        // A straddling lane always has w < 7 (window proof above); when
        // w == 7 the lane cannot straddle and its shl count is >= 32, so
        // the clamped gather source is never used.
        idx1[k] = if w < 7 { w as i32 + 1 } else { 7 };
        shr[k] = (pos & 31) as i32;
        shl[k] = 32 - shr[k];
    }
    (w0 as usize, idx0, idx1, shr, shl)
}

#[target_feature(enable = "avx2")]
#[inline]
fn vec8(a: [i32; 8]) -> __m256i {
    _mm256_setr_epi32(a[0], a[1], a[2], a[3], a[4], a[5], a[6], a[7])
}

/// Unpacks one 32-value group at width `B` into 4 vectors of 8 lanes.
///
/// # Safety
/// `packed` (the slice starting at the group's first word) must hold at
/// least `req_words(B)` words; all loads then stay inside it.
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn load_group<const B: u32>(packed: &[u32]) -> [__m256i; 4] {
    debug_assert!(packed.len() >= req_words(B));
    let msk = _mm256_set1_epi32(crate::mask(B) as i32);
    let mut out = [_mm256_setzero_si256(); 4];
    for (j, o) in out.iter_mut().enumerate() {
        let (w0, i0, i1, sr, sl) = lane_consts::<B>(j);
        // SAFETY: w0 + 8 <= req_words(B) <= packed.len(), so the 8-word
        // unaligned load reads only inside `packed`.
        let window = unsafe { _mm256_loadu_si256(packed.as_ptr().add(w0).cast()) };
        let lo = _mm256_permutevar8x32_epi32(window, vec8(i0));
        let hi = _mm256_permutevar8x32_epi32(window, vec8(i1));
        let v = _mm256_or_si256(_mm256_srlv_epi32(lo, vec8(sr)), _mm256_sllv_epi32(hi, vec8(sl)));
        *o = _mm256_and_si256(v, msk);
    }
    out
}

/// Inclusive wrapping prefix sum of 8 u32 lanes plus a broadcast carry.
#[target_feature(enable = "avx2")]
#[inline]
fn prefix8(v: __m256i, carry: __m256i) -> __m256i {
    let mut x = _mm256_add_epi32(v, _mm256_slli_si256::<4>(v));
    x = _mm256_add_epi32(x, _mm256_slli_si256::<8>(x));
    // t = [0 | x_low]; lane 3 of each half of t is 0 / sum(lanes 0..4).
    let t = _mm256_permute2x128_si256::<0x08>(x, x);
    x = _mm256_add_epi32(x, _mm256_shuffle_epi32::<0xFF>(t));
    _mm256_add_epi32(x, carry)
}

#[target_feature(enable = "avx2")]
#[inline]
fn bcast_last32(x: __m256i) -> __m256i {
    _mm256_permutevar8x32_epi32(x, _mm256_set1_epi32(7))
}

/// Inclusive wrapping prefix sum of 4 u64 lanes plus a broadcast carry.
#[target_feature(enable = "avx2")]
#[inline]
fn prefix4(v: __m256i, carry: __m256i) -> __m256i {
    let mut x = _mm256_add_epi64(v, _mm256_slli_si256::<8>(v));
    let t = _mm256_permute2x128_si256::<0x08>(x, x);
    x = _mm256_add_epi64(x, _mm256_unpackhi_epi64(t, t));
    _mm256_add_epi64(x, carry)
}

#[target_feature(enable = "avx2")]
#[inline]
fn bcast_last64(x: __m256i) -> __m256i {
    _mm256_permute4x64_epi64::<0xFF>(x)
}

/// Widens 8 u32 lanes to 2×4 u64 lanes (value order preserved).
#[target_feature(enable = "avx2")]
#[inline]
fn widen(v: __m256i) -> (__m256i, __m256i) {
    (
        _mm256_cvtepu32_epi64(_mm256_castsi256_si128(v)),
        _mm256_cvtepu32_epi64(_mm256_extracti128_si256::<1>(v)),
    )
}

macro_rules! by_width {
    ($b:expr, $f:ident($($args:expr),*)) => {
        match $b {
            1 => $f::<1>($($args),*),
            2 => $f::<2>($($args),*),
            3 => $f::<3>($($args),*),
            4 => $f::<4>($($args),*),
            5 => $f::<5>($($args),*),
            6 => $f::<6>($($args),*),
            7 => $f::<7>($($args),*),
            8 => $f::<8>($($args),*),
            9 => $f::<9>($($args),*),
            10 => $f::<10>($($args),*),
            11 => $f::<11>($($args),*),
            12 => $f::<12>($($args),*),
            13 => $f::<13>($($args),*),
            14 => $f::<14>($($args),*),
            15 => $f::<15>($($args),*),
            16 => $f::<16>($($args),*),
            17 => $f::<17>($($args),*),
            18 => $f::<18>($($args),*),
            19 => $f::<19>($($args),*),
            20 => $f::<20>($($args),*),
            21 => $f::<21>($($args),*),
            22 => $f::<22>($($args),*),
            23 => $f::<23>($($args),*),
            24 => $f::<24>($($args),*),
            25 => $f::<25>($($args),*),
            26 => $f::<26>($($args),*),
            27 => $f::<27>($($args),*),
            28 => $f::<28>($($args),*),
            _ => unreachable!("SIMD width dispatch outside 1..=28"),
        }
    };
}

// ---------------------------------------------------------------------
// AVX2 per-width workers. Each handles as many full groups as have
// `req_words` readable, then finishes with the scalar kernels.
// ---------------------------------------------------------------------

#[target_feature(enable = "avx2")]
fn unpack_w<const B: u32>(packed: &[u32], out: &mut [u32]) {
    let wpg = B as usize;
    let req = req_words(B);
    let full = out.len() / GROUP;
    let mut g = 0;
    while g < full && g * wpg + req <= packed.len() {
        // SAFETY: the loop guard leaves `req` readable words at the
        // group base.
        let vecs = unsafe { load_group::<B>(&packed[g * wpg..]) };
        for (j, v) in vecs.into_iter().enumerate() {
            // SAFETY: g*GROUP + 8j + 8 <= full*GROUP <= out.len().
            unsafe { _mm256_storeu_si256(out.as_mut_ptr().add(g * GROUP + 8 * j).cast(), v) };
        }
        g += 1;
    }
    if g * GROUP < out.len() {
        crate::fused::unpack_scalar(&packed[g * wpg..], B, &mut out[g * GROUP..]);
    }
}

#[target_feature(enable = "avx2")]
fn for32_w<const B: u32>(packed: &[u32], base: u32, out: &mut [u32]) {
    let wpg = B as usize;
    let req = req_words(B);
    let full = out.len() / GROUP;
    let vb = _mm256_set1_epi32(base as i32);
    let mut g = 0;
    while g < full && g * wpg + req <= packed.len() {
        // SAFETY: loop guard leaves `req` readable words at the group base.
        let vecs = unsafe { load_group::<B>(&packed[g * wpg..]) };
        for (j, v) in vecs.into_iter().enumerate() {
            // SAFETY: g*GROUP + 8j + 8 <= out.len().
            unsafe {
                _mm256_storeu_si256(
                    out.as_mut_ptr().add(g * GROUP + 8 * j).cast(),
                    _mm256_add_epi32(v, vb),
                )
            };
        }
        g += 1;
    }
    if g * GROUP < out.len() {
        crate::fused::for32_scalar(&packed[g * wpg..], B, base, &mut out[g * GROUP..]);
    }
}

#[target_feature(enable = "avx2")]
fn for64_w<const B: u32>(packed: &[u32], base: u64, out: &mut [u64]) {
    let wpg = B as usize;
    let req = req_words(B);
    let full = out.len() / GROUP;
    let vb = _mm256_set1_epi64x(base as i64);
    let mut g = 0;
    while g < full && g * wpg + req <= packed.len() {
        // SAFETY: loop guard leaves `req` readable words at the group base.
        let vecs = unsafe { load_group::<B>(&packed[g * wpg..]) };
        for (j, v) in vecs.into_iter().enumerate() {
            let (lo, hi) = widen(v);
            // SAFETY: g*GROUP + 8j + 8 <= out.len(); u64 stores cover
            // lanes [..4) and [4..8) of that span.
            unsafe {
                let p = out.as_mut_ptr().add(g * GROUP + 8 * j);
                _mm256_storeu_si256(p.cast(), _mm256_add_epi64(lo, vb));
                _mm256_storeu_si256(p.add(4).cast(), _mm256_add_epi64(hi, vb));
            }
        }
        g += 1;
    }
    if g * GROUP < out.len() {
        crate::fused::for64_scalar(&packed[g * wpg..], B, base, &mut out[g * GROUP..]);
    }
}

#[target_feature(enable = "avx2")]
fn delta32_w<const B: u32>(packed: &[u32], delta_base: u32, seed: u32, out: &mut [u32]) {
    let wpg = B as usize;
    let req = req_words(B);
    let full = out.len() / GROUP;
    let vdb = _mm256_set1_epi32(delta_base as i32);
    let mut carry = _mm256_set1_epi32(seed as i32);
    let mut g = 0;
    while g < full && g * wpg + req <= packed.len() {
        // SAFETY: loop guard leaves `req` readable words at the group base.
        let vecs = unsafe { load_group::<B>(&packed[g * wpg..]) };
        for (j, v) in vecs.into_iter().enumerate() {
            let s = prefix8(_mm256_add_epi32(v, vdb), carry);
            // SAFETY: g*GROUP + 8j + 8 <= out.len().
            unsafe { _mm256_storeu_si256(out.as_mut_ptr().add(g * GROUP + 8 * j).cast(), s) };
            carry = bcast_last32(s);
        }
        g += 1;
    }
    if g * GROUP < out.len() {
        let acc = if g > 0 { out[g * GROUP - 1] } else { seed };
        crate::fused::delta32_scalar(&packed[g * wpg..], B, delta_base, acc, &mut out[g * GROUP..]);
    }
}

#[target_feature(enable = "avx2")]
fn delta64_w<const B: u32>(packed: &[u32], delta_base: u64, seed: u64, out: &mut [u64]) {
    let wpg = B as usize;
    let req = req_words(B);
    let full = out.len() / GROUP;
    let vdb = _mm256_set1_epi64x(delta_base as i64);
    let mut carry = _mm256_set1_epi64x(seed as i64);
    let mut g = 0;
    while g < full && g * wpg + req <= packed.len() {
        // SAFETY: loop guard leaves `req` readable words at the group base.
        let vecs = unsafe { load_group::<B>(&packed[g * wpg..]) };
        for (j, v) in vecs.into_iter().enumerate() {
            let (lo, hi) = widen(v);
            let s0 = prefix4(_mm256_add_epi64(lo, vdb), carry);
            carry = bcast_last64(s0);
            let s1 = prefix4(_mm256_add_epi64(hi, vdb), carry);
            carry = bcast_last64(s1);
            // SAFETY: g*GROUP + 8j + 8 <= out.len().
            unsafe {
                let p = out.as_mut_ptr().add(g * GROUP + 8 * j);
                _mm256_storeu_si256(p.cast(), s0);
                _mm256_storeu_si256(p.add(4).cast(), s1);
            }
        }
        g += 1;
    }
    if g * GROUP < out.len() {
        let acc = if g > 0 { out[g * GROUP - 1] } else { seed };
        crate::fused::delta64_scalar(&packed[g * wpg..], B, delta_base, acc, &mut out[g * GROUP..]);
    }
}

// ---------------------------------------------------------------------
// Entry points (plain safe fns that `kernel.rs` installs in the dispatch
// table only after `is_x86_feature_detected!("avx2")`).
// ---------------------------------------------------------------------

pub(crate) fn unpack_avx2(packed: &[u32], b: u32, out: &mut [u32]) {
    if !(1..=28).contains(&b) {
        return crate::fused::unpack_scalar(packed, b, out);
    }
    // SAFETY: this driver is only installed when AVX2 is detected.
    unsafe { by_width!(b, unpack_w(packed, out)) }
}

pub(crate) fn for32_avx2(packed: &[u32], b: u32, base: u32, out: &mut [u32]) {
    if !(1..=28).contains(&b) {
        return crate::fused::for32_scalar(packed, b, base, out);
    }
    // SAFETY: this driver is only installed when AVX2 is detected.
    unsafe { by_width!(b, for32_w(packed, base, out)) }
}

pub(crate) fn for64_avx2(packed: &[u32], b: u32, base: u64, out: &mut [u64]) {
    if !(1..=28).contains(&b) {
        return crate::fused::for64_scalar(packed, b, base, out);
    }
    // SAFETY: this driver is only installed when AVX2 is detected.
    unsafe { by_width!(b, for64_w(packed, base, out)) }
}

pub(crate) fn delta32_avx2(packed: &[u32], b: u32, delta_base: u32, seed: u32, out: &mut [u32]) {
    if !(1..=28).contains(&b) {
        return crate::fused::delta32_scalar(packed, b, delta_base, seed, out);
    }
    // SAFETY: this driver is only installed when AVX2 is detected.
    unsafe { by_width!(b, delta32_w(packed, delta_base, seed, out)) }
}

pub(crate) fn delta64_avx2(packed: &[u32], b: u32, delta_base: u64, seed: u64, out: &mut [u64]) {
    if !(1..=28).contains(&b) {
        return crate::fused::delta64_scalar(packed, b, delta_base, seed, out);
    }
    // SAFETY: this driver is only installed when AVX2 is detected.
    unsafe { by_width!(b, delta64_w(packed, delta_base, seed, out)) }
}

pub(crate) fn prefix_sum32_avx2(out: &mut [u32], seed: u32) {
    // SAFETY: this driver is only installed when AVX2 is detected.
    unsafe { prefix_sum32_avx2_impl(out, seed) }
}

#[target_feature(enable = "avx2")]
fn prefix_sum32_avx2_impl(out: &mut [u32], seed: u32) {
    let chunks = out.len() / 8;
    let mut carry = _mm256_set1_epi32(seed as i32);
    for c in 0..chunks {
        let p = out.as_mut_ptr().wrapping_add(8 * c).cast::<__m256i>();
        // SAFETY: lanes 8c..8c+8 are within `out` (c < chunks).
        let x = unsafe { _mm256_loadu_si256(p) };
        let s = prefix8(x, carry);
        // SAFETY: same bounds as the load.
        unsafe { _mm256_storeu_si256(p, s) };
        carry = bcast_last32(s);
    }
    let mut acc = if chunks > 0 { out[8 * chunks - 1] } else { seed };
    for o in &mut out[8 * chunks..] {
        acc = acc.wrapping_add(*o);
        *o = acc;
    }
}

pub(crate) fn prefix_sum64_avx2(out: &mut [u64], seed: u64) {
    // SAFETY: this driver is only installed when AVX2 is detected.
    unsafe { prefix_sum64_avx2_impl(out, seed) }
}

#[target_feature(enable = "avx2")]
fn prefix_sum64_avx2_impl(out: &mut [u64], seed: u64) {
    let chunks = out.len() / 4;
    let mut carry = _mm256_set1_epi64x(seed as i64);
    for c in 0..chunks {
        let p = out.as_mut_ptr().wrapping_add(4 * c).cast::<__m256i>();
        // SAFETY: lanes 4c..4c+4 are within `out` (c < chunks).
        let x = unsafe { _mm256_loadu_si256(p) };
        let s = prefix4(x, carry);
        // SAFETY: same bounds as the load.
        unsafe { _mm256_storeu_si256(p, s) };
        carry = bcast_last64(s);
    }
    let mut acc = if chunks > 0 { out[4 * chunks - 1] } else { seed };
    for o in &mut out[4 * chunks..] {
        acc = acc.wrapping_add(*o);
        *o = acc;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{available, kernels_for, KernelClass};
    use crate::{mask, pack_vec, packed_words};

    fn codes(n: usize, b: u32, salt: u32) -> Vec<u32> {
        (0..n as u32).map(|i| i.wrapping_add(salt).wrapping_mul(0x9e37_79b9) & mask(b)).collect()
    }

    /// Exhaustive scalar-vs-tier equivalence over every width and a set
    /// of ragged lengths, exercising exact-length packed slices (the
    /// hardest case for the overread guard: SIMD must bow out of the
    /// trailing groups by itself).
    #[test]
    fn tiers_match_scalar_exactly() {
        let scalar = kernels_for(KernelClass::Scalar).unwrap();
        for class in [KernelClass::Sse41, KernelClass::Avx2] {
            if !available(class) {
                continue;
            }
            let k = kernels_for(class).unwrap();
            for b in 0..=32u32 {
                for n in [0usize, 1, 17, 32, 63, 64, 128, 129, 256, 1000] {
                    let c = codes(n, b, b.wrapping_mul(7));
                    let packed = pack_vec(&c, b);
                    assert_eq!(packed.len(), packed_words(n, b));

                    let mut a = vec![0u32; n];
                    let mut s = vec![0u32; n];
                    k.unpack(&packed, b, &mut a);
                    scalar.unpack(&packed, b, &mut s);
                    assert_eq!(a, s, "unpack {class} b={b} n={n}");

                    k.unpack_for32(&packed, b, 0x8000_0001, &mut a);
                    scalar.unpack_for32(&packed, b, 0x8000_0001, &mut s);
                    assert_eq!(a, s, "for32 {class} b={b} n={n}");

                    k.unpack_delta32(&packed, b, 5, u32::MAX - 3, &mut a);
                    scalar.unpack_delta32(&packed, b, 5, u32::MAX - 3, &mut s);
                    assert_eq!(a, s, "delta32 {class} b={b} n={n}");

                    let mut a64 = vec![0u64; n];
                    let mut s64 = vec![0u64; n];
                    k.unpack_for64(&packed, b, u64::MAX - 9, &mut a64);
                    scalar.unpack_for64(&packed, b, u64::MAX - 9, &mut s64);
                    assert_eq!(a64, s64, "for64 {class} b={b} n={n}");

                    k.unpack_delta64(&packed, b, 11, u64::MAX / 2, &mut a64);
                    scalar.unpack_delta64(&packed, b, 11, u64::MAX / 2, &mut s64);
                    assert_eq!(a64, s64, "delta64 {class} b={b} n={n}");
                }
            }
        }
    }

    #[test]
    fn tier_prefix_sums_match_scalar() {
        let scalar = kernels_for(KernelClass::Scalar).unwrap();
        for class in [KernelClass::Sse41, KernelClass::Avx2] {
            if !available(class) {
                continue;
            }
            let k = kernels_for(class).unwrap();
            for n in [0usize, 1, 3, 8, 9, 100, 129] {
                let base32 = codes(n, 32, 3);
                let mut a = base32.clone();
                let mut s = base32.clone();
                k.prefix_sum32(&mut a, 42);
                scalar.prefix_sum32(&mut s, 42);
                assert_eq!(a, s, "prefix32 {class} n={n}");

                let mut a64: Vec<u64> = base32.iter().map(|&x| (x as u64) << 20 | 7).collect();
                let mut s64 = a64.clone();
                k.prefix_sum64(&mut a64, u64::MAX - 100);
                scalar.prefix_sum64(&mut s64, u64::MAX - 100);
                assert_eq!(a64, s64, "prefix64 {class} n={n}");
            }
        }
    }

    /// The overread guard: hand the AVX2 unpack an exactly-sized buffer
    /// for a single group — req_words(b) > b for every width, so the
    /// SIMD path must take zero groups and the scalar path must produce
    /// the result. Miri-style canary: correctness implies no OOB read
    /// influenced the output.
    #[test]
    fn exact_length_single_group_is_correct() {
        if !available(KernelClass::Avx2) {
            return;
        }
        let k = kernels_for(KernelClass::Avx2).unwrap();
        for b in 1..=28u32 {
            let c = codes(GROUP, b, 99);
            let packed = pack_vec(&c, b);
            assert_eq!(packed.len(), b as usize);
            let mut out = vec![0u32; GROUP];
            k.unpack(&packed, b, &mut out);
            assert_eq!(out, c, "b={b}");
        }
    }
}
