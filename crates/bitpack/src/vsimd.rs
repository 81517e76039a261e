//! The SIMD kernel set for the vertical layout (see `vert.rs` for the
//! layout).
//!
//! The vertical layout was designed for exactly these kernels: the four
//! lane streams interleave word-wise, so physical words `4w..4w+4` of a
//! block are one unaligned 128-bit load that advances *all four* lanes
//! by one word. All lanes sit at the same row, so every row's shift
//! count is a single scalar — the whole unpack is load/shift/or/and
//! with **no shuffles** (the horizontal AVX2 kernel needs two `vpermd`
//! per 8 values) and **no overread** (block loads stay inside the
//! block's own `4*b` words, so there is no scalar bow-out on
//! exact-length slices and all widths 1..=32 vectorize).
//!
//! There is one kernel set: four 32-bit lanes are natively one 128-bit
//! register, so the `sse41` and `avx2` classes share these `sse4.1`
//! routines (`kernel.rs` holds the table). DELTA's lane accumulators
//! chain sequentially across blocks; its prefix sum is one `paddd` per 4
//! values.
//!
//! Packing runs the inverse sequence (`acc |= v << bits`, flush full
//! words) and vectorizes for every width too.

use crate::vert::{words_per_block, BLOCK, VCMP_CHUNK};
use core::arch::x86_64::*;

/// Broadcast shift-count register (`sse2` is x86-64 baseline; both SIMD
/// tiers imply it, so calls from them are safe).
#[target_feature(enable = "sse2")]
#[inline]
fn cnt(k: u32) -> __m128i {
    _mm_cvtsi32_si128(k as i32)
}

/// One row of a vertical block, stateless: row `$r` (a literal, so the
/// whole expression constant-folds) reads its 4 lanes from lane word
/// `(r*B)/32` at bit offset `(r*B)%32`, or-ing in word `w+1` when the
/// value straddles. With `$r` literal and `B` const there is no carried
/// state, no branch, and every shift count is an immediate — this is
/// what lets the 32-row walk compile to straight-line code (a rolled
/// loop with runtime `bits` carry defeated LLVM's unroller and cost
/// ~2.5x in mispredicts and variable-count shifts).
macro_rules! vrow128 {
    ($B:ident, $base:ident, $msk:ident, $v:ident, $row:ident, $body:block, $r:literal) => {{
        let $row: usize = $r;
        let off = ($r as u32 * $B) % 32;
        let w = (($r as u32 * $B) / 32) as usize;
        // SAFETY: w <= (31*B)/32 < B, so words 4w..4w+4 are inside the
        // block's 4*B words.
        let lo = unsafe { _mm_loadu_si128($base.wrapping_add(4 * w).cast()) };
        let x = if off + $B <= 32 {
            _mm_srl_epi32(lo, cnt(off))
        } else {
            // SAFETY: a straddling value ends strictly inside word
            // ((r+1)*B - 1)/32 <= B-1, so w+1 <= B-1 is in-block.
            let hi = unsafe { _mm_loadu_si128($base.wrapping_add(4 * (w + 1)).cast()) };
            _mm_or_si128(_mm_srl_epi32(lo, cnt(off)), _mm_sll_epi32(hi, cnt(32 - off)))
        };
        let $v = _mm_and_si128(x, $msk);
        $body
    }};
}

/// Expands `$m!(.. , r)` for every row literal 0..32 — manual full
/// unroll (see [`vrow128!`] for why the rolled loop was not enough).
macro_rules! unroll_rows {
    ($m:ident!($($a:tt)*)) => {{
        $m!($($a)*, 0); $m!($($a)*, 1); $m!($($a)*, 2); $m!($($a)*, 3);
        $m!($($a)*, 4); $m!($($a)*, 5); $m!($($a)*, 6); $m!($($a)*, 7);
        $m!($($a)*, 8); $m!($($a)*, 9); $m!($($a)*, 10); $m!($($a)*, 11);
        $m!($($a)*, 12); $m!($($a)*, 13); $m!($($a)*, 14); $m!($($a)*, 15);
        $m!($($a)*, 16); $m!($($a)*, 17); $m!($($a)*, 18); $m!($($a)*, 19);
        $m!($($a)*, 20); $m!($($a)*, 21); $m!($($a)*, 22); $m!($($a)*, 23);
        $m!($($a)*, 24); $m!($($a)*, 25); $m!($($a)*, 26); $m!($($a)*, 27);
        $m!($($a)*, 28); $m!($($a)*, 29); $m!($($a)*, 30); $m!($($a)*, 31);
    }};
}

/// One pack row: masks row `$r`'s 4 lanes into the accumulator and
/// flushes lane word `(r*B)/32` whenever row `$r` completes it. Same
/// constant-fold story as [`vrow128!`] — `$r` is a literal, so the
/// flush test and both shift counts are compile-time.
macro_rules! vpackrow128 {
    ($B:ident, $inp:ident, $op:ident, $msk:ident, $acc:ident, $r:literal) => {{
        let off = ($r as u32 * $B) % 32;
        // SAFETY: reads lanes 4r..4r+4 of the caller's 128-value block.
        let v = _mm_and_si128(unsafe { _mm_loadu_si128($inp.wrapping_add(4 * $r).cast()) }, $msk);
        $acc = _mm_or_si128($acc, _mm_sll_epi32(v, cnt(off)));
        if off + $B >= 32 {
            let w = (($r as u32 * $B) / 32) as usize;
            // SAFETY: row r fills lane word w < B, inside the block's
            // 4*B words.
            unsafe { _mm_storeu_si128($op.wrapping_add(4 * w).cast(), $acc) };
            $acc =
                if off + $B > 32 { _mm_srl_epi32(v, cnt(32 - off)) } else { _mm_setzero_si128() };
        }
    }};
}

/// Walks the 32 rows of one vertical block at `$base` (a `*const u32`
/// pointing at the block's first word), binding each row's 4 decoded
/// lanes to `$v` for `$body`. Caller guarantees `4*B` readable words.
macro_rules! vblock128 {
    ($B:ident, $base:ident, $v:ident, $row:ident, $body:block) => {{
        let msk = _mm_set1_epi32(crate::mask($B) as i32);
        unroll_rows!(vrow128!($B, $base, msk, $v, $row, $body));
    }};
}

macro_rules! by_width32 {
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
            29 => $f::<29>($($args),*),
            30 => $f::<30>($($args),*),
            31 => $f::<31>($($args),*),
            32 => $f::<32>($($args),*),
            _ => unreachable!("vertical SIMD width dispatch outside 1..=32"),
        }
    };
}

// ---------------------------------------------------------------------
// Per-width workers. The layout is four 32-bit lanes, natively one
// 128-bit register, so this one `sse4.1` set serves both SIMD classes.
// ---------------------------------------------------------------------

/// Unpacks vertical blocks `0..full`.
#[target_feature(enable = "sse4.1")]
fn w_vunpack_sse<const B: u32>(packed: &[u32], out: &mut [u32], full: usize) {
    let wpb = 4 * B as usize;
    for k in 0..full {
        let base = packed.as_ptr().wrapping_add(k * wpb);
        let op = out.as_mut_ptr().wrapping_add(k * BLOCK);
        vblock128!(B, base, v, row, {
            // SAFETY: writes out[k*BLOCK + 4*row ..][..4]; k < full
            // <= out.len()/BLOCK.
            unsafe { _mm_storeu_si128(op.wrapping_add(4 * row).cast(), v) };
        });
    }
}

/// Fused unpack + FOR add over vertical blocks `0..full`.
#[target_feature(enable = "sse4.1")]
fn w_vfor32_sse<const B: u32>(packed: &[u32], base: u32, out: &mut [u32], full: usize) {
    let wpb = 4 * B as usize;
    let vb = _mm_set1_epi32(base as i32);
    for k in 0..full {
        let bp = packed.as_ptr().wrapping_add(k * wpb);
        let op = out.as_mut_ptr().wrapping_add(k * BLOCK);
        vblock128!(B, bp, v, row, {
            // SAFETY: writes out[k*BLOCK + 4*row ..][..4].
            unsafe { _mm_storeu_si128(op.wrapping_add(4 * row).cast(), _mm_add_epi32(v, vb)) };
        });
    }
}

/// Fused unpack + FOR add with 64-bit widening, blocks `0..full`.
#[target_feature(enable = "sse4.1")]
fn w_vfor64_sse<const B: u32>(packed: &[u32], base: u64, out: &mut [u64], full: usize) {
    let wpb = 4 * B as usize;
    let vb = _mm_set1_epi64x(base as i64);
    for k in 0..full {
        let bp = packed.as_ptr().wrapping_add(k * wpb);
        let op = out.as_mut_ptr().wrapping_add(k * BLOCK);
        vblock128!(B, bp, v, row, {
            let lo = _mm_cvtepu32_epi64(v);
            let hi = _mm_cvtepu32_epi64(_mm_srli_si128::<8>(v));
            // SAFETY: writes out[k*BLOCK + 4*row ..][..4] u64s.
            unsafe {
                let p = op.wrapping_add(4 * row);
                _mm_storeu_si128(p.cast(), _mm_add_epi64(lo, vb));
                _mm_storeu_si128(p.wrapping_add(2).cast(), _mm_add_epi64(hi, vb));
            }
        });
    }
}

/// Fused unpack + lane-stride delta over blocks `0..full`; the
/// accumulator vector *is* the 4-lane SIMD prefix sum.
#[target_feature(enable = "sse4.1")]
fn w_vdelta32_sse<const B: u32>(
    packed: &[u32],
    db: u32,
    seeds: &[u32; 4],
    out: &mut [u32],
    full: usize,
) {
    let wpb = 4 * B as usize;
    let vdb = _mm_set1_epi32(db as i32);
    // SAFETY: seeds has exactly 4 lanes.
    let mut acc = unsafe { _mm_loadu_si128(seeds.as_ptr().cast()) };
    for k in 0..full {
        let bp = packed.as_ptr().wrapping_add(k * wpb);
        let op = out.as_mut_ptr().wrapping_add(k * BLOCK);
        vblock128!(B, bp, v, row, {
            acc = _mm_add_epi32(acc, _mm_add_epi32(v, vdb));
            // SAFETY: writes out[k*BLOCK + 4*row ..][..4].
            unsafe { _mm_storeu_si128(op.wrapping_add(4 * row).cast(), acc) };
        });
    }
}

/// 64-bit lane-stride delta over blocks `0..full`.
#[target_feature(enable = "sse4.1")]
fn w_vdelta64_sse<const B: u32>(
    packed: &[u32],
    db: u64,
    seeds: &[u64; 4],
    out: &mut [u64],
    full: usize,
) {
    let wpb = 4 * B as usize;
    let vdb = _mm_set1_epi64x(db as i64);
    // SAFETY: seeds has exactly 4 lanes (2 per vector).
    let mut acc0 = unsafe { _mm_loadu_si128(seeds.as_ptr().cast()) };
    let mut acc1 = unsafe { _mm_loadu_si128(seeds.as_ptr().wrapping_add(2).cast()) };
    for k in 0..full {
        let bp = packed.as_ptr().wrapping_add(k * wpb);
        let op = out.as_mut_ptr().wrapping_add(k * BLOCK);
        vblock128!(B, bp, v, row, {
            let lo = _mm_add_epi64(_mm_cvtepu32_epi64(v), vdb);
            let hi = _mm_add_epi64(_mm_cvtepu32_epi64(_mm_srli_si128::<8>(v)), vdb);
            acc0 = _mm_add_epi64(acc0, lo);
            acc1 = _mm_add_epi64(acc1, hi);
            // SAFETY: writes out[k*BLOCK + 4*row ..][..4] u64s.
            unsafe {
                let p = op.wrapping_add(4 * row);
                _mm_storeu_si128(p.cast(), acc0);
                _mm_storeu_si128(p.wrapping_add(2).cast(), acc1);
            }
        });
    }
}

/// Packs vertical blocks `0..full` (inverse of the unpack walk).
#[target_feature(enable = "sse4.1")]
fn w_vpack_sse<const B: u32>(values: &[u32], out: &mut [u32], full: usize) {
    let wpb = 4 * B as usize;
    let msk = _mm_set1_epi32(crate::mask(B) as i32);
    for k in 0..full {
        let inp = values.as_ptr().wrapping_add(k * BLOCK);
        let op = out.as_mut_ptr().wrapping_add(k * wpb);
        let mut acc = _mm_setzero_si128();
        unroll_rows!(vpackrow128!(B, inp, op, msk, acc));
    }
}

// ---------------------------------------------------------------------
// Lane-stride prefix sums.
// ---------------------------------------------------------------------

#[target_feature(enable = "sse4.1")]
fn vprefix32_sse_impl(out: &mut [u32], seeds: &[u32; 4]) {
    // SAFETY: seeds has exactly 4 lanes.
    let mut acc = unsafe { _mm_loadu_si128(seeds.as_ptr().cast()) };
    let chunks = out.len() / 4;
    for c in 0..chunks {
        let p = out.as_mut_ptr().wrapping_add(4 * c).cast::<__m128i>();
        // SAFETY: lanes 4c..4c+4 are within `out` (c < chunks).
        acc = _mm_add_epi32(acc, unsafe { _mm_loadu_si128(p) });
        unsafe { _mm_storeu_si128(p, acc) };
    }
    let mut s = [0u32; 4];
    // SAFETY: s has exactly 4 lanes.
    unsafe { _mm_storeu_si128(s.as_mut_ptr().cast(), acc) };
    for (i, o) in out[4 * chunks..].iter_mut().enumerate() {
        s[i & 3] = s[i & 3].wrapping_add(*o);
        *o = s[i & 3];
    }
}

#[target_feature(enable = "sse4.1")]
fn vprefix64_sse_impl(out: &mut [u64], seeds: &[u64; 4]) {
    // SAFETY: seeds has exactly 4 lanes, 2 per vector.
    let mut acc0 = unsafe { _mm_loadu_si128(seeds.as_ptr().cast()) };
    let mut acc1 = unsafe { _mm_loadu_si128(seeds.as_ptr().wrapping_add(2).cast()) };
    let chunks = out.len() / 4;
    for c in 0..chunks {
        let p = out.as_mut_ptr().wrapping_add(4 * c);
        // SAFETY: lanes 4c..4c+4 are within `out` (c < chunks).
        unsafe {
            acc0 = _mm_add_epi64(acc0, _mm_loadu_si128(p.cast()));
            _mm_storeu_si128(p.cast(), acc0);
            acc1 = _mm_add_epi64(acc1, _mm_loadu_si128(p.wrapping_add(2).cast()));
            _mm_storeu_si128(p.wrapping_add(2).cast(), acc1);
        }
    }
    let mut s = [0u64; 4];
    // SAFETY: s has exactly 4 lanes.
    unsafe {
        _mm_storeu_si128(s.as_mut_ptr().cast(), acc0);
        _mm_storeu_si128(s.as_mut_ptr().wrapping_add(2).cast(), acc1);
    }
    for (i, o) in out[4 * chunks..].iter_mut().enumerate() {
        s[i & 3] = s[i & 3].wrapping_add(*o);
        *o = s[i & 3];
    }
}

// ---------------------------------------------------------------------
// Safe entry points, installed in `kernel.rs`'s table only after SSE4.1
// is detected. b == 0 and empty inputs route to the scalar reference
// tier, which handles them without touching SIMD.
// ---------------------------------------------------------------------

pub(crate) fn vunpack_sse41(packed: &[u32], b: u32, out: &mut [u32]) {
    let full = out.len() / BLOCK;
    if b == 0 || full == 0 {
        return crate::vert::vunpack_scalar(packed, b, out);
    }
    // SAFETY: this driver is only installed when SSE4.1 is detected.
    unsafe { by_width32!(b, w_vunpack_sse(packed, out, full)) }
    crate::fused::unpack_scalar(&packed[full * words_per_block(b)..], b, &mut out[full * BLOCK..]);
}

pub(crate) fn vfor32_sse41(packed: &[u32], b: u32, base: u32, out: &mut [u32]) {
    let full = out.len() / BLOCK;
    if b == 0 || full == 0 {
        return crate::vert::vfor32_scalar(packed, b, base, out);
    }
    // SAFETY: this driver is only installed when SSE4.1 is detected.
    unsafe { by_width32!(b, w_vfor32_sse(packed, base, out, full)) }
    if full * BLOCK < out.len() {
        crate::fused::for32_scalar(
            &packed[full * words_per_block(b)..],
            b,
            base,
            &mut out[full * BLOCK..],
        );
    }
}

pub(crate) fn vfor64_sse41(packed: &[u32], b: u32, base: u64, out: &mut [u64]) {
    let full = out.len() / BLOCK;
    if b == 0 || full == 0 {
        return crate::vert::vfor64_scalar(packed, b, base, out);
    }
    // SAFETY: this driver is only installed when SSE4.1 is detected.
    unsafe { by_width32!(b, w_vfor64_sse(packed, base, out, full)) }
    if full * BLOCK < out.len() {
        crate::fused::for64_scalar(
            &packed[full * words_per_block(b)..],
            b,
            base,
            &mut out[full * BLOCK..],
        );
    }
}

/// Tail seeds for the delta drivers: after the full blocks are decoded,
/// the last 4 outputs *are* the lane accumulators.
#[inline]
fn tail_seeds32(out: &[u32], full: usize, seeds: &[u32; 4]) -> [u32; 4] {
    if full == 0 {
        *seeds
    } else {
        out[full * BLOCK - 4..full * BLOCK].try_into().expect("4 lanes")
    }
}

#[inline]
fn tail_seeds64(out: &[u64], full: usize, seeds: &[u64; 4]) -> [u64; 4] {
    if full == 0 {
        *seeds
    } else {
        out[full * BLOCK - 4..full * BLOCK].try_into().expect("4 lanes")
    }
}

pub(crate) fn vdelta32_sse41(packed: &[u32], b: u32, db: u32, seeds: &[u32; 4], out: &mut [u32]) {
    let full = out.len() / BLOCK;
    if b == 0 || full == 0 {
        return crate::vert::vdelta32_scalar(packed, b, db, seeds, out);
    }
    // SAFETY: this driver is only installed when SSE4.1 is detected.
    unsafe { by_width32!(b, w_vdelta32_sse(packed, db, seeds, out, full)) }
    if full * BLOCK < out.len() {
        let s = tail_seeds32(out, full, seeds);
        crate::vert::vdelta32_scalar(
            &packed[full * words_per_block(b)..],
            b,
            db,
            &s,
            &mut out[full * BLOCK..],
        );
    }
}

pub(crate) fn vdelta64_sse41(packed: &[u32], b: u32, db: u64, seeds: &[u64; 4], out: &mut [u64]) {
    let full = out.len() / BLOCK;
    if b == 0 || full == 0 {
        return crate::vert::vdelta64_scalar(packed, b, db, seeds, out);
    }
    // SAFETY: this driver is only installed when SSE4.1 is detected.
    unsafe { by_width32!(b, w_vdelta64_sse(packed, db, seeds, out, full)) }
    if full * BLOCK < out.len() {
        let s = tail_seeds64(out, full, seeds);
        crate::vert::vdelta64_scalar(
            &packed[full * words_per_block(b)..],
            b,
            db,
            &s,
            &mut out[full * BLOCK..],
        );
    }
}

pub(crate) fn vpack_sse41(values: &[u32], b: u32, out: &mut [u32]) {
    let full = values.len() / BLOCK;
    if b == 0 || full == 0 {
        return crate::vert::vpack_scalar(values, b, out);
    }
    // SAFETY: this driver is only installed when SSE4.1 is detected.
    unsafe { by_width32!(b, w_vpack_sse(values, out, full)) }
    crate::pack_scalar(&values[full * BLOCK..], b, &mut out[full * words_per_block(b)..]);
}

pub(crate) fn vprefix32_sse41(out: &mut [u32], seeds: &[u32; 4]) {
    // SAFETY: this driver is only installed when SSE4.1 is detected.
    unsafe { vprefix32_sse_impl(out, seeds) }
}

pub(crate) fn vprefix64_sse41(out: &mut [u64], seeds: &[u64; 4]) {
    // SAFETY: this driver is only installed when SSE4.1 is detected.
    unsafe { vprefix64_sse_impl(out, seeds) }
}

// ---------------------------------------------------------------------
// Vertical packed-code compares: the tier's vertical unpack streams
// codes through a stack buffer, the horizontal tiers' vectorized band
// test finishes the job. Chunks are BLOCK-aligned (VCMP_CHUNK is a
// multiple of BLOCK), so only the final chunk sees the horizontal tail.
// ---------------------------------------------------------------------

/// Vectorized `lo <= c <= hi` (optionally negated) over already-unpacked
/// codes, writing one `bool` byte per code. Unsigned order via the
/// sign-bit bias trick (`c ^ 0x8000_0000` makes signed compares act
/// unsigned).
#[target_feature(enable = "sse4.1")]
fn cmp_band_sse(codes: &[u32], lo: u32, hi: u32, negate: bool, out: &mut [bool]) {
    let bias = _mm_set1_epi32(i32::MIN);
    let vlo = _mm_set1_epi32((lo ^ 0x8000_0000) as i32);
    let vhi = _mm_set1_epi32((hi ^ 0x8000_0000) as i32);
    // `outside ^ vneg`: all-ones flips "outside" into "inside" for the
    // plain band; zero keeps "outside" for the negated band.
    let vneg = if negate { _mm_setzero_si128() } else { _mm_set1_epi32(-1) };
    let one = _mm_set1_epi8(1);
    let chunks = codes.len() / 16;
    for c in 0..chunks {
        let base = codes.as_ptr().wrapping_add(16 * c).cast::<__m128i>();
        let mut r = [_mm_setzero_si128(); 4];
        for (j, rj) in r.iter_mut().enumerate() {
            // SAFETY: lanes 16c+4j..16c+4j+4 are within `codes`.
            let x = _mm_xor_si128(unsafe { _mm_loadu_si128(base.wrapping_add(j)) }, bias);
            let outside = _mm_or_si128(_mm_cmpgt_epi32(vlo, x), _mm_cmpgt_epi32(x, vhi));
            *rj = _mm_xor_si128(outside, vneg);
        }
        // i32 masks -> i16 -> i8 keeps element order on SSE.
        let p01 = _mm_packs_epi32(r[0], r[1]);
        let p23 = _mm_packs_epi32(r[2], r[3]);
        let bytes = _mm_and_si128(_mm_packs_epi16(p01, p23), one);
        // SAFETY: 16 bytes at out[16c..] are within `out`; 0/1 bytes are
        // valid `bool` representations.
        unsafe { _mm_storeu_si128(out.as_mut_ptr().add(16 * c).cast(), bytes) };
    }
    for j in 16 * chunks..codes.len() {
        let c = codes[j];
        out[j] = ((c >= lo) & (c <= hi)) != negate;
    }
}

pub(crate) fn vcmp_range_sse41(
    packed: &[u32],
    b: u32,
    lo: u32,
    hi: u32,
    negate: bool,
    out: &mut [bool],
) {
    if b == 0 {
        return crate::vert::vcmp_range_scalar(packed, b, lo, hi, negate, out);
    }
    let n = out.len();
    let wpb = words_per_block(b);
    let mut buf = [0u32; VCMP_CHUNK];
    let mut i = 0usize;
    while i < n {
        let len = VCMP_CHUNK.min(n - i);
        vunpack_sse41(&packed[i / BLOCK * wpb..], b, &mut buf[..len]);
        // SAFETY: this driver is only installed when SSE4.1 is detected.
        unsafe { cmp_band_sse(&buf[..len], lo, hi, negate, &mut out[i..i + len]) };
        i += len;
    }
}

pub(crate) fn vcmp_in_set_sse41(packed: &[u32], b: u32, bits: &[u64], out: &mut [bool]) {
    crate::vert::vcmp_in_set_with(vunpack_sse41, packed, b, bits, out);
}

#[cfg(test)]
mod tests {
    use crate::kernel::{available, kernels_for, KernelClass};
    use crate::{mask, packed_words};

    fn codes(n: usize, b: u32, salt: u32) -> Vec<u32> {
        (0..n as u32).map(|i| i.wrapping_add(salt).wrapping_mul(0x9e37_79b9) & mask(b)).collect()
    }

    /// Every vertical op, every tier, every width, ragged lengths —
    /// byte-identical to the vert scalar reference.
    #[test]
    fn vertical_tiers_match_scalar_exactly() {
        let scalar = kernels_for(KernelClass::Scalar).unwrap();
        for class in [KernelClass::Sse41, KernelClass::Avx2] {
            if !available(class) {
                continue;
            }
            let k = kernels_for(class).unwrap();
            for b in 0..=32u32 {
                for n in [0usize, 1, 31, 127, 128, 129, 255, 256, 257, 384, 1000] {
                    let c = codes(n, b, b.wrapping_mul(13));
                    let mut packed = vec![0u32; packed_words(n, b)];
                    let mut packed_s = packed.clone();
                    k.vpack(&c, b, &mut packed);
                    scalar.vpack(&c, b, &mut packed_s);
                    assert_eq!(packed, packed_s, "vpack {class} b={b} n={n}");

                    let mut a = vec![0u32; n];
                    let mut s = vec![0u32; n];
                    k.vunpack(&packed, b, &mut a);
                    scalar.vunpack(&packed, b, &mut s);
                    assert_eq!(a, s, "vunpack {class} b={b} n={n}");
                    assert_eq!(a, c, "vunpack roundtrip {class} b={b} n={n}");

                    k.vunpack_for32(&packed, b, 0x8000_0001, &mut a);
                    scalar.vunpack_for32(&packed, b, 0x8000_0001, &mut s);
                    assert_eq!(a, s, "vfor32 {class} b={b} n={n}");

                    let seeds = [u32::MAX - 2, 7, 0, 0x55aa_55aa];
                    k.vunpack_delta32(&packed, b, 3, &seeds, &mut a);
                    scalar.vunpack_delta32(&packed, b, 3, &seeds, &mut s);
                    assert_eq!(a, s, "vdelta32 {class} b={b} n={n}");

                    let mut a64 = vec![0u64; n];
                    let mut s64 = vec![0u64; n];
                    k.vunpack_for64(&packed, b, u64::MAX - 9, &mut a64);
                    scalar.vunpack_for64(&packed, b, u64::MAX - 9, &mut s64);
                    assert_eq!(a64, s64, "vfor64 {class} b={b} n={n}");

                    let seeds64 = [u64::MAX / 2, 1, 0, 1 << 40];
                    k.vunpack_delta64(&packed, b, 11, &seeds64, &mut a64);
                    scalar.vunpack_delta64(&packed, b, 11, &seeds64, &mut s64);
                    assert_eq!(a64, s64, "vdelta64 {class} b={b} n={n}");
                }
            }
        }
    }

    #[test]
    fn vertical_tier_prefix_and_cmp_match_scalar() {
        let scalar = kernels_for(KernelClass::Scalar).unwrap();
        for class in [KernelClass::Sse41, KernelClass::Avx2] {
            if !available(class) {
                continue;
            }
            let k = kernels_for(class).unwrap();
            for n in [0usize, 1, 5, 128, 130, 999] {
                let base = codes(n, 32, 3);
                let seeds = [9u32, u32::MAX, 0, 12345];
                let mut a = base.clone();
                let mut s = base.clone();
                k.vprefix_sum32(&mut a, &seeds);
                scalar.vprefix_sum32(&mut s, &seeds);
                assert_eq!(a, s, "vprefix32 {class} n={n}");

                let seeds64 = [1u64 << 50, 2, u64::MAX - 5, 0];
                let mut a64: Vec<u64> = base.iter().map(|&x| (x as u64) << 17 | 3).collect();
                let mut s64 = a64.clone();
                k.vprefix_sum64(&mut a64, &seeds64);
                scalar.vprefix_sum64(&mut s64, &seeds64);
                assert_eq!(a64, s64, "vprefix64 {class} n={n}");
            }
            for b in [0u32, 3, 9, 16] {
                let n = 1300;
                let c = codes(n, b, b + 1);
                let packed = crate::vert::pack_vec(&c, b);
                let (lo, hi) = (mask(b) / 3, mask(b) / 2);
                for negate in [false, true] {
                    let mut a = vec![false; n];
                    let mut s = vec![false; n];
                    k.vcmp_range(&packed, b, lo, hi, negate, &mut a);
                    scalar.vcmp_range(&packed, b, lo, hi, negate, &mut s);
                    assert_eq!(a, s, "vcmp_range {class} b={b} negate={negate}");
                }
                let bits = vec![0xdead_beef_5555_aaaau64; 3];
                let mut a = vec![false; n];
                let mut s = vec![false; n];
                k.vcmp_in_set(&packed, b, &bits, &mut a);
                scalar.vcmp_in_set(&packed, b, &bits, &mut s);
                assert_eq!(a, s, "vcmp_in_set {class} b={b}");
            }
        }
    }
}
