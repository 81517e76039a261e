//! Vertical (SIMD-BP128-style) bit-packed layout.
//!
//! The horizontal layout packs values in logical order, which forces a
//! SIMD decoder into cross-lane shuffles (see `simd.rs`: two `vpermd`
//! gathers per 8 values). The vertical layout eliminates them by giving
//! each of 4 SIMD lanes every 4th value:
//!
//! * Values are grouped into **128-value blocks** ([`BLOCK`]). Within a
//!   full block, logical value `i` belongs to **lane** `i % 4` at **row**
//!   `i / 4`; each lane holds its 32 values as an LSB-first `b`-word
//!   packed stream (exactly the horizontal group layout, per lane).
//! * The four lane streams interleave **word-wise**: physical word
//!   `4*w + l` of the block is word `w` of lane `l`'s stream. A decoder
//!   therefore loads physical words `4w..4w+4` as one 128-bit vector and
//!   every lane advances through its own stream in lock-step — the whole
//!   unpack is shifts/ors/ands with *no shuffles*, and all four lanes
//!   share each row's shift count.
//! * A block still occupies exactly `4*b` words at word offset
//!   `blk * 4 * b`, so [`crate::packed_words`] and all block-offset
//!   arithmetic are identical to the horizontal layout.
//! * A trailing partial block (`n % 128` values) is stored in the
//!   **horizontal** layout at the word offset after the last full block;
//!   partial vertical blocks would complicate every kernel for no
//!   bandwidth win (tails are decoded once, not streamed).
//!
//! Unpacking writes plain logical order, so the patch-list machinery and
//! exception handling in `scc-core` work on vertical blocks unchanged.
//!
//! The DELTA variant uses **lane-stride deltas**: `d[i] = v[i] - v[i-4]`
//! (`d[i] = v[i] - seeds[i % 4]` for `i < 4`), so the prefix sum keeps 4
//! independent running sums — one vector accumulator, two SIMD adds per
//! 4 values, instead of the horizontal shift-add cascade.
//!
//! Entry points mirror the crate root / `fused` API and dispatch through
//! the same runtime kernel table (`SCC_KERNEL` override included); the
//! scalar reference implementations live here, the one SIMD set (shared
//! by the `sse41` and `avx2` classes) in `vsimd.rs`.

use crate::kernel;
use crate::{check_unpack, mask, packed_words, UnpackError, GROUP};

/// Values per vertical block (4 lanes × 32 rows).
pub const BLOCK: usize = 128;

/// Words per full vertical block at width `b`.
#[inline]
pub(crate) const fn words_per_block(b: u32) -> usize {
    4 * b as usize
}

// ---------------------------------------------------------------------
// Scalar per-block kernels (const-generic, mirrors group.rs).
// ---------------------------------------------------------------------

/// Unpacks one full vertical block: `4*B` words → 128 values in logical
/// order.
#[allow(clippy::needless_range_loop)]
fn vunpack_block<const B: usize>(input: &[u32], out: &mut [u32; BLOCK]) {
    debug_assert_eq!(input.len(), 4 * B);
    let msk: u64 = if B >= 32 { u32::MAX as u64 } else { (1u64 << B) - 1 };
    for lane in 0..4 {
        let mut acc: u64 = 0;
        let mut bits: usize = 0;
        let mut w: usize = 0;
        for row in 0..GROUP {
            if bits < B {
                acc |= (input[4 * w + lane] as u64) << bits;
                w += 1;
                bits += 32;
            }
            out[4 * row + lane] = (acc & msk) as u32;
            acc >>= B;
            bits -= B;
        }
        debug_assert_eq!(w, B);
    }
}

/// Packs one full vertical block: 128 values (logical order) → `4*B`
/// words. Upper bits beyond `B` are masked off, as in `group.rs`.
#[allow(clippy::needless_range_loop)]
fn vpack_block<const B: usize>(input: &[u32; BLOCK], out: &mut [u32]) {
    debug_assert_eq!(out.len(), 4 * B);
    let msk: u64 = if B >= 32 { u32::MAX as u64 } else { (1u64 << B) - 1 };
    for lane in 0..4 {
        let mut acc: u64 = 0;
        let mut bits: usize = 0;
        let mut w: usize = 0;
        for row in 0..GROUP {
            acc |= ((input[4 * row + lane] as u64) & msk) << bits;
            bits += B;
            if bits >= 32 {
                out[4 * w + lane] = acc as u32;
                w += 1;
                acc >>= 32;
                bits -= 32;
            }
        }
        debug_assert_eq!(w, B);
        debug_assert_eq!(bits, 0);
    }
}

fn vunpack_block_0(_input: &[u32], out: &mut [u32; BLOCK]) {
    out.fill(0);
}
fn vpack_block_0(_input: &[u32; BLOCK], _out: &mut [u32]) {}

macro_rules! vert_table {
    ($f:ident, $zero:ident, $ty:ty) => {{
        [
            $zero, $f::<1>, $f::<2>, $f::<3>, $f::<4>, $f::<5>, $f::<6>, $f::<7>, $f::<8>, $f::<9>,
            $f::<10>, $f::<11>, $f::<12>, $f::<13>, $f::<14>, $f::<15>, $f::<16>, $f::<17>,
            $f::<18>, $f::<19>, $f::<20>, $f::<21>, $f::<22>, $f::<23>, $f::<24>, $f::<25>,
            $f::<26>, $f::<27>, $f::<28>, $f::<29>, $f::<30>, $f::<31>, $f::<32>,
        ] as $ty
    }};
}

type VUnpackFn = fn(&[u32], &mut [u32; BLOCK]);
type VPackFn = fn(&[u32; BLOCK], &mut [u32]);

/// `VUNPACK[b]` unpacks one full vertical block at width `b`.
pub(crate) static VUNPACK: [VUnpackFn; 33] =
    vert_table!(vunpack_block, vunpack_block_0, [VUnpackFn; 33]);

/// `VPACK[b]` packs one full vertical block at width `b`.
pub(crate) static VPACK: [VPackFn; 33] = vert_table!(vpack_block, vpack_block_0, [VPackFn; 33]);

// ---------------------------------------------------------------------
// Scalar bulk kernels (the dispatch-table reference tier).
// ---------------------------------------------------------------------

/// Scalar vertical unpack: full blocks vertical, tail horizontal.
pub(crate) fn vunpack_scalar(packed: &[u32], b: u32, out: &mut [u32]) {
    let full = out.len() / BLOCK;
    let wpb = words_per_block(b);
    let kernel = VUNPACK[b as usize];
    for k in 0..full {
        let blk: &mut [u32; BLOCK] =
            (&mut out[k * BLOCK..(k + 1) * BLOCK]).try_into().expect("BLOCK-sized chunk");
        kernel(&packed[k * wpb..(k + 1) * wpb], blk);
    }
    crate::fused::unpack_scalar(&packed[full * wpb..], b, &mut out[full * BLOCK..]);
}

/// Scalar vertical pack: full blocks vertical, tail horizontal.
pub(crate) fn vpack_scalar(values: &[u32], b: u32, out: &mut [u32]) {
    let full = values.len() / BLOCK;
    let wpb = words_per_block(b);
    let kernel = VPACK[b as usize];
    for k in 0..full {
        let blk: &[u32; BLOCK] =
            values[k * BLOCK..(k + 1) * BLOCK].try_into().expect("BLOCK-sized chunk");
        kernel(blk, &mut out[k * wpb..(k + 1) * wpb]);
    }
    crate::pack_scalar(&values[full * BLOCK..], b, &mut out[full * wpb..]);
}

pub(crate) fn vfor32_scalar(packed: &[u32], b: u32, base: u32, out: &mut [u32]) {
    vunpack_scalar(packed, b, out);
    for o in out.iter_mut() {
        *o = base.wrapping_add(*o);
    }
}

pub(crate) fn vfor64_scalar(packed: &[u32], b: u32, base: u64, out: &mut [u64]) {
    let mut tmp = [0u32; BLOCK];
    let wpb = words_per_block(b);
    let full = out.len() / BLOCK;
    let kernel = VUNPACK[b as usize];
    for k in 0..full {
        kernel(&packed[k * wpb..(k + 1) * wpb], &mut tmp);
        for (o, &c) in out[k * BLOCK..(k + 1) * BLOCK].iter_mut().zip(tmp.iter()) {
            *o = base.wrapping_add(c as u64);
        }
    }
    crate::fused::for64_scalar(&packed[full * wpb..], b, base, &mut out[full * BLOCK..]);
}

/// Lane-stride prefix sum: `out[i] = seeds[i%4] + Σ_{j≡i (mod 4), j<=i}
/// (delta_base + out[j])` — four independent running sums.
pub(crate) fn vprefix_sum32_scalar(out: &mut [u32], seeds: &[u32; 4]) {
    let mut s = *seeds;
    for (i, o) in out.iter_mut().enumerate() {
        let lane = i & 3;
        s[lane] = s[lane].wrapping_add(*o);
        *o = s[lane];
    }
}

pub(crate) fn vprefix_sum64_scalar(out: &mut [u64], seeds: &[u64; 4]) {
    let mut s = *seeds;
    for (i, o) in out.iter_mut().enumerate() {
        let lane = i & 3;
        s[lane] = s[lane].wrapping_add(*o);
        *o = s[lane];
    }
}

pub(crate) fn vdelta32_scalar(
    packed: &[u32],
    b: u32,
    delta_base: u32,
    seeds: &[u32; 4],
    out: &mut [u32],
) {
    vunpack_scalar(packed, b, out);
    let mut s = *seeds;
    for (i, o) in out.iter_mut().enumerate() {
        let lane = i & 3;
        s[lane] = s[lane].wrapping_add(delta_base).wrapping_add(*o);
        *o = s[lane];
    }
}

pub(crate) fn vdelta64_scalar(
    packed: &[u32],
    b: u32,
    delta_base: u64,
    seeds: &[u64; 4],
    out: &mut [u64],
) {
    let mut tmp = [0u32; BLOCK];
    let wpb = words_per_block(b);
    let full = out.len() / BLOCK;
    let kernel = VUNPACK[b as usize];
    let mut s = *seeds;
    for k in 0..full {
        kernel(&packed[k * wpb..(k + 1) * wpb], &mut tmp);
        for (i, o) in out[k * BLOCK..(k + 1) * BLOCK].iter_mut().enumerate() {
            let lane = i & 3;
            s[lane] = s[lane].wrapping_add(delta_base).wrapping_add(tmp[i] as u64);
            *o = s[lane];
        }
    }
    let tail = &mut out[full * BLOCK..];
    if !tail.is_empty() {
        let mut t32 = [0u32; BLOCK];
        crate::fused::unpack_scalar(&packed[full * wpb..], b, &mut t32[..tail.len()]);
        for (i, o) in tail.iter_mut().enumerate() {
            let lane = i & 3;
            s[lane] = s[lane].wrapping_add(delta_base).wrapping_add(t32[i] as u64);
            *o = s[lane];
        }
    }
}

// ---------------------------------------------------------------------
// Packed-code compare (compressed-domain Select on vertical segments).
// ---------------------------------------------------------------------

/// Chunk size for streaming compares; a multiple of [`BLOCK`] so every
/// chunk but the last is block-aligned (the last chunk's remainder is
/// the true horizontal tail).
pub(crate) const VCMP_CHUNK: usize = 1024;

/// Shared compare driver: streams codes through a stack buffer with the
/// tier's vertical unpack, then applies a branch-free scalar band test.
/// Sharing the arithmetic across tiers is what makes the tiers trivially
/// byte-identical; the unpack stage is where the SIMD win lives.
pub(crate) fn vcmp_range_with(
    vunpack: fn(&[u32], u32, &mut [u32]),
    packed: &[u32],
    b: u32,
    lo: u32,
    hi: u32,
    negate: bool,
    out: &mut [bool],
) {
    if b == 0 {
        out.fill((lo == 0) != negate);
        return;
    }
    let n = out.len();
    let wpb = words_per_block(b);
    let mut buf = [0u32; VCMP_CHUNK];
    let mut i = 0usize;
    while i < n {
        let len = VCMP_CHUNK.min(n - i);
        vunpack(&packed[i / BLOCK * wpb..], b, &mut buf[..len]);
        for (o, &c) in out[i..i + len].iter_mut().zip(buf.iter()) {
            *o = ((c >= lo) & (c <= hi)) != negate;
        }
        i += len;
    }
}

pub(crate) fn vcmp_in_set_with(
    vunpack: fn(&[u32], u32, &mut [u32]),
    packed: &[u32],
    b: u32,
    bits: &[u64],
    out: &mut [bool],
) {
    if b == 0 {
        out.fill(crate::cmp::set_has(bits, 0));
        return;
    }
    let n = out.len();
    let wpb = words_per_block(b);
    let mut buf = [0u32; VCMP_CHUNK];
    let mut i = 0usize;
    while i < n {
        let len = VCMP_CHUNK.min(n - i);
        vunpack(&packed[i / BLOCK * wpb..], b, &mut buf[..len]);
        for (o, &c) in out[i..i + len].iter_mut().zip(buf.iter()) {
            *o = crate::cmp::set_has(bits, c);
        }
        i += len;
    }
}

pub(crate) fn vcmp_range_scalar(
    packed: &[u32],
    b: u32,
    lo: u32,
    hi: u32,
    negate: bool,
    out: &mut [bool],
) {
    vcmp_range_with(vunpack_scalar, packed, b, lo, hi, negate, out);
}

pub(crate) fn vcmp_in_set_scalar(packed: &[u32], b: u32, bits: &[u64], out: &mut [bool]) {
    vcmp_in_set_with(vunpack_scalar, packed, b, bits, out);
}

// ---------------------------------------------------------------------
// Public dispatched entry points (vertical analogs of the crate root
// and `fused` APIs; same contracts, same validation).
// ---------------------------------------------------------------------

/// Packs `values` into the vertical layout at width `b`. `out` must hold
/// exactly [`crate::packed_words`]`(values.len(), b)` words (identical
/// to the horizontal layout). Values wider than `b` bits are truncated.
///
/// # Panics
/// Panics when `b > 32` or `out` has the wrong length.
pub fn pack(values: &[u32], b: u32, out: &mut [u32]) {
    assert!(b <= 32, "bit width {b} out of range");
    assert_eq!(out.len(), packed_words(values.len(), b), "bad output length");
    (kernel::driver().vert.pack)(values, b, out);
}

/// Allocating [`pack`].
pub fn pack_vec(values: &[u32], b: u32) -> Vec<u32> {
    let mut out = vec![0u32; packed_words(values.len(), b)];
    pack(values, b, &mut out);
    out
}

/// Unpacks `out.len()` vertically packed values; errors instead of
/// panicking on a width or length violation.
pub fn try_unpack(packed: &[u32], b: u32, out: &mut [u32]) -> Result<(), UnpackError> {
    check_unpack(packed.len(), b, out.len())?;
    (kernel::driver().vert.unpack)(packed, b, out);
    Ok(())
}

/// Unpacks `out.len()` vertically packed values.
///
/// # Panics
/// Panics when `b > 32` or `packed` is too short.
pub fn unpack(packed: &[u32], b: u32, out: &mut [u32]) {
    try_unpack(packed, b, out).unwrap_or_else(|e| panic!("{e}"));
}

/// Allocating [`unpack`].
pub fn unpack_vec(packed: &[u32], b: u32, n: usize) -> Vec<u32> {
    let mut out = vec![0u32; n];
    unpack(packed, b, &mut out);
    out
}

/// Random access into a vertical buffer of `n` values. Unlike the
/// horizontal [`crate::get_one`], the total count `n` is needed to tell
/// full vertical blocks from the horizontal tail.
///
/// # Panics
/// Panics when `index >= n` or `packed` is too short for the touched
/// words.
pub fn get_one(packed: &[u32], b: u32, n: usize, index: usize) -> u32 {
    assert!(index < n, "index {index} out of bounds for {n}");
    if b == 0 {
        return 0;
    }
    let full = n / BLOCK;
    let blk = index / BLOCK;
    if blk >= full {
        // Horizontal tail region.
        return crate::get_one(&packed[full * words_per_block(b)..], b, index - full * BLOCK);
    }
    let local = index % BLOCK;
    let lane = local % 4;
    let bitpos = (local / 4) as u32 * b;
    let w = blk * words_per_block(b) + 4 * ((bitpos >> 5) as usize) + lane;
    let shift = bitpos & 31;
    let mut v = packed[w] >> shift;
    if shift + b > 32 {
        v |= packed[w + 4] << (32 - shift);
    }
    v & mask(b)
}

/// Fused vertical unpack + frame-of-reference add, 32-bit lanes.
pub fn unpack_for32(packed: &[u32], b: u32, base: u32, out: &mut [u32]) {
    check_unpack(packed.len(), b, out.len()).unwrap_or_else(|e| panic!("{e}"));
    (kernel::driver().vert.for32)(packed, b, base, out);
}

/// Fused vertical unpack + frame-of-reference add, codes widened to 64
/// bits.
pub fn unpack_for64(packed: &[u32], b: u32, base: u64, out: &mut [u64]) {
    check_unpack(packed.len(), b, out.len()).unwrap_or_else(|e| panic!("{e}"));
    (kernel::driver().vert.for64)(packed, b, base, out);
}

/// Fused vertical unpack + lane-stride delta decode, 32-bit lanes:
/// `out[i] = seeds[i%4] + Σ_{j≡i (mod 4), j<=i} (delta_base + code_j)`.
pub fn unpack_delta32(packed: &[u32], b: u32, delta_base: u32, seeds: &[u32; 4], out: &mut [u32]) {
    check_unpack(packed.len(), b, out.len()).unwrap_or_else(|e| panic!("{e}"));
    (kernel::driver().vert.delta32)(packed, b, delta_base, seeds, out);
}

/// Fused vertical unpack + lane-stride delta decode, 64-bit
/// accumulation.
pub fn unpack_delta64(packed: &[u32], b: u32, delta_base: u64, seeds: &[u64; 4], out: &mut [u64]) {
    check_unpack(packed.len(), b, out.len()).unwrap_or_else(|e| panic!("{e}"));
    (kernel::driver().vert.delta64)(packed, b, delta_base, seeds, out);
}

/// In-place lane-stride prefix sum, 32-bit lanes (the DELTA patch path:
/// exceptions are patched into the raw deltas first, then summed).
pub fn prefix_sum32(out: &mut [u32], seeds: &[u32; 4]) {
    (kernel::driver().vert.prefix32)(out, seeds);
}

/// In-place lane-stride prefix sum, 64-bit lanes.
pub fn prefix_sum64(out: &mut [u64], seeds: &[u64; 4]) {
    (kernel::driver().vert.prefix64)(out, seeds);
}

/// Vertical-layout [`crate::cmp_range`]: band test over packed codes.
pub fn cmp_range(packed: &[u32], b: u32, lo: u32, hi: u32, negate: bool, out: &mut [bool]) {
    check_unpack(packed.len(), b, out.len()).unwrap_or_else(|e| panic!("{e}"));
    (kernel::driver().vert.cmp_range)(packed, b, lo, hi, negate, out);
}

/// Vertical-layout [`crate::cmp_in_set`]: bitset membership over packed
/// codes.
pub fn cmp_in_set(packed: &[u32], b: u32, bits: &[u64], out: &mut [bool]) {
    check_unpack(packed.len(), b, out.len()).unwrap_or_else(|e| panic!("{e}"));
    (kernel::driver().vert.cmp_in_set)(packed, b, bits, out);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codes(n: usize, b: u32, salt: u32) -> Vec<u32> {
        (0..n as u32).map(|i| i.wrapping_add(salt).wrapping_mul(0x9e37_79b9) & mask(b)).collect()
    }

    #[test]
    fn scalar_block_roundtrip_every_width() {
        for b in 0..=32u32 {
            let c = codes(BLOCK, b, b);
            let blk: &[u32; BLOCK] = c.as_slice().try_into().unwrap();
            let mut packed = vec![0u32; words_per_block(b)];
            VPACK[b as usize](blk, &mut packed);
            let mut out = [0u32; BLOCK];
            VUNPACK[b as usize](&packed, &mut out);
            assert_eq!(&out[..], &c[..], "width {b}");
        }
    }

    #[test]
    fn vertical_word_interleave_is_as_documented() {
        // At b=32 the layout is fully transparent: lane l row w's value
        // is physical word 4w + l.
        let c = codes(BLOCK, 32, 7);
        let packed = pack_vec(&c, 32);
        for (local, &want) in c.iter().enumerate() {
            let (lane, row) = (local % 4, local / 4);
            assert_eq!(packed[4 * row + lane], want, "value {local}");
        }
    }

    #[test]
    fn bulk_roundtrip_with_horizontal_tail() {
        for b in [0u32, 1, 3, 7, 8, 13, 21, 32] {
            for n in [0usize, 1, 31, 32, 127, 128, 129, 255, 256, 300, 1000] {
                let c = codes(n, b, b.wrapping_mul(31).wrapping_add(n as u32));
                let packed = pack_vec(&c, b);
                assert_eq!(packed.len(), packed_words(n, b), "b={b} n={n}");
                assert_eq!(unpack_vec(&packed, b, n), c, "b={b} n={n}");
                // The tail region bytes equal the horizontal packing of
                // the tail values (the documented tail rule).
                let full = n / BLOCK;
                let tail_words = crate::pack_vec(&c[full * BLOCK..], b);
                assert_eq!(&packed[full * words_per_block(b)..], &tail_words[..], "b={b} n={n}");
            }
        }
    }

    #[test]
    fn get_one_agrees_with_bulk() {
        for b in [1u32, 2, 5, 9, 17, 31, 32] {
            let n = 400;
            let c = codes(n, b, 3 * b);
            let packed = pack_vec(&c, b);
            for (i, &want) in c.iter().enumerate() {
                assert_eq!(get_one(&packed, b, n, i), want, "b={b} i={i}");
            }
        }
    }

    #[test]
    fn lane_stride_delta_roundtrip() {
        let n = 300usize;
        let values: Vec<u32> = (0..n as u32).map(|i| 1000 + 3 * i).collect();
        let seeds = [996u32, 997, 998, 999];
        let deltas: Vec<u32> = (0..n)
            .map(|i| {
                let prev = if i < 4 { seeds[i] } else { values[i - 4] };
                values[i].wrapping_sub(prev)
            })
            .collect();
        let b = crate::width_for(&deltas);
        let packed = pack_vec(&deltas, b);
        let mut out = vec![0u32; n];
        unpack_delta32(&packed, b, 0, &seeds, &mut out);
        assert_eq!(out, values);
        // Patch path: prefix over raw deltas matches the fused kernel.
        let mut patched = deltas.clone();
        prefix_sum32(&mut patched, &seeds);
        assert_eq!(patched, values);
    }

    #[test]
    fn cmp_matches_decode_then_test() {
        let n = 1500usize;
        for b in [0u32, 2, 7, 11, 16] {
            let c = codes(n, b, 5 * b + 1);
            let packed = pack_vec(&c, b);
            let (lo, hi) = (mask(b) / 4, mask(b) / 2 + 1);
            for negate in [false, true] {
                let mut got = vec![false; n];
                cmp_range(&packed, b, lo, hi, negate, &mut got);
                let want: Vec<bool> =
                    c.iter().map(|&v| ((v >= lo) & (v <= hi)) != negate).collect();
                assert_eq!(got, want, "b={b} negate={negate}");
            }
            let bits = vec![0x5555_5555_5555_5555u64; 4];
            let mut got = vec![false; n];
            cmp_in_set(&packed, b, &bits, &mut got);
            let want: Vec<bool> = c.iter().map(|&v| crate::cmp::set_has(&bits, v)).collect();
            assert_eq!(got, want, "in_set b={b}");
        }
    }
}
