//! PFOR-DELTA — PFOR applied to the first differences of the column.
//!
//! Effective for monotone or near-monotone sequences (keys, dates, inverted
//! list positions): the deltas occupy a much narrower range than the
//! values. Decompression is PFOR decompression followed by a running sum;
//! per the paper's footnote 3, patching happens *before* the running sum so
//! the bogus gap codes in exception slots never contaminate the sums.
//!
//! Each 128-value block stores its running-sum restart value (the original
//! value preceding the block), so blocks remain independently decodable.
//! For 32-bit values this costs an extra 32/128 = 0.25 bits per value,
//! bringing fine-grained-access overhead to 0.5 bits per value as reported
//! in §3.1.

use crate::analyze;
use crate::patch::BLOCK;
use crate::pfor::{find_exceptions, CompressKernel};
use crate::segment::{Layout, SchemeKind, Segment, SegmentAssembly};
use crate::value::Value;

/// Vertical lanes per block — one independent running-sum chain each.
const LANES: usize = 4;

/// Compresses `values` with PFOR-DELTA: deltas are taken against `seed`
/// (the value conceptually preceding the segment, usually 0 or the last
/// value of the previous segment), then PFOR-coded at width `b` against
/// `delta_base`.
pub fn compress_with<V: Value>(
    values: &[V],
    seed: V,
    delta_base: V,
    b: u32,
    kernel: CompressKernel,
) -> Segment<V> {
    assert!(b <= 32, "bit width {b} out of range");
    let n = values.len();
    // First differences.
    let mut deltas = Vec::with_capacity(n);
    let mut prev = seed;
    for &v in values {
        deltas.push(v.wrapping_sub_v(prev));
        prev = v;
    }
    // Per-block running-sum restarts: the value preceding each block.
    let n_blocks = n.div_ceil(BLOCK);
    let mut delta_bases = Vec::with_capacity(n_blocks);
    for blk in 0..n_blocks {
        delta_bases.push(if blk == 0 { seed } else { values[blk * BLOCK - 1] });
    }
    let mut codes = vec![0u32; n];
    let mut miss = Vec::new();
    find_exceptions(kernel, &deltas, delta_base, b, &mut codes, &mut miss);
    SegmentAssembly {
        scheme: SchemeKind::PforDelta,
        b,
        base: delta_base,
        codes: &mut codes,
        miss: &miss,
        delta_bases,
        dict: Vec::new(),
        layout: Layout::Horizontal,
    }
    // Exceptions store the raw delta so the running sum stays correct.
    .finish(|pos| deltas[pos])
}

/// Compresses with the default (double-cursor) kernel.
pub fn compress<V: Value>(values: &[V], seed: V, delta_base: V, b: u32) -> Segment<V> {
    compress_with(values, seed, delta_base, b, CompressKernel::default())
}

/// Compresses `values` with *vertical-layout* PFOR-DELTA.
///
/// The vertical decode kernel runs four running sums in four SIMD lanes,
/// so the encoder stores **lane-stride** deltas — `d[i] = v[i] - v[i-4]`
/// (all four chains seeded from `seed`) — and four restart values per
/// block instead of one. For a sequence with near-constant gap `g` the
/// lane deltas concentrate around `4g`, so the chosen width is typically
/// two bits wider than the horizontal delta width; the decode-side win is
/// that the prefix sum has no serial dependence between lanes.
///
/// `delta_base` and `b` describe the *lane-delta* domain, not the
/// value-stride delta domain — use [`compress_vertical`] to derive them
/// automatically.
pub fn compress_vertical_with<V: Value>(
    values: &[V],
    seed: V,
    delta_base: V,
    b: u32,
    kernel: CompressKernel,
) -> Segment<V> {
    assert!(b <= 32, "bit width {b} out of range");
    let n = values.len();
    let lane_prev = |i: usize| if i >= LANES { values[i - LANES] } else { seed };
    let mut deltas = Vec::with_capacity(n);
    for (i, &v) in values.iter().enumerate() {
        deltas.push(v.wrapping_sub_v(lane_prev(i)));
    }
    // Four running-sum restarts per block: each lane's chain predecessor
    // at the block boundary. `blk*BLOCK + lane - LANES` always lands
    // inside the previous block (or before the segment), so it is a valid
    // index even when the final block is shorter than a full lane round.
    let n_blocks = n.div_ceil(BLOCK);
    let mut delta_bases = Vec::with_capacity(n_blocks * LANES);
    for blk in 0..n_blocks {
        for lane in 0..LANES {
            delta_bases.push(lane_prev(blk * BLOCK + lane));
        }
    }
    let mut codes = vec![0u32; n];
    let mut miss = Vec::new();
    find_exceptions(kernel, &deltas, delta_base, b, &mut codes, &mut miss);
    SegmentAssembly {
        scheme: SchemeKind::PforDelta,
        b,
        base: delta_base,
        codes: &mut codes,
        miss: &miss,
        delta_bases,
        dict: Vec::new(),
        layout: Layout::Vertical,
    }
    // Exceptions store the raw lane delta; patched in before the lane
    // prefix sum, exactly as horizontally.
    .finish(|pos| deltas[pos])
}

/// Vertical-layout PFOR-DELTA with `(delta_base, b)` chosen from the
/// lane-delta distribution using the analyzer's cost model
/// (`b + E'(b)·W` over the runs of a sample of the stride-4 deltas).
pub fn compress_vertical<V: Value>(values: &[V], seed: V) -> Segment<V> {
    let sample = values.len().min(64 * 1024);
    let deltas = (0..sample)
        .map(|i| values[i].wrapping_sub_v(if i >= LANES { values[i - LANES] } else { seed }))
        .collect();
    let (delta_base, b) = choose_lane_delta_width(deltas);
    compress_vertical_with(values, seed, delta_base, b, CompressKernel::default())
}

/// Minimizes `b + E'(b)·W` over a lane-delta sample; returns the
/// `(delta_base, b)` of the cheapest width.
fn choose_lane_delta_width<V: Value>(deltas: Vec<V>) -> (V, u32) {
    if deltas.is_empty() {
        return (V::default(), 0);
    }
    let w = V::BITS as f64;
    let mut best = (V::default(), 32u32.min(V::BITS), f64::INFINITY);
    for (base, b, e) in analyze::pfor_widths(&analyze::runs_of(deltas)) {
        let bits = b as f64 + analyze::effective_exception_rate(e, b) * w;
        if bits < best.2 {
            best = (base, b, bits);
        }
    }
    (best.0, best.1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(values: &[u32], seed: u32, delta_base: u32, b: u32) -> Segment<u32> {
        let seg = compress(values, seed, delta_base, b);
        assert_eq!(seg.decompress(), values, "b={b}");
        seg
    }

    #[test]
    fn monotone_sequence_compresses_tightly() {
        let values: Vec<u32> = (0..10_000).map(|i| i * 3).collect();
        // b=2 codes offsets 0..3 from base 0: both the first delta (0) and
        // the constant gap (3) fit, so there are no exceptions at all.
        let seg = roundtrip(&values, 0, 0, 2);
        assert_eq!(seg.exception_count(), 0);
        assert!(seg.stats().ratio > 8.0);
        // With delta_base=3 the first delta (0) wraps negative and becomes
        // the only exception.
        let seg2 = roundtrip(&values, 0, 3, 2);
        assert_eq!(seg2.exception_count(), 1);
    }

    #[test]
    fn dgap_style_lists() {
        // Simulated inverted-list positions: mostly small gaps, rare jumps.
        let mut pos = 0u32;
        let values: Vec<u32> = (0..5000u32)
            .map(|i| {
                pos += if i % 100 == 0 { 100_000 } else { 1 + i % 7 };
                pos
            })
            .collect();
        let seg = roundtrip(&values, 0, 0, 3);
        assert!(seg.exception_count() >= 50);
        assert!(seg.stats().ratio > 3.0);
    }

    #[test]
    fn non_monotone_wrapping_deltas() {
        // Decreasing runs produce wrapping (negative) deltas, which become
        // exceptions but still roundtrip exactly.
        let values: Vec<u32> = (0..1000u32).map(|i| (1000 - i) * 7 % 501).collect();
        roundtrip(&values, 0, 0, 4);
    }

    #[test]
    fn block_restarts_allow_range_decode() {
        let values: Vec<u32> = (0..2000u32).map(|i| i * 2 + (i % 5)).collect();
        let seg = compress(&values, 0, 0, 3);
        let mut out = vec![0u32; 512];
        seg.try_decode_range(1024, &mut out).unwrap();
        assert_eq!(out, &values[1024..1536]);
    }

    #[test]
    fn fine_grained_get_decodes_block() {
        let values: Vec<u32> = (0..300u32).map(|i| i * i).collect();
        let seg = compress(&values, 0, 0, 8);
        for (i, &v) in values.iter().enumerate() {
            assert_eq!(seg.get(i), v, "index {i}");
        }
    }

    #[test]
    fn seed_carries_across_segments() {
        let all: Vec<u32> = (1000..3000).collect();
        let (a, b) = all.split_at(1000);
        let seg_a = compress(a, 0, 1, 1);
        let seg_b = compress(b, a[a.len() - 1], 1, 1);
        let mut out = seg_a.decompress();
        out.extend(seg_b.decompress());
        assert_eq!(out, all);
    }

    #[test]
    fn u64_columns() {
        let values: Vec<u64> = (0..4096u64).map(|i| 1_000_000_000_000 + i * 17).collect();
        let seg = compress(&values, 0, 17, 1);
        assert_eq!(seg.decompress(), values);
        // Huge first delta is the only exception.
        assert_eq!(seg.exception_count(), 1);
    }

    #[test]
    fn empty_input() {
        let seg = compress::<u32>(&[], 0, 0, 4);
        assert!(seg.is_empty());
        assert!(seg.decompress().is_empty());
    }

    #[test]
    fn vertical_roundtrips_and_matches_horizontal_values() {
        // Monotone with jitter and rare jumps: exercises exceptions, the
        // lane prefix sum and a non-multiple-of-128 tail.
        let mut pos = 0u32;
        let values: Vec<u32> = (0..2000u32)
            .map(|i| {
                pos += if i % 100 == 0 { 100_000 } else { 1 + i % 7 };
                pos
            })
            .collect();
        let seg = compress_vertical(&values, 0);
        assert_eq!(seg.layout(), Layout::Vertical);
        assert_eq!(seg.decompress(), values);
        // Four restarts per block.
        assert_eq!(seg.delta_bases.len(), values.len().div_ceil(BLOCK) * 4);
        // Fine-grained access and range decode agree.
        for i in [0usize, 1, 3, 4, 127, 128, 131, 1999] {
            assert_eq!(seg.get(i), values[i], "index {i}");
        }
        let mut out = vec![0u32; 512];
        seg.try_decode_range(1024, &mut out).unwrap();
        assert_eq!(out, &values[1024..1536]);
    }

    #[test]
    fn vertical_signed_and_64bit() {
        let values: Vec<i64> = (0..777i64).map(|i| -1_000_000 + i * 333 + (i % 11)).collect();
        let seg = compress_vertical(&values, 0);
        assert_eq!(seg.decompress(), values);
        for (i, &v) in values.iter().enumerate().step_by(97) {
            assert_eq!(seg.get(i), v);
        }
    }

    #[test]
    fn vertical_tiny_inputs() {
        for n in [0usize, 1, 2, 3, 4, 5, 127, 128, 129] {
            let values: Vec<u32> = (0..n as u32).map(|i| 7 + i * 3).collect();
            let seg = compress_vertical(&values, 0);
            assert_eq!(seg.decompress(), values, "n={n}");
        }
    }
}
