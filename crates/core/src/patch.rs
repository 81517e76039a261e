//! The patch mechanism shared by PFOR, PFOR-DELTA and PDICT.
//!
//! Exception positions within each 128-value block form a linked list: the
//! code slot of an exception stores `gap - 1` where `gap` is the distance to
//! the next exception in the block. Every block starts a fresh list from its
//! entry point, so lists never span blocks and the per-block walk is bounded.
//!
//! When the data leaves a gap larger than `2^b` between two exceptions, a
//! *compulsory exception* is inserted: a codable value stored as an
//! exception anyway, purely to keep the list connected (§3.1, "Compulsory
//! Exceptions").

/// Values per block / entry point. The paper uses 128: the 7-bit
/// `patch_start` field addresses positions 0..=127 exactly.
pub const BLOCK: usize = 128;

/// Maximum number of values in one segment. Entry points store cumulative
/// exception counts in 25 bits, which bounds segments to 2^25 values
/// ("limits our segments to a maximum of 32MB", §3.1).
pub const MAX_SEGMENT_VALUES: usize = 1 << 25;

/// A packed entry point: `patch_start` in the low 7 bits, cumulative
/// `exception_start` in the high 25 bits. Stored once per block; overhead is
/// 32/128 = 0.25 bits per value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EntryPoint(pub u32);

impl EntryPoint {
    /// Packs a block-relative first-exception position and a cumulative
    /// exception count.
    #[inline]
    pub fn new(patch_start: u32, exception_start: u32) -> Self {
        debug_assert!(patch_start < BLOCK as u32);
        debug_assert!(exception_start < (1 << 25));
        EntryPoint(patch_start | (exception_start << 7))
    }

    /// Block-relative position of the first exception (meaningless when the
    /// block has no exceptions; callers must check the block's exception
    /// count first).
    #[inline]
    pub fn patch_start(self) -> u32 {
        self.0 & 0x7f
    }

    /// Number of exceptions in all preceding blocks of the segment.
    #[inline]
    pub fn exception_start(self) -> u32 {
        self.0 >> 7
    }
}

/// Maximum gap (distance between consecutive list entries) representable at
/// width `b`: a gap code of `gap - 1` must fit in `b` bits.
#[inline]
pub fn max_gap(b: u32) -> usize {
    if b >= 7 {
        // Gaps within a 128-value block never exceed 127, so no compulsory
        // exceptions are ever needed at b >= 7.
        BLOCK
    } else {
        1usize << b
    }
}

/// Expands a sorted list of block-relative data-driven exception positions
/// into the final exception position list for one block, inserting
/// compulsory exceptions wherever a gap would exceed `max_gap(b)`.
///
/// `out` is cleared first. Positions are block-relative and strictly
/// increasing on return.
pub fn plan_block_exceptions(miss: &[u32], b: u32, out: &mut Vec<u32>) {
    out.clear();
    let cap = max_gap(b) as u32;
    let mut prev: Option<u32> = None;
    for &pos in miss {
        if let Some(mut p) = prev {
            while pos - p > cap {
                p += cap;
                out.push(p);
            }
        }
        out.push(pos);
        prev = Some(pos);
    }
}

/// Writes the linked-list gap codes into `codes` (one block's worth of
/// unpacked codes) for the exception positions produced by
/// [`plan_block_exceptions`]. The last exception's slot keeps code 0 (the
/// walker stops by count, not by sentinel).
pub fn write_gap_codes(codes: &mut [u32], positions: &[u32]) {
    for w in positions.windows(2) {
        let (cur, next) = (w[0] as usize, w[1] as usize);
        codes[cur] = (next - cur - 1) as u32;
    }
    if let Some(&last) = positions.last() {
        codes[last as usize] = 0;
    }
}

/// Walks one block's patch list: calls `patch(block_relative_pos, k)` for
/// up to `count` exceptions in the block, starting at `patch_start`.
/// `gap_at` must return the unpacked code at a block-relative position.
///
/// This is the paper's LOOP2 — a tight loop whose only inter-iteration
/// dependency is the list pointer (a data hazard, not a control hazard).
///
/// The walk stops early if the list runs past `limit` (the block length):
/// the gap codes live in the checksummed data itself, so a crafted file
/// whose checksums were recomputed can encode a chain that escapes the
/// block. Stopping leaves those values unpatched (garbage in, garbage
/// out) instead of reading out of bounds. The check rides on the loop's
/// existing compare, so clean decode speed is unaffected.
#[inline]
pub fn walk_patch_list(
    patch_start: u32,
    count: usize,
    limit: usize,
    mut gap_at: impl FnMut(usize) -> u32,
    mut patch: impl FnMut(usize, usize),
) {
    walk_patch_list_fused(patch_start, count, limit, |pos, k| {
        let gap = gap_at(pos);
        patch(pos, k);
        gap
    });
}

/// Single-closure [`walk_patch_list`]: `step(pos, k)` must read the gap
/// code at `pos`, apply the patch, and return the gap. The combined
/// closure exists for the fused decode path, which recovers gap codes
/// from the already-FOR-shifted output (`out[pos] - base`) and patches
/// the same slot — one `&mut` capture instead of two conflicting
/// borrows. The gap is necessarily read *before* the patch lands.
#[inline]
pub fn walk_patch_list_fused(
    patch_start: u32,
    count: usize,
    limit: usize,
    mut step: impl FnMut(usize, usize) -> u32,
) {
    let mut pos = patch_start as usize;
    for k in 0..count {
        if pos >= limit {
            break;
        }
        pos += step(pos, k) as usize + 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_point_packing() {
        let e = EntryPoint::new(127, (1 << 25) - 1);
        assert_eq!(e.patch_start(), 127);
        assert_eq!(e.exception_start(), (1 << 25) - 1);
        let z = EntryPoint::new(0, 0);
        assert_eq!(z.0, 0);
    }

    #[test]
    fn max_gap_by_width() {
        assert_eq!(max_gap(0), 1);
        assert_eq!(max_gap(1), 2);
        assert_eq!(max_gap(4), 16);
        assert_eq!(max_gap(6), 64);
        assert_eq!(max_gap(7), 128);
        assert_eq!(max_gap(24), 128);
    }

    #[test]
    fn no_compulsories_when_gaps_fit() {
        let mut out = Vec::new();
        plan_block_exceptions(&[3, 10, 120], 7, &mut out);
        assert_eq!(out, vec![3, 10, 120]);
    }

    #[test]
    fn compulsories_fill_large_gaps() {
        let mut out = Vec::new();
        // b=2 => cap 4. Gap 3->12 needs stepping stones at 7, 11.
        plan_block_exceptions(&[3, 12], 2, &mut out);
        assert_eq!(out, vec![3, 7, 11, 12]);
    }

    #[test]
    fn b_zero_chains_every_position() {
        let mut out = Vec::new();
        plan_block_exceptions(&[2, 5], 0, &mut out);
        assert_eq!(out, vec![2, 3, 4, 5]);
    }

    #[test]
    fn leading_gap_needs_no_compulsories() {
        // patch_start addresses the first exception directly, so a large
        // gap before it costs nothing.
        let mut out = Vec::new();
        plan_block_exceptions(&[100], 1, &mut out);
        assert_eq!(out, vec![100]);
    }

    #[test]
    fn gap_codes_and_walk_roundtrip() {
        let positions = vec![3u32, 7, 11, 120];
        let mut codes = vec![9u32; BLOCK];
        write_gap_codes(&mut codes, &positions);
        assert_eq!(codes[3], 3);
        assert_eq!(codes[7], 3);
        assert_eq!(codes[11], 108);
        assert_eq!(codes[120], 0);
        let mut seen = Vec::new();
        walk_patch_list(3, positions.len(), BLOCK, |p| codes[p], |pos, k| seen.push((pos, k)));
        assert_eq!(seen, vec![(3usize, 0usize), (7, 1), (11, 2), (120, 3)]);
    }

    #[test]
    fn empty_block_walks_nothing() {
        let mut called = false;
        walk_patch_list(0, 0, BLOCK, |_| 0, |_, _| called = true);
        assert!(!called);
    }

    #[test]
    fn runaway_patch_chain_stops_at_the_limit() {
        // A corrupt gap code that points past the block must end the walk,
        // not index out of bounds.
        let codes = vec![200u32; BLOCK];
        let mut seen = Vec::new();
        walk_patch_list(5, 4, BLOCK, |p| codes[p], |pos, k| seen.push((pos, k)));
        assert_eq!(seen, vec![(5, 0)]);
        // A patch_start already past a short block's length patches nothing.
        let mut called = false;
        walk_patch_list(100, 2, 40, |_| 0, |_, _| called = true);
        assert!(!called);
    }
}
