//! The compressed segment: the paper's Figure 3 layout.
//!
//! A segment holds up to 2^25 values of one column, split in four sections:
//! a fixed header (scheme, width, base), the *entry point* section (one
//! [`EntryPoint`] per 128 values, enabling fine-grained access), the *code
//! section* (bit-packed `b`-bit codes, one per value) and the *exception
//! section* (values stored in uncompressed form). PFOR-DELTA segments carry
//! one extra running-sum restart value per block; PDICT segments carry the
//! dictionary.
//!
//! Decompression is block-wise: callers pull 128-value blocks (or any run
//! of blocks) into a caller-provided buffer, which is what makes RAM→CPU
//! cache decompression possible — the working set of a decode call is one
//! block of codes plus the output vector, both cache-resident.

use crate::error::Error;
use crate::patch::{walk_patch_list, walk_patch_list_fused, EntryPoint, BLOCK, MAX_SEGMENT_VALUES};
use crate::value::Value;
use scc_bitpack::{get_one, packed_words, unpack};

/// Physical layout of the bit-packed code section.
///
/// Both layouts pack the same `b`-bit codes into the same number of
/// words at the same block offsets (`blk * 4 * b`); they differ only in
/// the order bits land inside a 128-value block. Horizontal is the
/// paper's layout (logical order, groups of 32); vertical interleaves
/// four lanes word-wise so SIMD decoders need no cross-lane shuffles
/// (see [`scc_bitpack::vert`]). A trailing partial block is stored
/// horizontally in either layout. The wire format records the layout in
/// the version/scheme bytes (v3 = vertical; v2 is always horizontal).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Layout {
    /// Paper layout: codes packed in logical value order.
    #[default]
    Horizontal,
    /// SIMD-BP128-style 4-lane layout; DELTA uses lane-stride deltas.
    Vertical,
}

impl Layout {
    /// Lower-case name used in reports and metric names.
    pub fn name(self) -> &'static str {
        match self {
            Layout::Horizontal => "horizontal",
            Layout::Vertical => "vertical",
        }
    }
}

/// Which of the three patched schemes a segment uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchemeKind {
    /// Patched frame-of-reference: codes are offsets from `base`.
    Pfor,
    /// PFOR over the first differences; decode ends with a running sum.
    PforDelta,
    /// Patched dictionary: codes index the segment's dictionary.
    Pdict,
}

impl SchemeKind {
    /// Stable numeric tag used by the wire format.
    pub fn tag(self) -> u8 {
        match self {
            SchemeKind::Pfor => 1,
            SchemeKind::PforDelta => 2,
            SchemeKind::Pdict => 3,
        }
    }

    /// Inverse of [`tag`](Self::tag).
    pub fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            1 => Some(SchemeKind::Pfor),
            2 => Some(SchemeKind::PforDelta),
            3 => Some(SchemeKind::Pdict),
            _ => None,
        }
    }
}

/// A compressed column segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segment<V: Value> {
    pub(crate) scheme: SchemeKind,
    pub(crate) n: usize,
    pub(crate) b: u32,
    /// Code-domain base: the FOR base for PFOR, the delta base for
    /// PFOR-DELTA, unused for PDICT.
    pub(crate) base: V,
    pub(crate) entries: Vec<EntryPoint>,
    /// PFOR-DELTA only: value of the element preceding each block (the
    /// running-sum restart). `delta_bases[0]` is the segment seed.
    pub(crate) delta_bases: Vec<V>,
    /// Bit-packed codes, [`scc_bitpack`] group layout.
    pub(crate) codes: Vec<u32>,
    /// Exception values in positional order.
    pub(crate) exceptions: Vec<V>,
    /// PDICT only: the dictionary (codes index into it).
    pub(crate) dict: Vec<V>,
    /// Physical order of the packed codes: see [`Layout`].
    pub(crate) layout: Layout,
}

// Compile-time proof that segments cross threads: the parallel scan in
// `scc-storage` shares `Arc`-held column stores (and the segments inside
// them) across worker threads, which is sound because [`Value`] requires
// `Send + Sync` and a segment is plain owned data on top of it.
const _: () = {
    const fn check<T: Send + Sync>() {}
    const fn every_segment_is_send_sync<V: Value>() {
        check::<Segment<V>>();
    }
    every_segment_is_send_sync::<u32>();
    every_segment_is_send_sync::<i32>();
    every_segment_is_send_sync::<u64>();
    every_segment_is_send_sync::<i64>();
};

/// Size and composition report for a segment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SegmentStats {
    /// Values in the segment.
    pub n: usize,
    /// Code width in bits.
    pub b: u32,
    /// Total exceptions (including compulsory ones).
    pub exceptions: usize,
    /// Serialized size in bytes (header + all sections).
    pub compressed_bytes: usize,
    /// Size of the values as a plain array.
    pub uncompressed_bytes: usize,
    /// `uncompressed_bytes / compressed_bytes`.
    pub ratio: f64,
    /// Average compressed bits per value.
    pub bits_per_value: f64,
}

impl<V: Value> Segment<V> {
    /// Number of values in the segment.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the segment holds no values.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The compression scheme in use.
    #[inline]
    pub fn scheme(&self) -> SchemeKind {
        self.scheme
    }

    /// Code width in bits.
    #[inline]
    pub fn bit_width(&self) -> u32 {
        self.b
    }

    /// Physical layout of the code section.
    #[inline]
    pub fn layout(&self) -> Layout {
        self.layout
    }

    /// Total number of exception values (data-driven plus compulsory).
    #[inline]
    pub fn exception_count(&self) -> usize {
        self.exceptions.len()
    }

    /// The PDICT dictionary (empty for other schemes).
    #[inline]
    pub fn dictionary(&self) -> &[V] {
        &self.dict
    }

    /// Number of 128-value blocks.
    #[inline]
    pub fn n_blocks(&self) -> usize {
        self.n.div_ceil(BLOCK)
    }

    /// Length of block `blk` (always 128 except possibly the last).
    #[inline]
    pub fn block_len(&self, blk: usize) -> usize {
        debug_assert!(blk < self.n_blocks());
        if (blk + 1) * BLOCK <= self.n {
            BLOCK
        } else {
            self.n - blk * BLOCK
        }
    }

    /// `(patch_start, first_exception_index, exception_count)` for a block.
    #[inline]
    pub(crate) fn block_exceptions(&self, blk: usize) -> (u32, usize, usize) {
        let e = self.entries[blk];
        let start = e.exception_start() as usize;
        let end = if blk + 1 < self.entries.len() {
            self.entries[blk + 1].exception_start() as usize
        } else {
            self.exceptions.len()
        };
        (e.patch_start(), start, end - start)
    }

    /// Word offset of block `blk` in the code section.
    #[inline]
    pub(crate) fn block_word_offset(&self, blk: usize) -> usize {
        // Full blocks are 128 values = 4 bit-pack groups = 4*b words.
        blk * 4 * self.b as usize
    }

    /// The code words available to block `blk`'s unpack, or the
    /// [`Error::CorruptCodes`] describing the shortfall. The slice runs to
    /// the end of the code section (not just this block's words): the
    /// SIMD unpack kernels may read ahead within the section, and giving
    /// them the full remainder lets every non-final block take the
    /// vectorized path.
    #[inline]
    pub(crate) fn block_codes(&self, blk: usize, len: usize) -> Result<&[u32], Error> {
        let off = self.block_word_offset(blk);
        let need = packed_words(len, self.b);
        match self.codes.get(off..) {
            Some(codes) if codes.len() >= need => Ok(codes),
            other => {
                Err(Error::CorruptCodes { block: blk, need, have: other.map_or(0, <[u32]>::len) })
            }
        }
    }

    /// Decompresses block `blk` into `out[..len]`; returns `len`, or
    /// [`Error::CorruptCodes`] when the code section is shorter than the
    /// segment's own layout promises (possible only through in-memory
    /// corruption — the wire format validates section lengths at load). On error `out` may hold partially decoded garbage.
    ///
    /// This is the two-loop patched decode of §3.1, fused: LOOP1 is a
    /// single kernel pass that unpacks every code and applies the
    /// frame-of-reference/delta arithmetic in registers; LOOP2 walks the
    /// linked exception list and patches the wrong values in place,
    /// recovering each gap code from the already-decoded output
    /// (`out[pos] - base`) so the block's codes are never materialized.
    pub fn try_decode_block(&self, blk: usize, out: &mut [V]) -> Result<usize, Error> {
        let len = self.block_len(blk);
        debug_assert!(out.len() >= len);
        let out = &mut out[..len];
        let codes = self.block_codes(blk, len)?;
        let (patch_start, exc_start, exc_count) = self.block_exceptions(blk);
        let vertical = self.layout == Layout::Vertical;
        match self.scheme {
            SchemeKind::Pfor => {
                // LOOP1: fused unpack + FOR add, no intermediate code
                // buffer. The vertical kernels handle a trailing partial
                // block themselves (it is stored horizontally), so the
                // dispatch is uniform per block.
                if vertical {
                    V::vert_unpack_for(codes, self.b, self.base, out);
                } else {
                    V::fused_unpack_for(codes, self.b, self.base, out);
                }
                // LOOP2: patch it up. A pre-patch exception slot holds
                // `base + gap_code`, so the gap is recovered exactly by
                // the wrapping inverse (gap codes are < 2^32). The gap
                // arithmetic is layout-independent — it reads the decoded
                // output, never the packed words.
                walk_patch_list_fused(patch_start, exc_count, len, |pos, k| {
                    let gap = out[pos].wrapping_offset(self.base) as u32;
                    out[pos] = self.exceptions[exc_start + k];
                    gap
                });
            }
            SchemeKind::Pdict => {
                // Dictionary lookup cannot be fused into the unpack (the
                // codes index a table, they don't feed arithmetic), so
                // this scheme keeps a stack code buffer. LOOP1 is a
                // branch-free lookup; exception slots hold gap codes that
                // may exceed the dictionary, so clamp (compiles to a
                // conditional move, not a branch).
                let mut code = [0u32; BLOCK];
                let code = &mut code[..len];
                // Validated above; dispatches the same kernel tier.
                if vertical {
                    scc_bitpack::vert::unpack(codes, self.b, code);
                } else {
                    unpack(codes, self.b, code);
                }
                let last = self.dict.len() - 1;
                for (o, &c) in out.iter_mut().zip(code.iter()) {
                    *o = self.dict[(c as usize).min(last)];
                }
                walk_patch_list(
                    patch_start,
                    exc_count,
                    len,
                    |p| code[p],
                    |pos, k| out[pos] = self.exceptions[exc_start + k],
                );
            }
            SchemeKind::PforDelta if vertical => {
                // Vertical DELTA stores lane-stride deltas
                // (`d[i] = v[i] - v[i-4]`) and four running-sum seeds per
                // block, so the prefix sum is four independent chains —
                // exactly the shape the 4-lane SIMD prefix-sum kernel
                // wants. Patch before the running sum, as horizontally.
                let seeds: [V; 4] = self.delta_bases[blk * 4..blk * 4 + 4]
                    .try_into()
                    .expect("vertical PFOR-DELTA carries 4 seeds per block");
                if exc_count == 0 {
                    V::vert_unpack_delta(codes, self.b, self.base, &seeds, out);
                } else {
                    V::vert_unpack_for(codes, self.b, self.base, out);
                    walk_patch_list_fused(patch_start, exc_count, len, |pos, k| {
                        let gap = out[pos].wrapping_offset(self.base) as u32;
                        out[pos] = self.exceptions[exc_start + k];
                        gap
                    });
                    V::vert_prefix_sum(out, &seeds);
                }
            }
            SchemeKind::PforDelta => {
                // Patch before the running sum (footnote 3 of the paper).
                if exc_count == 0 {
                    // Fully fused: unpack + delta-base add + running sum
                    // in one kernel pass.
                    V::fused_unpack_delta(codes, self.b, self.base, self.delta_bases[blk], out);
                } else {
                    // LOOP1 decodes deltas (fused unpack + base add),
                    // LOOP2 patches exception deltas (gap codes recovered
                    // from the decoded deltas, as for PFOR), LOOP3 is the
                    // dispatched prefix-sum kernel.
                    V::fused_unpack_for(codes, self.b, self.base, out);
                    walk_patch_list_fused(patch_start, exc_count, len, |pos, k| {
                        let gap = out[pos].wrapping_offset(self.base) as u32;
                        out[pos] = self.exceptions[exc_start + k];
                        gap
                    });
                    V::prefix_sum(out, self.delta_bases[blk]);
                }
            }
        }
        Ok(len)
    }

    /// Decompresses the whole segment, appending to `out`.
    pub fn decompress_into(&self, out: &mut Vec<V>) {
        let start = scc_obs::clock();
        out.reserve(self.n);
        let mut buf = [V::default(); BLOCK];
        for blk in 0..self.n_blocks() {
            let len = self.try_decode_block(blk, &mut buf).unwrap_or_else(|e| panic!("{e}"));
            out.extend_from_slice(&buf[..len]);
        }
        if let Some(t) = start {
            crate::telemetry::record_decode(
                self.scheme,
                self.n as u64,
                self.n_blocks() as u64,
                scc_obs::elapsed_ns(t),
            );
        }
    }

    /// Decompresses the whole segment into a fresh vector.
    pub fn decompress(&self) -> Vec<V> {
        let mut out = Vec::with_capacity(self.n);
        self.decompress_into(&mut out);
        out
    }

    /// Decompresses values `[start, start + out.len())` into `out`.
    /// `start` must be block-aligned (multiple of 128); the length may end
    /// mid-block. This is the vector-wise granularity used by the scan.
    /// Every whole block decodes straight into its slice of `out`; only a
    /// trailing partial take goes through a stack block.
    ///
    /// Returns [`Error::UnalignedRange`] for a misaligned start and
    /// [`Error::RangeOutOfBounds`] for a range past the end (in both
    /// cases `out` is untouched), or [`Error::CorruptCodes`] when a
    /// block's code section is truncated (blocks decoded before the
    /// corrupt one remain in `out`).
    pub fn try_decode_range(&self, start: usize, out: &mut [V]) -> Result<(), Error> {
        if !start.is_multiple_of(BLOCK) {
            return Err(Error::UnalignedRange { start });
        }
        if start + out.len() > self.n {
            return Err(Error::RangeOutOfBounds { start, len: out.len(), n: self.n });
        }
        let t0 = scc_obs::clock();
        let mut written = 0;
        let mut blk = start / BLOCK;
        while written < out.len() {
            let rest = &mut out[written..];
            if rest.len() >= self.block_len(blk) {
                written += self.try_decode_block(blk, rest)?;
            } else {
                let mut buf = [V::default(); BLOCK];
                self.try_decode_block(blk, &mut buf)?;
                rest.copy_from_slice(&buf[..rest.len()]);
                written = out.len();
            }
            blk += 1;
        }
        if let Some(t) = t0 {
            crate::telemetry::record_decode(
                self.scheme,
                out.len() as u64,
                (blk - start / BLOCK) as u64,
                scc_obs::elapsed_ns(t),
            );
        }
        Ok(())
    }

    /// Fine-grained random access: the value at position `x`, without
    /// decompressing the rest of the block (except for PFOR-DELTA, which
    /// must reconstruct the running sum of its block — §3.1 "Fine-Grained
    /// Access"). Returns [`Error::IndexOutOfBounds`] for `x >= len` and
    /// [`Error::CorruptDictCode`] when a PDICT code exceeds the
    /// dictionary at a position the patch walk ruled out as an exception.
    pub fn try_get(&self, x: usize) -> Result<V, Error> {
        if x < self.n {
            self.get_checked_pos(x)
        } else {
            Err(Error::IndexOutOfBounds { index: x, n: self.n })
        }
    }

    /// Infallible [`try_get`](Self::try_get): panics when `x` is out of
    /// bounds.
    pub fn get(&self, x: usize) -> V {
        match self.try_get(x) {
            Ok(v) => v,
            Err(e) => panic!("{e}"),
        }
    }

    /// The fine-grained access kernel; `x` must already be bounds-checked.
    fn get_checked_pos(&self, x: usize) -> Result<V, Error> {
        debug_assert!(x < self.n);
        let blk = x / BLOCK;
        if self.scheme == SchemeKind::PforDelta {
            let mut buf = [V::default(); BLOCK];
            self.try_decode_block(blk, &mut buf)?;
            return Ok(buf[x % BLOCK]);
        }
        let local = (x % BLOCK) as u32;
        let (patch_start, exc_start, exc_count) = self.block_exceptions(blk);
        let word_base = self.block_word_offset(blk);
        let blk_len = self.block_len(blk);
        let code_at = |p: u32| match self.layout {
            Layout::Horizontal => get_one(&self.codes[word_base..], self.b, p as usize),
            // The vertical accessor needs the block length to tell a full
            // (vertical) block from a horizontal tail block.
            Layout::Vertical => {
                scc_bitpack::vert::get_one(&self.codes[word_base..], self.b, blk_len, p as usize)
            }
        };
        // Walk the linked list until we reach or pass x.
        let mut i = patch_start;
        let mut k = 0usize;
        while k < exc_count && i < local {
            i += code_at(i) + 1;
            k += 1;
        }
        if k < exc_count && i == local {
            Ok(self.exceptions[exc_start + k])
        } else {
            let c = code_at(local);
            match self.scheme {
                SchemeKind::Pfor => Ok(V::apply_offset(self.base, c)),
                // Unlike LOOP1 (where pre-patch positions legitimately
                // hold oversized gap codes and are clamped before being
                // overwritten), the patch walk above has already ruled
                // this position out as an exception — an oversized code
                // here is corruption, not a gap.
                SchemeKind::Pdict => match self.dict.get(c as usize) {
                    Some(&v) => Ok(v),
                    None => Err(Error::CorruptDictCode {
                        index: x,
                        code: c as u64,
                        dict_len: self.dict.len(),
                    }),
                },
                SchemeKind::PforDelta => unreachable!("handled above"),
            }
        }
    }

    /// A streaming iterator over the decompressed values: decodes one
    /// 128-value block at a time into an internal buffer, so iterating a
    /// 32 MB segment never materializes more than one block — the same
    /// cache-residency property the vectorized scan relies on.
    pub fn iter(&self) -> SegmentIter<'_, V> {
        SegmentIter { seg: self, buf: [V::default(); BLOCK], blk: 0, pos: 0, len: 0 }
    }

    /// Serialized size in bytes of each section, `(header, entry_points,
    /// codes, exceptions, extra)` where `extra` covers delta bases or the
    /// dictionary. The header component includes the checksum block.
    pub fn section_bytes(&self) -> (usize, usize, usize, usize, usize) {
        let w = V::byte_width();
        (
            crate::wire::HEADER_BYTES_V2,
            self.entries.len() * 4,
            self.codes.len() * 4,
            self.exceptions.len() * w,
            self.delta_bases.len() * w + self.dict.len() * w,
        )
    }

    /// Total serialized size in bytes.
    pub fn compressed_bytes(&self) -> usize {
        let (h, e, c, x, d) = self.section_bytes();
        h + e + c + x + d
    }

    /// Size and composition report.
    pub fn stats(&self) -> SegmentStats {
        let compressed = self.compressed_bytes();
        let uncompressed = self.n * V::byte_width();
        SegmentStats {
            n: self.n,
            b: self.b,
            exceptions: self.exceptions.len(),
            compressed_bytes: compressed,
            uncompressed_bytes: uncompressed,
            ratio: uncompressed as f64 / compressed as f64,
            bits_per_value: compressed as f64 * 8.0 / self.n.max(1) as f64,
        }
    }
}

/// Streaming block-buffered iterator over a segment's values.
pub struct SegmentIter<'a, V: Value> {
    seg: &'a Segment<V>,
    buf: [V; BLOCK],
    blk: usize,
    pos: usize,
    len: usize,
}

impl<V: Value> Iterator for SegmentIter<'_, V> {
    type Item = V;

    fn next(&mut self) -> Option<V> {
        if self.pos >= self.len {
            if self.blk >= self.seg.n_blocks() {
                return None;
            }
            self.len = self
                .seg
                .try_decode_block(self.blk, &mut self.buf)
                .unwrap_or_else(|e| panic!("{e}"));
            self.blk += 1;
            self.pos = 0;
        }
        let v = self.buf[self.pos];
        self.pos += 1;
        Some(v)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let done = (self.blk.saturating_sub(1)) * BLOCK + self.pos;
        let remaining = self.seg.n.saturating_sub(done.min(self.seg.n));
        (remaining, Some(remaining))
    }
}

impl<V: Value> ExactSizeIterator for SegmentIter<'_, V> {}

impl<'a, V: Value> IntoIterator for &'a Segment<V> {
    type Item = V;
    type IntoIter = SegmentIter<'a, V>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Internal builder shared by the three encoders: takes the unpacked codes
/// and the sorted *data-driven* miss positions, inserts compulsory
/// exceptions, writes the per-block linked lists and entry points, packs
/// the codes and assembles the [`Segment`].
pub(crate) struct SegmentAssembly<'a, V: Value> {
    pub scheme: SchemeKind,
    pub b: u32,
    pub base: V,
    /// Unpacked codes, one per value; exception slots are overwritten with
    /// gap codes here.
    pub codes: &'a mut [u32],
    /// Sorted global positions of data-driven exceptions.
    pub miss: &'a [u32],
    /// PFOR-DELTA running-sum restarts (empty otherwise): one per block
    /// horizontally, four per block vertically.
    pub delta_bases: Vec<V>,
    /// PDICT dictionary (empty otherwise).
    pub dict: Vec<V>,
    /// Physical order to pack the codes in.
    pub layout: Layout,
}

impl<'a, V: Value> SegmentAssembly<'a, V> {
    /// Finalizes the segment. `exception_value(pos)` supplies the value to
    /// store in the exception section for a (possibly compulsory) exception
    /// at global position `pos`.
    pub fn finish(self, mut exception_value: impl FnMut(usize) -> V) -> Segment<V> {
        let n = self.codes.len();
        assert!(n <= MAX_SEGMENT_VALUES, "segment too large: {n} values");
        let n_blocks = n.div_ceil(BLOCK);
        let mut entries = Vec::with_capacity(n_blocks);
        let mut exceptions = Vec::with_capacity(self.miss.len());
        let mut block_miss: Vec<u32> = Vec::with_capacity(BLOCK);
        let mut planned: Vec<u32> = Vec::with_capacity(BLOCK);
        let mut mi = 0usize;
        for blk in 0..n_blocks {
            let lo = blk * BLOCK;
            let hi = (lo + BLOCK).min(n);
            block_miss.clear();
            while mi < self.miss.len() && (self.miss[mi] as usize) < hi {
                block_miss.push(self.miss[mi] - lo as u32);
                mi += 1;
            }
            crate::patch::plan_block_exceptions(&block_miss, self.b, &mut planned);
            let patch_start = planned.first().copied().unwrap_or(0);
            entries.push(EntryPoint::new(patch_start, exceptions.len() as u32));
            for &p in &planned {
                exceptions.push(exception_value(lo + p as usize));
            }
            crate::patch::write_gap_codes(&mut self.codes[lo..hi], &planned);
        }
        debug_assert_eq!(mi, self.miss.len());
        crate::telemetry::record_encode(
            self.scheme,
            self.layout,
            n as u64,
            exceptions.len() as u64,
            self.b,
        );
        let codes = match self.layout {
            Layout::Horizontal => scc_bitpack::pack_vec(self.codes, self.b),
            Layout::Vertical => scc_bitpack::vert::pack_vec(self.codes, self.b),
        };
        Segment {
            scheme: self.scheme,
            n,
            b: self.b,
            base: self.base,
            entries,
            delta_bases: self.delta_bases,
            codes,
            exceptions,
            dict: self.dict,
            layout: self.layout,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Truncating the code section out from under a segment must surface
    /// [`Error::CorruptCodes`] from the fallible decode entry points, not
    /// a panic — this is the server-worker safety contract. Only this
    /// unit test can build such a segment: the wire loader validates
    /// section lengths, so the truncation is done on the private field.
    #[test]
    fn truncated_codes_error_instead_of_panicking() {
        let values: Vec<u32> = (0..300u32).map(|i| i * 3 + (i % 7) * 1000).collect();
        let mut seg = crate::pfor::compress(&values, 0, 8);
        assert!(seg.codes.len() > 2, "test needs a non-trivial code section");
        seg.codes.truncate(seg.codes.len() / 2);

        let mut out = vec![0u32; 300];
        let err = seg.try_decode_range(0, &mut out).unwrap_err();
        assert!(matches!(err, Error::CorruptCodes { .. }), "expected CorruptCodes, got {err:?}");
        let mut block = [0u32; BLOCK];
        let blk_err = seg.try_decode_block(seg.n_blocks() - 1, &mut block).unwrap_err();
        match blk_err {
            Error::CorruptCodes { block, need, have } => {
                assert_eq!(block, seg.n_blocks() - 1);
                assert!(have < need, "have {have} must fall short of need {need}");
            }
            other => panic!("expected CorruptCodes, got {other:?}"),
        }
        // Earlier, untruncated blocks still decode.
        assert_eq!(seg.try_decode_block(0, &mut block).unwrap(), BLOCK);
        assert_eq!(block[..5], values[..5]);
    }

    /// A code section cut short in the middle of a range: both range
    /// entry points report the first short block and leave the blocks
    /// before it written and the rest of `out` untouched, in both layouts.
    #[test]
    fn codes_truncated_mid_range_keep_earlier_blocks() {
        use crate::predicate::{PredOp, ValuePred};
        let values: Vec<u32> = (0..1000u32).map(|i| (i * 7) % 200).collect();
        let (start, bad) = (BLOCK, 5);
        let done = bad * BLOCK - start;
        for layout in [Layout::Horizontal, Layout::Vertical] {
            let mut seg = crate::pfor::compress_in(&values, 0, 8, Default::default(), layout);
            let pred = ValuePred::Cmp { op: PredOp::Lt, lit: 100 };
            let cp = seg.compile_predicate(&pred).expect("PFOR compiles");
            seg.codes.truncate(seg.block_word_offset(bad) + 1);

            let mut out = vec![u32::MAX; values.len() - start];
            let err = seg.try_decode_range(start, &mut out).unwrap_err();
            assert!(matches!(err, Error::CorruptCodes { block: 5, .. }), "{layout:?}: {err:?}");
            assert_eq!(out[..done], values[start..bad * BLOCK], "{layout:?}");
            assert!(out[done..].iter().all(|&v| v == u32::MAX), "{layout:?}");

            let mut sel = vec![false; values.len() - start];
            let err = seg.try_select_range(&cp, start, &mut sel).unwrap_err();
            assert!(matches!(err, Error::CorruptCodes { block: 5, .. }), "{layout:?}: {err:?}");
            let want: Vec<bool> = values[start..bad * BLOCK].iter().map(|&v| v < 100).collect();
            assert_eq!(sel[..done], want, "{layout:?}");
            assert!(sel[done..].iter().all(|&s| !s), "{layout:?}");
        }
    }
}
