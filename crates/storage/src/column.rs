//! Column stores: segmented, per-segment auto-compressed columns.

use scc_baselines::ByteCodec;
use scc_core::{compress_auto, Error, Plan, Segment, Value, BLOCK};

/// How a column should be compressed at build time.
#[derive(Debug, Clone, Default)]
pub enum Compression {
    /// Run the analyzer per segment and keep whichever representation is
    /// smaller (the paper's per-chunk adaptive choice).
    #[default]
    Auto,
    /// Store plain values only.
    None,
    /// Sybase-IQ style (§2.1): whole pages compressed with LZRW1. No
    /// fine-grained access — any read decompresses the full page, so
    /// these columns should be scanned with
    /// [`crate::DecompressionGranularity::PageWise`].
    Lzrw1Pages,
}

/// One stored segment: compressed or plain.
#[derive(Debug, Clone)]
pub enum StoredSegment<V: Value> {
    /// Patched-compressed segment plus the plan that produced it.
    Compressed(Segment<V>, Plan<V>),
    /// Incompressible segment kept as a raw array; `usize` is its length.
    Plain(usize),
    /// LZRW1-compressed page of raw little-endian values; `usize` is the
    /// value count.
    Lz(Vec<u8>, usize),
}

/// A segmented column of `V` values. The plain values are always kept (as
/// the uncompressed representation scanned by the baseline runs); the
/// compressed representation lives alongside.
#[derive(Debug, Clone)]
pub struct ColumnStore<V: Value> {
    /// Source-of-truth values.
    pub(crate) plain: Vec<V>,
    /// One entry per segment.
    pub(crate) segments: Vec<StoredSegment<V>>,
    /// Rows per segment.
    pub(crate) seg_rows: usize,
}

impl<V: Value> ColumnStore<V> {
    /// Builds a column store, compressing each segment per `compression`.
    pub fn build(values: Vec<V>, seg_rows: usize, compression: &Compression) -> Self {
        assert!(seg_rows > 0 && seg_rows.is_multiple_of(scc_core::BLOCK));
        let mut segments = Vec::with_capacity(values.len().div_ceil(seg_rows).max(1));
        for chunk in values.chunks(seg_rows.max(1)) {
            let stored = match compression {
                Compression::None => StoredSegment::Plain(chunk.len()),
                Compression::Lzrw1Pages => {
                    let mut raw = Vec::with_capacity(chunk.len() * V::byte_width());
                    for &v in chunk {
                        v.write_le(&mut raw);
                    }
                    let page = scc_baselines::lzrw1::Lzrw1.compress_vec(&raw);
                    if page.len() < raw.len() {
                        StoredSegment::Lz(page, chunk.len())
                    } else {
                        StoredSegment::Plain(chunk.len())
                    }
                }
                Compression::Auto => match compress_auto(chunk) {
                    Some((seg, plan)) if seg.compressed_bytes() < chunk.len() * V::byte_width() => {
                        StoredSegment::Compressed(seg, plan)
                    }
                    _ => StoredSegment::Plain(chunk.len()),
                },
            };
            segments.push(stored);
        }
        Self { plain: values, segments, seg_rows }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.plain.len()
    }

    /// True when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.plain.is_empty()
    }

    /// Number of segments.
    pub fn n_segments(&self) -> usize {
        self.segments.len()
    }

    /// Plain (uncompressed) size in bytes.
    pub fn plain_bytes(&self) -> u64 {
        (self.plain.len() * V::byte_width()) as u64
    }

    /// Compressed size in bytes (plain segments count at full width).
    pub fn compressed_bytes(&self) -> u64 {
        (0..self.segments.len()).map(|s| self.segment_bytes(s)).sum()
    }

    /// Compressed bytes of one segment.
    pub fn segment_bytes(&self, seg: usize) -> u64 {
        match &self.segments[seg] {
            StoredSegment::Compressed(s, _) => s.compressed_bytes() as u64,
            StoredSegment::Plain(n) => (*n * V::byte_width()) as u64,
            StoredSegment::Lz(page, _) => page.len() as u64,
        }
    }

    /// Decodes `out.len()` values starting at `offset` *within* segment
    /// `seg` from the compressed representation. `offset` must be
    /// 128-block aligned.
    ///
    /// A segment index past the column, an unaligned offset, or a range
    /// past the segment's end all come back as typed errors, uniformly
    /// across compressed, plain and LZRW1-page segments (the analyzer's
    /// per-segment storage choice must not change which requests fail).
    ///
    /// LZRW1-page segments have no fine-grained access: every call
    /// decompresses the full page (scan them page-wise to amortize).
    pub fn try_decode_segment_range(
        &self,
        seg: usize,
        offset: usize,
        out: &mut [V],
    ) -> Result<(), Error> {
        if seg >= self.segments.len() {
            return Err(Error::SegmentRangeOutOfBounds {
                start: seg,
                end: seg + 1,
                n_segments: self.segments.len(),
            });
        }
        let rows_in_seg = match &self.segments[seg] {
            StoredSegment::Compressed(s, _) => s.len(),
            StoredSegment::Plain(n) | StoredSegment::Lz(_, n) => *n,
        };
        if !offset.is_multiple_of(BLOCK) {
            return Err(Error::UnalignedRange { start: offset });
        }
        if offset + out.len() > rows_in_seg {
            return Err(Error::RangeOutOfBounds { start: offset, len: out.len(), n: rows_in_seg });
        }
        match &self.segments[seg] {
            StoredSegment::Compressed(s, _) => s.try_decode_range(offset, out),
            StoredSegment::Plain(_) => {
                let base = seg * self.seg_rows + offset;
                out.copy_from_slice(&self.plain[base..base + out.len()]);
                Ok(())
            }
            StoredSegment::Lz(..) => {
                self.decode_segment_range_with(seg, offset, out, &mut Vec::new());
                Ok(())
            }
        }
    }

    /// [`Self::try_decode_segment_range`] for ranges the scan computed
    /// itself (panics on a bad one), with a caller-owned byte buffer
    /// for the LZRW1 page decompression, so repeated reads (a scan)
    /// reuse one allocation instead of building a fresh page per call.
    /// Compressed and plain segments never touch `lz_scratch`.
    pub fn decode_segment_range_with(
        &self,
        seg: usize,
        offset: usize,
        out: &mut [V],
        lz_scratch: &mut Vec<u8>,
    ) {
        match &self.segments[seg] {
            StoredSegment::Lz(page, n) => {
                let w = V::byte_width();
                lz_scratch.clear();
                scc_baselines::lzrw1::Lzrw1.decompress(page, *n * w, lz_scratch);
                for (o, chunk) in out.iter_mut().zip(lz_scratch[offset * w..].chunks_exact(w)) {
                    *o = V::read_le(chunk);
                }
            }
            _ => self.try_decode_segment_range(seg, offset, out).unwrap_or_else(|e| panic!("{e}")),
        }
    }

    /// Reads `out.len()` values starting at global row `row_start` from
    /// the *compressed* representation — the slice-granular access path
    /// (§4.3): only the 128-value blocks covering the requested rows
    /// are decoded, across however many segments the range touches.
    /// Out-of-bounds ranges report [`Error::RangeOutOfBounds`] against
    /// the column's row count.
    pub fn try_read_rows(&self, row_start: usize, out: &mut [V]) -> Result<(), Error> {
        self.try_read_rows_with(row_start, out, &mut Vec::new())
    }

    /// [`Self::try_read_rows`] with a caller-owned LZRW1 page buffer.
    ///
    /// Steady-state reads allocate nothing: plain segments copy
    /// directly, LZRW1 segments decompress their page once into
    /// `lz_scratch`, and patched segments decode any misaligned head
    /// block through a stack buffer and the aligned remainder straight
    /// into `out`.
    pub fn try_read_rows_with(
        &self,
        row_start: usize,
        out: &mut [V],
        lz_scratch: &mut Vec<u8>,
    ) -> Result<(), Error> {
        let row_len = out.len();
        let oob = Error::RangeOutOfBounds { start: row_start, len: row_len, n: self.plain.len() };
        let end = row_start.checked_add(row_len).ok_or(oob.clone())?;
        if end > self.plain.len() {
            return Err(oob);
        }
        let mut filled = 0usize;
        while filled < row_len {
            let pos = row_start + filled;
            let seg = pos / self.seg_rows;
            let offset = pos % self.seg_rows;
            let seg_len = self.seg_rows.min(self.plain.len() - seg * self.seg_rows);
            let take = (seg_len - offset).min(row_len - filled);
            match &self.segments[seg] {
                StoredSegment::Plain(_) => {
                    let base = seg * self.seg_rows + offset;
                    out[filled..filled + take].copy_from_slice(&self.plain[base..base + take]);
                }
                StoredSegment::Lz(page, n) => {
                    // Raw little-endian values: no block alignment to
                    // respect, one page decompression serves the span.
                    let w = V::byte_width();
                    lz_scratch.clear();
                    scc_baselines::lzrw1::Lzrw1.decompress(page, *n * w, lz_scratch);
                    for (o, chunk) in out[filled..filled + take]
                        .iter_mut()
                        .zip(lz_scratch[offset * w..].chunks_exact(w))
                    {
                        *o = V::read_le(chunk);
                    }
                }
                StoredSegment::Compressed(s, _) => {
                    // A misaligned head decodes its block into a stack
                    // buffer; from the next block boundary on, decode
                    // lands directly in `out` (ranges may end mid-block).
                    let skip = offset % BLOCK;
                    let mut taken = 0usize;
                    if skip != 0 {
                        let blk_start = offset - skip;
                        let blk_len = BLOCK.min(s.len() - blk_start);
                        let mut buf = [V::default(); BLOCK];
                        s.try_decode_range(blk_start, &mut buf[..blk_len])?;
                        taken = take.min(blk_len - skip);
                        out[filled..filled + taken].copy_from_slice(&buf[skip..skip + taken]);
                    }
                    if taken < take {
                        s.try_decode_range(
                            offset + taken,
                            &mut out[filled + taken..filled + take],
                        )?;
                    }
                }
            }
            filled += take;
        }
        Ok(())
    }

    /// The checksummed (v2 or v3) wire bytes of one segment, borrowed
    /// from the image the segment is resident as, when it has a
    /// checksummed representation: `None` for plain and LZRW1-page
    /// segments, whose formats carry no integrity metadata — corruption
    /// of those is undetectable by design and fault injection skips them.
    pub fn segment_wire(&self, seg: usize) -> Option<&[u8]> {
        match &self.segments[seg] {
            StoredSegment::Compressed(s, _) => Some(s.wire_bytes()),
            StoredSegment::Plain(_) | StoredSegment::Lz(..) => None,
        }
    }

    /// An owned copy of [`segment_wire`](Self::segment_wire).
    pub fn segment_wire_bytes(&self, seg: usize) -> Option<Vec<u8>> {
        self.segment_wire(seg).map(<[u8]>::to_vec)
    }

    /// Reads from the plain representation (uncompressed scan mode).
    pub fn read_plain(&self, start: usize, out: &mut [V]) {
        out.copy_from_slice(&self.plain[start..start + out.len()]);
    }

    /// Fine-grained point lookup from the *compressed* representation
    /// (§3.1 "Fine-Grained Access"): a few hundred cycles for patched
    /// segments, a full page decompression for LZRW1 pages (which is why
    /// the paper's schemes, not page codecs, enable OLTP-ish access).
    pub fn get_compressed(&self, row: usize) -> V {
        let seg = row / self.seg_rows;
        let offset = row % self.seg_rows;
        match &self.segments[seg] {
            StoredSegment::Compressed(s, _) => s.get(offset),
            StoredSegment::Plain(_) => self.plain[row],
            StoredSegment::Lz(page, n) => {
                let w = V::byte_width();
                let raw = scc_baselines::lzrw1::Lzrw1.decompress_vec(page, *n * w);
                V::read_le(&raw[offset * w..])
            }
        }
    }

    /// The source values.
    pub fn values(&self) -> &[V] {
        &self.plain
    }
}

/// A numeric column of any supported width.
#[derive(Debug, Clone)]
pub enum NumColumn {
    /// 32-bit signed (dates, small numerics).
    I32(ColumnStore<i32>),
    /// 64-bit signed (keys, scaled decimals).
    I64(ColumnStore<i64>),
    /// Dictionary codes.
    U32(ColumnStore<u32>),
}

impl NumColumn {
    /// Rows in the column.
    pub fn len(&self) -> usize {
        match self {
            NumColumn::I32(c) => c.len(),
            NumColumn::I64(c) => c.len(),
            NumColumn::U32(c) => c.len(),
        }
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Plain size in bytes.
    pub fn plain_bytes(&self) -> u64 {
        match self {
            NumColumn::I32(c) => c.plain_bytes(),
            NumColumn::I64(c) => c.plain_bytes(),
            NumColumn::U32(c) => c.plain_bytes(),
        }
    }

    /// Compressed size in bytes.
    pub fn compressed_bytes(&self) -> u64 {
        match self {
            NumColumn::I32(c) => c.compressed_bytes(),
            NumColumn::I64(c) => c.compressed_bytes(),
            NumColumn::U32(c) => c.compressed_bytes(),
        }
    }

    /// Compressed bytes of one segment.
    pub fn segment_bytes(&self, seg: usize) -> u64 {
        match self {
            NumColumn::I32(c) => c.segment_bytes(seg),
            NumColumn::I64(c) => c.segment_bytes(seg),
            NumColumn::U32(c) => c.segment_bytes(seg),
        }
    }

    /// Number of segments.
    pub fn n_segments(&self) -> usize {
        match self {
            NumColumn::I32(c) => c.n_segments(),
            NumColumn::I64(c) => c.n_segments(),
            NumColumn::U32(c) => c.n_segments(),
        }
    }

    /// Checksummed wire bytes of one segment, borrowed (see
    /// [`ColumnStore::segment_wire`]).
    pub fn segment_wire(&self, seg: usize) -> Option<&[u8]> {
        match self {
            NumColumn::I32(c) => c.segment_wire(seg),
            NumColumn::I64(c) => c.segment_wire(seg),
            NumColumn::U32(c) => c.segment_wire(seg),
        }
    }

    /// An owned copy of [`segment_wire`](Self::segment_wire).
    pub fn segment_wire_bytes(&self, seg: usize) -> Option<Vec<u8>> {
        self.segment_wire(seg).map(<[u8]>::to_vec)
    }
}

/// A dictionary-encoded string column: distinct strings plus a `u32` code
/// column (the paper's "enumerated storage" route for VARCHARs).
///
/// The *uncompressed* representation of a string column is the raw
/// variable-width strings (one byte array plus offsets, per the paper's
/// footnote 1); dictionary encoding is part of the compressed form. Size
/// accounting reflects that.
#[derive(Debug, Clone)]
pub struct StrColumn {
    /// Distinct values; code `i` maps to `dict[i]`.
    pub dict: Vec<String>,
    /// Per-row codes.
    pub codes: ColumnStore<u32>,
    /// Raw (string bytes + 4-byte offset) size of each segment.
    pub raw_seg_bytes: Vec<u64>,
}

impl StrColumn {
    /// Dictionary-encodes `values` against their sorted distinct strings.
    pub fn build(values: &[String], seg_rows: usize, compression: &Compression) -> Self {
        // Codes in first-seen order, then only the distinct strings are
        // sorted and the codes remapped to their sorted positions.
        let mut index: std::collections::HashMap<&str, u32> = std::collections::HashMap::new();
        let mut codes: Vec<u32> = values
            .iter()
            .map(|s| {
                let next = index.len() as u32;
                *index.entry(s).or_insert(next)
            })
            .collect();
        let mut distinct: Vec<(&str, u32)> = index.into_iter().collect();
        distinct.sort_unstable();
        let mut remap = vec![0u32; distinct.len()];
        for (sorted, &(_, first_seen)) in (0u32..).zip(&distinct) {
            remap[first_seen as usize] = sorted;
        }
        for c in &mut codes {
            *c = remap[*c as usize];
        }
        let dict = distinct.into_iter().map(|(s, _)| s.to_owned()).collect();
        let raw_seg_bytes =
            values.chunks(seg_rows).map(|c| c.iter().map(|s| s.len() as u64 + 4).sum()).collect();
        Self { dict, codes: ColumnStore::build(codes, seg_rows, compression), raw_seg_bytes }
    }

    /// Dictionary-encodes `values` against a *pinned* dictionary instead
    /// of deriving one locally. Partitioned tables need this: a shard
    /// that built its dictionary from only the rows it hosts would
    /// assign different codes than the whole table, and cross-shard
    /// results would no longer be byte-comparable. `dict` must be
    /// sorted, deduplicated, and cover every value (the same invariants
    /// [`StrColumn::build`] establishes for the full column).
    pub fn build_with_dict(
        values: &[String],
        dict: Vec<String>,
        seg_rows: usize,
        compression: &Compression,
    ) -> Self {
        debug_assert!(dict.windows(2).all(|w| w[0] < w[1]), "dict must be sorted + deduped");
        let codes: Vec<u32> = values
            .iter()
            .map(|s| {
                dict.binary_search_by(|d| d.as_str().cmp(s))
                    .unwrap_or_else(|_| panic!("value {s:?} missing from pinned dictionary"))
                    as u32
            })
            .collect();
        let raw_seg_bytes =
            values.chunks(seg_rows).map(|c| c.iter().map(|s| s.len() as u64 + 4).sum()).collect();
        Self { dict, codes: ColumnStore::build(codes, seg_rows, compression), raw_seg_bytes }
    }

    /// Raw (uncompressed) size of the whole column.
    pub fn raw_bytes(&self) -> u64 {
        self.raw_seg_bytes.iter().sum()
    }

    /// The code for a string, if present.
    pub fn code_of(&self, s: &str) -> Option<u32> {
        self.dict.binary_search_by(|d| d.as_str().cmp(s)).ok().map(|i| i as u32)
    }

    /// Codes of all dictionary entries matching a predicate — how LIKE
    /// and set predicates are translated before reaching the engine.
    pub fn codes_matching(&self, pred: impl Fn(&str) -> bool) -> std::collections::HashSet<u64> {
        self.dict.iter().enumerate().filter(|(_, s)| pred(s)).map(|(i, _)| i as u64).collect()
    }

    /// Dictionary size in bytes (strings + offsets), charged to I/O.
    pub fn dict_bytes(&self) -> u64 {
        self.dict.iter().map(|s| s.len() as u64 + 4).sum()
    }
}

/// A stored column: numeric, string, or an uncompressible blob (e.g.
/// TPC-H comment fields, which "could not be compressed with our
/// algorithms" and are stored raw; they weight PAX chunks).
#[derive(Debug, Clone)]
pub enum Column {
    /// Numeric data.
    Num(NumColumn),
    /// Dictionary-encoded strings.
    Str(StrColumn),
    /// Raw bytes (concatenated), never compressed, never scanned by the
    /// paper queries; only its size matters (PAX I/O weight).
    Blob(u64),
}

impl Column {
    /// Plain size in bytes (for strings: the raw variable-width bytes).
    pub fn plain_bytes(&self) -> u64 {
        match self {
            Column::Num(c) => c.plain_bytes(),
            Column::Str(c) => c.raw_bytes(),
            Column::Blob(bytes) => *bytes,
        }
    }

    /// Compressed size in bytes.
    pub fn compressed_bytes(&self) -> u64 {
        match self {
            Column::Num(c) => c.compressed_bytes(),
            Column::Str(c) => c.codes.compressed_bytes() + c.dict_bytes(),
            Column::Blob(bytes) => *bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auto_compression_roundtrips_per_segment() {
        let values: Vec<i64> = (0..200_000).map(|i| 1000 + i % 500).collect();
        let col = ColumnStore::build(values.clone(), 64 * 1024, &Compression::Auto);
        assert_eq!(col.n_segments(), 4);
        assert!(col.compressed_bytes() < col.plain_bytes() / 3);
        let mut out = vec![0i64; 1024];
        col.try_decode_segment_range(1, 2048, &mut out).unwrap();
        assert_eq!(out, &values[64 * 1024 + 2048..64 * 1024 + 2048 + 1024]);
    }

    #[test]
    fn incompressible_segments_stay_plain() {
        let mut x = 1u64;
        let values: Vec<i64> = (0..70_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as i64
            })
            .collect();
        let col = ColumnStore::build(values, 64 * 1024, &Compression::Auto);
        assert!(matches!(col.segments[0], StoredSegment::Plain(_)));
        assert_eq!(col.compressed_bytes(), col.plain_bytes());
    }

    #[test]
    fn string_dictionary_and_predicates() {
        let values: Vec<String> =
            (0..1000).map(|i| ["AIR", "RAIL", "SHIP", "TRUCK"][i % 4].to_string()).collect();
        let col = StrColumn::build(&values, 1024, &Compression::Auto);
        assert_eq!(col.dict.len(), 4);
        assert!(col.code_of("RAIL").is_some());
        assert!(col.code_of("MAIL").is_none());
        let like_r = col.codes_matching(|s| s.starts_with('R'));
        assert_eq!(like_r.len(), 1);
        // Codes roundtrip through the store.
        let mut out = vec![0u32; 128];
        col.codes.try_decode_segment_range(0, 0, &mut out).unwrap();
        for (i, &c) in out.iter().enumerate() {
            assert_eq!(col.dict[c as usize], values[i]);
        }
    }

    #[test]
    fn mixed_column_sizes() {
        let col = Column::Num(NumColumn::I32(ColumnStore::build(
            (0..10_000).collect::<Vec<i32>>(),
            4096,
            &Compression::Auto,
        )));
        assert_eq!(col.plain_bytes(), 40_000);
        assert!(col.compressed_bytes() < 40_000);
        let blob = Column::Blob(123_456);
        assert_eq!(blob.plain_bytes(), 123_456);
        assert_eq!(blob.compressed_bytes(), 123_456);
    }

    #[test]
    fn lzrw1_pages_roundtrip_and_shrink() {
        // Repetitive i64 data: LZRW1 pages compress well.
        let values: Vec<i64> = (0..50_000).map(|i| (i / 64) % 100).collect();
        let col = ColumnStore::build(values.clone(), 8192, &Compression::Lzrw1Pages);
        assert!(col.compressed_bytes() < col.plain_bytes() / 4);
        let mut out = vec![0i64; 1024];
        col.try_decode_segment_range(2, 1024, &mut out).unwrap();
        assert_eq!(out, &values[2 * 8192 + 1024..2 * 8192 + 2048]);
        // Incompressible pages fall back to plain.
        let mut x = 5u64;
        let noise: Vec<i64> = (0..10_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as i64
            })
            .collect();
        let col2 = ColumnStore::build(noise, 8192, &Compression::Lzrw1Pages);
        assert!(matches!(col2.segments[0], StoredSegment::Plain(_)));
    }

    #[test]
    fn try_read_rows_is_slice_granular_across_segments() {
        let values: Vec<i64> = (0..20_000).map(|i| 7 * i % 4096).collect();
        for compression in [Compression::Auto, Compression::None, Compression::Lzrw1Pages] {
            let col = ColumnStore::build(values.clone(), 4096, &compression);
            // Unaligned starts, segment-crossing spans, empty and
            // full-column reads all match the plain representation.
            for (start, len) in
                [(0, 1), (5, 300), (4000, 200), (4095, 2), (9000, 9000), (0, 20_000), (777, 0)]
            {
                let mut out = vec![0i64; len];
                col.try_read_rows(start, &mut out).unwrap();
                assert_eq!(out, &values[start..start + len], "{compression:?} [{start};{len}]");
            }
            // Past-the-end and overflowing ranges are typed errors.
            let mut out = vec![0i64; 2];
            assert_eq!(
                col.try_read_rows(19_999, &mut out),
                Err(Error::RangeOutOfBounds { start: 19_999, len: 2, n: 20_000 }),
                "{compression:?}"
            );
            assert!(col.try_read_rows(usize::MAX, &mut out).is_err());
        }
    }

    #[test]
    fn try_decode_segment_range_reports_typed_errors() {
        let col = ColumnStore::build((0..10_000i32).collect(), 4096, &Compression::Auto);
        let mut out = vec![0i32; 128];
        assert!(col.try_decode_segment_range(0, 128, &mut out).is_ok());
        assert_eq!(
            col.try_decode_segment_range(7, 0, &mut out),
            Err(Error::SegmentRangeOutOfBounds { start: 7, end: 8, n_segments: 3 })
        );
        assert_eq!(
            col.try_decode_segment_range(0, 77, &mut out),
            Err(Error::UnalignedRange { start: 77 })
        );
        // The tail segment holds 10_000 - 2 * 4096 = 1808 rows.
        assert_eq!(
            col.try_decode_segment_range(2, 1792, &mut out),
            Err(Error::RangeOutOfBounds { start: 1792, len: 128, n: 1808 })
        );
    }

    #[test]
    fn none_compression_charges_full_width() {
        let col = ColumnStore::build((0..5000i32).collect(), 1024, &Compression::None);
        assert_eq!(col.compressed_bytes(), col.plain_bytes());
        let mut out = vec![0i32; 512];
        col.try_decode_segment_range(2, 512, &mut out).unwrap();
        assert_eq!(out[0], 2 * 1024 + 512);
    }
}
