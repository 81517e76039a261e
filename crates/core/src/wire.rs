//! Byte serialization of compressed segments — the on-disk form of
//! Figure 3.
//!
//! Version 2 layout (little-endian throughout):
//!
//! ```text
//! +--------------------+  fixed 32-byte header
//! | magic ver scheme   |
//! | vtype b n n_exc    |
//! | n_dict codes_words |
//! | base               |
//! +--------------------+  24-byte checksum block (v2 only)
//! | header_crc         |  CRC32C of bytes [0, 32)
//! | entries_crc        |  CRC32C of the entry-point section
//! | deltas_crc         |  CRC32C of the delta-base section
//! | dict_crc           |  CRC32C of the dictionary section
//! | codes_crc          |  CRC32C of the code section
//! | exceptions_crc     |  CRC32C of the exception section
//! +--------------------+
//! | entry points       |  one u32 per 128 values
//! +--------------------+
//! | delta bases        |  PFOR-DELTA only: one value per block
//! +--------------------+
//! | dictionary         |  PDICT only
//! +--------------------+
//! | code section       |  forward-growing bit-packed codes
//! +--------------------+
//! | exception section  |  BACKWARD-growing raw values (paper layout:
//! |                    |  exceptions[-1], exceptions[-2], ...)
//! +--------------------+
//! ```
//!
//! Version 3 marks a **vertical-layout** segment (see
//! [`crate::segment::Layout`]): identical to v2 byte-for-byte in
//! structure, except that bit 7 of the scheme byte is set (the low bits
//! keep the scheme tag), the code section is bit-packed in the
//! [`scc_bitpack::vert`] 4-lane order, and a PFOR-DELTA segment carries
//! *four* delta bases per block (one per lane) instead of one. Horizontal
//! segments continue to serialize as v2 byte-identically, so v2 readers
//! only ever reject data they could not decode correctly anyway — they
//! report v3 as [`WireError::BadVersion`] rather than mis-decoding a
//! vertical code section.
//!
//! Writers emit v2 (horizontal) or v3 (vertical), and readers accept
//! exactly those two: any other version byte is
//! [`WireError::BadVersion`], and a flip among {2, 3} or of the layout
//! bit is caught by the header CRC. A serialized segment must be
//! *exactly* its computed size — trailing bytes are rejected.
//!
//! Every CRC is [`crate::crc::crc32c`]. CRC32C detects all single-bit and
//! single-byte errors, so any one-byte corruption anywhere in a segment
//! is *guaranteed* to surface as a typed [`WireError`] — the property the
//! corruption sweep in `tests/corruption.rs` exercises exhaustively.
//! Checksums are verified once per segment load ([`Segment::from_bytes`]),
//! never on the per-block decode path, so decompression bandwidth (Fig. 4)
//! is unaffected.

use crate::crc::crc32c;
use crate::patch::EntryPoint;
use crate::segment::{Layout as SegLayout, SchemeKind, Segment};
use crate::value::Value;
use std::fmt;

/// Fixed header size in bytes.
pub const HEADER_BYTES: usize = 32;

/// Size of the checksum block: six CRC32C words.
pub const CHECKSUM_BYTES: usize = 24;

/// Bytes before the first section.
pub const HEADER_BYTES_V2: usize = HEADER_BYTES + CHECKSUM_BYTES;

const MAGIC: [u8; 4] = *b"SCCS";

/// The version written by [`Segment::to_bytes`] for horizontal segments.
pub const VERSION: u8 = 2;
/// The version written by [`Segment::to_bytes`] for vertical segments.
pub const VERSION_V3: u8 = 3;

/// v3 scheme-byte bit marking a vertical code section.
const LAYOUT_FLAG: u8 = 0x80;

/// Vertical PFOR-DELTA lanes: delta bases per block.
const VERT_DELTA_LANES: usize = 4;

/// Deserialization failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Buffer does not start with the segment magic.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u8),
    /// Unknown scheme tag.
    BadScheme(u8),
    /// Segment was written for a different value type.
    TypeMismatch {
        /// The value type requested by the caller.
        expected: &'static str,
        /// The type tag found in the header.
        found: u8,
    },
    /// Buffer shorter than the header claims.
    Truncated {
        /// Bytes the header implies.
        need: usize,
        /// Bytes actually present.
        have: usize,
    },
    /// A header field is structurally impossible (width > 32, value count
    /// over the segment cap, wrong code-section size, non-monotone entry
    /// points, ...).
    Corrupt(&'static str),
    /// A section's CRC32C does not match its stored checksum.
    Checksum {
        /// Which section failed verification.
        section: &'static str,
        /// The checksum stored in the segment.
        stored: u32,
        /// The checksum computed over the section bytes.
        computed: u32,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::BadMagic => write!(f, "bad segment magic"),
            WireError::BadVersion(v) => write!(f, "unsupported segment version {v}"),
            WireError::BadScheme(t) => write!(f, "unknown scheme tag {t}"),
            WireError::TypeMismatch { expected, found } => {
                write!(f, "segment value type {found} does not match {expected}")
            }
            WireError::Truncated { need, have } => {
                write!(f, "segment truncated: need {need} bytes, have {have}")
            }
            WireError::Corrupt(what) => write!(f, "corrupt segment: {what}"),
            WireError::Checksum { section, stored, computed } => write!(
                f,
                "checksum mismatch in {section} section: stored {stored:#010x}, computed {computed:#010x}"
            ),
        }
    }
}

impl std::error::Error for WireError {}

fn vtype_tag<V: Value>() -> u8 {
    match V::NAME {
        "u32" => 1,
        "i32" => 2,
        "u64" => 3,
        "i64" => 4,
        _ => unreachable!("unknown value type"),
    }
}

fn tag_width(tag: u8) -> Option<usize> {
    match tag {
        1 | 2 => Some(4),
        3 | 4 => Some(8),
        _ => None,
    }
}

/// A structurally validated view of a serialized segment: header fields
/// plus the computed offset of every section. Non-generic — the value
/// width comes from the header's type tag — so integrity can be checked
/// without knowing the column type ([`verify`]).
struct Layout {
    version: u8,
    scheme: SchemeKind,
    layout: SegLayout,
    vtype: u8,
    width: usize,
    b: u32,
    n: usize,
    n_exc: usize,
    n_dict: usize,
    codes_words: usize,
    n_blocks: usize,
    /// Byte offsets of (entries, delta bases, dict, codes, exceptions)
    /// section starts, plus the total size as the final fence.
    fences: [usize; 6],
}

/// Verification failure: the earliest byte offset known to be
/// corrupt (the offending header field, or the start of the first section
/// whose checksum fails) plus the typed error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyFailure {
    /// Byte offset of the first corrupt structure.
    pub offset: usize,
    /// What was wrong there.
    pub error: WireError,
}

impl fmt::Display for VerifyFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (at byte offset {})", self.error, self.offset)
    }
}

impl std::error::Error for VerifyFailure {}

/// Summary returned by [`verify`] for an intact segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerifyReport {
    /// Wire format version (2 or 3).
    pub version: u8,
    /// Compression scheme of the segment.
    pub scheme: SchemeKind,
    /// Code-section layout (vertical for v3, horizontal otherwise).
    pub layout: SegLayout,
    /// Values in the segment.
    pub n: usize,
    /// Serialized size in bytes.
    pub bytes: usize,
}

/// Checks a serialized segment's integrity without materializing it:
/// structural header validation, exact-length check, and all six section
/// checksums. Works for any value type — the width is taken from
/// the header's type tag. This is what `scc verify` runs per segment.
pub fn verify(bytes: &[u8]) -> Result<VerifyReport, VerifyFailure> {
    let layout = parse_layout(bytes)?;
    Ok(VerifyReport {
        version: layout.version,
        scheme: layout.scheme,
        layout: layout.layout,
        n: layout.n,
        bytes: bytes.len(),
    })
}

fn fail(offset: usize, error: WireError) -> VerifyFailure {
    VerifyFailure { offset, error }
}

/// Validates everything that can be validated without the value type:
/// magic, version, header fields, exact total length, checksums, entry
/// point monotonicity and scheme invariants. Returns the section layout.
fn parse_layout(bytes: &[u8]) -> Result<Layout, VerifyFailure> {
    if bytes.len() < HEADER_BYTES {
        return Err(fail(
            bytes.len(),
            WireError::Truncated { need: HEADER_BYTES, have: bytes.len() },
        ));
    }
    if bytes[..4] != MAGIC {
        return Err(fail(0, WireError::BadMagic));
    }
    let version = bytes[4];
    if version != VERSION && version != VERSION_V3 {
        return Err(fail(4, WireError::BadVersion(version)));
    }
    if bytes.len() < HEADER_BYTES_V2 {
        return Err(fail(
            bytes.len(),
            WireError::Truncated { need: HEADER_BYTES_V2, have: bytes.len() },
        ));
    }
    let rd32 = |off: usize| u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap());
    // The header checksum is verified before any header field is
    // *trusted* (scheme and type tags, counts, the layout bit), so a
    // corrupted header is reported as such instead of as whatever
    // nonsense it decodes to.
    let stored = rd32(HEADER_BYTES);
    let computed = crc32c(&bytes[..HEADER_BYTES]);
    if stored != computed {
        return Err(fail(0, WireError::Checksum { section: "header", stored, computed }));
    }
    // v3 carries the layout in bit 7 of the scheme byte; v2 is horizontal
    // by definition (and rejects a set bit as a bad tag).
    let (scheme_tag, layout) = if version == VERSION_V3 {
        let vertical = bytes[5] & LAYOUT_FLAG != 0;
        (
            bytes[5] & !LAYOUT_FLAG,
            if vertical { SegLayout::Vertical } else { SegLayout::Horizontal },
        )
    } else {
        (bytes[5], SegLayout::Horizontal)
    };
    let scheme =
        SchemeKind::from_tag(scheme_tag).ok_or_else(|| fail(5, WireError::BadScheme(bytes[5])))?;
    let vtype = bytes[6];
    let width =
        tag_width(vtype).ok_or_else(|| fail(6, WireError::Corrupt("unknown value type tag")))?;
    let b = bytes[7] as u32;
    if b > 32 {
        return Err(fail(7, WireError::Corrupt("bit width exceeds 32")));
    }
    let n = rd32(8) as usize;
    if n > crate::patch::MAX_SEGMENT_VALUES {
        return Err(fail(8, WireError::Corrupt("value count exceeds the segment cap")));
    }
    let n_exc = rd32(12) as usize;
    if n_exc > n {
        return Err(fail(12, WireError::Corrupt("more exceptions than values")));
    }
    let n_dict = rd32(16) as usize;
    if n_dict > 1 << 25 {
        return Err(fail(16, WireError::Corrupt("dictionary larger than the code space")));
    }
    let codes_words = rd32(20) as usize;
    if codes_words != scc_bitpack::packed_words(n, b) {
        return Err(fail(20, WireError::Corrupt("code section size does not match n and b")));
    }
    let n_blocks = n.div_ceil(crate::patch::BLOCK);
    let delta_lanes = if layout == SegLayout::Vertical { VERT_DELTA_LANES } else { 1 };
    let n_delta = if scheme == SchemeKind::PforDelta { n_blocks * delta_lanes } else { 0 };
    let entries_off = HEADER_BYTES_V2;
    let deltas_off = entries_off + n_blocks * 4;
    let dict_off = deltas_off + n_delta * width;
    let codes_off = dict_off + n_dict * width;
    let exc_off = codes_off + codes_words * 4;
    let need = exc_off + n_exc * width;
    if bytes.len() < need {
        return Err(fail(bytes.len(), WireError::Truncated { need, have: bytes.len() }));
    }
    if bytes.len() > need {
        // A segment slice must be exact, which catches container-level
        // mis-framing.
        return Err(fail(need, WireError::Corrupt("trailing bytes after segment")));
    }
    let sections: [(&'static str, usize, usize); 5] = [
        ("entry points", entries_off, deltas_off),
        ("delta bases", deltas_off, dict_off),
        ("dictionary", dict_off, codes_off),
        ("codes", codes_off, exc_off),
        ("exceptions", exc_off, need),
    ];
    for (i, &(section, start, end)) in sections.iter().enumerate() {
        let stored = rd32(HEADER_BYTES + 4 + i * 4);
        let computed = crc32c(&bytes[start..end]);
        if stored != computed {
            return Err(fail(start, WireError::Checksum { section, stored, computed }));
        }
    }
    // Entry points must partition the exception section monotonically,
    // with at most 128 exceptions per block: defence in depth behind the
    // checksum, for bytes resealed after corruption.
    let entry_at = |i: usize| EntryPoint(rd32(entries_off + i * 4));
    for i in 1..n_blocks {
        let (a, b) = (entry_at(i - 1).exception_start(), entry_at(i).exception_start());
        if a > b {
            return Err(fail(entries_off + i * 4, WireError::Corrupt("entry points not monotone")));
        }
        if b - a > crate::patch::BLOCK as u32 {
            return Err(fail(
                entries_off + i * 4,
                WireError::Corrupt("block claims more exceptions than values"),
            ));
        }
    }
    if n_blocks > 0 {
        let tail = n_exc as i64 - entry_at(n_blocks - 1).exception_start() as i64;
        if !(0..=crate::patch::BLOCK as i64).contains(&tail) {
            return Err(fail(
                entries_off + (n_blocks - 1) * 4,
                WireError::Corrupt("entry point past the exception section"),
            ));
        }
    }
    // Scheme-specific invariants: PDICT's branch-free decode loop consults
    // the dictionary for every position, so a non-empty segment needs a
    // non-empty dictionary.
    if scheme == SchemeKind::Pdict && n_dict == 0 && n > 0 {
        return Err(fail(16, WireError::Corrupt("PDICT segment without a dictionary")));
    }
    Ok(Layout {
        version,
        scheme,
        layout,
        vtype,
        width,
        b,
        n,
        n_exc,
        n_dict,
        codes_words,
        n_blocks,
        fences: [entries_off, deltas_off, dict_off, codes_off, exc_off, need],
    })
}

impl<V: Value> Segment<V> {
    /// Serializes the segment: wire format v2 for horizontal segments,
    /// v3 for vertical ones (both checksummed; the byte layout is
    /// otherwise identical).
    pub fn to_bytes(&self) -> Vec<u8> {
        let vertical = self.layout() == SegLayout::Vertical;
        let version = if vertical { VERSION_V3 } else { VERSION };
        let scheme_byte = self.scheme.tag() | if vertical { LAYOUT_FLAG } else { 0 };
        let w = V::byte_width();
        let mut out = Vec::with_capacity(self.compressed_bytes());
        out.extend_from_slice(&MAGIC);
        out.push(version);
        out.push(scheme_byte);
        out.push(vtype_tag::<V>());
        out.push(self.b as u8);
        out.extend_from_slice(&(self.n as u32).to_le_bytes());
        out.extend_from_slice(&(self.exceptions.len() as u32).to_le_bytes());
        out.extend_from_slice(&(self.dict.len() as u32).to_le_bytes());
        out.extend_from_slice(&(self.codes.len() as u32).to_le_bytes());
        let mut base8 = [0u8; 8];
        let mut tmp = Vec::with_capacity(8);
        self.base.write_le(&mut tmp);
        base8[..w].copy_from_slice(&tmp);
        out.extend_from_slice(&base8);
        debug_assert_eq!(out.len(), HEADER_BYTES);
        // Checksum block placeholder, patched below once the section bytes
        // exist.
        out.extend_from_slice(&[0u8; CHECKSUM_BYTES]);
        let entries_off = out.len();
        for e in &self.entries {
            out.extend_from_slice(&e.0.to_le_bytes());
        }
        let deltas_off = out.len();
        for &v in &self.delta_bases {
            v.write_le(&mut out);
        }
        let dict_off = out.len();
        for &v in &self.dict {
            v.write_le(&mut out);
        }
        let codes_off = out.len();
        for &word in &self.codes {
            out.extend_from_slice(&word.to_le_bytes());
        }
        let exc_off = out.len();
        // Exception section grows backwards: last-written exception first.
        for &v in self.exceptions.iter().rev() {
            v.write_le(&mut out);
        }
        let crcs = [
            crc32c(&out[..HEADER_BYTES]),
            crc32c(&out[entries_off..deltas_off]),
            crc32c(&out[deltas_off..dict_off]),
            crc32c(&out[dict_off..codes_off]),
            crc32c(&out[codes_off..exc_off]),
            crc32c(&out[exc_off..]),
        ];
        for (i, crc) in crcs.iter().enumerate() {
            out[HEADER_BYTES + i * 4..HEADER_BYTES + (i + 1) * 4]
                .copy_from_slice(&crc.to_le_bytes());
        }
        debug_assert_eq!(out.len(), self.compressed_bytes());
        out
    }

    /// Deserializes a segment written by [`to_bytes`](Self::to_bytes).
    ///
    /// Every section is verified against its CRC32C, so *any* single-byte
    /// corruption yields a typed [`WireError`]. All *structural* header
    /// fields are validated as well (width, counts, section sizes, exact
    /// total length, entry-point monotonicity).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, WireError> {
        let layout = parse_layout(bytes).map_err(|f| f.error)?;
        if layout.vtype != vtype_tag::<V>() {
            return Err(WireError::TypeMismatch { expected: V::NAME, found: layout.vtype });
        }
        debug_assert_eq!(layout.width, V::byte_width());
        let w = layout.width;
        let rd32 = |off: usize| u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap());
        let base = V::read_le(&bytes[24..24 + w]);
        let [entries_off, deltas_off, dict_off, codes_off, exc_off, _] = layout.fences;
        let mut entries = Vec::with_capacity(layout.n_blocks);
        for i in 0..layout.n_blocks {
            entries.push(EntryPoint(rd32(entries_off + i * 4)));
        }
        let n_delta = (dict_off - deltas_off) / w.max(1);
        let mut delta_bases = Vec::with_capacity(n_delta);
        let mut off = deltas_off;
        for _ in 0..n_delta {
            delta_bases.push(V::read_le(&bytes[off..]));
            off += w;
        }
        let mut dict = Vec::with_capacity(layout.n_dict);
        let mut off = dict_off;
        for _ in 0..layout.n_dict {
            dict.push(V::read_le(&bytes[off..]));
            off += w;
        }
        let mut codes = Vec::with_capacity(layout.codes_words);
        for i in 0..layout.codes_words {
            codes.push(rd32(codes_off + i * 4));
        }
        let mut exceptions = vec![V::default(); layout.n_exc];
        let mut off = exc_off;
        for i in (0..layout.n_exc).rev() {
            exceptions[i] = V::read_le(&bytes[off..]);
            off += w;
        }
        Ok(Segment {
            scheme: layout.scheme,
            n: layout.n,
            b: layout.b,
            base,
            entries,
            delta_bases,
            codes,
            exceptions,
            dict,
            layout: layout.layout,
        })
    }

    /// Like [`from_bytes`](Self::from_bytes), reporting through the
    /// unified [`crate::Error`] so callers on the fallible decode path
    /// handle one error type.
    pub fn try_from_bytes(bytes: &[u8]) -> Result<Self, crate::Error> {
        Self::from_bytes(bytes).map_err(crate::Error::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pdict::Dictionary;

    include!("../tests/support/reseal.rs");

    #[test]
    fn pfor_bytes_roundtrip() {
        let values: Vec<u32> =
            (0..1000).map(|i| if i % 40 == 0 { i * 12345 } else { i % 50 }).collect();
        let seg = crate::pfor::compress(&values, 0, 6);
        let bytes = seg.to_bytes();
        assert_eq!(bytes.len(), seg.compressed_bytes());
        assert_eq!(bytes[4], VERSION);
        let back = Segment::<u32>::from_bytes(&bytes).unwrap();
        assert_eq!(back, seg);
        assert_eq!(back.decompress(), values);
    }

    #[test]
    fn pfordelta_bytes_roundtrip() {
        let values: Vec<u64> = (0..500u64).map(|i| i * 3 + (i % 7)).collect();
        let seg = crate::pfordelta::compress(&values, 0, 0, 4);
        let back = Segment::<u64>::from_bytes(&seg.to_bytes()).unwrap();
        assert_eq!(back.decompress(), values);
    }

    #[test]
    fn pdict_bytes_roundtrip() {
        let values: Vec<i32> = (0..600).map(|i| [(-7i32), 0, 9][i as usize % 3]).collect();
        let dict = Dictionary::new(vec![-7i32, 0, 9]);
        let seg = crate::pdict::compress(&values, &dict);
        let back = Segment::<i32>::from_bytes(&seg.to_bytes()).unwrap();
        assert_eq!(back.decompress(), values);
    }

    #[test]
    fn type_mismatch_detected() {
        let seg = crate::pfor::compress(&[1u32, 2, 3], 0, 2);
        let bytes = seg.to_bytes();
        let err = Segment::<u64>::from_bytes(&bytes).unwrap_err();
        assert!(matches!(err, WireError::TypeMismatch { .. }));
    }

    #[test]
    fn truncation_detected() {
        let seg = crate::pfor::compress(&(0..200u32).collect::<Vec<_>>(), 0, 8);
        let bytes = seg.to_bytes();
        for cut in [0, 10, HEADER_BYTES, HEADER_BYTES_V2, bytes.len() - 1] {
            assert!(
                matches!(
                    Segment::<u32>::from_bytes(&bytes[..cut]).unwrap_err(),
                    WireError::Truncated { .. }
                ),
                "cut at {cut} should be Truncated"
            );
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let seg = crate::pfor::compress(&[5u32, 6, 7], 0, 3);
        let mut bytes = seg.to_bytes();
        bytes.push(0);
        assert_eq!(
            Segment::<u32>::from_bytes(&bytes).unwrap_err(),
            WireError::Corrupt("trailing bytes after segment")
        );
    }

    #[test]
    fn bad_magic_detected() {
        let seg = crate::pfor::compress(&[1u32, 2], 0, 2);
        let mut bytes = seg.to_bytes();
        bytes[0] = b'X';
        assert_eq!(Segment::<u32>::from_bytes(&bytes).unwrap_err(), WireError::BadMagic);
    }

    #[test]
    fn payload_corruption_detected() {
        let values: Vec<u32> =
            (0..2000).map(|i| if i % 31 == 0 { i * 7919 } else { i % 60 }).collect();
        let seg = crate::pfor::compress(&values, 0, 6);
        // A flipped code-section byte fails the codes checksum.
        let mut bytes = seg.to_bytes();
        let codes_byte = HEADER_BYTES_V2 + seg.n_blocks() * 4 + 5;
        bytes[codes_byte] ^= 0x10;
        match Segment::<u32>::from_bytes(&bytes).unwrap_err() {
            WireError::Checksum { section, .. } => assert_eq!(section, "codes"),
            other => panic!("expected checksum error, got {other:?}"),
        }
    }

    #[test]
    fn verify_reports_section_and_offset() {
        let values: Vec<u64> = (0..700u64).map(|i| i * 5).collect();
        let seg = crate::pfordelta::compress(&values, 0, 0, 4);
        let bytes = seg.to_bytes();
        let ok = verify(&bytes).unwrap();
        assert_eq!(ok.version, VERSION);
        assert_eq!(ok.n, 700);

        // Corrupt one exception... there are none here; corrupt the header.
        let mut bad = bytes.clone();
        bad[9] ^= 0x40;
        let f = verify(&bad).unwrap_err();
        assert_eq!(f.offset, 0);
        assert!(matches!(f.error, WireError::Checksum { section: "header", .. }));

        // Corrupt the delta-base section; offset points at its start.
        let mut bad = bytes.clone();
        let deltas_off = HEADER_BYTES_V2 + seg.n_blocks() * 4;
        bad[deltas_off + 3] ^= 0x01;
        let f = verify(&bad).unwrap_err();
        assert_eq!(f.offset, deltas_off);
        assert!(matches!(f.error, WireError::Checksum { section: "delta bases", .. }));
    }

    #[test]
    fn version_byte_flip_to_v1_is_rejected() {
        let seg = crate::pfor::compress(&(0..300u32).collect::<Vec<_>>(), 0, 9);
        let mut bytes = seg.to_bytes();
        bytes[4] = 1;
        assert_eq!(verify(&bytes).unwrap_err(), fail(4, WireError::BadVersion(1)));
        assert_eq!(Segment::<u32>::from_bytes(&bytes).unwrap_err(), WireError::BadVersion(1));
    }

    /// Mutates one field of a valid segment, reseals its checksums so only
    /// the structural checks stand in the way, and asserts the expected
    /// error fires from both `verify` and `from_bytes`.
    fn expect_corrupt(base: &[u8], mutate: impl FnOnce(&mut Vec<u8>), want: WireError) {
        let mut bytes = base.to_vec();
        mutate(&mut bytes);
        assert_eq!(reseal(&mut bytes).unwrap_err().error, want);
        assert_eq!(Segment::<u32>::from_bytes(&bytes).unwrap_err(), want);
    }

    #[test]
    fn every_structural_header_branch_fires() {
        let values: Vec<u32> =
            (0..300).map(|i| if i % 9 == 0 { i << 20 } else { i % 32 }).collect();
        let base = crate::pfor::compress(&values, 0, 5).to_bytes();
        let wr32 =
            |b: &mut Vec<u8>, off: usize, v: u32| b[off..off + 4].copy_from_slice(&v.to_le_bytes());

        expect_corrupt(&base, |b| b[4] = 9, WireError::BadVersion(9));
        expect_corrupt(&base, |b| b[5] = 0, WireError::BadScheme(0));
        expect_corrupt(&base, |b| b[6] = 7, WireError::Corrupt("unknown value type tag"));
        expect_corrupt(&base, |b| b[7] = 40, WireError::Corrupt("bit width exceeds 32"));
        expect_corrupt(
            &base,
            |b| wr32(b, 8, (crate::patch::MAX_SEGMENT_VALUES + 1) as u32),
            WireError::Corrupt("value count exceeds the segment cap"),
        );
        expect_corrupt(
            &base,
            |b| wr32(b, 12, 301),
            WireError::Corrupt("more exceptions than values"),
        );
        expect_corrupt(
            &base,
            |b| wr32(b, 16, (1 << 25) + 1),
            WireError::Corrupt("dictionary larger than the code space"),
        );
        expect_corrupt(
            &base,
            |b| {
                let w = u32::from_le_bytes(b[20..24].try_into().unwrap());
                wr32(b, 20, w + 1);
            },
            WireError::Corrupt("code section size does not match n and b"),
        );
        // Entry point 0's cumulative count pushed above entry point 1's.
        expect_corrupt(
            &base,
            |b| wr32(b, HEADER_BYTES_V2, 100 << 7),
            WireError::Corrupt("entry points not monotone"),
        );
        // Entry point 1 claiming >128 exceptions for block 0.
        expect_corrupt(
            &base,
            |b| wr32(b, HEADER_BYTES_V2 + 4, 200 << 7),
            WireError::Corrupt("block claims more exceptions than values"),
        );
    }

    #[test]
    fn last_entry_past_exception_section_rejected() {
        // Single block: only the tail check can catch a runaway start.
        let values: Vec<u32> = (0..128).map(|i| if i % 11 == 0 { i << 20 } else { i }).collect();
        let seg = crate::pfor::compress(&values, 0, 7);
        let n_exc = seg.exception_count() as u32;
        expect_corrupt(
            &seg.to_bytes(),
            |b| b[HEADER_BYTES_V2..][..4].copy_from_slice(&((n_exc + 1) << 7).to_le_bytes()),
            WireError::Corrupt("entry point past the exception section"),
        );
    }

    #[test]
    fn pdict_without_dictionary_rejected() {
        // Hand-built PDICT header: n=128, n_dict=0, consistent length,
        // checksums sealed below, so only the scheme invariant can reject it.
        let b = 4u32;
        let codes_words = scc_bitpack::packed_words(128, b);
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&[VERSION, 3, 1, b as u8]);
        bytes.extend_from_slice(&128u32.to_le_bytes()); // n
        bytes.extend_from_slice(&0u32.to_le_bytes()); // n_exc
        bytes.extend_from_slice(&0u32.to_le_bytes()); // n_dict
        bytes.extend_from_slice(&(codes_words as u32).to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes()); // base
        bytes.extend_from_slice(&[0u8; CHECKSUM_BYTES]);
        bytes.extend_from_slice(&0u32.to_le_bytes()); // 1 entry point
        bytes.resize(bytes.len() + codes_words * 4, 0); // codes
        expect_corrupt(&bytes, |_| {}, WireError::Corrupt("PDICT segment without a dictionary"));
    }

    #[test]
    fn v3_vertical_roundtrip_all_schemes() {
        let values: Vec<u32> =
            (0..2000).map(|i| if i % 40 == 0 { i * 12345 } else { i % 50 }).collect();
        let pfor = crate::pfor::compress_in(&values, 0, 6, Default::default(), SegLayout::Vertical);
        let monotone: Vec<u32> = (0..2000u32).map(|i| i * 3 + i % 5).collect();
        let pfd = crate::pfordelta::compress_vertical(&monotone, 0);
        let trio: Vec<u32> = (0..600).map(|i| [3u32, 8, 40][i % 3]).collect();
        let dict = Dictionary::new(vec![3u32, 8, 40]);
        let pd =
            crate::pdict::compress_in(&trio, &dict, 2, Default::default(), SegLayout::Vertical);
        for (seg, original) in [(&pfor, &values), (&pfd, &monotone), (&pd, &trio)] {
            let bytes = seg.to_bytes();
            assert_eq!(bytes[4], VERSION_V3);
            assert_eq!(bytes[5] & LAYOUT_FLAG, LAYOUT_FLAG);
            assert_eq!(bytes[5] & !LAYOUT_FLAG, seg.scheme().tag());
            let report = verify(&bytes).unwrap();
            assert_eq!(report.version, VERSION_V3);
            assert_eq!(report.layout, SegLayout::Vertical);
            let back = Segment::<u32>::from_bytes(&bytes).unwrap();
            assert_eq!(&back, seg);
            assert_eq!(back.layout(), SegLayout::Vertical);
            assert_eq!(back.decompress(), *original);
        }
        // Vertical PFOR-DELTA serializes four delta bases per block.
        assert_eq!(pfd.section_bytes().4, pfd.n_blocks() * 4 * 4);
    }

    #[test]
    fn v3_header_corruption_detected() {
        let values: Vec<u32> = (0..1000u32).map(|i| i % 60).collect();
        let seg = crate::pfor::compress_in(&values, 0, 6, Default::default(), SegLayout::Vertical);
        let bytes = seg.to_bytes();
        // Flipping v3 -> v2, or clearing the layout bit, fails the header
        // CRC before any field is trusted. Flipping v3 -> 1 names a version
        // no reader accepts.
        for (off, val, expect_crc) in
            [(4usize, VERSION, true), (4, 1, false), (5, seg.scheme().tag(), true)]
        {
            let mut bad = bytes.clone();
            bad[off] = val;
            let err = Segment::<u32>::from_bytes(&bad).unwrap_err();
            if expect_crc {
                assert!(
                    matches!(err, WireError::Checksum { section: "header", .. }),
                    "off {off}: got {err:?}"
                );
            } else {
                assert_eq!(err, WireError::BadVersion(1));
            }
        }
    }

    #[test]
    fn horizontal_segments_still_serialize_as_v2() {
        let seg = crate::pfor::compress(&(0..300u32).collect::<Vec<_>>(), 0, 9);
        let bytes = seg.to_bytes();
        assert_eq!(bytes[4], VERSION);
        assert_eq!(bytes[5], seg.scheme().tag());
        assert_eq!(verify(&bytes).unwrap().layout, SegLayout::Horizontal);
    }

    #[test]
    fn future_version_rejected_with_typed_error() {
        let seg = crate::pfor::compress(&[1u32, 2, 3], 0, 2);
        expect_corrupt(&seg.to_bytes(), |b| b[4] = 4, WireError::BadVersion(4));
    }

    #[test]
    fn wire_error_display_covers_all_variants() {
        let cases: Vec<(WireError, &str)> = vec![
            (WireError::BadMagic, "magic"),
            (WireError::BadVersion(9), "version 9"),
            (WireError::BadScheme(0), "scheme tag 0"),
            (WireError::TypeMismatch { expected: "u32", found: 4 }, "does not match u32"),
            (WireError::Truncated { need: 56, have: 10 }, "need 56 bytes, have 10"),
            (WireError::Corrupt("trailing bytes after segment"), "trailing bytes"),
            (
                WireError::Checksum { section: "codes", stored: 1, computed: 2 },
                "checksum mismatch in codes",
            ),
        ];
        for (e, want) in cases {
            let s = e.to_string();
            assert!(s.contains(want), "{s:?} should contain {want:?}");
        }
        let f = VerifyFailure { offset: 77, error: WireError::BadMagic };
        assert!(f.to_string().contains("at byte offset 77"));
    }
}
