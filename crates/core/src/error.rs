//! The unified error type for the corruption-safe decode path.
//!
//! Every fallible operation between bytes-on-disk and decoded vectors —
//! deserialization ([`crate::wire`]), fine-grained and range decode
//! ([`crate::segment`]), and the storage layer's modeled reads — reports
//! through [`Error`], so callers from the CLI down to the scan operator
//! handle one exhaustive enum instead of a mix of panics and strings.
//! The infallible decode entry points used by the bench kernels remain as
//! thin wrappers that panic with the same diagnostics.

use crate::wire::WireError;
use std::fmt;

/// Identifies one cached storage chunk: `(table_id, column_id, segment)`.
/// Mirrors `scc_storage::pool::ChunkId`, re-declared here so the unified
/// error type can name chunks without a dependency cycle.
pub type ChunkRef = (u32, u32, u32);

/// Any failure on the decode path, from wire bytes to decoded values.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// Deserialization failed: structural validation or a checksum.
    Wire(WireError),
    /// A range decode started at a position that is not a multiple of the
    /// 128-value block.
    UnalignedRange {
        /// The requested start position.
        start: usize,
    },
    /// A range decode extended past the end of the segment.
    RangeOutOfBounds {
        /// The requested start position.
        start: usize,
        /// The requested length.
        len: usize,
        /// Values actually in the segment.
        n: usize,
    },
    /// A point access addressed a position past the end of the segment.
    IndexOutOfBounds {
        /// The requested position.
        index: usize,
        /// Values actually in the segment.
        n: usize,
    },
    /// A modeled disk read kept failing transiently and the retry budget
    /// ran out (no corruption was observed, so the chunk is *not*
    /// quarantined — a later scan may succeed).
    ReadFailed {
        /// The chunk whose read failed.
        chunk: ChunkRef,
        /// Read attempts consumed.
        attempts: u32,
    },
    /// A chunk failed checksum verification on every retry and has been
    /// quarantined: subsequent reads fail fast with this same error.
    ChunkQuarantined {
        /// The quarantined chunk.
        chunk: ChunkRef,
        /// Read attempts consumed before quarantining.
        attempts: u32,
    },
    /// A PDICT fine-grained access found a code outside the dictionary at
    /// a position the patch walk did not mark as an exception. Oversized
    /// codes are legal only at patched positions (they encode the gap to
    /// the next exception), so one anywhere else means the segment's code
    /// or entry-point section is corrupt.
    CorruptDictCode {
        /// Position within the segment at which the bad code sits.
        index: usize,
        /// The decoded (out-of-range) code.
        code: u64,
        /// Size of the segment's dictionary.
        dict_len: usize,
    },
    /// A block decode found the segment's code section shorter than its
    /// layout promises. The wire format validates section lengths on
    /// load, so this firing means the in-memory segment was corrupted;
    /// the decode surfaces it instead of panicking so a served scan can
    /// fail one request rather than a worker thread.
    CorruptCodes {
        /// The 128-value block whose codes are missing.
        block: usize,
        /// Words the block's unpack needs.
        need: usize,
        /// Words actually present from the block's offset.
        have: usize,
    },
    /// A container file (e.g. the CLI's `.scc` format) ended before the
    /// structure it promised.
    Truncated {
        /// Byte offset at which the missing data was expected.
        offset: usize,
        /// Bytes needed from that offset.
        need: usize,
        /// Bytes actually available from that offset.
        have: usize,
    },
    /// A checksummed stream frame was torn, oversized or corrupt (see
    /// [`crate::frame`]).
    Frame(crate::frame::FrameError),
    /// A scan was restricted to a segment range that does not exist in
    /// the table.
    SegmentRangeOutOfBounds {
        /// Requested first segment (inclusive).
        start: usize,
        /// Requested end segment (exclusive).
        end: usize,
        /// Segments actually in the table.
        n_segments: usize,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Wire(e) => write!(f, "{e}"),
            Error::UnalignedRange { start } => {
                write!(f, "range start {start} is not aligned to the 128-value block")
            }
            Error::RangeOutOfBounds { start, len, n } => {
                // Saturate: the variant also reports ranges whose very
                // problem is that start + len overflows usize.
                let end = start.saturating_add(*len);
                write!(f, "range [{start}, {end}) out of bounds for segment of {n}")
            }
            Error::IndexOutOfBounds { index, n } => {
                write!(f, "index {index} out of bounds for segment of {n}")
            }
            Error::ReadFailed { chunk, attempts } => write!(
                f,
                "read of chunk (table {}, column {}, segment {}) failed after {attempts} attempt(s)",
                chunk.0, chunk.1, chunk.2
            ),
            Error::ChunkQuarantined { chunk, attempts } => write!(
                f,
                "chunk (table {}, column {}, segment {}) quarantined after {attempts} corrupt read(s)",
                chunk.0, chunk.1, chunk.2
            ),
            Error::CorruptDictCode { index, code, dict_len } => write!(
                f,
                "corrupt PDICT segment: code {code} at position {index} exceeds dictionary of \
                 {dict_len} at a non-exception position"
            ),
            Error::CorruptCodes { block, need, have } => write!(
                f,
                "corrupt code section: block {block} needs {need} words, have {have}"
            ),
            Error::Truncated { offset, need, have } => {
                write!(f, "file truncated at offset {offset}: need {need} bytes, have {have}")
            }
            Error::Frame(e) => write!(f, "{e}"),
            Error::SegmentRangeOutOfBounds { start, end, n_segments } => {
                write!(f, "segment range [{start}, {end}) out of bounds for {n_segments} segments")
            }
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Wire(e) => Some(e),
            Error::Frame(e) => Some(e),
            _ => None,
        }
    }
}

impl From<WireError> for Error {
    fn from(e: WireError) -> Self {
        Error::Wire(e)
    }
}

impl From<crate::frame::FrameError> for Error {
    fn from(e: crate::frame::FrameError) -> Self {
        Error::Frame(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative_for_every_variant() {
        let cases: Vec<(Error, &str)> = vec![
            (Error::Wire(WireError::BadMagic), "magic"),
            (Error::UnalignedRange { start: 5 }, "128-value block"),
            (Error::RangeOutOfBounds { start: 128, len: 64, n: 100 }, "[128, 192)"),
            (Error::IndexOutOfBounds { index: 9, n: 3 }, "index 9"),
            (Error::ReadFailed { chunk: (1, 2, 3), attempts: 4 }, "4 attempt"),
            (Error::ChunkQuarantined { chunk: (1, 2, 3), attempts: 3 }, "quarantined"),
            (Error::CorruptDictCode { index: 7, code: 9, dict_len: 5 }, "corrupt PDICT"),
            (Error::CorruptCodes { block: 2, need: 32, have: 7 }, "block 2"),
            (Error::Truncated { offset: 9, need: 4, have: 1 }, "offset 9"),
            (
                Error::Frame(crate::frame::FrameError::Checksum { stored: 1, computed: 2 }),
                "checksum",
            ),
            (Error::SegmentRangeOutOfBounds { start: 2, end: 9, n_segments: 5 }, "[2, 9)"),
        ];
        for (err, needle) in cases {
            let msg = err.to_string();
            assert!(msg.contains(needle), "{msg:?} should contain {needle:?}");
        }
    }

    #[test]
    fn wire_errors_convert_and_chain() {
        let e: Error = WireError::BadVersion(9).into();
        assert_eq!(e, Error::Wire(WireError::BadVersion(9)));
        assert!(std::error::Error::source(&e).is_some());
        assert!(std::error::Error::source(&Error::UnalignedRange { start: 1 }).is_none());
    }
}
