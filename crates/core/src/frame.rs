//! Checksummed length-prefixed framing, shared by the on-disk container
//! and the network server.
//!
//! One checked implementation serves both consumers:
//!
//! * **Stream frames** — `[u32 LE len][payload][u32 LE CRC32C(payload)]`
//!   read and written over any `io::Read`/`io::Write` ([`read_frame`],
//!   [`write_frame`]). This is the unit of the `scc-server` protocol:
//!   a flipped bit anywhere in the payload fails the trailing checksum
//!   and surfaces as a typed [`FrameError`], never a panic or a
//!   misparse.
//! * **Buffer prefixes** — plain `[u32 LE len][payload]` records inside
//!   an in-memory byte buffer ([`put_len_prefixed`],
//!   [`take_len_prefixed`]), the walk the CLI's `SCCF` container uses.
//!   Structural defects report [`Error::Truncated`] with the same
//!   offsets the container historically produced. (Per-record
//!   integrity there comes from the segment wire format's own
//!   checksums, so the prefix itself carries no CRC.)
//!
//! Both paths share the length-prefix arithmetic and the hand-rolled
//! [`crate::crc`] implementation; neither trusts a length field before
//! bounding it.

use crate::crc::crc32c;
use crate::error::Error;
use std::fmt;
use std::io::{Read, Write};

/// Bytes of the `u32` length prefix.
pub const LEN_PREFIX_BYTES: usize = 4;

/// Fixed per-frame overhead: length prefix plus trailing CRC32C.
pub const FRAME_OVERHEAD: usize = 8;

/// Default ceiling on a single frame's payload. Callers reading from
/// untrusted peers pass their own bound; this is a sane upper limit for
/// cooperating processes (64 MiB).
pub const DEFAULT_MAX_FRAME_BYTES: usize = 64 << 20;

/// A defect in one checksummed stream frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The stream ended cleanly at a frame boundary (zero bytes of the
    /// next frame had arrived). For a network connection this is the
    /// peer hanging up, not corruption.
    Eof,
    /// The declared payload length exceeds the caller's bound. The
    /// frame is rejected before any allocation.
    TooLarge {
        /// Declared payload length.
        len: usize,
        /// The caller's ceiling.
        max: usize,
    },
    /// The payload failed its trailing CRC32C.
    Checksum {
        /// Checksum carried by the frame.
        stored: u32,
        /// Checksum computed over the received payload.
        computed: u32,
    },
    /// The underlying reader or writer failed (includes a stream that
    /// ended *mid*-frame, which arrives as
    /// [`std::io::ErrorKind::UnexpectedEof`]).
    Io(std::io::ErrorKind),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Eof => write!(f, "stream ended at a frame boundary"),
            FrameError::TooLarge { len, max } => {
                write!(f, "frame payload of {len} bytes exceeds the {max}-byte limit")
            }
            FrameError::Checksum { stored, computed } => write!(
                f,
                "frame checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
            ),
            FrameError::Io(kind) => write!(f, "frame i/o failed: {kind}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        FrameError::Io(e.kind())
    }
}

/// Encodes one checksummed frame into a fresh buffer.
pub fn encode(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + FRAME_OVERHEAD);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&crc32c(payload).to_le_bytes());
    out
}

/// Writes one checksummed frame to `w`, looping on short writes
/// explicitly: a writer that accepts only part of the buffer (a full
/// socket send buffer, a throttled peer) gets the remainder on the
/// next call, and `Interrupted` is retried. A write that makes no
/// progress (`Ok(0)`) or times out (a blocking socket with a write
/// timeout reports `WouldBlock`/`TimedOut`) surfaces as a typed
/// [`FrameError::Io`] — a stalled reader can pin the writer only until
/// its write timeout, never forever.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> Result<(), FrameError> {
    let buf = encode(payload);
    let mut written = 0usize;
    while written < buf.len() {
        match w.write(&buf[written..]) {
            Ok(0) => return Err(FrameError::Io(std::io::ErrorKind::WriteZero)),
            Ok(n) => written += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    w.flush()?;
    Ok(())
}

/// Reads one checksummed frame from `r`, bounding the declared payload
/// length by `max_len` *before* allocating. A stream that ends cleanly
/// before the first byte reports [`FrameError::Eof`]; one that ends
/// mid-frame reports [`FrameError::Io`] with
/// [`std::io::ErrorKind::UnexpectedEof`].
pub fn read_frame<R: Read>(r: &mut R, max_len: usize) -> Result<Vec<u8>, FrameError> {
    let mut prefix = [0u8; LEN_PREFIX_BYTES];
    // Distinguish a clean hang-up (zero bytes) from a torn frame.
    let mut got = 0;
    while got < prefix.len() {
        match r.read(&mut prefix[got..]) {
            Ok(0) if got == 0 => return Err(FrameError::Eof),
            Ok(0) => return Err(FrameError::Io(std::io::ErrorKind::UnexpectedEof)),
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    let len = u32::from_le_bytes(prefix) as usize;
    if len > max_len {
        return Err(FrameError::TooLarge { len, max: max_len });
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    let mut crc_bytes = [0u8; 4];
    r.read_exact(&mut crc_bytes)?;
    let stored = u32::from_le_bytes(crc_bytes);
    let computed = crc32c(&payload);
    if stored != computed {
        return Err(FrameError::Checksum { stored, computed });
    }
    Ok(payload)
}

/// Appends one `[u32 LE len][payload]` record to `out` (no CRC — see
/// the module docs for when that is appropriate).
pub fn put_len_prefixed(out: &mut Vec<u8>, payload: &[u8]) {
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Takes the next `[u32 LE len][payload]` record from `bytes` starting
/// at `*pos`, advancing `*pos` past it. A prefix or payload running
/// past the end of the buffer reports [`Error::Truncated`] at the
/// offset where the missing data was expected.
pub fn take_len_prefixed<'a>(bytes: &'a [u8], pos: &mut usize) -> Result<&'a [u8], Error> {
    if *pos + LEN_PREFIX_BYTES > bytes.len() {
        return Err(Error::Truncated {
            offset: *pos,
            need: LEN_PREFIX_BYTES,
            have: bytes.len().saturating_sub(*pos),
        });
    }
    let len = u32::from_le_bytes(bytes[*pos..*pos + 4].try_into().unwrap()) as usize;
    let start = *pos + LEN_PREFIX_BYTES;
    if start + len > bytes.len() {
        return Err(Error::Truncated { offset: start, need: len, have: bytes.len() - start });
    }
    *pos = start + len;
    Ok(&bytes[start..start + len])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frame_roundtrips() {
        let payload = b"hello, columnar world";
        let mut buf = Vec::new();
        write_frame(&mut buf, payload).unwrap();
        assert_eq!(buf.len(), payload.len() + FRAME_OVERHEAD);
        let mut r = Cursor::new(buf);
        assert_eq!(read_frame(&mut r, 1024).unwrap(), payload);
        // The stream now ends cleanly at a frame boundary.
        assert_eq!(read_frame(&mut r, 1024), Err(FrameError::Eof));
    }

    #[test]
    fn empty_payload_roundtrips() {
        let mut r = Cursor::new(encode(b""));
        assert_eq!(read_frame(&mut r, 0).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let payload: Vec<u8> = (0..64u8).collect();
        let clean = encode(&payload);
        // Flips in the payload or CRC must fail the checksum; flips in
        // the length prefix either fail the checksum, truncate, or trip
        // the size bound — never succeed.
        for byte in 0..clean.len() {
            for bit in 0..8 {
                let mut bad = clean.clone();
                bad[byte] ^= 1 << bit;
                let res = read_frame(&mut Cursor::new(&bad), clean.len());
                assert!(res.is_err(), "flip at byte {byte} bit {bit} went undetected");
            }
        }
    }

    #[test]
    fn oversized_declared_length_is_rejected_before_allocation() {
        let mut bad = Vec::new();
        bad.extend_from_slice(&u32::MAX.to_le_bytes());
        let err = read_frame(&mut Cursor::new(&bad), 1024).unwrap_err();
        assert_eq!(err, FrameError::TooLarge { len: u32::MAX as usize, max: 1024 });
    }

    #[test]
    fn torn_frame_is_unexpected_eof_not_clean_eof() {
        let full = encode(b"abcdef");
        for cut in 1..full.len() {
            let err = read_frame(&mut Cursor::new(&full[..cut]), 1024).unwrap_err();
            assert_eq!(err, FrameError::Io(std::io::ErrorKind::UnexpectedEof), "cut at {cut}");
        }
    }

    #[test]
    fn len_prefixed_records_roundtrip_with_typed_truncation() {
        let mut buf = Vec::new();
        put_len_prefixed(&mut buf, b"one");
        put_len_prefixed(&mut buf, b"");
        put_len_prefixed(&mut buf, b"three");
        let mut pos = 0;
        assert_eq!(take_len_prefixed(&buf, &mut pos).unwrap(), b"one");
        assert_eq!(take_len_prefixed(&buf, &mut pos).unwrap(), b"");
        assert_eq!(take_len_prefixed(&buf, &mut pos).unwrap(), b"three");
        assert_eq!(pos, buf.len());
        let err = take_len_prefixed(&buf, &mut pos).unwrap_err();
        assert_eq!(err, Error::Truncated { offset: buf.len(), need: 4, have: 0 });
        // A length that promises more than the buffer holds.
        let mut short = Vec::new();
        put_len_prefixed(&mut short, b"payload");
        short.truncate(short.len() - 2);
        let mut pos = 0;
        let err = take_len_prefixed(&short, &mut pos).unwrap_err();
        assert_eq!(err, Error::Truncated { offset: 4, need: 7, have: 5 });
    }

    /// A writer that accepts at most one byte per call and reports
    /// `Interrupted` on a fixed cadence — the worst legal behaviour of
    /// a `Write` impl short of failing.
    struct TrickleWriter {
        buf: Vec<u8>,
        calls: usize,
    }

    impl Write for TrickleWriter {
        fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
            self.calls += 1;
            if self.calls.is_multiple_of(3) {
                return Err(std::io::Error::from(std::io::ErrorKind::Interrupted));
            }
            let n = data.len().min(1);
            self.buf.extend_from_slice(&data[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn short_and_interrupted_writes_still_produce_one_whole_frame() {
        let payload: Vec<u8> = (0..100u8).collect();
        let mut w = TrickleWriter { buf: Vec::new(), calls: 0 };
        write_frame(&mut w, &payload).unwrap();
        assert_eq!(w.buf, encode(&payload));
        assert_eq!(read_frame(&mut Cursor::new(&w.buf), 1024).unwrap(), payload);
    }

    /// A writer that dies after `accept` bytes, like a peer whose
    /// receive window never reopens.
    struct StallingWriter {
        accept: usize,
        taken: usize,
    }

    impl Write for StallingWriter {
        fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
            if self.taken >= self.accept {
                return Err(std::io::Error::from(std::io::ErrorKind::TimedOut));
            }
            let n = data.len().min(self.accept - self.taken);
            self.taken += n;
            Ok(n)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_timeout_surfaces_as_typed_io_error_at_every_cut() {
        let payload: Vec<u8> = (0..32u8).collect();
        let framed_len = payload.len() + FRAME_OVERHEAD;
        for accept in 0..framed_len {
            let mut w = StallingWriter { accept, taken: 0 };
            let err = write_frame(&mut w, &payload).unwrap_err();
            assert_eq!(err, FrameError::Io(std::io::ErrorKind::TimedOut), "accept {accept}");
        }
    }

    #[test]
    fn zero_progress_write_is_write_zero_not_a_spin() {
        struct NullWriter;
        impl Write for NullWriter {
            fn write(&mut self, _data: &[u8]) -> std::io::Result<usize> {
                Ok(0)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let err = write_frame(&mut NullWriter, b"abc").unwrap_err();
        assert_eq!(err, FrameError::Io(std::io::ErrorKind::WriteZero));
    }

    #[test]
    fn display_is_informative() {
        for (err, needle) in [
            (FrameError::Eof, "boundary"),
            (FrameError::TooLarge { len: 9, max: 4 }, "limit"),
            (FrameError::Checksum { stored: 1, computed: 2 }, "mismatch"),
            (FrameError::Io(std::io::ErrorKind::UnexpectedEof), "i/o"),
        ] {
            assert!(err.to_string().contains(needle), "{err}");
        }
    }
}
