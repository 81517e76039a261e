//! The scc-server wire protocol.
//!
//! Every message — request or response — travels as one checksummed
//! frame from `scc_core::frame`:
//!
//! ```text
//! [u32 LE payload len][payload bytes][u32 LE CRC32C(payload)]
//! ```
//!
//! The payload's first byte is the message *kind*; the rest is a
//! kind-specific body of little-endian fixed-width fields and
//! `[u16 LE len][utf-8]` strings. Decoding is strict: every field is
//! bounds-checked before it is read, untrusted counts are bounded
//! before anything is allocated, and trailing bytes after a complete
//! message are an error (the same exact-length discipline as the v2
//! segment wire format). A frame that fails its CRC never reaches this
//! module — `read_frame` rejects it first — so decode errors here mean
//! a *well-checksummed but malformed* payload, which servers answer
//! with [`ErrorCode::BadRequest`] rather than by closing the
//! connection.
//!
//! Scan responses are *streamed* and terminated by
//! [`Response::ScanDone`] (or an error frame, which also ends the
//! stream). A [`Request::Scan`] streams one [`Response::Batch`] frame
//! per engine vector; a [`Request::ScanSegments`] streams each column in
//! turn as [`Response::RawSegments`] frames carrying the stored segment
//! bytes, which the client decodes. Everything else is strictly one
//! request frame → one response frame.

use scc_core::{Error, WireError};
use scc_engine::{Batch, Vector};
use scc_obs::trace::{TraceCtx, CTX_WIRE_BYTES};

/// Request kind byte: entry-point random access to a row range.
pub const REQ_SEGMENT_RANGE: u8 = 0x01;
/// Request kind byte: a trace-context envelope. The payload is
/// `[u64 LE trace_id][u64 LE parent_span_id]` followed by a complete
/// inner request payload — 16 bytes of context, nothing else changes.
/// Sent only by clients that traced the request (presence implies
/// sampled); servers that predate tracing reject it as an unknown
/// kind with [`ErrorCode::BadRequest`], and clients that never trace
/// are wire-identical to before.
pub const REQ_TRACED: u8 = 0x10;
/// Request kind byte: a (possibly parallel, possibly filtered) scan.
pub const REQ_SCAN: u8 = 0x02;
/// Request kind byte: metrics snapshot.
pub const REQ_STATS: u8 = 0x03;
/// Request kind byte: readiness/drain state probe.
pub const REQ_HEALTH: u8 = 0x04;
/// Request kind byte: protocol version/capability handshake. A
/// coordinator sends this as the first frame on a fresh connection; the
/// server answers with its own version byte and capability bits, and
/// the *client* decides whether to proceed. A server that predates the
/// handshake rejects the unknown kind with [`ErrorCode::BadRequest`],
/// which the client maps to the same typed mismatch error — either way
/// the refusal happens before any scan stream starts, never as a CRC
/// failure mid-stream.
pub const REQ_HELLO: u8 = 0x05;
/// Request kind byte: an unfiltered scan answered with the columns'
/// stored segment bytes.
pub const REQ_SCAN_SEGMENTS: u8 = 0x06;
/// Request kind byte: graceful (drain) or forced server shutdown.
pub const REQ_SHUTDOWN: u8 = 0x7F;

/// Response kind byte: decompressed values for a `SegmentRange`.
pub const RESP_VALUES: u8 = 0x81;
/// Response kind byte: raw compressed segments for client-side decode.
pub const RESP_RAW_SEGMENTS: u8 = 0x82;
/// Response kind byte: one streamed scan batch.
pub const RESP_BATCH: u8 = 0x83;
/// Response kind byte: end-of-scan summary.
pub const RESP_SCAN_DONE: u8 = 0x84;
/// Response kind byte: metrics snapshot JSON.
pub const RESP_STATS_JSON: u8 = 0x85;
/// Response kind byte: shutdown acknowledged.
pub const RESP_SHUTDOWN_ACK: u8 = 0x86;
/// Response kind byte: readiness/drain state report.
pub const RESP_HEALTH: u8 = 0x87;
/// Response kind byte: version/capability handshake answer.
pub const RESP_HELLO: u8 = 0x88;
/// Response kind byte: typed error.
pub const RESP_ERROR: u8 = 0xEE;

/// The protocol generation this build speaks. Bumped only on
/// wire-incompatible changes (segment wire format, frame grammar);
/// additive request kinds do not bump it.
pub const PROTOCOL_VERSION: u8 = 2;

/// Capability bit: serves raw compressed segments (`SegmentRange` with
/// `raw`).
pub const CAP_RAW_SEGMENTS: u32 = 1 << 0;
/// Capability bit: accepts pushed-down scan predicates.
pub const CAP_PREDICATE_PUSHDOWN: u32 = 1 << 1;
/// Capability bit: accepts [`REQ_TRACED`] trace-context envelopes.
pub const CAP_TRACE_CTX: u32 = 1 << 2;
/// Capability bit: hosts partition tables (`table#pN`) for cluster
/// serving.
pub const CAP_PARTITIONS: u32 = 1 << 3;
/// Capability bit: answers [`REQ_SCAN_SEGMENTS`] with stored segments.
pub const CAP_SCAN_SEGMENTS: u32 = 1 << 4;

/// Everything this build's server implements.
pub const SERVER_CAPS: u32 =
    CAP_RAW_SEGMENTS | CAP_PREDICATE_PUSHDOWN | CAP_TRACE_CTX | CAP_PARTITIONS | CAP_SCAN_SEGMENTS;

/// Comparison operator of a scan predicate. This is the engine-wide
/// [`scc_core::PredOp`]; its `tag`/`from_tag` pair defines the wire
/// encoding (1..=6), so server and core can never disagree on
/// operator semantics.
pub use scc_core::PredOp;

/// A single-column comparison pushed into a scan. The literal is
/// carried as `i64` and narrowed server-side to the column's value
/// type (string columns compare against a dictionary *code*).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Predicate {
    /// Column the predicate applies to (must be in the request's
    /// column list).
    pub column: String,
    /// Comparison operator.
    pub op: PredOp,
    /// Literal to compare against.
    pub literal: i64,
}

/// A client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Slice-granular random access: rows
    /// `[row_start, row_start + row_len)` of one column. With `raw`
    /// set, the server ships the *compressed* segments covering the
    /// range and the client decodes locally (the RAM–CPU boundary of
    /// the paper, moved across the network).
    SegmentRange {
        /// Table name.
        table: String,
        /// Column name.
        column: String,
        /// First row (global index).
        row_start: u64,
        /// Number of rows.
        row_len: u32,
        /// Prefer raw compressed segments over decoded values.
        raw: bool,
    },
    /// A scan over `columns`, optionally filtered, decoded on
    /// `threads` server workers and streamed back batch by batch.
    Scan {
        /// Table name.
        table: String,
        /// Columns to return, in order.
        columns: Vec<String>,
        /// Optional filter.
        predicate: Option<Predicate>,
        /// Decode threads (clamped by server config; 0 and 1 both
        /// mean serial).
        threads: u8,
    },
    /// An unfiltered scan over `columns` that the server does not
    /// decode. Each column in turn streams as [`Response::RawSegments`]
    /// frames whose ranges tile `[0, rows)`, each frame covering up to a
    /// fixed number of whole segments; a frame whose rows have no stored
    /// form (plain or LZRW1 segments) carries no segments and is
    /// followed by one [`Response::Values`] frame holding exactly those
    /// rows. [`Response::ScanDone`] ends the stream with the table's
    /// row count and the number of `RawSegments` frames.
    ScanSegments {
        /// Table name.
        table: String,
        /// Columns to return, in order.
        columns: Vec<String>,
    },
    /// Metrics snapshot (schema-v1 JSON).
    Stats,
    /// Readiness probe: is the server accepting work, or draining?
    /// Served in every state — a draining server still answers.
    Health,
    /// Version/capability handshake: the client states the protocol
    /// generation it speaks; the server answers [`Response::Hello`]
    /// unconditionally (even while draining) and the client compares.
    Hello {
        /// The client's [`PROTOCOL_VERSION`].
        version: u8,
    },
    /// Ask the server to stop. Without `force` the server *drains*:
    /// it stops accepting connections, finishes every in-flight
    /// request under its drain deadline, then exits. With `force` it
    /// aborts in-flight work and exits immediately.
    Shutdown {
        /// Abort in-flight requests instead of draining.
        force: bool,
    },
}

/// One raw compressed segment in a [`Response::RawSegments`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawSegment {
    /// Global row index of the segment's first row.
    pub first_row: u64,
    /// Checksummed v2 wire bytes (`Segment::to_bytes`).
    pub bytes: Vec<u8>,
}

/// A server response frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Decoded values for a `SegmentRange` request.
    Values(Vector),
    /// Raw compressed segments covering a requested range; the client
    /// decodes the slice itself.
    RawSegments {
        /// `ColType` tag of the decoded values.
        vtype: u8,
        /// Echo of the requested first row.
        row_start: u64,
        /// Echo of the requested row count.
        row_len: u32,
        /// The segments the range touches, in row order.
        segments: Vec<RawSegment>,
    },
    /// One streamed scan batch.
    Batch(Batch),
    /// End of a scan stream.
    ScanDone {
        /// Total rows streamed.
        rows: u64,
        /// Total batch frames streamed.
        batches: u32,
    },
    /// Metrics snapshot.
    StatsJson(String),
    /// Shutdown acknowledged; the server exits once in-flight
    /// connections drain.
    ShutdownAck,
    /// Readiness/drain state report.
    Health {
        /// Current lifecycle state.
        state: HealthState,
        /// Configured worker threads.
        workers: u16,
        /// Accepted connections waiting for a worker right now.
        queue_depth: u32,
        /// Connections currently being served by a worker.
        active: u32,
        /// Sliding-window load/latency summary.
        window: HealthWindow,
    },
    /// Version/capability handshake answer.
    Hello {
        /// The server's [`PROTOCOL_VERSION`].
        version: u8,
        /// Capability bitmask ([`CAP_RAW_SEGMENTS`] etc.).
        caps: u32,
    },
    /// Typed failure.
    Error {
        /// Machine-readable code.
        code: ErrorCode,
        /// Human-readable detail (the `Display` of the underlying
        /// typed error, where there is one).
        message: String,
        /// For load-shed refusals ([`ErrorCode::Busy`],
        /// [`ErrorCode::Draining`]): how long the client should wait
        /// before retrying, in milliseconds. `0` means no hint.
        retry_after_ms: u32,
    },
}

/// Sliding-window summary carried in [`Response::Health`]: service
/// latency percentiles, queue-wait median, completion and shed rates —
/// all over the server's metrics window (10 s by default), so a
/// dashboard polling `Health` sees load *now*, not since boot.
/// Microsecond fields saturate at `u32::MAX` (~71 minutes); rates are
/// fixed-point ×100.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HealthWindow {
    /// Windowed p50 service time, microseconds.
    pub p50_us: u32,
    /// Windowed p95 service time, microseconds.
    pub p95_us: u32,
    /// Windowed p99 service time, microseconds.
    pub p99_us: u32,
    /// Windowed p50 queue wait (accept → worker pickup), microseconds.
    pub queue_wait_p50_us: u32,
    /// Requests completed per second over the window, ×100.
    pub rps_x100: u32,
    /// Connections shed (busy + draining) per second over the window, ×100.
    pub shed_per_s_x100: u32,
}

/// Server lifecycle state carried in [`Response::Health`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthState {
    /// Accepting and serving requests.
    Ready = 0,
    /// Draining: in-flight requests are being finished, new
    /// connections are refused with [`ErrorCode::Draining`].
    Draining = 1,
}

impl HealthState {
    /// Wire tag → state.
    pub fn from_tag(tag: u8) -> Option<HealthState> {
        Some(match tag {
            0 => HealthState::Ready,
            1 => HealthState::Draining,
            _ => return None,
        })
    }

    /// Stable snake_case name (metric label / log token).
    pub fn name(self) -> &'static str {
        match self {
            HealthState::Ready => "ready",
            HealthState::Draining => "draining",
        }
    }
}

impl std::fmt::Display for HealthState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Machine-readable error codes carried in [`Response::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The frame itself was bad: checksum mismatch, over-long, or
    /// torn. The server closes the connection after sending this —
    /// the stream can no longer be trusted to be in frame sync.
    BadFrame = 1,
    /// The frame was sound but the payload didn't decode as a
    /// request. Connection stays open.
    BadRequest = 2,
    /// Unknown table name.
    UnknownTable = 3,
    /// Unknown column name (or a blob column, which has no values).
    UnknownColumn = 4,
    /// Requested rows fall outside the column/table.
    RangeOutOfBounds = 5,
    /// Server's accept queue is full; retry later.
    Busy = 6,
    /// The request exceeded its service deadline.
    Timeout = 7,
    /// Stored data failed integrity checks during decode.
    Corrupt = 8,
    /// Anything else.
    Internal = 9,
    /// The server is draining for shutdown; retry against another
    /// replica (or after the hinted delay, if it is restarting).
    Draining = 10,
}

impl ErrorCode {
    /// Wire tag → code.
    pub fn from_tag(tag: u8) -> Option<ErrorCode> {
        Some(match tag {
            1 => ErrorCode::BadFrame,
            2 => ErrorCode::BadRequest,
            3 => ErrorCode::UnknownTable,
            4 => ErrorCode::UnknownColumn,
            5 => ErrorCode::RangeOutOfBounds,
            6 => ErrorCode::Busy,
            7 => ErrorCode::Timeout,
            8 => ErrorCode::Corrupt,
            9 => ErrorCode::Internal,
            10 => ErrorCode::Draining,
            _ => return None,
        })
    }

    /// Stable snake_case name (metric label / log token).
    pub fn name(self) -> &'static str {
        match self {
            ErrorCode::BadFrame => "bad_frame",
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::UnknownTable => "unknown_table",
            ErrorCode::UnknownColumn => "unknown_column",
            ErrorCode::RangeOutOfBounds => "range_out_of_bounds",
            ErrorCode::Busy => "busy",
            ErrorCode::Timeout => "timeout",
            ErrorCode::Corrupt => "corrupt",
            ErrorCode::Internal => "internal",
            ErrorCode::Draining => "draining",
        }
    }

    /// Whether a client should retry after seeing this code. `Busy`,
    /// `Draining` and `Timeout` are transient server states; everything
    /// else means the request itself (or the server's data) is bad and
    /// a retry would fail identically.
    pub fn is_retryable(self) -> bool {
        matches!(self, ErrorCode::Busy | ErrorCode::Draining | ErrorCode::Timeout)
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

// ---------------------------------------------------------------------
// Cursor: strict bounds-checked reads over an untrusted payload.
// ---------------------------------------------------------------------

struct Cur<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], Error> {
        if self.buf.len() - self.pos < n {
            return Err(Error::Truncated {
                offset: self.pos,
                need: n,
                have: self.buf.len() - self.pos,
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, Error> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, Error> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, Error> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, Error> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn i64(&mut self) -> Result<i64, Error> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn str(&mut self) -> Result<String, Error> {
        let len = self.u16()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| Error::Wire(WireError::Corrupt("invalid utf-8 in protocol string")))
    }

    /// A scan's column list: `[u8 n][n × str]`.
    fn columns(&mut self) -> Result<Vec<String>, Error> {
        let n = self.u8()? as usize;
        (0..n).map(|_| self.str()).collect()
    }

    /// Rejects payloads with bytes after the message — a framing layer
    /// must not smuggle extra data past the decoder.
    fn done(&self) -> Result<(), Error> {
        if self.pos != self.buf.len() {
            return Err(Error::Wire(WireError::Corrupt("trailing bytes after message")));
        }
        Ok(())
    }
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    assert!(s.len() <= u16::MAX as usize, "protocol string too long");
    put_u16(out, s.len() as u16);
    out.extend_from_slice(s.as_bytes());
}

fn put_columns(out: &mut Vec<u8>, columns: &[String]) {
    assert!(columns.len() <= u8::MAX as usize, "too many scan columns");
    out.push(columns.len() as u8);
    for c in columns {
        put_str(out, c);
    }
}

// ---------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------

/// Serializes a request payload (framing is the caller's job).
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut out = Vec::new();
    match req {
        Request::SegmentRange { table, column, row_start, row_len, raw } => {
            out.push(REQ_SEGMENT_RANGE);
            put_str(&mut out, table);
            put_str(&mut out, column);
            put_u64(&mut out, *row_start);
            put_u32(&mut out, *row_len);
            out.push(u8::from(*raw));
        }
        Request::Scan { table, columns, predicate, threads } => {
            out.push(REQ_SCAN);
            put_str(&mut out, table);
            put_columns(&mut out, columns);
            match predicate {
                None => out.push(0),
                Some(p) => {
                    out.push(1);
                    put_str(&mut out, &p.column);
                    out.push(p.op as u8);
                    put_u64(&mut out, p.literal as u64);
                }
            }
            out.push(*threads);
        }
        Request::ScanSegments { table, columns } => {
            out.push(REQ_SCAN_SEGMENTS);
            put_str(&mut out, table);
            put_columns(&mut out, columns);
        }
        Request::Stats => out.push(REQ_STATS),
        Request::Health => out.push(REQ_HEALTH),
        Request::Hello { version } => {
            out.push(REQ_HELLO);
            out.push(*version);
        }
        Request::Shutdown { force } => {
            out.push(REQ_SHUTDOWN);
            out.push(u8::from(*force));
        }
    }
    out
}

/// Serializes a request wrapped in a [`REQ_TRACED`] trace-context
/// envelope (framing is still the caller's job).
pub fn encode_request_traced(req: &Request, ctx: TraceCtx) -> Vec<u8> {
    let inner = encode_request(req);
    let mut out = Vec::with_capacity(1 + CTX_WIRE_BYTES + inner.len());
    out.push(REQ_TRACED);
    out.extend_from_slice(&ctx.to_wire());
    out.extend_from_slice(&inner);
    out
}

/// Parses a request payload that may carry a [`REQ_TRACED`] envelope;
/// returns the inner request plus the trace context, if any. This is
/// what servers call — [`decode_request`] keeps the strict untraced
/// grammar for callers that must not see envelopes.
pub fn decode_request_any(payload: &[u8]) -> Result<(Request, Option<TraceCtx>), Error> {
    if payload.first() == Some(&REQ_TRACED) {
        let body = &payload[1..];
        if body.len() < CTX_WIRE_BYTES {
            return Err(Error::Truncated { offset: 1, need: CTX_WIRE_BYTES, have: body.len() });
        }
        let ctx = TraceCtx::from_wire(body[..CTX_WIRE_BYTES].try_into().unwrap());
        // The inner payload is a complete request; a nested envelope is
        // rejected by `decode_request` as an unknown kind.
        let req = decode_request(&body[CTX_WIRE_BYTES..])?;
        Ok((req, Some(ctx)))
    } else {
        Ok((decode_request(payload)?, None))
    }
}

/// Parses a request payload. Errors are typed `scc_core` errors —
/// servers map them to [`ErrorCode::BadRequest`].
pub fn decode_request(payload: &[u8]) -> Result<Request, Error> {
    let mut c = Cur::new(payload);
    let req = match c.u8()? {
        REQ_SEGMENT_RANGE => {
            let table = c.str()?;
            let column = c.str()?;
            let row_start = c.u64()?;
            let row_len = c.u32()?;
            let raw = match c.u8()? {
                0 => false,
                1 => true,
                _ => return Err(Error::Wire(WireError::Corrupt("bad raw flag"))),
            };
            Request::SegmentRange { table, column, row_start, row_len, raw }
        }
        REQ_SCAN => {
            let table = c.str()?;
            let columns = c.columns()?;
            let predicate = match c.u8()? {
                0 => None,
                1 => {
                    let column = c.str()?;
                    let op = PredOp::from_tag(c.u8()?)
                        .ok_or(Error::Wire(WireError::Corrupt("unknown predicate op")))?;
                    let literal = c.i64()?;
                    Some(Predicate { column, op, literal })
                }
                _ => return Err(Error::Wire(WireError::Corrupt("bad predicate flag"))),
            };
            let threads = c.u8()?;
            Request::Scan { table, columns, predicate, threads }
        }
        REQ_SCAN_SEGMENTS => Request::ScanSegments { table: c.str()?, columns: c.columns()? },
        REQ_STATS => Request::Stats,
        REQ_HEALTH => Request::Health,
        REQ_HELLO => Request::Hello { version: c.u8()? },
        REQ_SHUTDOWN => {
            let force = match c.u8()? {
                0 => false,
                1 => true,
                _ => return Err(Error::Wire(WireError::Corrupt("bad shutdown force flag"))),
            };
            Request::Shutdown { force }
        }
        _ => return Err(Error::Wire(WireError::Corrupt("unknown request kind"))),
    };
    c.done()?;
    Ok(req)
}

// ---------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------

/// Serializes a response payload (framing is the caller's job).
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut out = Vec::new();
    match resp {
        Response::Values(v) => {
            out.push(RESP_VALUES);
            v.write_wire(&mut out);
        }
        Response::RawSegments { vtype, row_start, row_len, segments } => {
            out.push(RESP_RAW_SEGMENTS);
            out.push(*vtype);
            put_u64(&mut out, *row_start);
            put_u32(&mut out, *row_len);
            assert!(segments.len() <= u16::MAX as usize, "too many raw segments");
            put_u16(&mut out, segments.len() as u16);
            for seg in segments {
                put_u64(&mut out, seg.first_row);
                scc_core::frame::put_len_prefixed(&mut out, &seg.bytes);
            }
        }
        Response::Batch(batch) => {
            out.push(RESP_BATCH);
            assert!(batch.columns.len() <= u8::MAX as usize, "too many batch columns");
            out.push(batch.columns.len() as u8);
            for col in &batch.columns {
                col.write_wire(&mut out);
            }
        }
        Response::ScanDone { rows, batches } => {
            out.push(RESP_SCAN_DONE);
            put_u64(&mut out, *rows);
            put_u32(&mut out, *batches);
        }
        Response::StatsJson(json) => {
            out.push(RESP_STATS_JSON);
            put_u32(&mut out, json.len() as u32);
            out.extend_from_slice(json.as_bytes());
        }
        Response::ShutdownAck => out.push(RESP_SHUTDOWN_ACK),
        Response::Health { state, workers, queue_depth, active, window } => {
            out.push(RESP_HEALTH);
            out.push(*state as u8);
            put_u16(&mut out, *workers);
            put_u32(&mut out, *queue_depth);
            put_u32(&mut out, *active);
            put_u32(&mut out, window.p50_us);
            put_u32(&mut out, window.p95_us);
            put_u32(&mut out, window.p99_us);
            put_u32(&mut out, window.queue_wait_p50_us);
            put_u32(&mut out, window.rps_x100);
            put_u32(&mut out, window.shed_per_s_x100);
        }
        Response::Hello { version, caps } => {
            out.push(RESP_HELLO);
            out.push(*version);
            put_u32(&mut out, *caps);
        }
        Response::Error { code, message, retry_after_ms } => {
            out.push(RESP_ERROR);
            out.push(*code as u8);
            put_str(&mut out, message);
            put_u32(&mut out, *retry_after_ms);
        }
    }
    out
}

/// Parses a response payload (the client half of the protocol; also
/// strict, so a buggy or hostile server cannot make the client read
/// out of bounds).
pub fn decode_response(payload: &[u8]) -> Result<Response, Error> {
    let mut c = Cur::new(payload);
    let resp = match c.u8()? {
        RESP_VALUES => {
            let mut pos = c.pos;
            let v = Vector::read_wire(c.buf, &mut pos)?;
            c.pos = pos;
            Response::Values(v)
        }
        RESP_RAW_SEGMENTS => {
            let vtype = c.u8()?;
            let row_start = c.u64()?;
            let row_len = c.u32()?;
            let n = c.u16()? as usize;
            let mut segments = Vec::new();
            for _ in 0..n {
                let first_row = c.u64()?;
                let mut pos = c.pos;
                let bytes = scc_core::frame::take_len_prefixed(c.buf, &mut pos)?.to_vec();
                c.pos = pos;
                segments.push(RawSegment { first_row, bytes });
            }
            Response::RawSegments { vtype, row_start, row_len, segments }
        }
        RESP_BATCH => {
            let n_cols = c.u8()? as usize;
            let mut columns = Vec::with_capacity(n_cols);
            let mut pos = c.pos;
            for _ in 0..n_cols {
                columns.push(Vector::read_wire(c.buf, &mut pos)?);
            }
            c.pos = pos;
            Response::Batch(Batch::new(columns))
        }
        RESP_SCAN_DONE => {
            let rows = c.u64()?;
            let batches = c.u32()?;
            Response::ScanDone { rows, batches }
        }
        RESP_STATS_JSON => {
            let len = c.u32()? as usize;
            let bytes = c.take(len)?;
            let json = String::from_utf8(bytes.to_vec())
                .map_err(|_| Error::Wire(WireError::Corrupt("invalid utf-8 in stats json")))?;
            Response::StatsJson(json)
        }
        RESP_SHUTDOWN_ACK => Response::ShutdownAck,
        RESP_HEALTH => {
            let state = HealthState::from_tag(c.u8()?)
                .ok_or(Error::Wire(WireError::Corrupt("unknown health state")))?;
            let workers = c.u16()?;
            let queue_depth = c.u32()?;
            let active = c.u32()?;
            let window = HealthWindow {
                p50_us: c.u32()?,
                p95_us: c.u32()?,
                p99_us: c.u32()?,
                queue_wait_p50_us: c.u32()?,
                rps_x100: c.u32()?,
                shed_per_s_x100: c.u32()?,
            };
            Response::Health { state, workers, queue_depth, active, window }
        }
        RESP_HELLO => Response::Hello { version: c.u8()?, caps: c.u32()? },
        RESP_ERROR => {
            let code = ErrorCode::from_tag(c.u8()?)
                .ok_or(Error::Wire(WireError::Corrupt("unknown error code")))?;
            let message = c.str()?;
            let retry_after_ms = c.u32()?;
            Response::Error { code, message, retry_after_ms }
        }
        _ => return Err(Error::Wire(WireError::Corrupt("unknown response kind"))),
    };
    c.done()?;
    Ok(resp)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(req: Request) {
        let bytes = encode_request(&req);
        assert_eq!(decode_request(&bytes).unwrap(), req, "{req:?}");
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip_request(Request::SegmentRange {
            table: "demo".into(),
            column: "val".into(),
            row_start: 123_456_789,
            row_len: 4096,
            raw: true,
        });
        roundtrip_request(Request::Scan {
            table: "demo".into(),
            columns: vec!["key".into(), "val".into()],
            predicate: Some(Predicate { column: "val".into(), op: PredOp::Lt, literal: -7 }),
            threads: 4,
        });
        roundtrip_request(Request::Scan {
            table: "t".into(),
            columns: vec![],
            predicate: None,
            threads: 0,
        });
        roundtrip_request(Request::ScanSegments {
            table: "demo".into(),
            columns: vec!["key".into(), "val".into(), "flag".into()],
        });
        roundtrip_request(Request::ScanSegments { table: "t".into(), columns: vec![] });
        roundtrip_request(Request::Stats);
        roundtrip_request(Request::Health);
        roundtrip_request(Request::Hello { version: PROTOCOL_VERSION });
        roundtrip_request(Request::Shutdown { force: false });
        roundtrip_request(Request::Shutdown { force: true });
    }

    #[test]
    fn responses_roundtrip() {
        for resp in [
            Response::Values(Vector::I64(vec![1, -2, 3])),
            Response::RawSegments {
                vtype: 2,
                row_start: 100,
                row_len: 50,
                segments: vec![
                    RawSegment { first_row: 0, bytes: vec![1, 2, 3] },
                    RawSegment { first_row: 8192, bytes: vec![] },
                ],
            },
            Response::Batch(Batch::new(vec![Vector::I64(vec![1, 2]), Vector::U32(vec![9, 10])])),
            Response::ScanDone { rows: 1_000_000, batches: 977 },
            Response::StatsJson("{\"schema\":1}".into()),
            Response::ShutdownAck,
            Response::Health {
                state: HealthState::Draining,
                workers: 4,
                queue_depth: 7,
                active: 3,
                window: HealthWindow {
                    p50_us: 1_200,
                    p95_us: 9_500,
                    p99_us: 120_000,
                    queue_wait_p50_us: 340,
                    rps_x100: 12_345,
                    shed_per_s_x100: 50,
                },
            },
            Response::Hello { version: PROTOCOL_VERSION, caps: SERVER_CAPS },
            Response::Error {
                code: ErrorCode::Busy,
                message: "queue full".into(),
                retry_after_ms: 250,
            },
        ] {
            let bytes = encode_response(&resp);
            assert_eq!(decode_response(&bytes).unwrap(), resp, "{resp:?}");
        }
    }

    #[test]
    fn traced_envelope_roundtrips_and_plain_requests_pass_through() {
        let ctx = TraceCtx { trace_id: 0xDEAD_BEEF_CAFE_F00D, parent_span: 0x0123_4567_89AB_CDEF };
        let req = Request::SegmentRange {
            table: "demo".into(),
            column: "val".into(),
            row_start: 42,
            row_len: 128,
            raw: true,
        };
        let wrapped = encode_request_traced(&req, ctx);
        assert_eq!(wrapped[0], REQ_TRACED);
        assert_eq!(&wrapped[1 + CTX_WIRE_BYTES..], &encode_request(&req)[..]);
        assert_eq!(decode_request_any(&wrapped).unwrap(), (req.clone(), Some(ctx)));
        // Plain requests pass through with no context attached.
        assert_eq!(decode_request_any(&encode_request(&req)).unwrap(), (req, None));
        // A server predating the envelope rejects it as an unknown
        // request tag — typed error, not a hang or a panic.
        assert!(decode_request(&wrapped).is_err());
    }

    #[test]
    fn traced_envelope_truncations_and_nesting_are_typed_errors() {
        let ctx = TraceCtx { trace_id: 7, parent_span: 9 };
        let wrapped = encode_request_traced(&Request::Stats, ctx);
        for cut in 0..wrapped.len() {
            assert!(decode_request_any(&wrapped[..cut]).is_err(), "cut at {cut}");
        }
        // A traced envelope inside a traced envelope is nonsense: the
        // inner payload must be a bare request, and REQ_TRACED is not
        // a request tag.
        let mut nested = Vec::from([REQ_TRACED]);
        nested.extend_from_slice(&ctx.to_wire());
        nested.extend_from_slice(&wrapped);
        assert!(decode_request_any(&nested).is_err());
    }

    #[test]
    fn trace_ctx_wire_form_is_two_le_u64s() {
        let ctx = TraceCtx { trace_id: u64::MAX - 1, parent_span: 1 };
        let wire = ctx.to_wire();
        assert_eq!(wire.len(), CTX_WIRE_BYTES);
        assert_eq!(u64::from_le_bytes(wire[..8].try_into().unwrap()), u64::MAX - 1);
        assert_eq!(u64::from_le_bytes(wire[8..].try_into().unwrap()), 1);
        assert_eq!(TraceCtx::from_wire(&wire), ctx);
    }

    #[test]
    fn every_truncation_of_every_message_is_a_typed_error() {
        let messages: Vec<Vec<u8>> = vec![
            encode_request(&Request::SegmentRange {
                table: "demo".into(),
                column: "val".into(),
                row_start: 7,
                row_len: 8,
                raw: false,
            }),
            encode_request(&Request::Scan {
                table: "demo".into(),
                columns: vec!["key".into()],
                predicate: Some(Predicate { column: "key".into(), op: PredOp::Ge, literal: 5 }),
                threads: 2,
            }),
            encode_response(&Response::Values(Vector::I32(vec![5, 6, 7]))),
            encode_response(&Response::RawSegments {
                vtype: 1,
                row_start: 0,
                row_len: 1,
                segments: vec![RawSegment { first_row: 0, bytes: vec![0xAB; 9] }],
            }),
            encode_response(&Response::Error {
                code: ErrorCode::Timeout,
                message: "too slow".into(),
                retry_after_ms: 0,
            }),
            encode_response(&Response::Health {
                state: HealthState::Ready,
                workers: 2,
                queue_depth: 0,
                active: 1,
                window: HealthWindow::default(),
            }),
            encode_request(&Request::Shutdown { force: true }),
            encode_request(&Request::Hello { version: PROTOCOL_VERSION }),
            encode_response(&Response::Hello { version: PROTOCOL_VERSION, caps: SERVER_CAPS }),
        ];
        for msg in &messages {
            for cut in 0..msg.len() {
                let torn = &msg[..cut];
                assert!(
                    decode_request(torn).is_err() && decode_response(torn).is_err(),
                    "cut at {cut} of {} decoded",
                    msg.len()
                );
            }
        }
    }

    #[test]
    fn trailing_bytes_and_bad_tags_are_rejected() {
        let mut bytes = encode_request(&Request::Stats);
        bytes.push(0);
        assert!(decode_request(&bytes).is_err());

        assert!(decode_request(&[0x42]).is_err());
        assert!(decode_response(&[0x42]).is_err());

        // Error frame with an unknown code tag.
        let mut err = encode_response(&Response::Error {
            code: ErrorCode::Internal,
            message: "x".into(),
            retry_after_ms: 0,
        });
        err[1] = 0xFF;
        assert!(decode_response(&err).is_err());

        // Health frame with an unknown state tag.
        let mut health = encode_response(&Response::Health {
            state: HealthState::Ready,
            workers: 1,
            queue_depth: 0,
            active: 0,
            window: HealthWindow::default(),
        });
        health[1] = 0x7;
        assert!(decode_response(&health).is_err());

        // Shutdown with a force flag outside {0, 1}.
        let mut shutdown = encode_request(&Request::Shutdown { force: false });
        *shutdown.last_mut().unwrap() = 2;
        assert!(decode_request(&shutdown).is_err());

        // Predicate op tag outside 1..=6.
        let mut scan = encode_request(&Request::Scan {
            table: "t".into(),
            columns: vec!["c".into()],
            predicate: Some(Predicate { column: "c".into(), op: PredOp::Eq, literal: 0 }),
            threads: 1,
        });
        let op_at = scan.len() - 1 - 8 - 1;
        assert_eq!(scan[op_at], PredOp::Eq as u8);
        scan[op_at] = 99;
        assert!(decode_request(&scan).is_err());
    }

    #[test]
    fn scan_segments_shares_the_scan_column_list_and_is_strict() {
        let columns = vec!["key".to_string(), "val".to_string()];
        let stored = encode_request(&Request::ScanSegments {
            table: "demo".into(),
            columns: columns.clone(),
        });
        let streamed = encode_request(&Request::Scan {
            table: "demo".into(),
            columns,
            predicate: None,
            threads: 0,
        });
        assert_eq!(stored[0], REQ_SCAN_SEGMENTS);
        // The same table and column list; `Scan` then adds its predicate
        // flag and thread count.
        assert_eq!(&stored[1..], &streamed[1..streamed.len() - 2]);
        let mut trailing = stored.clone();
        trailing.push(0);
        assert!(decode_request(&trailing).is_err());
        for cut in 0..stored.len() {
            assert!(decode_request(&stored[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn negative_literals_survive_the_u64_carrier() {
        let req = Request::Scan {
            table: "t".into(),
            columns: vec!["c".into()],
            predicate: Some(Predicate {
                column: "c".into(),
                op: PredOp::Le,
                literal: i64::MIN + 1,
            }),
            threads: 1,
        };
        let decoded = decode_request(&encode_request(&req)).unwrap();
        assert_eq!(decoded, req);
    }
}
