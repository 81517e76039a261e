//! The scc-server runtime: acceptor, bounded worker pool, request
//! dispatch, deadlines, load shedding, graceful drain and telemetry.
//!
//! The threading model is deliberately plain `std::net`/`std::thread`:
//! one acceptor thread pushes accepted connections into a *bounded*
//! queue; `workers` threads pull connections off it and serve each one
//! to completion (requests on a connection are sequential, like
//! classic one-connection-per-worker database listeners). When the
//! queue is full the acceptor **sheds load**: the new connection is
//! answered with a typed [`ErrorCode::Busy`] frame carrying a
//! retry-after hint scaled by the backlog, and dropped — overload
//! produces a fast, machine-readable refusal, never an unbounded
//! backlog.
//!
//! The server has a three-state lifecycle: **running → draining →
//! stopped**. A protocol `Shutdown { force: false }` begins a *drain*:
//! the acceptor stops admitting work (new connections get
//! [`ErrorCode::Draining`] refusals), workers finish every request
//! already read off a socket, idle connections are closed, and the
//! process exits once the queue and the active set are empty — or the
//! drain deadline passes, whichever is first. `Shutdown { force: true }`
//! (and [`Server::stop`]) skips the courtesy and stops immediately.
//! [`Request::Health`] reports the current state in any phase, so a
//! load balancer can stop routing to a draining node before its
//! listener disappears.
//!
//! Corrupt frames are graded by trust in the stream: a frame whose
//! *checksum* fails (or that is over-long or torn) gets a
//! [`ErrorCode::BadFrame`] answer and the connection is closed, since
//! frame sync can no longer be assumed; a frame that checksums cleanly
//! but decodes to nonsense gets [`ErrorCode::BadRequest`] and the
//! connection stays usable. Both read *and* write timeouts are set per
//! connection — a stalled (slow-loris) peer can pin a worker only
//! until the timeout, never forever. Nothing an untrusted peer sends
//! can panic the server — worker bodies are additionally wrapped in
//! `catch_unwind` as a last line of defense.

use crate::protocol::{
    self, ErrorCode, HealthState, HealthWindow, PredOp, Predicate, Request, Response,
};
use crate::Catalog;
use scc_core::frame::{self, FrameError};
use scc_core::{type_literal, Error, TypedLit};
use scc_engine::{ColType, Expr, Operator, VECTOR_SIZE};
use scc_obs::trace;
use scc_storage::{stats_handle, Column, NumColumn, Scan, ScanOptions, Table};
use std::io::ErrorKind;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicU8, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, TrySendError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; use port 0 to let the OS pick (tests).
    pub addr: String,
    /// Worker threads serving connections.
    pub workers: usize,
    /// Accepted connections waiting for a worker before new arrivals
    /// are shed with [`ErrorCode::Busy`]. Must be at least 1.
    pub queue_depth: usize,
    /// Largest request frame accepted, in payload bytes.
    pub max_request_frame: usize,
    /// Upper bound on per-request scan threads, whatever the client
    /// asks for.
    pub max_scan_threads: usize,
    /// Per-request service deadline; exceeding it yields
    /// [`ErrorCode::Timeout`].
    pub deadline: Duration,
    /// How long a connection may sit idle between requests before the
    /// server closes it (also bounds shutdown latency).
    pub idle_timeout: Duration,
    /// How long one response write may block on a stalled reader
    /// before the connection is abandoned.
    pub write_timeout: Duration,
    /// How long a graceful drain may take to finish in-flight requests
    /// before the server stops anyway.
    pub drain_deadline: Duration,
    /// Base of the retry-after hint attached to [`ErrorCode::Busy`]
    /// refusals; the hint scales with the current backlog.
    pub busy_retry_after: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_depth: 32,
            max_request_frame: 1 << 20,
            max_scan_threads: 8,
            deadline: Duration::from_secs(10),
            idle_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            drain_deadline: Duration::from_secs(5),
            busy_retry_after: Duration::from_millis(25),
        }
    }
}

/// Lifecycle states (the shed/drain state machine in docs/SERVER.md).
const STATE_RUNNING: u8 = 0;
const STATE_DRAINING: u8 = 1;
const STATE_STOPPED: u8 = 2;

/// How often a draining worker polls its connection for one more
/// pending request before giving up and closing it.
const DRAIN_POLL: Duration = Duration::from_millis(25);

// Dynamic-name metric helpers (the `counter_add!`-style macros need
// literal names; error-code counters are keyed by the code).
fn m_counter(name: &str, delta: u64) {
    if scc_obs::enabled() {
        scc_obs::global().counter(name).add(delta);
    }
}

fn m_gauge(name: &str, value: f64) {
    if scc_obs::enabled() {
        scc_obs::global().gauge(name).set(value);
    }
}

fn m_histogram(name: &str, value: u64) {
    if scc_obs::enabled() {
        scc_obs::global().histogram(name).record(value);
    }
}

fn m_window(name: &str, value: u64) {
    if scc_obs::enabled() {
        scc_obs::global().windowed(name).record(value);
    }
}

// Sliding-window metric names: the server's tail-latency dashboard
// (`scc top`) and the windowed section of `Response::Health` read
// these. `request_ns` covers data-path requests only (segment-range
// and scan) so health polling cannot dilute the percentiles.
const WIN_REQUEST: &str = "server.win.request_ns";
const WIN_QUEUE_WAIT: &str = "server.win.queue_wait_ns";
const WIN_SHED: &str = "server.win.shed";

/// Books one served data-path request: its service time under its
/// kind's histogram and window and the shared request window, and its
/// queue wait.
fn book_data_request(service: &str, window: &str, started: Instant, queue_wait_ns: u64) {
    let ns = started.elapsed().as_nanos() as u64;
    m_histogram(service, ns);
    m_histogram("server.queue_wait_ns", queue_wait_ns);
    m_window(WIN_REQUEST, ns);
    m_window(window, ns);
    m_window(WIN_QUEUE_WAIT, queue_wait_ns);
}

/// Maps a storage/decode error onto a wire error code. Range errors
/// are the client's fault; integrity errors mean the *server's* data
/// is bad; everything else is internal.
fn error_response(e: &Error) -> Response {
    let code = match e {
        Error::RangeOutOfBounds { .. }
        | Error::SegmentRangeOutOfBounds { .. }
        | Error::IndexOutOfBounds { .. }
        | Error::UnalignedRange { .. } => ErrorCode::RangeOutOfBounds,
        Error::Wire(_)
        | Error::Frame(_)
        | Error::Truncated { .. }
        | Error::CorruptDictCode { .. }
        | Error::CorruptCodes { .. }
        | Error::ChunkQuarantined { .. } => ErrorCode::Corrupt,
        Error::ReadFailed { .. } => ErrorCode::Internal,
    };
    Response::Error { code, message: e.to_string(), retry_after_ms: 0 }
}

fn err(code: ErrorCode, message: impl Into<String>) -> Response {
    Response::Error { code, message: message.into(), retry_after_ms: 0 }
}

struct Shared {
    config: ServerConfig,
    catalog: Catalog,
    addr: SocketAddr,
    state: AtomicU8,
    /// Millis since `started` at which the drain began (0 = never).
    drain_started_ms: AtomicU64,
    started: Instant,
    queued: AtomicI64,
    /// Connections currently inside `handle_conn` on some worker.
    active: AtomicI64,
}

impl Shared {
    fn state(&self) -> u8 {
        self.state.load(Ordering::Acquire)
    }

    fn stopped(&self) -> bool {
        self.state() == STATE_STOPPED
    }

    /// Pokes the acceptor awake with a throwaway connection so it
    /// notices a state change without waiting for a real client.
    fn poke_acceptor(&self) {
        drop(TcpStream::connect(self.addr));
    }

    /// Force-stop: abandon in-flight work and exit as fast as the
    /// worker loops notice.
    fn trigger_stop(&self) {
        self.state.store(STATE_STOPPED, Ordering::Release);
        self.poke_acceptor();
    }

    /// Graceful drain: stop admitting work, finish what was accepted,
    /// then stop. Idempotent; a stop already in progress wins.
    fn begin_drain(&self) {
        if self
            .state
            .compare_exchange(STATE_RUNNING, STATE_DRAINING, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            let ms = self.started.elapsed().as_millis() as u64;
            self.drain_started_ms.store(ms.max(1), Ordering::Release);
            m_counter("server.drain.begin", 1);
            self.poke_acceptor();
        }
    }

    /// Time left before a drain in progress is forced down.
    fn drain_remaining(&self) -> Duration {
        let began = self.drain_started_ms.load(Ordering::Acquire);
        if began == 0 {
            return self.config.drain_deadline;
        }
        let drained_for = self.started.elapsed().saturating_sub(Duration::from_millis(began));
        self.config.drain_deadline.saturating_sub(drained_for)
    }

    /// The retry-after hint for a shed connection: the busier the
    /// queue, the longer the suggested wait (capped at 2 s).
    fn retry_after_hint(&self) -> u32 {
        let backlog = self.queued.load(Ordering::Relaxed).max(0) as u64 + 1;
        (self.config.busy_retry_after.as_millis() as u64 * backlog).min(2_000) as u32
    }

    /// Writes one response frame, maintaining the outcome and byte
    /// counters. Returns false when the peer is gone (including a
    /// write that timed out on a stalled reader, which is counted
    /// separately).
    fn send(&self, stream: &mut TcpStream, resp: &Response) -> bool {
        let payload = {
            let _s = trace::span("server.serialize");
            protocol::encode_response(resp)
        };
        match resp {
            Response::Error { code, .. } => {
                m_counter("server.responses.error", 1);
                m_counter(&format!("server.errors.{}", code.name()), 1);
            }
            _ => m_counter("server.responses.ok", 1),
        }
        self.write(stream, &payload)
    }

    /// Sends a `RawSegments` frame whose payload was encoded straight
    /// from stored segment images (see [`stored_segments`]).
    fn send_stored(&self, stream: &mut TcpStream, payload: &[u8]) -> bool {
        m_counter("server.responses.ok", 1);
        self.write(stream, payload)
    }

    /// Frames and writes one encoded response payload.
    fn write(&self, stream: &mut TcpStream, payload: &[u8]) -> bool {
        m_counter("server.bytes_out", (payload.len() + frame::FRAME_OVERHEAD) as u64);
        let _w = trace::span("server.write");
        match frame::write_frame(stream, payload) {
            Ok(()) => true,
            Err(FrameError::Io(k)) if k == ErrorKind::WouldBlock || k == ErrorKind::TimedOut => {
                m_counter("server.write_timeouts", 1);
                false
            }
            Err(_) => false,
        }
    }

    fn expired(&self, started: Instant) -> bool {
        started.elapsed() >= self.config.deadline
    }

    fn health(&self) -> Response {
        let state = match self.state() {
            STATE_RUNNING => HealthState::Ready,
            _ => HealthState::Draining,
        };
        let req = scc_obs::global().windowed(WIN_REQUEST).snapshot();
        let qw = scc_obs::global().windowed(WIN_QUEUE_WAIT).snapshot();
        let shed = scc_obs::global().windowed(WIN_SHED).snapshot();
        let us = |v: Option<u64>| (v.unwrap_or(0) / 1_000).min(u32::MAX as u64) as u32;
        let window = HealthWindow {
            p50_us: us(req.percentile(0.50)),
            p95_us: us(req.percentile(0.95)),
            p99_us: us(req.percentile(0.99)),
            queue_wait_p50_us: us(qw.percentile(0.50)),
            rps_x100: (req.rate_per_sec() * 100.0).round() as u32,
            shed_per_s_x100: (shed.rate_per_sec() * 100.0).round() as u32,
        };
        Response::Health {
            state,
            workers: self.config.workers.min(u16::MAX as usize) as u16,
            queue_depth: self.queued.load(Ordering::Relaxed).max(0) as u32,
            active: self.active.load(Ordering::Relaxed).max(0) as u32,
            window,
        }
    }

    // -----------------------------------------------------------------
    // Request handlers
    // -----------------------------------------------------------------

    /// The `SegmentRange` answer: `Ok` with a `RawSegments` payload
    /// encoded from the stored segment images, when `raw` and every
    /// touched segment has one, or `Err` with the values or error
    /// response to send.
    fn handle_segment_range(
        &self,
        table: &str,
        column: &str,
        row_start: u64,
        row_len: u32,
        raw: bool,
        started: Instant,
    ) -> Result<Vec<u8>, Response> {
        if self.expired(started) {
            return Err(err(ErrorCode::Timeout, "deadline exceeded before service"));
        }
        let Some(t) = self.catalog.get(table) else {
            return Err(err(ErrorCode::UnknownTable, format!("no table {table}")));
        };
        let Some(ci) = t.find_col(column) else {
            return Err(err(ErrorCode::UnknownColumn, format!("no column {column} in {table}")));
        };
        if matches!(t.columns()[ci].1, Column::Blob(_)) {
            return Err(err(ErrorCode::UnknownColumn, format!("column {column} is a blob")));
        }
        let (start, len) = (row_start as usize, row_len as usize);
        let in_bounds = start.checked_add(len).is_some_and(|end| end <= t.n_rows());
        if !in_bounds {
            return Err(error_response(&Error::RangeOutOfBounds { start, len, n: t.n_rows() }));
        }
        if raw && len > 0 {
            if let (_, Some(stored)) = stored_segments(t, ci, start, len) {
                return Ok(stored);
            }
            // Some touched segment is stored plain or as an LZRW1 page
            // — no checksummed wire form exists — or the range spans
            // more segments than one frame carries, so serve values.
        }
        Err(match t.try_read_rows(ci, start, len) {
            Ok(v) => Response::Values(v),
            Err(e) => error_response(&e),
        })
    }

    /// Why a scan stream must end early, if it must: a forced shutdown
    /// aborts mid-stream (a graceful drain lets the scan finish — it
    /// was accepted work), and so does the request's deadline.
    fn interrupted(&self, started: Instant) -> Option<Response> {
        if self.stopped() {
            Some(err(ErrorCode::Draining, "server stopped mid-scan"))
        } else if self.expired(started) {
            Some(err(ErrorCode::Timeout, "scan exceeded its deadline"))
        } else {
            None
        }
    }

    fn handle_scan(
        &self,
        stream: &mut TcpStream,
        table: &str,
        columns: &[String],
        predicate: Option<&Predicate>,
        threads: u8,
        started: Instant,
    ) {
        let resp = self.build_scan(table, columns, predicate, threads, started);
        let mut op = match resp {
            Ok(op) => op,
            Err(e) => {
                self.send(stream, &e);
                return;
            }
        };
        let (mut rows, mut batches) = (0u64, 0u32);
        loop {
            if let Some(stop) = self.interrupted(started) {
                self.send(stream, &stop);
                return;
            }
            match op.try_next() {
                Ok(Some(b)) => {
                    rows += b.len() as u64;
                    batches += 1;
                    if !self.send(stream, &Response::Batch(b)) {
                        return; // client hung up mid-stream
                    }
                }
                Ok(None) => {
                    self.send(stream, &Response::ScanDone { rows, batches });
                    return;
                }
                Err(e) => {
                    self.send(stream, &error_response(&e));
                    return;
                }
            }
        }
    }

    /// Streams an unfiltered scan in stored form, column by column (see
    /// [`Request::ScanSegments`]): nothing is decoded here unless a
    /// range has no stored wire form.
    fn handle_scan_segments(
        &self,
        stream: &mut TcpStream,
        table: &str,
        columns: &[String],
        started: Instant,
    ) {
        let (t, column_indices) = match self.resolve_scan(table, columns, started) {
            Ok(found) => found,
            Err(e) => {
                self.send(stream, &e);
                return;
            }
        };
        let n_rows = t.n_rows();
        let frame_rows = t.seg_rows() * SCAN_FRAME_SEGMENTS;
        let mut frames = 0u32;
        for ci in column_indices {
            for start in (0..n_rows).step_by(frame_rows) {
                if let Some(stop) = self.interrupted(started) {
                    self.send(stream, &stop);
                    return;
                }
                let len = frame_rows.min(n_rows - start);
                let (vtype, stored) = stored_segments(t, ci, start, len);
                frames += 1;
                let sent = match stored {
                    Some(frame) => self.send_stored(stream, &frame),
                    None => match t.try_read_rows(ci, start, len) {
                        // An empty RawSegments frame announces the values.
                        Ok(v) => {
                            let announce = Response::RawSegments {
                                vtype: vtype.tag(),
                                row_start: start as u64,
                                row_len: len as u32,
                                segments: Vec::new(),
                            };
                            self.send(stream, &announce) && self.send(stream, &Response::Values(v))
                        }
                        Err(e) => {
                            self.send(stream, &error_response(&e));
                            return;
                        }
                    },
                };
                if !sent {
                    return; // client hung up mid-stream
                }
            }
        }
        self.send(stream, &Response::ScanDone { rows: n_rows as u64, batches: frames });
    }

    /// Validates a scan request: the table, a non-empty column list, and
    /// every column known and not a blob. Returns the table and the
    /// columns' indices, or the typed error to answer with.
    fn resolve_scan(
        &self,
        table: &str,
        columns: &[String],
        started: Instant,
    ) -> Result<(&Arc<Table>, Vec<usize>), Response> {
        if self.expired(started) {
            return Err(err(ErrorCode::Timeout, "deadline exceeded before service"));
        }
        let Some(t) = self.catalog.get(table) else {
            return Err(err(ErrorCode::UnknownTable, format!("no table {table}")));
        };
        if columns.is_empty() {
            return Err(err(ErrorCode::BadRequest, "scan needs at least one column"));
        }
        let indices = columns
            .iter()
            .map(|c| match t.find_col(c) {
                None => Err(err(ErrorCode::UnknownColumn, format!("no column {c} in {table}"))),
                Some(ci) if matches!(t.columns()[ci].1, Column::Blob(_)) => {
                    Err(err(ErrorCode::UnknownColumn, format!("column {c} is a blob")))
                }
                Some(ci) => Ok(ci),
            })
            .collect::<Result<_, _>>()?;
        Ok((t, indices))
    }

    fn build_scan(
        &self,
        table: &str,
        columns: &[String],
        predicate: Option<&Predicate>,
        threads: u8,
        started: Instant,
    ) -> Result<Box<dyn Operator>, Response> {
        let (t, _) = self.resolve_scan(table, columns, started)?;
        let expr = match predicate {
            None => None,
            Some(p) => Some(build_predicate(t, columns, p)?),
        };
        // 1024-tuple vectors when the segment size allows, otherwise
        // fall back to the 128-value compression block (which always
        // divides seg_rows).
        let vector_size =
            if t.seg_rows().is_multiple_of(VECTOR_SIZE) { VECTOR_SIZE } else { scc_core::BLOCK };
        let opts = ScanOptions { vector_size, ..ScanOptions::default() };
        let col_refs: Vec<&str> = columns.iter().map(|c| c.as_str()).collect();
        let threads = (threads as usize).clamp(1, self.config.max_scan_threads.max(1));
        Ok(Scan::new(Arc::clone(t), &col_refs, opts, stats_handle(), None).into_plan(expr, threads))
    }
}

/// Most segments one stored-form scan frame covers. Bounds a frame
/// (sixteen 64 Ki-row segments of 8-byte values stay far below the
/// client's 64 MiB frame limit) while a column of up to sixteen
/// segments travels as one frame into one allocation.
const SCAN_FRAME_SEGMENTS: usize = 16;

/// The value type of column `ci` and an encoded `RawSegments` payload of
/// its segments covering `[start, start + len)` (`len > 0`), borrowed
/// from the images the segments are resident as — `None` for the
/// payload when any touched segment has no checksummed representation,
/// or when the range spans more segments than one frame can carry.
fn stored_segments<'t>(
    t: &'t Table,
    ci: usize,
    start: usize,
    len: usize,
) -> (ColType, Option<Vec<u8>>) {
    let (col_name, column) = &t.columns()[ci];
    let (store_wire, vtype): (&dyn Fn(usize) -> Option<&'t [u8]>, ColType) = match column {
        Column::Num(c @ NumColumn::I32(_)) => (&|s| c.segment_wire(s), ColType::I32),
        Column::Num(c @ NumColumn::I64(_)) => (&|s| c.segment_wire(s), ColType::I64),
        Column::Num(c @ NumColumn::U32(_)) => (&|s| c.segment_wire(s), ColType::U32),
        Column::Str(s) => (&|i| s.codes.segment_wire(i), ColType::U32),
        Column::Blob(_) => unreachable!("blob {col_name} rejected before stored_segments"),
    };
    let seg_rows = t.seg_rows();
    let (seg_lo, seg_hi) = (start / seg_rows, (start + len - 1) / seg_rows);
    let segments: Option<Vec<(u64, &[u8])>> =
        (seg_lo..=seg_hi).map(|seg| Some(((seg * seg_rows) as u64, store_wire(seg)?))).collect();
    let payload = segments.and_then(|segments| {
        let _s = trace::span("server.serialize");
        protocol::encode_raw_segments(vtype.tag(), start as u64, len as u32, &segments)
    });
    (vtype, payload)
}

/// Builds the engine expression for a pushed-down predicate, typing
/// the `i64` wire literal to the column's value type via
/// [`scc_core::type_literal`]. A literal outside the column's domain
/// (e.g. `-1` against a `u32` column, or `5e9` against an `i32`)
/// folds to a constant-true or constant-false predicate instead of
/// being truncated with `as` — truncation silently matched the wrong
/// rows whenever the literal's sign or width disagreed with the
/// column's.
fn build_predicate(t: &Table, columns: &[String], p: &Predicate) -> Result<Expr, Response> {
    let Some(batch_idx) = columns.iter().position(|c| *c == p.column) else {
        return Err(err(
            ErrorCode::BadRequest,
            format!("predicate column {} is not in the requested column list", p.column),
        ));
    };
    let ci = t.find_col(&p.column).expect("predicate column resolved above");
    let lit = match &t.columns()[ci].1 {
        Column::Num(NumColumn::I32(_)) => match type_literal::<i32>(p.op, p.literal) {
            TypedLit::Lit(v) => Expr::lit_i32(v),
            TypedLit::AlwaysTrue => return Ok(Expr::lit_bool(true)),
            TypedLit::AlwaysFalse => return Ok(Expr::lit_bool(false)),
        },
        Column::Num(NumColumn::I64(_)) => Expr::lit_i64(p.literal),
        Column::Num(NumColumn::U32(_)) | Column::Str(_) => {
            match type_literal::<u32>(p.op, p.literal) {
                TypedLit::Lit(v) => Expr::lit_u32(v),
                TypedLit::AlwaysTrue => return Ok(Expr::lit_bool(true)),
                TypedLit::AlwaysFalse => return Ok(Expr::lit_bool(false)),
            }
        }
        Column::Blob(_) => unreachable!("blob columns rejected before predicates"),
    };
    let lhs = Expr::col(batch_idx);
    Ok(match p.op {
        PredOp::Eq => lhs.eq(lit),
        PredOp::Ne => lhs.ne(lit),
        PredOp::Lt => lhs.lt(lit),
        PredOp::Le => lhs.le(lit),
        PredOp::Gt => lhs.gt(lit),
        PredOp::Ge => lhs.ge(lit),
    })
}

/// Serves one connection until EOF, idle timeout, a bad frame, or
/// shutdown. During a drain the connection is polled briefly for
/// requests already in flight — anything the client has already sent
/// is served — and closed once it goes quiet.
///
/// `queue_wait_ns` is how long the connection sat in the accept queue
/// before a worker picked it up; it is attached to the first request's
/// trace root (later requests on the connection never queued).
fn handle_conn(shared: &Shared, mut stream: TcpStream, queue_wait_ns: u64) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_write_timeout(Some(shared.config.write_timeout));
    let mut first_request = true;
    loop {
        match shared.state() {
            STATE_STOPPED => return,
            STATE_DRAINING => {
                let remaining = shared.drain_remaining();
                if remaining.is_zero() {
                    return;
                }
                let _ = stream.set_read_timeout(Some(remaining.min(DRAIN_POLL)));
            }
            _ => {
                let _ = stream.set_read_timeout(Some(shared.config.idle_timeout));
            }
        }
        let payload = match frame::read_frame(&mut stream, shared.config.max_request_frame) {
            Ok(p) => p,
            Err(FrameError::Eof) => return,
            Err(FrameError::Io(k)) if k == ErrorKind::WouldBlock || k == ErrorKind::TimedOut => {
                // Idle too long — or, during a drain, no request was
                // pending: either way the connection closes.
                return;
            }
            Err(e) => {
                // Checksum mismatch, over-long frame, or a torn read:
                // the stream may be out of frame sync, so answer and
                // close rather than trying to resynchronize.
                shared.send(&mut stream, &err(ErrorCode::BadFrame, e.to_string()));
                return;
            }
        };
        m_counter("server.bytes_in", (payload.len() + frame::FRAME_OVERHEAD) as u64);
        let started = Instant::now();
        let (req, wire_ctx) = match protocol::decode_request_any(&payload) {
            Ok(p) => p,
            Err(e) => {
                shared.send(&mut stream, &err(ErrorCode::BadRequest, e.to_string()));
                continue;
            }
        };
        // One trace root per request. A wire context joins the client's
        // trace; untraced requests get their own head-sampled (or
        // slow-only) draw. The decode phase completed before the root
        // could exist, so it is recorded as an already-closed child.
        let troot = match wire_ctx {
            Some(ctx) => trace::start_remote_root("server.request", ctx, started),
            None => trace::start_root("server.request"),
        };
        trace::record_closed("server.decode", started, &[("bytes", payload.len() as u64)], None);
        // Per-request queue-wait phase: only the connection's first
        // request actually sat in the admission queue; later requests
        // found their worker already dedicated. Recording the zeros
        // keeps the distribution per-request, so subtracting its
        // percentiles from end-to-end latency percentiles (as loadgen
        // does) compares like with like.
        let req_queue_wait = if first_request { queue_wait_ns } else { 0 };
        if first_request {
            troot.add_attr("queue_wait_ns", queue_wait_ns);
            first_request = false;
        }
        match req {
            Request::SegmentRange { table, column, row_start, row_len, raw } => {
                m_counter("server.requests.segment_range", 1);
                troot.set_tag("kind", "segment_range");
                {
                    let _ex = trace::span("server.execute");
                    match shared
                        .handle_segment_range(&table, &column, row_start, row_len, raw, started)
                    {
                        Ok(stored) => shared.send_stored(&mut stream, &stored),
                        Err(resp) => shared.send(&mut stream, &resp),
                    };
                }
                book_data_request(
                    "server.service_ns.segment_range",
                    "server.win.segment_range_ns",
                    started,
                    req_queue_wait,
                );
            }
            Request::Scan { table, columns, predicate, threads } => {
                m_counter("server.requests.scan", 1);
                troot.set_tag("kind", "scan");
                {
                    let _ex = trace::span("server.execute");
                    shared.handle_scan(
                        &mut stream,
                        &table,
                        &columns,
                        predicate.as_ref(),
                        threads,
                        started,
                    );
                }
                book_data_request(
                    "server.service_ns.scan",
                    "server.win.scan_ns",
                    started,
                    req_queue_wait,
                );
            }
            // Booked as a scan: the stored-form answer to the same
            // question, so the metric inventory stays one `scan` family.
            Request::ScanSegments { table, columns } => {
                m_counter("server.requests.scan", 1);
                troot.set_tag("kind", "scan");
                {
                    let _ex = trace::span("server.execute");
                    shared.handle_scan_segments(&mut stream, &table, &columns, started);
                }
                book_data_request(
                    "server.service_ns.scan",
                    "server.win.scan_ns",
                    started,
                    req_queue_wait,
                );
            }
            Request::Stats => {
                m_counter("server.requests.stats", 1);
                troot.set_tag("kind", "stats");
                let _ex = trace::span("server.execute");
                let json = scc_obs::export::to_json(scc_obs::global()).pretty();
                shared.send(&mut stream, &Response::StatsJson(json));
                drop(_ex);
                m_histogram("server.service_ns.stats", started.elapsed().as_nanos() as u64);
            }
            Request::Health => {
                m_counter("server.requests.health", 1);
                troot.set_tag("kind", "health");
                let resp = shared.health();
                shared.send(&mut stream, &resp);
            }
            Request::Hello { version: _ } => {
                // Answered in every lifecycle state: the handshake is how
                // a coordinator decides whether to talk to this node at
                // all, so even a draining server reports who it is. The
                // server does not reject a mismatched client — it states
                // its own generation and the client decides.
                m_counter("server.requests.hello", 1);
                troot.set_tag("kind", "hello");
                let resp = Response::Hello {
                    version: protocol::PROTOCOL_VERSION,
                    caps: protocol::SERVER_CAPS,
                };
                shared.send(&mut stream, &resp);
            }
            Request::Shutdown { force } => {
                m_counter("server.requests.shutdown", 1);
                troot.set_tag("kind", "shutdown");
                shared.send(&mut stream, &Response::ShutdownAck);
                drop(troot);
                if force {
                    shared.trigger_stop();
                } else {
                    shared.begin_drain();
                }
                return;
            }
        }
    }
}

fn worker_loop(shared: Arc<Shared>, rx: Arc<Mutex<Receiver<(TcpStream, Instant)>>>) {
    loop {
        let (stream, accepted) = {
            let Ok(guard) = rx.lock() else { return };
            match guard.recv() {
                Ok(s) => s,
                Err(_) => return, // acceptor gone and queue drained
            }
        };
        // Order matters for the drain-completion check: the connection
        // is visible as `active` before it stops being `queued`, so
        // `queued + active` never momentarily hits zero while work
        // exists.
        shared.active.fetch_add(1, Ordering::AcqRel);
        let depth = shared.queued.fetch_sub(1, Ordering::AcqRel) - 1;
        m_gauge("server.queue_depth", depth.max(0) as f64);
        if shared.stopped() {
            shared.active.fetch_sub(1, Ordering::AcqRel);
            continue; // fast-drain the queue without serving
        }
        // Queue wait: accept-to-pickup. Recorded per data-path request
        // inside handle_conn (first request carries it, later requests
        // on the admitted connection waited zero) so its percentiles
        // are comparable with per-request latency percentiles.
        let queue_wait_ns = accepted.elapsed().as_nanos() as u64;
        m_gauge("server.active_connections", shared.active.load(Ordering::Relaxed) as f64);
        // A panic while serving one connection (an engine bug, say)
        // must cost that connection only, never the worker or process.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            handle_conn(&shared, stream, queue_wait_ns);
        }));
        let left = shared.active.fetch_sub(1, Ordering::AcqRel) - 1;
        m_gauge("server.active_connections", left.max(0) as f64);
        if outcome.is_err() {
            m_counter("server.errors.panic", 1);
        }
    }
}

/// A running scc-server. Dropping it shuts it down (forced) and joins
/// every thread.
pub struct Server {
    shared: Arc<Shared>,
    acceptor: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds, spawns the acceptor and worker pool, and returns. Also
    /// switches metrics collection on — a server without its
    /// telemetry cannot answer `Stats`.
    pub fn start(config: ServerConfig, catalog: Catalog) -> std::io::Result<Server> {
        assert!(config.workers >= 1, "server needs at least one worker");
        assert!(config.queue_depth >= 1, "queue depth must be at least 1");
        scc_obs::set_enabled(true);
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            config,
            catalog,
            addr,
            state: AtomicU8::new(STATE_RUNNING),
            drain_started_ms: AtomicU64::new(0),
            started: Instant::now(),
            queued: AtomicI64::new(0),
            active: AtomicI64::new(0),
        });
        // The server's slow-trace threshold defaults to half the
        // request deadline: anything past it is worth a trace even
        // when the head-sampling draw said no.
        if trace::collecting() {
            let mut tc = trace::config();
            if tc.slow_ns == 0 {
                tc.slow_ns = (shared.config.deadline.as_nanos() as u64) / 2;
                trace::configure(tc);
            }
        }
        let (tx, rx) = sync_channel::<(TcpStream, Instant)>(shared.config.queue_depth);
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..shared.config.workers)
            .map(|w| {
                let shared = Arc::clone(&shared);
                let rx = Arc::clone(&rx);
                std::thread::Builder::new()
                    .name(format!("scc-serve-{w}"))
                    .spawn(move || worker_loop(shared, rx))
                    .expect("spawn worker")
            })
            .collect();
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("scc-accept".to_string())
                .spawn(move || acceptor_loop(shared, listener, tx))
                .expect("spawn acceptor")
        };
        Ok(Server { shared, acceptor: Some(acceptor), workers })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Forced shutdown: abandons in-flight work and joins all threads.
    pub fn stop(&mut self) {
        self.shared.trigger_stop();
        self.join();
    }

    /// Graceful shutdown: drains in-flight work (bounded by the
    /// configured drain deadline), then joins all threads.
    pub fn drain(&mut self) {
        self.shared.begin_drain();
        self.join();
    }

    /// Blocks until the server shuts down (via a protocol `Shutdown`
    /// request or [`Server::stop`]/[`Server::drain`] from another
    /// thread).
    pub fn wait(mut self) {
        self.join();
    }

    fn join(&mut self) {
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.acceptor.is_some() {
            self.stop();
        }
    }
}

fn acceptor_loop(
    shared: Arc<Shared>,
    listener: TcpListener,
    tx: std::sync::mpsc::SyncSender<(TcpStream, Instant)>,
) {
    loop {
        match shared.state() {
            STATE_STOPPED => return,
            STATE_DRAINING => return drain_loop(&shared, &listener),
            _ => {}
        }
        match listener.accept() {
            Ok((stream, _)) => {
                match shared.state() {
                    STATE_STOPPED => return,
                    STATE_DRAINING => {
                        // The drain poke itself, or a client racing
                        // the drain: refuse it and enter drain mode.
                        refuse_draining(&shared, stream);
                        return drain_loop(&shared, &listener);
                    }
                    _ => {}
                }
                m_counter("server.connections", 1);
                match tx.try_send((stream, Instant::now())) {
                    Ok(()) => {
                        let depth = shared.queued.fetch_add(1, Ordering::AcqRel) + 1;
                        m_gauge("server.queue_depth", depth as f64);
                    }
                    Err(TrySendError::Full((mut stream, _))) => {
                        // Load shed: a typed refusal with a hint beats
                        // an unbounded backlog or a silent drop.
                        m_counter("server.shed.busy", 1);
                        m_window(WIN_SHED, 1);
                        let retry_after_ms = shared.retry_after_hint();
                        let _ = stream.set_write_timeout(Some(shared.config.write_timeout));
                        shared.send(
                            &mut stream,
                            &Response::Error {
                                code: ErrorCode::Busy,
                                message: format!(
                                    "all {} workers busy and {} connections queued",
                                    shared.config.workers, shared.config.queue_depth
                                ),
                                retry_after_ms,
                            },
                        );
                        // Dropping the stream closes the connection.
                    }
                    Err(TrySendError::Disconnected(_)) => return,
                }
            }
            Err(_) => {
                if shared.stopped() {
                    return;
                }
                // Transient accept error (e.g. EMFILE churn): keep going.
            }
        }
    }
}

/// Refuses one connection that arrived during a drain. Best-effort:
/// the poke connection is already closed and a real client may also
/// hang up rather than read the refusal.
fn refuse_draining(shared: &Shared, mut stream: TcpStream) {
    m_counter("server.shed.draining", 1);
    m_window(WIN_SHED, 1);
    let _ = stream.set_write_timeout(Some(shared.config.write_timeout));
    shared.send(
        &mut stream,
        &Response::Error {
            code: ErrorCode::Draining,
            message: "server is draining for shutdown".to_string(),
            retry_after_ms: shared.retry_after_hint(),
        },
    );
}

/// The acceptor's drain phase: refuse new arrivals with a typed
/// [`ErrorCode::Draining`] answer while the workers finish everything
/// already admitted. Exits — dropping the listener and, in the caller,
/// the worker channel — once the queue and active set are empty, the
/// drain deadline passes (the drain is then *forced*), or a stop is
/// triggered.
fn drain_loop(shared: &Shared, listener: &TcpListener) {
    let _ = listener.set_nonblocking(true);
    loop {
        if shared.stopped() {
            return;
        }
        if shared.drain_remaining().is_zero() {
            m_counter("server.drain.forced", 1);
            shared.state.store(STATE_STOPPED, Ordering::Release);
            return;
        }
        let queued = shared.queued.load(Ordering::Acquire);
        let active = shared.active.load(Ordering::Acquire);
        if queued <= 0 && active <= 0 {
            m_counter("server.drain.completed", 1);
            shared.state.store(STATE_STOPPED, Ordering::Release);
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => refuse_draining(shared, stream),
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
}
