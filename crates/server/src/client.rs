//! Client half of the protocol: one-connection [`Client`], the
//! deadline-aware retry layer ([`RetryPolicy`]/[`RetryingClient`]),
//! plus the closed-loop load generator.
//!
//! [`Client`] is a thin blocking wrapper over one transport (a bare
//! `TcpStream`, or a fault-injecting [`ChaosStream`] in chaos runs):
//! it frames requests, verifies response checksums (via
//! `scc_core::frame`), and decodes responses — including *raw*
//! segment-range responses, which it decompresses locally with the
//! same `Segment` decode path the server would have used. That is the
//! paper's RAM–CPU boundary stretched over a network: the compressed
//! form travels, and decompression happens next to the consumer.
//!
//! [`RetryingClient`] wraps request issue in a bounded retry loop:
//! exponential backoff with seeded jitter, a per-request deadline
//! capping *cumulative* attempts, typed classification of retryable
//! vs. fatal errors ([`ClientError::is_retryable`]), and server
//! retry-after hints honoured up to the deadline. When the budget runs
//! out the caller gets [`ClientError::RetryExhausted`] carrying the
//! full attempt trace.
//!
//! [`run_loadgen`] drives a server with a deterministic closed-loop
//! mix of segment-range and scan requests from N client threads,
//! byte-verifies every response against a local replica table, and
//! reports exact latency percentiles, throughput and retry counts.

use crate::chaos::{ChaosPlan, ChaosStream, Transport};
use crate::protocol::{
    self, ErrorCode, HealthState, HealthWindow, PredOp, Predicate, RawSegment, Request, Response,
};
use scc_core::frame::{self, FrameError};
use scc_core::{Error, Segment, Value, WireError, BLOCK};
use scc_engine::{ops, Batch, ColType, Expr, Select, Vector};
use scc_obs::trace;
use scc_storage::{stats_handle, Column, NumColumn, Scan, ScanOptions, Table};
use std::io::ErrorKind;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Largest response frame a client will accept.
pub const CLIENT_MAX_FRAME: usize = 64 << 20;

// Dynamic-name metric helpers mirroring the server's — client-side
// retry behaviour lands in the same scc-obs registry under `client.*`.
fn m_counter(name: &str, delta: u64) {
    if scc_obs::enabled() {
        scc_obs::global().counter(name).add(delta);
    }
}

fn m_histogram(name: &str, value: u64) {
    if scc_obs::enabled() {
        scc_obs::global().histogram(name).record(value);
    }
}

/// One failed try inside a retry loop — the trace
/// [`ClientError::RetryExhausted`] carries.
#[derive(Debug, Clone)]
pub struct Attempt {
    /// 1-based attempt number.
    pub attempt: u32,
    /// What the attempt failed with.
    pub error: String,
    /// How long the client backed off *after* this failure (zero for
    /// the final attempt, which has no successor).
    pub backed_off: Duration,
}

/// Client-side failures.
#[derive(Debug)]
pub enum ClientError {
    /// Transport or framing failure (checksum, torn frame, I/O).
    Frame(FrameError),
    /// The response frame arrived intact but didn't decode.
    Decode(Error),
    /// The server answered with a typed error frame.
    Server {
        /// Machine-readable code.
        code: ErrorCode,
        /// Server-side detail.
        message: String,
        /// Suggested wait before retrying, in milliseconds (0 = no
        /// hint). Set on load-shed `Busy`/`Draining` refusals.
        retry_after_ms: u32,
    },
    /// The server answered with a response of the wrong kind.
    Unexpected(&'static str),
    /// A retry loop ran out of budget (attempts or deadline); the
    /// trace records what every attempt failed with.
    RetryExhausted {
        /// Every failed attempt, in order.
        attempts: Vec<Attempt>,
    },
}

impl ClientError {
    /// Whether a fresh attempt could plausibly succeed. Transport
    /// failures (resets, torn frames, timeouts, a response that failed
    /// its checksum) and explicit server backpressure (`Busy`,
    /// `Draining`, `Timeout`) are retryable; a request the server
    /// *understood and refused* (`BadRequest`, unknown table), a
    /// response that decoded to the wrong shape, and verification
    /// failures are not — retrying would only repeat them.
    pub fn is_retryable(&self) -> bool {
        match self {
            ClientError::Frame(FrameError::Eof) => true,
            ClientError::Frame(FrameError::Checksum { .. }) => true,
            ClientError::Frame(FrameError::TooLarge { .. }) => false,
            ClientError::Frame(FrameError::Io(k)) => matches!(
                k,
                ErrorKind::ConnectionReset
                    | ErrorKind::ConnectionAborted
                    | ErrorKind::ConnectionRefused
                    | ErrorKind::BrokenPipe
                    | ErrorKind::UnexpectedEof
                    | ErrorKind::TimedOut
                    | ErrorKind::WouldBlock
                    | ErrorKind::Interrupted
            ),
            ClientError::Server { code, .. } => code.is_retryable(),
            ClientError::Decode(_)
            | ClientError::Unexpected(_)
            | ClientError::RetryExhausted { .. } => false,
        }
    }
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Frame(e) => write!(f, "transport: {e}"),
            ClientError::Decode(e) => write!(f, "bad response payload: {e}"),
            ClientError::Server { code, message, retry_after_ms: 0 } => {
                write!(f, "server error [{code}]: {message}")
            }
            ClientError::Server { code, message, retry_after_ms } => {
                write!(f, "server error [{code}]: {message} (retry after {retry_after_ms}ms)")
            }
            ClientError::Unexpected(what) => write!(f, "unexpected response kind: {what}"),
            ClientError::RetryExhausted { attempts } => {
                write!(f, "retry budget exhausted after {} attempts", attempts.len())?;
                if let Some(last) = attempts.last() {
                    write!(f, " (last: {})", last.error)?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        ClientError::Frame(e)
    }
}

impl From<Error> for ClientError {
    fn from(e: Error) -> Self {
        ClientError::Decode(e)
    }
}

// ---------------------------------------------------------------------
// Retry policy
// ---------------------------------------------------------------------

/// Exponential-backoff schedule with jitter, an attempt budget, and an
/// overall deadline that caps *cumulative* time across attempts.
///
/// The schedule is monotone non-decreasing by construction (each step
/// is clamped to at least the previous one), jitter-bounded
/// (`raw * (1 + jitter)` at most, where `raw` caps at
/// [`RetryPolicy::max_backoff`]), and never authorises a sleep that
/// would cross the deadline — the properties `tests/backoff.rs`
/// proptests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total tries allowed, first attempt included. 1 = no retries.
    pub max_attempts: u32,
    /// Backoff after the first failure.
    pub base_backoff: Duration,
    /// Cap on the un-jittered exponential term.
    pub max_backoff: Duration,
    /// Jitter fraction in `[0, 1]`: each step is stretched by up to
    /// `jitter * raw`, never shrunk (monotonicity survives).
    pub jitter: f64,
    /// Budget for the whole request: all attempts *and* all backoffs
    /// must fit inside it.
    pub deadline: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 8,
            base_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(500),
            jitter: 0.5,
            deadline: Duration::from_secs(15),
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries (attempt 1 is the only one).
    pub fn no_retry() -> Self {
        Self { max_attempts: 1, ..Self::default() }
    }

    /// Decides the backoff after failed attempt number `attempt`
    /// (1-based), or `None` when the budget is spent and the caller
    /// must give up.
    ///
    /// `prev` is the previous backoff (zero before the first), `spent`
    /// the time elapsed since the request began, and `unit` a jitter
    /// draw in `[0, 1]` (callers supply their own randomness so the
    /// schedule itself stays a pure function).
    pub fn next_backoff(
        &self,
        attempt: u32,
        prev: Duration,
        spent: Duration,
        unit: f64,
    ) -> Option<Duration> {
        if attempt >= self.max_attempts {
            return None;
        }
        // base · 2^(attempt-1), saturating, capped at max_backoff.
        let exp = attempt.saturating_sub(1).min(20);
        let raw = self.base_backoff.saturating_mul(1u32 << exp).min(self.max_backoff);
        let jitter = self.jitter.clamp(0.0, 1.0) * unit.clamp(0.0, 1.0);
        let jittered = raw.saturating_add(raw.mul_f64(jitter));
        let backoff = jittered.max(prev);
        if spent.saturating_add(backoff) >= self.deadline {
            return None;
        }
        Some(backoff)
    }
}

// ---------------------------------------------------------------------
// One-connection client
// ---------------------------------------------------------------------

/// One blocking protocol connection over any [`Transport`].
pub struct Client {
    stream: Box<dyn Transport>,
}

impl Client {
    /// Connects over plain TCP.
    pub fn connect(addr: &str) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        Ok(Client { stream: Box::new(stream) })
    }

    /// Connects and wraps the connection in a fault-injecting
    /// [`ChaosStream`]; `conn` salts the deterministic fault draws.
    pub fn connect_chaos(addr: &str, plan: ChaosPlan, conn: u64) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        Ok(Client { stream: Box::new(ChaosStream::new(stream, plan, conn)) })
    }

    /// Wraps an already-built transport (tests compose their own).
    pub fn from_transport(stream: Box<dyn Transport>) -> Client {
        Client { stream }
    }

    /// Connects, retrying for up to `patience` (a just-spawned server
    /// may not be listening yet).
    pub fn connect_retry(addr: &str, patience: Duration) -> std::io::Result<Client> {
        let give_up = Instant::now() + patience;
        loop {
            match Client::connect(addr) {
                Ok(c) => return Ok(c),
                Err(e) if Instant::now() >= give_up => return Err(e),
                Err(_) => std::thread::sleep(Duration::from_millis(20)),
            }
        }
    }

    /// Bounds how long one response read may block.
    pub fn set_read_timeout(&self, d: Option<Duration>) -> std::io::Result<()> {
        self.stream.set_read_timeout(d)
    }

    /// Bounds how long one request write may block.
    pub fn set_write_timeout(&self, d: Option<Duration>) -> std::io::Result<()> {
        self.stream.set_write_timeout(d)
    }

    /// Sends one request frame. When a head-sampled trace is active on
    /// this thread the request is wrapped in the [`protocol::REQ_TRACED`]
    /// envelope, so the server's spans join the caller's trace; with no
    /// active trace the bytes are identical to an untraced client's.
    pub fn send(&mut self, req: &Request) -> Result<(), ClientError> {
        let payload = match trace::current_ctx() {
            Some(ctx) => protocol::encode_request_traced(req, ctx),
            None => protocol::encode_request(req),
        };
        Ok(frame::write_frame(&mut self.stream, &payload)?)
    }

    /// Reads one response frame (typed server errors come back as
    /// `Ok(Response::Error { .. })`, not `Err` — streaming callers
    /// need to see them in-band).
    pub fn recv(&mut self) -> Result<Response, ClientError> {
        let payload = frame::read_frame(&mut self.stream, CLIENT_MAX_FRAME)?;
        Ok(protocol::decode_response(&payload)?)
    }

    /// One request → one response, with server errors lifted to `Err`.
    pub fn call(&mut self, req: &Request) -> Result<Response, ClientError> {
        self.send(req)?;
        match self.recv()? {
            Response::Error { code, message, retry_after_ms } => {
                Err(ClientError::Server { code, message, retry_after_ms })
            }
            resp => Ok(resp),
        }
    }

    /// Fetches rows `[row_start, row_start + row_len)` of a column as
    /// decoded values. With `raw`, the server is asked for compressed
    /// segments and the slice is decoded *client-side*; either way the
    /// caller sees a plain [`Vector`].
    pub fn segment_range(
        &mut self,
        table: &str,
        column: &str,
        row_start: u64,
        row_len: u32,
        raw: bool,
    ) -> Result<Vector, ClientError> {
        let req = Request::SegmentRange {
            table: table.to_string(),
            column: column.to_string(),
            row_start,
            row_len,
            raw,
        };
        match self.call(&req)? {
            Response::Values(v) => Ok(v),
            Response::RawSegments { vtype, row_start, row_len, segments } => {
                decode_raw(vtype, row_start, row_len, &segments)
            }
            _ => Err(ClientError::Unexpected("wanted Values or RawSegments")),
        }
    }

    /// Runs a scan and returns its rows as one [`Batch`], plus the
    /// server's end-of-stream row count.
    ///
    /// Without a predicate the server ships the columns' stored
    /// segments ([`Request::ScanSegments`]) and they are decoded here,
    /// each column into one vector grown exactly once per frame;
    /// `threads` has no effect, since the server decodes nothing. With a
    /// predicate the server filters and decodes on up to `threads`
    /// workers and streams [`Response::Batch`] frames.
    pub fn scan(
        &mut self,
        table: &str,
        columns: &[&str],
        predicate: Option<Predicate>,
        threads: u8,
    ) -> Result<(Batch, u64), ClientError> {
        let columns: Vec<String> = columns.iter().map(|c| c.to_string()).collect();
        if predicate.is_none() {
            return self.scan_segments(table, columns);
        }
        let req = Request::Scan { table: table.to_string(), columns, predicate, threads };
        self.send(&req)?;
        let mut acc: Option<Batch> = None;
        loop {
            match self.recv()? {
                Response::Batch(b) => match &mut acc {
                    None => acc = Some(b),
                    Some(acc) => {
                        for (dst, src) in acc.columns.iter_mut().zip(&b.columns) {
                            dst.append(src);
                        }
                    }
                },
                Response::ScanDone { rows, .. } => {
                    return Ok((acc.unwrap_or_else(|| Batch::new(vec![])), rows));
                }
                Response::Error { code, message, retry_after_ms } => {
                    return Err(ClientError::Server { code, message, retry_after_ms });
                }
                _ => return Err(ClientError::Unexpected("wanted Batch or ScanDone")),
            }
        }
    }

    /// The stored-form scan behind an unfiltered [`Client::scan`]. Every
    /// frame must extend its column exactly where the column ends, and
    /// `ScanDone` must close every requested column at the same row
    /// count; anything else is a typed error, never a short batch.
    fn scan_segments(
        &mut self,
        table: &str,
        columns: Vec<String>,
    ) -> Result<(Batch, u64), ClientError> {
        let want = columns.len();
        self.send(&Request::ScanSegments { table: table.to_string(), columns })?;
        let mut out: Vec<Vector> = Vec::with_capacity(want);
        let mut frames = 0u32;
        loop {
            match self.recv()? {
                Response::RawSegments { vtype, row_start, row_len, segments } => {
                    frames += 1;
                    let col = frame_column(&mut out, want, vtype, row_start, row_len)?;
                    if !segments.is_empty() {
                        append_segments(col, row_start, row_len, &segments)?;
                    } else {
                        // No stored form for these rows: their values follow.
                        match self.recv()? {
                            Response::Values(v) if v.len() == row_len as usize => {
                                append_values(col, &v)?
                            }
                            Response::Error { code, message, retry_after_ms } => {
                                return Err(ClientError::Server { code, message, retry_after_ms });
                            }
                            _ => {
                                return Err(malformed("rows without stored form lack their Values"))
                            }
                        }
                    }
                }
                Response::ScanDone { rows, batches } => {
                    let closed = out.iter().all(|c| c.len() as u64 == rows);
                    let complete = if rows == 0 { out.is_empty() } else { out.len() == want };
                    if !(closed && complete && batches == frames) {
                        return Err(malformed("stored-form scan ended with a column untiled"));
                    }
                    return Ok((Batch::new(out), rows));
                }
                Response::Error { code, message, retry_after_ms } => {
                    return Err(ClientError::Server { code, message, retry_after_ms });
                }
                _ => return Err(ClientError::Unexpected("wanted RawSegments or ScanDone")),
            }
        }
    }

    /// Fetches the server's metrics snapshot (schema-v1 JSON).
    pub fn stats_json(&mut self) -> Result<String, ClientError> {
        match self.call(&Request::Stats)? {
            Response::StatsJson(json) => Ok(json),
            _ => Err(ClientError::Unexpected("wanted StatsJson")),
        }
    }

    /// Probes server health: returns `(state, workers, queue_depth,
    /// active_connections)`. Served in every lifecycle phase, so a
    /// balancer can see `Draining` before the listener goes away.
    pub fn health(&mut self) -> Result<(HealthState, u16, u32, u32), ClientError> {
        match self.call(&Request::Health)? {
            Response::Health { state, workers, queue_depth, active, .. } => {
                Ok((state, workers, queue_depth, active))
            }
            _ => Err(ClientError::Unexpected("wanted Health")),
        }
    }

    /// Health plus the sliding-window tail-latency section: windowed
    /// p50/p95/p99, queue-wait p50, request rate and shed rate. This is
    /// what `scc top` polls.
    pub fn health_window(
        &mut self,
    ) -> Result<(HealthState, u16, u32, u32, HealthWindow), ClientError> {
        match self.call(&Request::Health)? {
            Response::Health { state, workers, queue_depth, active, window } => {
                Ok((state, workers, queue_depth, active, window))
            }
            _ => Err(ClientError::Unexpected("wanted Health")),
        }
    }

    /// Version/capability handshake: returns the server's protocol
    /// version and capability bits. A pre-handshake server answers
    /// `BadRequest` (unknown kind), which surfaces here as
    /// [`ClientError::Server`] — callers treat both a version mismatch
    /// and that refusal as "wrong generation" *before* starting any
    /// scan stream.
    pub fn hello(&mut self) -> Result<(u8, u32), ClientError> {
        match self.call(&Request::Hello { version: protocol::PROTOCOL_VERSION })? {
            Response::Hello { version, caps } => Ok((version, caps)),
            _ => Err(ClientError::Unexpected("wanted Hello")),
        }
    }

    /// Asks the server to shut down: gracefully (drain in-flight work
    /// first) by default, or abruptly with `force`.
    pub fn shutdown_server(&mut self, force: bool) -> Result<(), ClientError> {
        match self.call(&Request::Shutdown { force })? {
            Response::ShutdownAck => Ok(()),
            _ => Err(ClientError::Unexpected("wanted ShutdownAck")),
        }
    }

    /// Fault injection: frames `req` correctly, then flips one payload
    /// bit *after* the checksum was computed, and returns the server's
    /// answer — which must be a [`ErrorCode::BadFrame`] error frame.
    /// The server closes the connection afterwards, so this consumes
    /// the client.
    pub fn send_corrupt(mut self, req: &Request, flip_bit: usize) -> Result<Response, ClientError> {
        let mut framed = frame::encode(&protocol::encode_request(req));
        let payload_bits = (framed.len() - frame::FRAME_OVERHEAD) * 8;
        let bit = flip_bit % payload_bits.max(1);
        framed[frame::LEN_PREFIX_BYTES + bit / 8] ^= 1 << (bit % 8);
        use std::io::Write;
        self.stream.write_all(&framed).map_err(|e| ClientError::Frame(e.into()))?;
        self.stream.flush().map_err(|e| ClientError::Frame(e.into()))?;
        self.recv()
    }
}

// ---------------------------------------------------------------------
// Retrying client
// ---------------------------------------------------------------------

/// A [`Client`] wrapped in the bounded retry loop: reconnects on
/// transport failure, backs off per [`RetryPolicy`], honours server
/// retry-after hints up to the deadline, and reports
/// [`ClientError::RetryExhausted`] with the attempt trace when the
/// budget runs out.
///
/// Each attempt opens a *fresh* connection with a fresh chaos
/// connection id, so with deterministic fault injection a fault that
/// killed attempt N does not automatically kill attempt N+1 — the
/// independence bounded retry relies on (same shape as `FaultyDisk`'s
/// per-attempt draws).
pub struct RetryingClient {
    /// Dial targets in preference order (a single address for classic
    /// clients; `[primary, replica]` for cluster shard calls). Retries
    /// rotate through them.
    addrs: Vec<String>,
    current: usize,
    policy: RetryPolicy,
    chaos: Option<ChaosPlan>,
    conn_salt: u64,
    conns: u64,
    rng: u64,
    conn: Option<Client>,
    /// Retry sleeps performed across all requests.
    pub retries: u64,
    /// Requests that exhausted the retry budget.
    pub exhausted: u64,
}

impl RetryingClient {
    /// A retrying client for `addr`. With a chaos plan every
    /// connection is wrapped in a [`ChaosStream`]; `salt` decorrelates
    /// the fault schedules (and jitter draws) of clients sharing one
    /// plan — e.g. loadgen threads.
    pub fn new(addr: &str, policy: RetryPolicy, chaos: Option<ChaosPlan>, salt: u64) -> Self {
        Self::failover(vec![addr.to_string()], policy, chaos, salt)
    }

    /// A retrying client with replica failover: `addrs[0]` is the
    /// preferred (primary) node, the rest are replicas. Every retryable
    /// failure rotates to the next address, and a **connection refused
    /// on dial rotates immediately, with no backoff sleep** — a dead
    /// primary costs one failed `connect`, not a backoff period. The
    /// free rotation is bounded to one sweep of the address list; once
    /// every node has refused in a row, the normal monotone backoff
    /// chain (which same-node retries always follow) resumes.
    pub fn failover(
        addrs: Vec<String>,
        policy: RetryPolicy,
        chaos: Option<ChaosPlan>,
        salt: u64,
    ) -> Self {
        assert!(!addrs.is_empty(), "need at least one address");
        Self {
            addrs,
            current: 0,
            policy,
            chaos,
            conn_salt: salt,
            conns: 0,
            rng: salt.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1,
            conn: None,
            retries: 0,
            exhausted: 0,
        }
    }

    /// Jitter draw in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        self.rng = self.rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (self.rng >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Drops the current connection; the next request reconnects.
    pub fn disconnect(&mut self) {
        self.conn = None;
    }

    /// The address the next attempt will dial.
    pub fn current_addr(&self) -> &str {
        &self.addrs[self.current]
    }

    /// Rotates to the next address in the failover list.
    fn rotate(&mut self) {
        self.current = (self.current + 1) % self.addrs.len();
        self.disconnect();
    }

    fn connection(&mut self) -> Result<&mut Client, ClientError> {
        if self.conn.is_none() {
            self.conns += 1;
            let conn_id = self.conn_salt.wrapping_add(self.conns);
            let addr = &self.addrs[self.current];
            let client = match &self.chaos {
                None => Client::connect(addr),
                Some(plan) => Client::connect_chaos(addr, *plan, conn_id),
            }
            .map_err(|e| ClientError::Frame(FrameError::Io(e.kind())))?;
            self.conn = Some(client);
        }
        Ok(self.conn.as_mut().expect("connection just established"))
    }

    /// Runs `op` under the retry policy. `op` gets a connected
    /// [`Client`] and must be idempotent — it may run several times.
    pub fn with_retry<T>(
        &mut self,
        mut op: impl FnMut(&mut Client) -> Result<T, ClientError>,
    ) -> Result<T, ClientError> {
        let started = Instant::now();
        // One trace root per logical request; each try below becomes a
        // sibling `client.attempt` child, so a retried request reads as
        // attempt/backoff/attempt on the timeline. The server joins the
        // trace through the context [`Client::send`] puts on the wire.
        let troot = trace::start_root("client.request");
        let mut attempts: Vec<Attempt> = Vec::new();
        let mut prev = Duration::ZERO;
        // Consecutive dial-refusals answered with a free (no-sleep)
        // rotation; bounded to one sweep of the address list so a fully
        // dark cluster falls back to the backoff chain instead of
        // hot-spinning connect().
        let mut refused_streak = 0usize;
        loop {
            let attempt_no = attempts.len() as u32 + 1;
            let tattempt = trace::span("client.attempt");
            tattempt.add_attr("attempt", attempt_no as u64);
            let (outcome, dialing) = match self.connection() {
                Ok(client) => (op(client), false),
                Err(e) => (Err(e), true),
            };
            drop(tattempt);
            let e = match outcome {
                Ok(v) => {
                    troot.add_attr("attempts", attempt_no as u64);
                    return Ok(v);
                }
                Err(e) if !e.is_retryable() => {
                    // Fatal errors mid-stream can leave the connection
                    // out of frame sync; don't reuse it.
                    if !matches!(e, ClientError::Server { .. }) {
                        self.disconnect();
                    }
                    return Err(e);
                }
                Err(e) => e,
            };
            self.disconnect();
            let refused = dialing
                && matches!(&e, ClientError::Frame(FrameError::Io(k))
                    if *k == std::io::ErrorKind::ConnectionRefused);
            if refused
                && self.addrs.len() > 1
                && refused_streak + 1 < self.addrs.len()
                && started.elapsed() < self.policy.deadline
            {
                // A refused dial proves the node is down *now*; waiting
                // teaches us nothing. Flip to the replica immediately.
                // `prev` is untouched, so the monotone backoff chain for
                // slept retries continues where it left off.
                refused_streak += 1;
                self.rotate();
                attempts.push(Attempt {
                    attempt: attempt_no,
                    error: e.to_string(),
                    backed_off: Duration::ZERO,
                });
                m_counter("client.failover", 1);
                continue;
            }
            refused_streak = 0;
            if self.addrs.len() > 1 {
                // Slept retries also move on: a stalled (not refusing)
                // node shouldn't absorb the whole retry budget.
                self.rotate();
            }
            let hint = match &e {
                ClientError::Server { retry_after_ms, .. } => {
                    Duration::from_millis(*retry_after_ms as u64)
                }
                _ => Duration::ZERO,
            };
            let unit = self.unit();
            let spent = started.elapsed();
            let backoff = self.policy.next_backoff(attempt_no, prev, spent, unit);
            // A server hint stretches the wait but never past the
            // deadline — backpressure must not turn into a hang.
            let wait = backoff.map(|b| b.max(hint)).filter(|w| spent + *w < self.policy.deadline);
            let Some(wait) = wait else {
                attempts.push(Attempt {
                    attempt: attempt_no,
                    error: e.to_string(),
                    backed_off: Duration::ZERO,
                });
                self.exhausted += 1;
                m_counter("client.retry_exhausted", 1);
                return Err(ClientError::RetryExhausted { attempts });
            };
            attempts.push(Attempt { attempt: attempt_no, error: e.to_string(), backed_off: wait });
            self.retries += 1;
            m_counter("client.retries", 1);
            m_histogram("client.backoff_ms", wait.as_millis() as u64);
            std::thread::sleep(wait);
            prev = backoff.expect("wait derived from this backoff");
        }
    }

    /// [`Client::segment_range`] with retries.
    pub fn segment_range(
        &mut self,
        table: &str,
        column: &str,
        row_start: u64,
        row_len: u32,
        raw: bool,
    ) -> Result<Vector, ClientError> {
        self.with_retry(|c| c.segment_range(table, column, row_start, row_len, raw))
    }

    /// [`Client::scan`] with retries (whole-scan granularity: a stream
    /// that dies mid-way is re-run from the start on a fresh
    /// connection).
    pub fn scan(
        &mut self,
        table: &str,
        columns: &[&str],
        predicate: Option<&Predicate>,
        threads: u8,
    ) -> Result<(Batch, u64), ClientError> {
        self.with_retry(|c| c.scan(table, columns, predicate.cloned(), threads))
    }

    /// [`Client::stats_json`] with retries.
    pub fn stats_json(&mut self) -> Result<String, ClientError> {
        self.with_retry(|c| c.stats_json())
    }

    /// [`Client::health`] with retries.
    pub fn health(&mut self) -> Result<(HealthState, u16, u32, u32), ClientError> {
        self.with_retry(|c| c.health())
    }
}

/// A well-checksummed response stream whose frames do not fit together.
fn malformed(what: &'static str) -> ClientError {
    ClientError::Decode(Error::Wire(WireError::Corrupt(what)))
}

/// The column type a `RawSegments` value-type tag names; segments
/// store only integer columns.
fn stored_type(vtype: u8) -> Result<ColType, ClientError> {
    ColType::from_tag(vtype)
        .filter(|&t| t != ColType::F64)
        .ok_or(ClientError::Unexpected("undecodable raw segment value type"))
}

/// Decodes a raw segment-range response into a fresh vector.
fn decode_raw(
    vtype: u8,
    row_start: u64,
    row_len: u32,
    segments: &[RawSegment],
) -> Result<Vector, ClientError> {
    let mut out = Vector::empty(stored_type(vtype)?);
    append_segments(&mut out, row_start, row_len, segments)?;
    Ok(out)
}

/// The column a stored-form scan frame extends: a frame at row 0 opens
/// the next requested column; any other frame must continue the open
/// column exactly where it ends, with the same value type.
fn frame_column(
    out: &mut Vec<Vector>,
    want: usize,
    vtype: u8,
    row_start: u64,
    row_len: u32,
) -> Result<&mut Vector, ClientError> {
    let ty = stored_type(vtype)?;
    if row_start == 0 {
        if out.len() == want {
            return Err(malformed("stored-form scan sent more columns than requested"));
        }
        out.push(Vector::empty(ty));
    }
    match out.last_mut() {
        Some(col) if col.len() as u64 == row_start && col.col_type() == ty && row_len > 0 => {
            Ok(col)
        }
        _ => Err(malformed("stored-form scan frames overlap or leave a gap")),
    }
}

/// Appends a Values frame's rows to a column of the same type.
fn append_values(col: &mut Vector, values: &Vector) -> Result<(), ClientError> {
    fn extend<V: Copy>(out: &mut Vec<V>, values: &[V]) {
        out.reserve_exact(values.len());
        out.extend_from_slice(values);
    }
    match (col, values) {
        (Vector::I32(out), Vector::I32(v)) => extend(out, v),
        (Vector::I64(out), Vector::I64(v)) => extend(out, v),
        (Vector::U32(out), Vector::U32(v)) => extend(out, v),
        _ => return Err(malformed("a Values frame's type differs from its column")),
    }
    Ok(())
}

/// Decodes rows `[row_start, row_start + row_len)` from `segments` onto
/// the end of `col`.
fn append_segments(
    col: &mut Vector,
    row_start: u64,
    row_len: u32,
    segments: &[RawSegment],
) -> Result<(), ClientError> {
    let (start, len) = (row_start as usize, row_len as usize);
    match col {
        Vector::I32(out) => decode_append(out, start, len, segments),
        Vector::I64(out) => decode_append(out, start, len, segments),
        Vector::U32(out) => decode_append(out, start, len, segments),
        _ => Err(ClientError::Unexpected("undecodable raw segment value type")),
    }
}

/// Grows `out` exactly once by `len` rows and decodes rows
/// `[start, start + len)` into them, segment by segment. The segments
/// must tile the range in row order; that is checked, every segment's
/// section checksums included, before anything is allocated for the
/// rows the frame claims. A segment whose share starts on a 128-value
/// block boundary — every segment of a scan frame — decodes straight
/// into its slice of `out`; a share starting mid-block (a segment-range
/// request's first segment) decodes that one block through a stack
/// buffer and the aligned rest straight into `out`.
fn decode_append<V: Value>(
    out: &mut Vec<V>,
    start: usize,
    len: usize,
    segments: &[RawSegment],
) -> Result<(), ClientError> {
    let end = start.checked_add(len).ok_or(malformed("raw segment range overflows"))?;
    // (segment, offset of its share, rows [lo, hi) of the share)
    let mut shares = Vec::with_capacity(segments.len());
    let mut row = start;
    for raw in segments {
        let seg = Segment::<V>::from_bytes(&raw.bytes).map_err(Error::Wire)?;
        let first = raw.first_row as usize;
        let offset = row
            .checked_sub(first)
            .filter(|&o| o < seg.len() && row < end)
            .ok_or(malformed("raw segments do not tile the requested rows"))?;
        let hi = end.min(first.saturating_add(seg.len()));
        shares.push((seg, offset, row - start, hi - start));
        row = hi;
    }
    if row != end {
        return Err(malformed("raw segments do not cover the requested rows"));
    }
    let at = out.len();
    out.reserve_exact(len);
    out.resize(at + len, V::default());
    let dst = &mut out[at..];
    for (seg, offset, mut lo, hi) in shares {
        let (head, mut from) = (offset % BLOCK, offset);
        if head != 0 {
            let mut block = [V::default(); BLOCK];
            let block_start = offset - head;
            let block_len = (seg.len() - block_start).min(BLOCK);
            seg.try_decode_range(block_start, &mut block[..block_len])?;
            let take = (block_len - head).min(hi - lo);
            dst[lo..lo + take].copy_from_slice(&block[head..head + take]);
            (lo, from) = (lo + take, block_start + BLOCK);
        }
        if lo < hi {
            seg.try_decode_range(from, &mut dst[lo..hi])?;
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Load generator
// ---------------------------------------------------------------------

/// Load generator configuration.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Server address.
    pub addr: String,
    /// Total requests across all threads.
    pub requests: usize,
    /// Closed-loop client threads.
    pub threads: usize,
    /// Scan-request `threads` field (server-side decode parallelism).
    pub scan_threads: u8,
    /// Inject a deliberately corrupt frame every ~25 requests per
    /// thread and verify it is refused with a typed error.
    pub corrupt: bool,
    /// Deterministic seed for the request mix.
    pub seed: u64,
    /// Wrap every connection in a [`ChaosStream`] with this plan
    /// (faults drawn from `seed` + the plan's own seed).
    pub chaos: Option<ChaosPlan>,
    /// Retry policy every request runs under.
    pub retry: RetryPolicy,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7644".to_string(),
            requests: 500,
            threads: 4,
            scan_threads: 2,
            corrupt: false,
            seed: 1,
            chaos: None,
            retry: RetryPolicy {
                max_attempts: 10,
                base_backoff: Duration::from_millis(1),
                max_backoff: Duration::from_millis(100),
                jitter: 0.5,
                deadline: Duration::from_secs(10),
            },
        }
    }
}

/// What the load generator measured.
#[derive(Debug, Clone)]
pub struct LoadgenReport {
    /// Requests attempted (excluding injected-corruption probes).
    pub requests: usize,
    /// Requests that succeeded and verified byte-exact.
    pub ok: usize,
    /// Requests that failed (transport or server error, after
    /// exhausting their retry budget).
    pub errors: usize,
    /// Responses that succeeded but did not match the local replica.
    pub verify_failures: usize,
    /// Deliberately corrupt frames sent.
    pub corrupt_sent: usize,
    /// Corrupt frames the server refused with a typed
    /// [`ErrorCode::BadFrame`] answer (must equal `corrupt_sent`).
    pub corrupt_rejected: usize,
    /// Retry sleeps performed across all threads.
    pub retries: usize,
    /// Requests that ran out of retry budget.
    pub retry_exhausted: usize,
    /// Wall-clock for the whole run.
    pub elapsed: Duration,
    /// Exact latency percentiles over all verified requests, in
    /// microseconds.
    pub p50_us: f64,
    /// 95th percentile, microseconds.
    pub p95_us: f64,
    /// 99th percentile, microseconds.
    pub p99_us: f64,
    /// Completed requests per second.
    pub throughput_rps: f64,
    /// Server-side accept-queue wait p50 (`server.queue_wait_ns`),
    /// microseconds, fetched from the server's stats after the run.
    /// Zero when the server was unreachable for the post-run fetch.
    pub queue_wait_p50_us: f64,
    /// Server-side accept-queue wait p99, microseconds.
    pub queue_wait_p99_us: f64,
    /// Client-observed p50 minus the server's queue-wait p50: the
    /// latency attributable to service (and the wire) rather than to
    /// waiting for a worker. Floored at zero.
    pub service_p50_us: f64,
    /// `p99_us` minus the queue-wait p99, floored at zero.
    pub service_p99_us: f64,
}

impl LoadgenReport {
    /// One-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "{} requests in {:.2}s ({:.0} req/s) | ok {} error {} verify-fail {} | \
             retries {} exhausted {} | corrupt {}/{} rejected | \
             p50 {:.0}us p95 {:.0}us p99 {:.0}us",
            self.requests,
            self.elapsed.as_secs_f64(),
            self.throughput_rps,
            self.ok,
            self.errors,
            self.verify_failures,
            self.retries,
            self.retry_exhausted,
            self.corrupt_rejected,
            self.corrupt_sent,
            self.p50_us,
            self.p95_us,
            self.p99_us,
        ) + &format!(
            " | queue-wait p50 {:.0}us p99 {:.0}us (service p50 {:.0}us p99 {:.0}us)",
            self.queue_wait_p50_us,
            self.queue_wait_p99_us,
            self.service_p50_us,
            self.service_p99_us,
        )
    }

    /// Structured form for `scc loadgen --report-json`.
    pub fn to_json(&self) -> scc_obs::json::Json {
        use scc_obs::json::Json;
        Json::Obj(vec![
            ("requests".into(), Json::U64(self.requests as u64)),
            ("ok".into(), Json::U64(self.ok as u64)),
            ("errors".into(), Json::U64(self.errors as u64)),
            ("verify_failures".into(), Json::U64(self.verify_failures as u64)),
            ("corrupt_sent".into(), Json::U64(self.corrupt_sent as u64)),
            ("corrupt_rejected".into(), Json::U64(self.corrupt_rejected as u64)),
            ("retries".into(), Json::U64(self.retries as u64)),
            ("retry_exhausted".into(), Json::U64(self.retry_exhausted as u64)),
            ("elapsed_s".into(), Json::F64(self.elapsed.as_secs_f64())),
            ("throughput_rps".into(), Json::F64(self.throughput_rps)),
            ("p50_us".into(), Json::F64(self.p50_us)),
            ("p95_us".into(), Json::F64(self.p95_us)),
            ("p99_us".into(), Json::F64(self.p99_us)),
            ("queue_wait_p50_us".into(), Json::F64(self.queue_wait_p50_us)),
            ("queue_wait_p99_us".into(), Json::F64(self.queue_wait_p99_us)),
            ("service_p50_us".into(), Json::F64(self.service_p50_us)),
            ("service_p99_us".into(), Json::F64(self.service_p99_us)),
        ])
    }
}

/// Nearest-rank percentile over sorted nanosecond samples.
fn percentile_ns(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64
}

/// The canonical verification scans: the plain projection and the
/// filtered one, precomputed once against the local replica.
struct Expected {
    full: Batch,
    filtered: Batch,
}

fn expected_scans(table: &Arc<Table>) -> Expected {
    let opts = ScanOptions::default();
    let mut full_scan = Scan::new(Arc::clone(table), &["key", "val"], opts, stats_handle(), None);
    let full = ops::collect(&mut full_scan);
    let scan = Scan::new(Arc::clone(table), &["key", "val"], opts, stats_handle(), None);
    let mut filtered_scan = Select::new(scan, Expr::col(1).lt(Expr::lit_i32(500)));
    let filtered = ops::collect(&mut filtered_scan);
    Expected { full, filtered }
}

/// The plain-representation slice of a column, as the typed vector the
/// server should return — the byte-exactness oracle.
fn expected_slice(table: &Table, column: &str, start: usize, len: usize) -> Vector {
    match table.col(column) {
        Column::Num(NumColumn::I32(c)) => Vector::I32(c.values()[start..start + len].to_vec()),
        Column::Num(NumColumn::I64(c)) => Vector::I64(c.values()[start..start + len].to_vec()),
        Column::Num(NumColumn::U32(c)) => Vector::U32(c.values()[start..start + len].to_vec()),
        Column::Str(s) => Vector::U32(s.codes.values()[start..start + len].to_vec()),
        Column::Blob(_) => panic!("blob columns are not loadgen targets"),
    }
}

struct ThreadTally {
    ok: usize,
    errors: usize,
    verify_failures: usize,
    corrupt_sent: usize,
    corrupt_rejected: usize,
    retries: usize,
    retry_exhausted: usize,
    latencies_ns: Vec<u64>,
}

/// Drives the server at `cfg.addr` with a closed-loop mix of
/// segment-range (decoded and raw), scan (unfiltered in stored form,
/// filtered on serial and parallel server scans) and stats requests,
/// verifying every payload against `replica` — which must be built
/// identically to the table the server is serving (same name, same
/// rows). With `cfg.chaos`, every connection misbehaves on the plan's
/// deterministic schedule and requests ride the retry policy —
/// correctness (byte-exact verification) must be unaffected.
pub fn run_loadgen(cfg: &LoadgenConfig, replica: &Arc<Table>) -> Result<LoadgenReport, String> {
    assert!(cfg.threads >= 1, "loadgen needs at least one thread");
    scc_obs::set_enabled(true);
    let expected = Arc::new(expected_scans(replica));
    let n_rows = replica.n_rows();
    let table_name = replica.name.clone();
    let columns = ["key", "val", "flag"];
    let started = Instant::now();

    let tallies: Vec<Result<ThreadTally, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cfg.threads)
            .map(|t| {
                let expected = Arc::clone(&expected);
                let table_name = table_name.as_str();
                scope.spawn(move || {
                    run_thread(cfg, replica, &expected, table_name, &columns, n_rows, t)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("loadgen thread panicked")).collect()
    });

    let elapsed = started.elapsed();
    let mut tally = ThreadTally {
        ok: 0,
        errors: 0,
        verify_failures: 0,
        corrupt_sent: 0,
        corrupt_rejected: 0,
        retries: 0,
        retry_exhausted: 0,
        latencies_ns: Vec::new(),
    };
    for t in tallies {
        let t = t?;
        tally.ok += t.ok;
        tally.errors += t.errors;
        tally.verify_failures += t.verify_failures;
        tally.corrupt_sent += t.corrupt_sent;
        tally.corrupt_rejected += t.corrupt_rejected;
        tally.retries += t.retries;
        tally.retry_exhausted += t.retry_exhausted;
        tally.latencies_ns.extend(t.latencies_ns);
    }
    tally.latencies_ns.sort_unstable();
    let requests = tally.ok + tally.errors + tally.verify_failures;
    // Pull the server's accept-queue wait distribution so the report
    // can split client-observed latency into queueing vs. service.
    let (queue_wait_p50_us, queue_wait_p99_us) =
        fetch_queue_wait_us(&cfg.addr).unwrap_or((0.0, 0.0));
    let p50_us = percentile_ns(&tally.latencies_ns, 0.50) / 1_000.0;
    let p99_us = percentile_ns(&tally.latencies_ns, 0.99) / 1_000.0;
    Ok(LoadgenReport {
        requests,
        ok: tally.ok,
        errors: tally.errors,
        verify_failures: tally.verify_failures,
        corrupt_sent: tally.corrupt_sent,
        corrupt_rejected: tally.corrupt_rejected,
        retries: tally.retries,
        retry_exhausted: tally.retry_exhausted,
        elapsed,
        p50_us,
        p95_us: percentile_ns(&tally.latencies_ns, 0.95) / 1_000.0,
        p99_us,
        throughput_rps: requests as f64 / elapsed.as_secs_f64().max(1e-9),
        queue_wait_p50_us,
        queue_wait_p99_us,
        service_p50_us: (p50_us - queue_wait_p50_us).max(0.0),
        service_p99_us: (p99_us - queue_wait_p99_us).max(0.0),
    })
}

/// Fetches the server's `server.queue_wait_ns` histogram and computes
/// its p50/p99 in microseconds from the exported log2 buckets (the
/// same interpolation the server itself uses). `None` when the server
/// is gone, stats are malformed, or no request ever queued.
fn fetch_queue_wait_us(addr: &str) -> Option<(f64, f64)> {
    let mut client = Client::connect(addr).ok()?;
    let doc = scc_obs::json::parse(&client.stats_json().ok()?).ok()?;
    let hist = doc.get("histograms")?.get("server.queue_wait_ns")?;
    let count = hist.get("count")?.as_u64()?;
    let mut buckets = [0u64; scc_obs::HISTOGRAM_BUCKETS];
    for entry in hist.get("buckets")?.as_arr()? {
        let pair = entry.as_arr()?;
        let i = pair.first()?.as_u64()? as usize;
        *buckets.get_mut(i)? = pair.get(1)?.as_u64()?;
    }
    let pct = |q: f64| -> Option<f64> {
        Some(scc_obs::percentile_from_buckets(count, |i| buckets[i], q)? as f64 / 1_000.0)
    };
    Some((pct(0.50)?, pct(0.99)?))
}

#[allow(clippy::too_many_arguments)] // internal fan-out helper
fn run_thread(
    cfg: &LoadgenConfig,
    replica: &Arc<Table>,
    expected: &Expected,
    table: &str,
    columns: &[&str; 3],
    n_rows: usize,
    thread_idx: usize,
) -> Result<ThreadTally, String> {
    let mut tally = ThreadTally {
        ok: 0,
        errors: 0,
        verify_failures: 0,
        corrupt_sent: 0,
        corrupt_rejected: 0,
        retries: 0,
        retry_exhausted: 0,
        latencies_ns: Vec::new(),
    };
    let my_requests =
        cfg.requests / cfg.threads + usize::from(thread_idx < cfg.requests % cfg.threads);
    let mut rng = cfg.seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(thread_idx as u64 | 1);
    let mut next = move || {
        rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        rng >> 16
    };
    // Wait for the server to be listening before the clock starts,
    // then hand the address to the retrying client.
    drop(
        Client::connect_retry(&cfg.addr, Duration::from_secs(30))
            .map_err(|e| format!("connect {}: {e}", cfg.addr))?,
    );
    // Distinct conn-id ranges per thread keep the chaos fault
    // schedules of concurrent clients decorrelated.
    let salt = cfg.seed ^ ((thread_idx as u64 + 1) << 32);
    let mut client = RetryingClient::new(&cfg.addr, cfg.retry, cfg.chaos, salt);
    for i in 0..my_requests {
        if cfg.corrupt && i % 25 == 24 {
            // A sacrificial connection carries the corrupt frame; the
            // server must refuse it with BadFrame and close only that
            // connection. The probe runs over a *plain* transport even
            // in chaos runs — its assertion needs the frame delivered
            // intact. Hand our worker back first — the server pool
            // serves one connection per worker, so holding the main
            // connection open while probing would leave the probe
            // queued behind every persistent connection.
            client.disconnect();
            tally.corrupt_sent += 1;
            // Backpressure (Busy/Draining) refuses the connection
            // before the corrupt payload is even parsed — that is a
            // legitimate answer, not a verdict on the frame, so the
            // probe re-sends until the frame itself is judged.
            let mut probes = 0u32;
            loop {
                let probe = Client::connect_retry(&cfg.addr, Duration::from_secs(5))
                    .map_err(|e| format!("probe connect: {e}"))?;
                match probe.send_corrupt(&Request::Stats, next() as usize) {
                    Ok(Response::Error { code: ErrorCode::BadFrame, .. }) => {
                        tally.corrupt_rejected += 1;
                        break;
                    }
                    Ok(Response::Error { code, retry_after_ms, .. })
                        if code.is_retryable() && probes < 200 =>
                    {
                        probes += 1;
                        std::thread::sleep(Duration::from_millis(
                            u64::from(retry_after_ms).clamp(1, 100),
                        ));
                    }
                    other => {
                        return Err(format!("corrupt frame was not refused: {other:?}"));
                    }
                }
            }
        }
        let t0 = Instant::now();
        let outcome = match i % 4 {
            0 | 1 => {
                // Slice-granular random access; odd iterations ask for
                // the raw compressed segments and decode client-side.
                let raw = i % 4 == 1;
                let column = columns[next() as usize % columns.len()];
                let start = next() as usize % n_rows;
                let len = (1 + next() as usize % 4096).min(n_rows - start);
                match client.segment_range(table, column, start as u64, len as u32, raw) {
                    Err(e) => Err(e),
                    Ok(v) => Ok(v == expected_slice(replica, column, start, len)),
                }
            }
            2 => match client.scan(table, &["key", "val"], None, cfg.scan_threads) {
                Err(e) => Err(e),
                Ok((batch, rows)) => Ok(rows as usize == n_rows && batch == expected.full),
            },
            _ => {
                let pred = Predicate { column: "val".to_string(), op: PredOp::Lt, literal: 500 };
                match client.scan(table, &["key", "val"], Some(&pred), cfg.scan_threads) {
                    Err(e) => Err(e),
                    Ok((batch, _)) => Ok(batch == expected.filtered),
                }
            }
        };
        tally.latencies_ns.push(t0.elapsed().as_nanos() as u64);
        match outcome {
            Ok(true) => tally.ok += 1,
            Ok(false) => tally.verify_failures += 1,
            Err(e) => {
                // The retry layer already did the reconnecting and
                // backing off; what reaches here is fatal or exhausted.
                if matches!(e, ClientError::RetryExhausted { .. }) {
                    tally.retry_exhausted += 1;
                }
                tally.errors += 1;
                client.disconnect();
            }
        }
    }
    tally.retries = client.retries as usize;
    Ok(tally)
}
