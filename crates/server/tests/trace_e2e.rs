//! End-to-end request-lifecycle tracing: client and server run in one
//! process here, so the global span ring collects *both* sides of each
//! traced request and the tests can assert the full tree — client
//! attempts (including retry siblings), the server's request/decode/
//! execute/serialize/write phases, and the per-segment scan spans —
//! all connected under a single trace id.
//!
//! The tracer is process-global state; every test takes `lock()`.

use scc_core::frame::FrameError;
use scc_obs::trace::{self, Span, TraceConfig};
use scc_server::{
    demo_table, Catalog, ClientError, HealthState, PredOp, Predicate, RetryPolicy, RetryingClient,
    Server, ServerConfig,
};
use std::io::ErrorKind;
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

fn lock() -> MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    let g = GATE.lock().unwrap_or_else(|p| p.into_inner());
    trace::drain();
    trace::set_collect(true);
    trace::configure(TraceConfig { sample_rate: 1.0, slow_ns: 0 });
    g
}

fn start_server(rows: usize) -> (Server, String) {
    let mut catalog = Catalog::new();
    catalog.add(demo_table(rows));
    let server = Server::start(
        ServerConfig { addr: "127.0.0.1:0".into(), workers: 2, ..Default::default() },
        catalog,
    )
    .expect("bind demo server");
    let addr = server.local_addr().to_string();
    (server, addr)
}

/// Spans of one trace, indexed for tree assertions.
struct Tree {
    spans: Vec<Span>,
}

impl Tree {
    fn of(spans: Vec<Span>, trace_id: u64) -> Tree {
        Tree { spans: spans.into_iter().filter(|s| s.trace_id == trace_id).collect() }
    }

    fn named(&self, name: &str) -> Vec<&Span> {
        self.spans.iter().filter(|s| s.name == name).collect()
    }

    fn one(&self, name: &str) -> &Span {
        let found = self.named(name);
        assert_eq!(found.len(), 1, "wanted exactly one {name:?}, got {}", found.len());
        found[0]
    }

    /// Every non-root span's parent must be present in the trace —
    /// in-process there is no legitimate orphan.
    fn assert_connected(&self) {
        for s in &self.spans {
            if s.parent_id == 0 {
                continue;
            }
            assert!(
                self.spans.iter().any(|p| p.span_id == s.parent_id),
                "span {:?} (0x{:016x}) has missing parent 0x{:016x}",
                s.name,
                s.span_id,
                s.parent_id
            );
        }
    }
}

/// Runs one scan through a `RetryingClient` against a fresh 20 000-row
/// demo server (3 segments of 8192) and returns the request's trace,
/// checked connected, plus the scan's row count.
fn traced_scan(predicate: Option<&Predicate>) -> (Tree, u64) {
    let (mut server, addr) = start_server(20_000);
    let mut client = RetryingClient::new(&addr, RetryPolicy::no_retry(), None, 1);
    let (batch, rows) = client.scan("demo", &["key", "val"], predicate, 2).expect("scan");
    assert_eq!(batch.len() as u64, rows);
    drop(client); // a stopping server waits out idle connections
    server.stop();

    let spans = trace::drain();
    assert!(!spans.is_empty(), "tracing produced no spans");
    let root = spans
        .iter()
        .find(|s| s.name == "client.request" && s.parent_id == 0)
        .expect("client root span")
        .clone();
    let t = Tree::of(spans, root.trace_id);
    t.assert_connected();
    (t, rows)
}

/// The request-level tree every scan shares: one client attempt, the
/// server's remote-parented `kind=scan` root, its decode and execute
/// phases, and every frame write under execute. Returns the execute
/// span's id and the number of writes.
fn assert_scan_request_tree(t: &Tree) -> (u64, usize) {
    let root = t.one("client.request");
    // Client side: one attempt under the root.
    let attempt = t.one("client.attempt");
    assert_eq!(attempt.parent_id, root.span_id);

    // Server side joined the client's trace over the wire: the request
    // root parents on the attempt and is marked remote.
    let sreq = t.one("server.request");
    assert!(sreq.remote_parent, "server root must record its remote parent");
    assert_eq!(sreq.parent_id, attempt.span_id);
    assert_eq!(sreq.tag, Some(("kind", "scan")));

    // Server phases under the request: decode, execute, and the
    // streamed writes (children of execute, which is open while the
    // scan streams).
    assert_eq!(t.one("server.decode").parent_id, sreq.span_id);
    let exec = t.one("server.execute");
    assert_eq!(exec.parent_id, sreq.span_id);
    let writes = t.named("server.write");
    assert!(!writes.is_empty(), "streamed frames produce write spans");
    assert!(writes.iter().all(|w| w.parent_id == exec.span_id));
    assert_eq!(t.named("server.serialize").len(), writes.len());
    (exec.span_id, writes.len())
}

#[test]
fn one_scan_request_yields_one_connected_trace_with_segment_spans() {
    let _g = lock();
    // A filtered scan still decodes on the server (every `val` is below
    // 1000, so every row survives).
    let keep_all = Predicate { column: "val".into(), op: PredOp::Lt, literal: 1000 };
    let (t, rows) = traced_scan(Some(&keep_all));
    assert_eq!(rows, 20_000);
    let (exec, _) = assert_scan_request_tree(&t);

    // Per-segment scan spans: one per segment, each tagged with the
    // decode kernel and carrying the values-decoded attribute.
    let segs = t.named("scan.segment");
    assert_eq!(segs.len(), 3, "3 segments scanned");
    for s in &segs {
        assert_eq!(s.parent_id, exec, "segment spans parent on execute");
        let (k, v) = s.tag.expect("kernel tag");
        assert_eq!(k, "kernel");
        assert!(["scalar", "sse41", "avx2"].contains(&v), "{v}");
        assert!(s.attrs[..s.n_attrs as usize].iter().any(|&(k, v)| k == "values" && v > 0));
    }
}

#[test]
fn stored_form_scan_traces_one_write_per_frame_and_no_server_decode() {
    let _g = lock();
    let (t, rows) = traced_scan(None);
    assert_eq!(rows, 20_000);
    let (_, writes) = assert_scan_request_tree(&t);
    // Two columns of three segments: one stored-segment frame each, then
    // `ScanDone`.
    assert_eq!(writes, 3, "one write per frame");
    assert!(t.named("scan.segment").is_empty(), "the server decodes nothing");
}

#[test]
fn retries_appear_as_sibling_attempt_spans() {
    let _g = lock();
    // Real server so the dial succeeds; the op itself fails retryably
    // twice, then succeeds — a deterministic retry without network
    // flakiness.
    let (mut server, addr) = start_server(256);
    let mut client = RetryingClient::new(
        &addr,
        RetryPolicy {
            max_attempts: 5,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(2),
            jitter: 0.0,
            deadline: Duration::from_secs(5),
        },
        None,
        7,
    );
    let mut failures = 2;
    let result: Result<u32, ClientError> = client.with_retry(|_c| {
        if failures > 0 {
            failures -= 1;
            Err(ClientError::Frame(FrameError::Io(ErrorKind::ConnectionRefused)))
        } else {
            Ok(42)
        }
    });
    assert_eq!(result.unwrap(), 42);
    drop(client); // a stopping server waits out idle connections
    server.stop();

    let spans = trace::drain();
    let root = spans
        .iter()
        .find(|s| s.name == "client.request" && s.parent_id == 0)
        .expect("request root")
        .clone();
    let t = Tree::of(spans, root.trace_id);
    t.assert_connected();
    let attempts = t.named("client.attempt");
    assert_eq!(attempts.len(), 3, "two failures + one success");
    assert!(attempts.iter().all(|a| a.parent_id == root.span_id), "attempts are siblings");
    let numbers: Vec<u64> = attempts
        .iter()
        .map(|a| {
            a.attrs[..a.n_attrs as usize]
                .iter()
                .find(|(k, _)| *k == "attempt")
                .map(|&(_, v)| v)
                .expect("attempt number attr")
        })
        .collect();
    assert_eq!(numbers, vec![1, 2, 3]);
    // The root records how many tries the request took.
    assert!(root.attrs[..root.n_attrs as usize].contains(&("attempts", 3)));
}

#[test]
fn untraced_clients_leave_no_server_spans_and_health_windows_converge() {
    let _g = lock();
    // Collection off: the protocol must not carry contexts, the server
    // must not record spans — but windowed metrics still work.
    trace::set_collect(false);
    scc_obs::global().reset();
    let (mut server, addr) = start_server(20_000);
    let mut client = RetryingClient::new(&addr, RetryPolicy::no_retry(), None, 1);
    for i in 0..30 {
        let v = client.segment_range("demo", "val", (i * 256) as u64, 256, false).unwrap();
        assert_eq!(v.len(), 256);
    }
    assert_eq!(trace::ring_len(), 0, "no spans without collection");

    // The windowed Health section reflects the traffic just served:
    // nonzero rate, ordered percentiles, and a queue-wait no larger
    // than the end-to-end p50.
    let mut probe = scc_server::Client::connect(&addr).unwrap();
    let (state, workers, _queue, _active, w) = probe.health_window().unwrap();
    assert_eq!(state, HealthState::Ready);
    assert_eq!(workers, 2);
    assert!(w.p50_us > 0, "windowed p50 saw the requests");
    assert!(w.p50_us <= w.p95_us && w.p95_us <= w.p99_us, "{w:?}");
    assert!(w.rps_x100 > 0, "windowed rate is live");
    assert_eq!(w.shed_per_s_x100, 0, "nothing shed");
    drop((client, probe)); // a stopping server waits out idle connections
    server.stop();
}
