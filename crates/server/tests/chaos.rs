//! The chaos harness: a real server on an ephemeral port, driven by
//! clients whose transports misbehave on a deterministic schedule.
//!
//! The contract under test is the acceptance bar of the
//! fault-tolerance work: across every injected fault type and every
//! request type, the client sees *zero incorrect responses* — requests
//! either verify byte-exact (possibly after bounded retries) or fail
//! with a typed error; a graceful drain serves every request the
//! server already accepted; and every server thread joins
//! deterministically (the `Server::wait`/`drain` calls returning *is*
//! the leaked-worker assertion — a leaked thread would hang the test).

use scc_server::{
    demo_table, run_loadgen, Catalog, ChaosPlan, ChaosStream, Client, ClientError, ErrorCode,
    HealthState, LoadgenConfig, Request, Response, Server, ServerConfig,
};
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn start_demo_server(rows: usize, config: ServerConfig) -> (Server, String) {
    let mut catalog = Catalog::new();
    catalog.add(demo_table(rows));
    let server = Server::start(config, catalog).expect("bind ephemeral port");
    let addr = server.local_addr().to_string();
    (server, addr)
}

/// Every single-fault plan × the full loadgen request mix (decoded
/// slices, raw compressed slices, plain scans, filtered scans), then
/// the composite all-faults-at-once plan with corruption probes on
/// top: all of it must verify byte-exact with zero failed requests.
#[test]
fn fault_matrix_by_request_mix_yields_zero_incorrect_responses() {
    const ROWS: usize = 8192;
    let (server, addr) = start_demo_server(ROWS, ServerConfig::default());
    let replica = demo_table(ROWS);

    for (name, plan) in ChaosPlan::matrix(0xC0FFEE, 0.01) {
        let cfg = LoadgenConfig {
            addr: addr.clone(),
            requests: 32,
            threads: 2,
            scan_threads: 2,
            seed: 7,
            chaos: Some(plan),
            ..LoadgenConfig::default()
        };
        let report = run_loadgen(&cfg, &replica).expect(name);
        assert_eq!(report.requests, 32, "{name}");
        assert_eq!(report.verify_failures, 0, "{name}: {}", report.summary());
        assert_eq!(report.errors, 0, "{name}: {}", report.summary());
        assert_eq!(report.retry_exhausted, 0, "{name}: {}", report.summary());
    }

    // Composite plan: every fault type at once, plus deliberately
    // corrupt frames riding sacrificial plain connections.
    let cfg = LoadgenConfig {
        addr: addr.clone(),
        requests: 64,
        threads: 2,
        scan_threads: 2,
        corrupt: true,
        seed: 11,
        chaos: Some(ChaosPlan::composite(0xC0FFEE)),
        ..LoadgenConfig::default()
    };
    let report = run_loadgen(&cfg, &replica).expect("composite");
    assert_eq!(report.verify_failures, 0, "composite: {}", report.summary());
    assert_eq!(report.errors, 0, "composite: {}", report.summary());
    assert_eq!(report.corrupt_rejected, report.corrupt_sent);
    drop(server);
}

/// A request frame torn at *every* byte offset: the server must never
/// misparse the fragment, never panic, and keep serving fresh
/// connections; the client-side error must be typed retryable.
#[test]
fn torn_request_frames_at_every_offset_never_misparse() {
    let (server, addr) = start_demo_server(4096, ServerConfig::default());
    let req = Request::SegmentRange {
        table: "demo".into(),
        column: "val".into(),
        row_start: 128,
        row_len: 64,
        raw: false,
    };
    let frame_len = scc_core::frame::encode(&scc_server::protocol::encode_request(&req)).len();
    assert!(frame_len > scc_core::frame::FRAME_OVERHEAD);

    for cut in 0..frame_len {
        let stream = TcpStream::connect(&addr).expect("connect");
        let plan = ChaosPlan { cut_write_at: Some(cut), ..ChaosPlan::none(1) };
        let mut torn = Client::from_transport(Box::new(ChaosStream::new(stream, plan, cut as u64)));
        let err = torn.send(&req).expect_err("cut write must surface an error");
        assert!(err.is_retryable(), "cut {cut}: {err} should be retryable");
        drop(torn); // closes the connection, leaving the torn bytes behind
    }

    // After the whole sweep, the server still answers correctly. The
    // burst of torn connections legitimately backs the admission queue
    // up, so the check rides the retry layer — a Busy refusal with a
    // hint is backpressure, not failure.
    use scc_server::{RetryPolicy, RetryingClient};
    let mut clean = RetryingClient::new(&addr, RetryPolicy::default(), None, 1);
    let v = clean.segment_range("demo", "key", 100, 16, false).expect("post-sweep request");
    assert_eq!(v.as_i64(), &(100..116).collect::<Vec<i64>>()[..]);
    drop(clean); // a stopping server waits out idle connections
    drop(server);
}

/// Graceful drain: a connection the acceptor already queued (but no
/// worker has touched) and a request already streamed to a busy
/// worker are BOTH served to completion before the server stops; new
/// arrivals during the drain get a typed `Draining` refusal with a
/// retry hint; and in-drain `Health` reports `Draining`.
#[test]
fn graceful_drain_serves_all_accepted_work_and_refuses_new_arrivals() {
    const ROWS: usize = 4096;
    let config = ServerConfig {
        workers: 1,
        queue_depth: 4,
        idle_timeout: Duration::from_millis(300),
        drain_deadline: Duration::from_secs(10),
        ..ServerConfig::default()
    };
    let (server, addr) = start_demo_server(ROWS, config);
    let replica = demo_table(ROWS);

    // A occupies the single worker (connected, idle).
    let mut a = Client::connect(&addr).expect("connect a");
    std::thread::sleep(Duration::from_millis(50));
    // B is accepted into the admission queue behind A and already has
    // a request in flight — the "accepted in-flight work" the drain
    // must not lose.
    let mut b = Client::connect(&addr).expect("connect b");
    b.send(&Request::SegmentRange {
        table: "demo".into(),
        column: "key".into(),
        row_start: 64,
        row_len: 32,
        raw: false,
    })
    .expect("queue b's request");
    b.send(&Request::Health).expect("queue b's health probe");
    // A pipelines a scan; the worker streams it in the running state.
    a.send(&Request::Scan {
        table: "demo".into(),
        columns: vec!["key".into(), "val".into()],
        predicate: None,
        threads: 1,
    })
    .expect("send a's scan");
    std::thread::sleep(Duration::from_millis(50));

    // Begin the drain from another thread; it blocks until every
    // worker has joined — returning is the zero-leaked-threads proof.
    let drainer = std::thread::spawn(move || {
        let mut server = server;
        server.drain();
    });
    std::thread::sleep(Duration::from_millis(100));

    // New arrivals during the drain are refused, not hung: typed
    // `Draining`, retryable, with a retry-after hint.
    let mut refused = Client::connect(&addr).expect("connect during drain");
    match refused.recv() {
        Ok(Response::Error { code: ErrorCode::Draining, retry_after_ms, .. }) => {
            assert!(retry_after_ms > 0, "draining refusal should carry a retry hint");
            assert!(ErrorCode::Draining.is_retryable());
        }
        other => panic!("expected draining refusal, got {other:?}"),
    }

    // A's in-flight scan completes, correct to the byte.
    let mut rows_seen = 0u64;
    loop {
        match a.recv().expect("a's scan stream survives the drain") {
            Response::Batch(batch) => {
                let keys = batch.columns[0].as_i64();
                for (i, &k) in keys.iter().enumerate() {
                    assert_eq!(k, rows_seen as i64 + i as i64);
                }
                rows_seen += batch.len() as u64;
            }
            Response::ScanDone { rows, .. } => {
                assert_eq!(rows, ROWS as u64);
                assert_eq!(rows_seen, ROWS as u64);
                break;
            }
            other => panic!("unexpected mid-scan response {other:?}"),
        }
    }

    // B — queued but never yet served when the drain began — gets its
    // answers: the slice, byte-exact, and a Health report that says
    // the server is draining.
    let ci = replica.find_col("key").expect("key column");
    let want = replica.try_read_rows(ci, 64, 32).expect("replica slice");
    match b.recv().expect("b's queued request survives the drain") {
        Response::Values(v) => assert_eq!(v, want),
        other => panic!("expected values for b, got {other:?}"),
    }
    match b.recv().expect("b's health probe survives the drain") {
        Response::Health { state, .. } => assert_eq!(state, HealthState::Draining),
        other => panic!("expected health for b, got {other:?}"),
    }

    drainer.join().expect("drain thread");
    let drained = scc_obs::global().counter("server.drain.begin").get();
    let completed = scc_obs::global().counter("server.drain.completed").get();
    let refusals = scc_obs::global().counter("server.shed.draining").get();
    assert!(drained >= 1, "drain.begin not counted");
    assert!(completed >= 1, "drain.completed not counted");
    assert!(refusals >= 1, "shed.draining not counted");
}

/// Load shedding: with the worker and the one queue slot taken, the
/// next arrival is refused immediately with `Busy` plus a retry-after
/// hint — backpressure the retry layer can act on.
#[test]
fn busy_refusal_carries_a_retry_after_hint() {
    let config = ServerConfig {
        workers: 1,
        queue_depth: 1,
        idle_timeout: Duration::from_secs(2),
        ..ServerConfig::default()
    };
    let (server, addr) = start_demo_server(1024, config);

    let mut held = Client::connect(&addr).expect("connect held");
    held.stats_json().expect("held connection is being served");
    let _queued = Client::connect(&addr).expect("connect queued");
    std::thread::sleep(Duration::from_millis(100));
    let mut refused = Client::connect(&addr).expect("connect refused");
    match refused.recv() {
        Ok(Response::Error { code: ErrorCode::Busy, retry_after_ms, .. }) => {
            assert!(retry_after_ms > 0, "busy refusal should carry a retry hint");
        }
        other => panic!("expected busy refusal, got {other:?}"),
    }
    assert!(scc_obs::global().counter("server.shed.busy").get() >= 1);
    drop(server);
}

/// A slow-loris peer — it opens a connection, dribbles two bytes of a
/// frame, then stalls forever — is disconnected by the idle timeout
/// instead of pinning the worker.
#[test]
fn slow_loris_peer_is_disconnected_by_the_idle_timeout() {
    let config = ServerConfig {
        workers: 1,
        idle_timeout: Duration::from_millis(200),
        ..ServerConfig::default()
    };
    let (server, addr) = start_demo_server(1024, config);

    let mut loris = TcpStream::connect(&addr).expect("connect loris");
    use std::io::{Read, Write};
    loris.write_all(&[0x07, 0x00]).expect("dribble a partial length prefix");
    loris.set_read_timeout(Some(Duration::from_secs(5))).expect("read timeout");
    let t0 = Instant::now();
    let mut buf = [0u8; 16];
    // The server must close the connection (read returns 0) rather
    // than wait forever for the rest of the frame.
    let n = loris.read(&mut buf).expect("loris read");
    assert_eq!(n, 0, "server should close the stalled connection");
    assert!(t0.elapsed() < Duration::from_secs(3), "close took {:?}", t0.elapsed());

    // The freed worker serves the next client immediately.
    let mut clean = Client::connect(&addr).expect("connect clean");
    let v = clean.segment_range("demo", "key", 0, 8, false).expect("post-loris request");
    assert_eq!(v.as_i64(), &(0..8).collect::<Vec<i64>>()[..]);
    drop(server);
}

/// Health answers in the running state with worker/queue facts.
#[test]
fn health_reports_ready_with_pool_shape() {
    let config = ServerConfig { workers: 3, ..ServerConfig::default() };
    let (server, addr) = start_demo_server(1024, config);
    let mut client = Client::connect(&addr).expect("connect");
    let (state, workers, _queue, active) = client.health().expect("health");
    assert_eq!(state, HealthState::Ready);
    assert_eq!(workers, 3);
    assert!(active >= 1, "the probing connection itself is active");
    drop(client); // a stopping server waits out idle connections
    drop(server);
}

/// `Shutdown { force: true }` skips the drain: the server stops and
/// joins promptly even with another connection sitting open.
#[test]
fn forced_shutdown_stops_quickly_despite_open_connections() {
    let config =
        ServerConfig { idle_timeout: Duration::from_millis(200), ..ServerConfig::default() };
    let (server, addr) = start_demo_server(1024, config);

    let _idler = Client::connect(&addr).expect("connect idler");
    std::thread::sleep(Duration::from_millis(50));
    let mut killer = Client::connect(&addr).expect("connect killer");
    killer.shutdown_server(true).expect("forced shutdown ack");
    let t0 = Instant::now();
    server.wait();
    assert!(t0.elapsed() < Duration::from_secs(3), "forced stop took {:?}", t0.elapsed());
}

/// The retry layer rides out a restart-shaped outage: requests against
/// a dead address fail typed (`RetryExhausted` with the attempt
/// trace), and every attempt in the trace is accounted for.
#[test]
fn retry_exhaustion_carries_the_attempt_trace() {
    use scc_server::{RetryPolicy, RetryingClient};
    // Nothing listens here: bind-then-drop reserves a dead port.
    let dead = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        l.local_addr().expect("addr").to_string()
    };
    let policy = RetryPolicy {
        max_attempts: 4,
        base_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(5),
        jitter: 0.5,
        deadline: Duration::from_secs(5),
    };
    let mut client = RetryingClient::new(&dead, policy, None, 99);
    match client.stats_json() {
        Err(ClientError::RetryExhausted { attempts }) => {
            assert_eq!(attempts.len(), 4, "every attempt traced");
            assert!(attempts.iter().all(|a| !a.error.is_empty()));
            // Backoffs recorded for all but the final attempt.
            assert!(attempts[..3].iter().all(|a| a.backed_off > Duration::ZERO));
            assert_eq!(attempts[3].backed_off, Duration::ZERO);
        }
        other => panic!("expected retry exhaustion, got {other:?}"),
    }
    assert_eq!(client.retries, 3);
    assert_eq!(client.exhausted, 1);
}
