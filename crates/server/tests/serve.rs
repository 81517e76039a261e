//! End-to-end tests: a real server on an ephemeral localhost port,
//! driven by real TCP clients.

use scc_core::{frame, Error, WireError};
use scc_engine::Batch;
use scc_server::{
    demo_table, protocol, run_loadgen, Catalog, ChaosPlan, Client, ClientError, ErrorCode,
    LoadgenConfig, PredOp, Predicate, RawSegment, Request, Response, RetryPolicy, RetryingClient,
    Server, ServerConfig, Transport,
};
use scc_storage::{
    stats_handle, Column, Compression, NumColumn, Scan, ScanOptions, Table, TableBuilder,
};
use std::io::{Cursor, Read, Write};
use std::sync::Arc;
use std::time::Duration;

fn start_demo_server(rows: usize, config: ServerConfig) -> (Server, String) {
    let mut catalog = Catalog::new();
    catalog.add(demo_table(rows));
    let server = Server::start(config, catalog).expect("bind ephemeral port");
    let addr = server.local_addr().to_string();
    (server, addr)
}

#[test]
fn concurrent_clients_get_byte_exact_results() {
    const ROWS: usize = 20_000;
    let (server, addr) = start_demo_server(ROWS, ServerConfig::default());
    let replica = demo_table(ROWS);

    // In-process serial oracle: the scan every remote result must match.
    let mut oracle = Scan::new(
        Arc::clone(&replica),
        &["key", "val"],
        ScanOptions::default(),
        stats_handle(),
        None,
    );
    let oracle = Arc::new(scc_engine::ops::collect(&mut oracle));

    std::thread::scope(|scope| {
        for t in 0..4usize {
            let addr = addr.clone();
            let replica = Arc::clone(&replica);
            let oracle = Arc::clone(&oracle);
            scope.spawn(move || {
                let mut client = Client::connect(&addr).expect("connect");
                for i in 0..20 {
                    // Overlapping slice reads, alternating decoded and
                    // raw-compressed responses.
                    let start = (t * 997 + i * 311) % (ROWS - 1);
                    let len = (1 + i * 173) % 3000 + 1;
                    let len = len.min(ROWS - start);
                    let raw = i % 2 == 1;
                    let got = client
                        .segment_range("demo", "val", start as u64, len as u32, raw)
                        .expect("segment range");
                    let want_ci = replica.find_col("val").unwrap();
                    let want = replica.try_read_rows(want_ci, start, len).unwrap();
                    assert_eq!(got, want, "thread {t} iter {i} raw={raw}");
                }
                // The stored-form scan, decoded here, must equal the
                // serial oracle.
                let (batch, rows) = client.scan("demo", &["key", "val"], None, 4).expect("scan");
                assert_eq!(rows as usize, ROWS);
                assert_eq!(&batch, oracle.as_ref(), "thread {t} scan");
            });
        }
    });
    drop(server);
}

#[test]
fn loadgen_closed_loop_with_corruption_probes() {
    const ROWS: usize = 16_384;
    let (server, addr) = start_demo_server(ROWS, ServerConfig::default());
    let replica = demo_table(ROWS);
    let cfg = LoadgenConfig {
        addr,
        requests: 120,
        threads: 3,
        scan_threads: 2,
        corrupt: true,
        seed: 42,
        ..LoadgenConfig::default()
    };
    let report = run_loadgen(&cfg, &replica).expect("loadgen");
    assert_eq!(report.requests, 120);
    assert_eq!(report.ok, 120, "all requests verify: {}", report.summary());
    assert_eq!(report.errors, 0);
    assert_eq!(report.verify_failures, 0);
    assert!(report.corrupt_sent > 0);
    assert_eq!(report.corrupt_rejected, report.corrupt_sent);
    assert!(report.throughput_rps > 0.0);
    drop(server);
}

#[test]
fn corrupt_frame_is_refused_and_fresh_connections_still_served() {
    let (server, addr) = start_demo_server(4096, ServerConfig::default());

    for flip in [0, 3, 17, 40] {
        let probe = Client::connect(&addr).expect("connect probe");
        let resp = probe.send_corrupt(&Request::Stats, flip).expect("read refusal");
        match resp {
            Response::Error { code: ErrorCode::BadFrame, .. } => {}
            other => panic!("corrupt frame answered with {other:?}"),
        }
        // The poisoned connection is closed; a fresh one works.
        let mut clean = Client::connect(&addr).expect("connect clean");
        let v = clean.segment_range("demo", "key", 100, 16, false).expect("clean request");
        assert_eq!(v.as_i64(), &(100..116).collect::<Vec<i64>>()[..]);
    }
    drop(server);
}

#[test]
fn zero_deadline_yields_typed_timeout() {
    let config = ServerConfig { deadline: Duration::ZERO, ..ServerConfig::default() };
    let (server, addr) = start_demo_server(4096, config);
    let mut client = Client::connect(&addr).expect("connect");
    match client.segment_range("demo", "key", 0, 8, false) {
        Err(ClientError::Server { code: ErrorCode::Timeout, .. }) => {}
        other => panic!("expected timeout, got {other:?}"),
    }
    match client.scan("demo", &["key"], None, 1) {
        Err(ClientError::Server { code: ErrorCode::Timeout, .. }) => {}
        other => panic!("expected timeout, got {other:?}"),
    }
    // Stats has no data path and is exempt from the deadline.
    assert!(client.stats_json().is_ok());
    drop(client); // a stopping server waits out idle connections
    drop(server);
}

#[test]
fn overload_is_refused_with_busy() {
    let config = ServerConfig {
        workers: 1,
        queue_depth: 1,
        idle_timeout: Duration::from_secs(2),
        ..ServerConfig::default()
    };
    let (server, addr) = start_demo_server(1024, config);

    // Occupy the only worker...
    let mut held = Client::connect(&addr).expect("connect held");
    held.stats_json().expect("held connection is being served");
    // ...fill the one queue slot...
    let _queued = Client::connect(&addr).expect("connect queued");
    std::thread::sleep(Duration::from_millis(100));
    // ...and the next arrival must be refused, not hung.
    let mut refused = Client::connect(&addr).expect("connect refused");
    match refused.recv() {
        Ok(Response::Error { code: ErrorCode::Busy, .. }) => {}
        other => panic!("expected busy refusal, got {other:?}"),
    }
    drop(server);
}

#[test]
fn bad_requests_get_typed_errors_and_the_connection_survives() {
    let (server, addr) = start_demo_server(4096, ServerConfig::default());
    let mut client = Client::connect(&addr).expect("connect");

    let expect_code = |r: Result<_, ClientError>, want: ErrorCode, what: &str| match r {
        Err(ClientError::Server { code, .. }) if code == want => {}
        other => panic!("{what}: expected {want}, got {other:?}"),
    };
    expect_code(
        client.segment_range("nope", "key", 0, 1, false).map(|_| ()),
        ErrorCode::UnknownTable,
        "unknown table",
    );
    expect_code(
        client.segment_range("demo", "nope", 0, 1, false).map(|_| ()),
        ErrorCode::UnknownColumn,
        "unknown column",
    );
    expect_code(
        client.segment_range("demo", "key", 4090, 100, false).map(|_| ()),
        ErrorCode::RangeOutOfBounds,
        "range past the table",
    );
    expect_code(
        client.segment_range("demo", "key", u64::MAX, u32::MAX, true).map(|_| ()),
        ErrorCode::RangeOutOfBounds,
        "overflowing range",
    );
    expect_code(
        client.scan("demo", &[], None, 1).map(|_| ()),
        ErrorCode::BadRequest,
        "scan with no columns",
    );
    let stray = Predicate { column: "flag".into(), op: PredOp::Eq, literal: 0 };
    expect_code(
        client.scan("demo", &["key"], Some(stray), 1).map(|_| ()),
        ErrorCode::BadRequest,
        "predicate on unrequested column",
    );
    // After all that abuse, the same connection still serves data.
    let v = client.segment_range("demo", "key", 0, 4, false).expect("survivor");
    assert_eq!(v.as_i64(), &[0, 1, 2, 3]);
    drop(server);
}

#[test]
fn out_of_domain_literals_fold_instead_of_truncating() {
    const ROWS: usize = 20_000;
    let (server, addr) = start_demo_server(ROWS, ServerConfig::default());
    let mut client = Client::connect(&addr).expect("connect");

    // `val` is i32; 5e9 is above its domain. The old `as i32` cast
    // truncated it to 705_032_704 and compared against *that*. Folding
    // gives the mathematically correct answer: everything is < 5e9,
    // nothing is > 5e9.
    let wide: i64 = 5_000_000_000;
    // One in-domain, selective literal rides along: the same path must
    // also count ordinary survivors right.
    let (_, vals, _) = scc_server::demo_columns(ROWS);
    let selective = vals.iter().filter(|&&v| v < 7).count() as u64;
    assert!(selective > 0 && selective < ROWS as u64 / 50);
    for (op, literal, want) in [
        (PredOp::Lt, wide, ROWS as u64),
        (PredOp::Le, wide, ROWS as u64),
        (PredOp::Ne, wide, ROWS as u64),
        (PredOp::Gt, wide, 0),
        (PredOp::Ge, wide, 0),
        (PredOp::Eq, wide, 0),
        (PredOp::Lt, 7, selective),
    ] {
        // Both thread counts take the compressed-domain pushdown path
        // (threads=2 on the scan workers); both must agree with the
        // folded semantics.
        for threads in [1u8, 2] {
            let pred = Predicate { column: "val".into(), op, literal };
            let (_, rows) =
                client.scan("demo", &["key", "val"], Some(pred), threads).expect("scan");
            assert_eq!(rows, want, "val {op:?} {literal} threads={threads}");
        }
    }

    // `flag` compares against unsigned dictionary codes; -1 is below
    // that domain. The old cast turned it into u32::MAX, so `< -1`
    // matched every row. Folded: nothing is < -1, everything is >= -1.
    for (op, want) in [
        (PredOp::Lt, 0),
        (PredOp::Le, 0),
        (PredOp::Eq, 0),
        (PredOp::Ge, ROWS as u64),
        (PredOp::Gt, ROWS as u64),
        (PredOp::Ne, ROWS as u64),
    ] {
        for threads in [1u8, 2] {
            let pred = Predicate { column: "flag".into(), op, literal: -1 };
            let (_, rows) =
                client.scan("demo", &["key", "flag"], Some(pred), threads).expect("scan");
            assert_eq!(rows, want, "flag {op:?} -1 threads={threads}");
        }
    }
    drop(client); // a stopping server waits out idle connections
    drop(server);
}

#[test]
fn raw_requests_fall_back_to_values_for_plain_storage() {
    // A deliberately uncompressed table: raw segment shipping has no
    // checksummed wire form to send, so the server serves values.
    let mut x = 1u64;
    let noise: Vec<i64> = (0..5000)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x as i64
        })
        .collect();
    let table = TableBuilder::new("noise")
        .seg_rows(1024)
        .compression(Compression::None)
        .add_i64("v", noise.clone())
        .build();
    let mut catalog = Catalog::new();
    catalog.add(table);
    let server = Server::start(ServerConfig::default(), catalog).expect("bind");
    let addr = server.local_addr().to_string();

    let mut client = Client::connect(&addr).expect("connect");
    let got = client.segment_range("noise", "v", 900, 300, true).expect("fallback");
    assert_eq!(got.as_i64(), &noise[900..1200]);
    drop(client); // a stopping server waits out idle connections
    drop(server);
}

#[test]
fn stats_snapshot_is_valid_schema_v1_with_server_metrics() {
    let (server, addr) = start_demo_server(4096, ServerConfig::default());
    let mut client = Client::connect(&addr).expect("connect");
    client.segment_range("demo", "val", 0, 64, false).expect("warm up a counter");
    let (_, rows) = client.scan("demo", &["key"], None, 2).expect("warm up scan");
    assert_eq!(rows, 4096);

    let json = client.stats_json().expect("stats");
    let doc = scc_obs::json::parse(&json).expect("parse");
    assert!(scc_obs::export::validate(&doc).is_empty(), "schema violations");
    let counters = doc.get("counters").and_then(|m| m.as_obj()).expect("counters object");
    for required in [
        "server.requests.segment_range",
        "server.requests.scan",
        "server.requests.stats",
        "server.responses.ok",
        "server.bytes_in",
        "server.bytes_out",
    ] {
        assert!(counters.iter().any(|(name, _)| name == required), "missing counter {required}");
    }
    let histograms = doc.get("histograms").and_then(|m| m.as_obj()).expect("histograms object");
    for required in ["server.service_ns.segment_range", "server.service_ns.scan"] {
        assert!(
            histograms.iter().any(|(name, _)| name == required),
            "missing histogram {required}"
        );
    }
    drop(client); // a stopping server waits out idle connections
    drop(server);
}

#[test]
fn protocol_shutdown_stops_the_server_cleanly() {
    let (server, addr) = start_demo_server(1024, ServerConfig::default());
    let mut client = Client::connect(&addr).expect("connect");
    client.segment_range("demo", "key", 0, 8, false).expect("serve before shutdown");
    client.shutdown_server(false).expect("ack");
    drop(client);
    // wait() joins the acceptor and every worker; returning at all is
    // the assertion (the harness would time the test out otherwise).
    server.wait();
    // And the port no longer answers with a served response.
    assert!(
        Client::connect(&addr).map(|mut c| c.stats_json().is_err()).unwrap_or(true),
        "server still serving after shutdown"
    );
}

#[test]
fn hello_handshake_reports_version_and_capabilities() {
    let (server, addr) = start_demo_server(1024, ServerConfig::default());
    let mut client = Client::connect(&addr).expect("connect");
    let (version, caps) = client.hello().expect("hello");
    assert_eq!(version, scc_server::PROTOCOL_VERSION);
    assert_eq!(caps, scc_server::SERVER_CAPS);
    assert_ne!(caps & scc_server::CAP_PARTITIONS, 0, "cluster partition capability advertised");
    // The connection stays usable for data requests after the handshake.
    let v = client.segment_range("demo", "key", 0, 4, false).expect("post-hello request");
    assert_eq!(v, scc_engine::Vector::I64(vec![0, 1, 2, 3]));
    drop(client); // a stopping server waits out idle connections
    drop(server);
}

#[test]
fn failover_client_flips_to_replica_on_refused_dial_without_sleeping() {
    use scc_server::{RetryPolicy, RetryingClient};
    const ROWS: usize = 4096;
    let (server, live) = start_demo_server(ROWS, ServerConfig::default());
    // Nothing listens here: bind-then-drop reserves a dead port.
    let dead = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        l.local_addr().expect("addr").to_string()
    };
    // Backoffs long enough that an accidental sleep would blow the
    // elapsed-time assertion.
    let policy = RetryPolicy {
        max_attempts: 4,
        base_backoff: Duration::from_secs(2),
        max_backoff: Duration::from_secs(2),
        jitter: 0.0,
        deadline: Duration::from_secs(30),
    };
    let mut client = RetryingClient::failover(vec![dead, live], policy, None, 7);
    let t0 = std::time::Instant::now();
    let (batch, rows) = client.scan("demo", &["key", "val"], None, 1).expect("replica serves");
    assert_eq!(rows as usize, ROWS);
    assert_eq!(batch.columns[0].len(), ROWS);
    assert!(
        t0.elapsed() < Duration::from_secs(1),
        "refused dial must fail over without a backoff sleep, took {:?}",
        t0.elapsed()
    );
    assert_eq!(client.retries, 0, "free rotation is not a slept retry");
    drop(client); // a stopping server waits out idle connections
    drop(server);
}

#[test]
fn failover_with_every_node_dark_still_terminates_typed() {
    use scc_server::{RetryPolicy, RetryingClient};
    let dead = || {
        let l = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        l.local_addr().expect("addr").to_string()
    };
    let policy = RetryPolicy {
        max_attempts: 4,
        base_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(4),
        jitter: 0.0,
        deadline: Duration::from_secs(5),
    };
    let mut client = RetryingClient::failover(vec![dead(), dead()], policy, None, 3);
    match client.stats_json() {
        Err(ClientError::RetryExhausted { attempts }) => {
            // One free rotation per address sweep, then the monotone
            // backoff chain resumes — so some attempts slept and the
            // slept waits never decrease.
            assert!(attempts.iter().any(|a| a.backed_off == Duration::ZERO));
            let slept: Vec<_> = attempts[..attempts.len() - 1]
                .iter()
                .filter(|a| a.backed_off > Duration::ZERO)
                .collect();
            assert!(!slept.is_empty(), "a dark cluster must fall back to backoff");
            assert!(slept.windows(2).all(|w| w[0].backed_off <= w[1].backed_off));
        }
        other => panic!("expected retry exhaustion, got {other:?}"),
    }
}

// ---------------------------------------------------------------------
// Stored-form scans: an unfiltered `scan` ships the columns' segments
// and the client decodes them.
// ---------------------------------------------------------------------

/// Every stored column type, over more than sixteen 1024-row segments
/// and ending in a partial one, so each column takes two frames.
fn typed_table() -> Arc<Table> {
    const ROWS: usize = 17 * 1024 + 300;
    const MODES: [&str; 3] = ["AIR", "RAIL", "SHIP"];
    TableBuilder::new("typed")
        .seg_rows(1024)
        .add_i32("i32", (0..ROWS).map(|i| (i % 1000) as i32 - 500).collect())
        .add_i64("i64", (0..ROWS).map(|i| i as i64 * 3 - 7).collect())
        .add_u32("u32", (0..ROWS).map(|i| (i * 7 % 4096) as u32).collect())
        .add_str("str", (0..ROWS).map(|i| MODES[i % 3].to_string()).collect())
        .add_blob("blob", 64)
        .build()
}

/// Plain and LZRW1 segments beside patched ones: `mixed` is compressed
/// for its first sixteen segments and noise (stored plain) after,
/// `plain` is plain throughout, `lz` is LZRW1 pages and `packed` is
/// compressed throughout — so `RawSegments` and `Values` frames mix,
/// and columns open with either.
fn mixed_table() -> Arc<Table> {
    const ROWS: usize = 20 * 1024 + 77;
    let mut x = 0x9E37_79B9u64;
    let mut noise = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mixed = (0..ROWS).map(|i| if i < 16 * 1024 { i as i64 } else { noise() as i64 }).collect();
    TableBuilder::new("mixed")
        .seg_rows(1024)
        .add_i64("mixed", mixed)
        .compression(Compression::None)
        .add_i32("plain", (0..ROWS).map(|i| (i % 77) as i32).collect())
        .compression(Compression::Lzrw1Pages)
        .add_u32("lz", (0..ROWS).map(|i| (i % 300) as u32).collect())
        .compression(Compression::Auto)
        .add_i64("packed", (0..ROWS).map(|i| (i % 5000) as i64).collect())
        .build()
}

fn empty_table() -> Arc<Table> {
    TableBuilder::new("empty").add_i64("k", vec![]).add_i32("v", vec![]).build()
}

/// Whether each segment of a numeric column has a stored wire form.
fn stored_forms(table: &Table, column: &str) -> Vec<bool> {
    let Column::Num(c) = table.col(column) else { panic!("{column} is not numeric") };
    (0..c.n_segments()).map(|s| c.segment_wire_bytes(s).is_some()).collect()
}

fn in_process_scan(table: &Arc<Table>, columns: &[&str]) -> Batch {
    let mut scan =
        Scan::new(Arc::clone(table), columns, ScanOptions::default(), stats_handle(), None);
    scc_engine::ops::collect(&mut scan)
}

fn start_server_with(tables: &[&Arc<Table>]) -> (Server, String) {
    let mut catalog = Catalog::new();
    for t in tables {
        catalog.add(Arc::clone(t));
    }
    let server = Server::start(ServerConfig::default(), catalog).expect("bind ephemeral port");
    let addr = server.local_addr().to_string();
    (server, addr)
}

#[test]
fn stored_form_scan_matches_the_in_process_scan_on_every_column_shape() {
    let (typed, mixed) = (typed_table(), mixed_table());
    // The fixture holds what it claims: both frame kinds in one column,
    // and columns with no stored form at all.
    let mixed_forms = stored_forms(&mixed, "mixed");
    assert!(mixed_forms[..16].iter().all(|&s| s) && mixed_forms[16..].iter().all(|&s| !s));
    assert!(stored_forms(&mixed, "plain").iter().all(|&s| !s));
    assert!(stored_forms(&mixed, "lz").iter().all(|&s| !s));
    assert!(stored_forms(&mixed, "packed").iter().all(|&s| s));

    let (server, addr) = start_server_with(&[&typed, &mixed]);
    let mut client = Client::connect(&addr).expect("connect");
    let mut retrying = RetryingClient::new(&addr, RetryPolicy::default(), None, 5);
    let cases: [(&Arc<Table>, &[&str]); 5] = [
        (&typed, &["i32", "i64", "u32", "str"]),
        (&typed, &["str", "i32"]),
        (&mixed, &["mixed", "plain", "lz", "packed"]),
        (&mixed, &["plain", "packed", "mixed"]),
        (&mixed, &["lz"]),
    ];
    for (table, columns) in cases {
        let want = (in_process_scan(table, columns), table.n_rows() as u64);
        let name = table.name.as_str();
        assert_eq!(client.scan(name, columns, None, 1).expect("scan"), want, "{name} {columns:?}");
        // `threads` means nothing to a stored-form scan.
        assert_eq!(client.scan(name, columns, None, 4).expect("scan"), want, "{name} threads=4");
        assert_eq!(retrying.scan(name, columns, None, 1).expect("scan"), want, "{name} retrying");
    }
    drop((client, retrying)); // a stopping server waits out idle connections
    drop(server);
}

#[test]
fn stored_form_scan_of_an_empty_table_matches_the_streamed_path() {
    let empty = empty_table();
    let (server, addr) = start_server_with(&[&empty]);
    let mut client = Client::connect(&addr).expect("connect");
    let stored = client.scan("empty", &["k", "v"], None, 1).expect("stored-form scan");
    // A predicate every row passes keeps the decoded `Batch` stream.
    let all = Predicate { column: "k".into(), op: PredOp::Ge, literal: i64::MIN };
    let streamed = client.scan("empty", &["k", "v"], Some(all), 1).expect("streamed scan");
    assert_eq!(stored, streamed);
    assert_eq!(stored, (in_process_scan(&empty, &["k", "v"]), 0));
    drop(client);
    drop(server);
}

#[test]
fn stored_form_scan_errors_are_typed_and_the_connection_survives() {
    let typed = typed_table();
    let (server, addr) = start_server_with(&[&typed]);
    let mut client = Client::connect(&addr).expect("connect");
    for (table, columns, want) in [
        ("nope", &["i32"][..], ErrorCode::UnknownTable),
        ("typed", &["i32", "nope"][..], ErrorCode::UnknownColumn),
        ("typed", &["blob"][..], ErrorCode::UnknownColumn),
        ("typed", &[][..], ErrorCode::BadRequest),
    ] {
        match client.scan(table, columns, None, 1) {
            Err(ClientError::Server { code, .. }) if code == want => {}
            other => panic!("{table} {columns:?}: expected {want}, got {other:?}"),
        }
    }
    let (batch, rows) = client.scan("typed", &["i64"], None, 1).expect("survivor");
    assert_eq!((batch, rows), (in_process_scan(&typed, &["i64"]), typed.n_rows() as u64));
    drop(client);
    drop(server);
}

#[test]
fn stored_form_scan_under_chaos_returns_byte_identical_batches() {
    let typed = typed_table();
    let columns = ["i32", "i64", "u32", "str"];
    let want = (in_process_scan(&typed, &columns), typed.n_rows() as u64);
    let (server, addr) = start_server_with(&[&typed]);
    let mut plans = ChaosPlan::matrix(0x5CA9, 0.01);
    plans.push(("composite", ChaosPlan::composite(0x5CA9)));
    for (salt, (name, plan)) in plans.into_iter().enumerate() {
        let mut client =
            RetryingClient::new(&addr, RetryPolicy::default(), Some(plan), salt as u64);
        for i in 0..4 {
            let got = client.scan("typed", &columns, None, 1).expect(name);
            assert!(got == want, "{name}: scan {i} differs");
        }
    }
    drop(server);
}

/// A transport that answers with a fixed byte stream and swallows
/// whatever the client writes.
struct Scripted(Cursor<Vec<u8>>);

impl Read for Scripted {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.0.read(buf)
    }
}

impl Write for Scripted {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl Transport for Scripted {
    fn set_read_timeout(&self, _: Option<Duration>) -> std::io::Result<()> {
        Ok(())
    }

    fn set_write_timeout(&self, _: Option<Duration>) -> std::io::Result<()> {
        Ok(())
    }
}

/// A one-column stored-form scan answered by `responses`, each sent as
/// a well-checksummed frame.
fn scripted_scan(responses: &[Response]) -> Result<(Batch, u64), ClientError> {
    let bytes =
        responses.iter().flat_map(|r| frame::encode(&protocol::encode_response(r))).collect();
    let mut client = Client::from_transport(Box::new(Scripted(Cursor::new(bytes))));
    client.scan("t", &["v"], None, 1)
}

/// The three stored 1024-row segments of an `i64` column holding
/// `0..3072`.
fn three_segments() -> Vec<RawSegment> {
    let t = TableBuilder::new("t").seg_rows(1024).add_i64("v", (0..3072).collect()).build();
    let Column::Num(NumColumn::I64(c)) = t.col("v") else { unreachable!() };
    (0..3)
        .map(|s| RawSegment {
            first_row: (s * 1024) as u64,
            bytes: c.segment_wire_bytes(s).expect("compressed"),
        })
        .collect()
}

fn raw_frame(row_start: u64, row_len: u32, segments: &[RawSegment]) -> Response {
    let vtype = scc_engine::ColType::I64.tag();
    Response::RawSegments { vtype, row_start, row_len, segments: segments.to_vec() }
}

#[test]
fn stored_form_scan_decodes_a_well_formed_script() {
    let segs = three_segments();
    let (batch, rows) = scripted_scan(&[
        raw_frame(0, 2048, &segs[..2]),
        raw_frame(2048, 1024, &segs[2..]),
        Response::ScanDone { rows: 3072, batches: 2 },
    ])
    .expect("well-formed stream");
    assert_eq!(rows, 3072);
    assert_eq!(batch.columns[0].as_i64(), &(0..3072).collect::<Vec<i64>>()[..]);
}

#[test]
fn stored_form_flipped_segment_byte_is_a_section_checksum_error() {
    let segs = three_segments();
    let body = scc_core::wire::HEADER_BYTES_V2..segs[0].bytes.len();
    assert!(!body.is_empty());
    for at in body {
        let mut bad = segs.clone();
        bad[0].bytes[at] ^= 0x10;
        let got = scripted_scan(&[
            raw_frame(0, 3072, &bad),
            Response::ScanDone { rows: 3072, batches: 1 },
        ]);
        match got {
            Err(ClientError::Decode(Error::Wire(WireError::Checksum { .. }))) => {}
            other => panic!("flip at byte {at}: expected a section checksum error, got {other:?}"),
        }
    }
}

#[test]
fn stored_form_streams_that_are_cut_or_do_not_tile_are_errors() {
    let segs = three_segments();
    let done = |rows, batches| Response::ScanDone { rows, batches };
    let cases: Vec<(&str, Vec<Response>)> = vec![
        ("cut before the first frame", vec![]),
        ("cut before ScanDone", vec![raw_frame(0, 2048, &segs[..2])]),
        (
            "gap between frames",
            vec![raw_frame(0, 1024, &segs[..1]), raw_frame(2048, 1024, &segs[2..]), done(3072, 2)],
        ),
        (
            "overlapping frames",
            vec![raw_frame(0, 2048, &segs[..2]), raw_frame(1024, 2048, &segs[1..]), done(3072, 2)],
        ),
        (
            "overlap whose length hides the gap after it",
            vec![raw_frame(0, 2048, &segs[..2]), raw_frame(1024, 1024, &segs[1..2]), done(3072, 2)],
        ),
        (
            "gap between segments",
            vec![raw_frame(0, 2048, &[segs[0].clone(), segs[2].clone()]), done(2048, 1)],
        ),
        (
            "a segment holding none of the next rows",
            vec![
                raw_frame(0, 2048, &[segs[0].clone(), segs[0].clone(), segs[1].clone()]),
                done(2048, 1),
            ],
        ),
        ("segments short of the frame", vec![raw_frame(0, 3072, &segs[..2]), done(3072, 1)]),
        ("ScanDone past the column's end", vec![raw_frame(0, 2048, &segs[..2]), done(3072, 1)]),
        ("ScanDone miscounts frames", vec![raw_frame(0, 3072, &segs), done(3072, 2)]),
        (
            "a second column nobody asked for",
            vec![raw_frame(0, 3072, &segs), raw_frame(0, 3072, &segs), done(3072, 2)],
        ),
        ("announced values never sent", vec![raw_frame(0, 3072, &[]), done(3072, 1)]),
        ("empty frame", vec![raw_frame(0, 0, &[]), done(0, 1)]),
    ];
    for (what, responses) in cases {
        match scripted_scan(&responses) {
            Err(ClientError::Frame(_) | ClientError::Decode(_)) => {}
            other => panic!("{what}: expected a typed stream error, got {other:?}"),
        }
    }
}

/// A raw range over more segments than a `RawSegments` frame can count
/// (its count is a `u16`) has no stored form to ship, so it is answered
/// with values, as plain storage is — not with a panicked worker.
#[test]
fn raw_range_over_more_segments_than_a_frame_counts_is_served_as_values() {
    const SEGMENTS: usize = u16::MAX as usize + 2;
    let values: Vec<u32> = (0..SEGMENTS * 128).map(|i| (i % 2) as u32).collect();
    let table = TableBuilder::new("t").seg_rows(128).add_u32("v", values.clone()).build();
    assert!(stored_forms(&table, "v").iter().all(|&s| s), "every segment is stored compressed");
    let (server, addr) = start_server_with(&[&table]);
    let mut client = Client::connect(&addr).expect("connect");
    let all = values.len() as u32;
    let got = client.segment_range("t", "v", 0, all, true).expect("served as values");
    assert_eq!(got.as_u32(), &values[..]);
    // The connection survives, and a range a frame can carry still ships.
    let got = client.segment_range("t", "v", 1000, 5000, true).expect("raw range");
    assert_eq!(got.as_u32(), &values[1000..6000]);
    drop(client); // a stopping server waits out idle connections
    drop(server);
}

/// The frames the server writes from its resident segment images are
/// byte for byte the frames of the same response built from owned
/// copies of the segments, for a raw range and for a stored-form scan.
#[test]
fn stored_frames_equal_the_encoding_of_owned_segments() {
    let typed = typed_table();
    let Column::Num(column) = typed.col("i64") else { unreachable!() };
    let owned = |segs: std::ops::Range<usize>| -> Vec<RawSegment> {
        let wire = |s: usize| column.segment_wire_bytes(s).expect("compressed");
        segs.map(|s| RawSegment { first_row: (s * 1024) as u64, bytes: wire(s) }).collect()
    };
    let vtype = scc_engine::ColType::I64.tag();
    let cases = [
        (
            Request::SegmentRange {
                table: "typed".into(),
                column: "i64".into(),
                row_start: 1000,
                row_len: 3000,
                raw: true,
            },
            Response::RawSegments { vtype, row_start: 1000, row_len: 3000, segments: owned(0..4) },
        ),
        (
            Request::ScanSegments { table: "typed".into(), columns: vec!["i64".into()] },
            Response::RawSegments {
                vtype,
                row_start: 0,
                row_len: 16 * 1024,
                segments: owned(0..16),
            },
        ),
    ];
    let (server, addr) = start_server_with(&[&typed]);
    for (request, response) in cases {
        let want = frame::encode(&protocol::encode_response(&response));
        let mut stream = std::net::TcpStream::connect(&addr).expect("connect");
        frame::write_frame(&mut stream, &protocol::encode_request(&request)).expect("send");
        let mut got = vec![0u8; want.len()];
        stream.read_exact(&mut got).expect("first response frame");
        assert!(got == want, "{request:?}: frame bytes differ");
    }
    drop(server);
}
