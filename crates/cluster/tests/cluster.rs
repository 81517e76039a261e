//! End-to-end cluster tests: real TCP shards, real scatter-gather.
//!
//! The acceptance bar is byte-identity — a coordinator scan must equal
//! the single-node scan of the unsharded table exactly, including under
//! seeded chaos with a killed primary (served from the replica, zero
//! lost or duplicated rows).

use scc_cluster::{ClusterConfig, ClusterError, Coordinator, Topology};
use scc_engine::{ops, Expr, Select};
use scc_server::{
    demo_table, Catalog, ChaosPlan, PredOp, Predicate, RetryPolicy, Server, ServerConfig,
    PROTOCOL_VERSION,
};
use scc_storage::{partition_table, stats_handle, PartitionManifest, Scan, ScanOptions, Table};
use scc_tpch::{queries, PartitionedTpch, TpchDb};
use std::sync::Arc;
use std::time::Duration;

/// A short retry budget so dead-cluster tests fail in milliseconds, not
/// the default 15 s.
fn fast_retry() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 6,
        base_backoff: Duration::from_millis(2),
        max_backoff: Duration::from_millis(40),
        jitter: 0.3,
        deadline: Duration::from_millis(2_500),
    }
}

/// Starts one server per topology node, each serving exactly the
/// partition tables (primaries + replicas) its node hosts.
fn start_shards(manifests: &[(&PartitionManifest, &[Arc<Table>])], nodes: usize) -> Vec<Server> {
    let mut catalogs: Vec<Catalog> = (0..nodes).map(|_| Catalog::new()).collect();
    for (m, parts) in manifests {
        for p in 0..m.partitions() {
            for node in [m.primary[p], m.replica[p]] {
                catalogs[node].add(Arc::clone(&parts[p]));
            }
        }
    }
    catalogs
        .into_iter()
        .map(|catalog| {
            Server::start(ServerConfig::default(), catalog).expect("bind ephemeral port")
        })
        .collect()
}

fn addrs(servers: &[Server]) -> Vec<String> {
    servers.iter().map(|s| s.local_addr().to_string()).collect()
}

/// The single-node oracle: scan the unsharded table locally.
fn local_scan(table: &Arc<Table>, columns: &[&str]) -> scc_engine::Batch {
    let mut scan =
        Scan::new(Arc::clone(table), columns, ScanOptions::default(), stats_handle(), None);
    ops::collect(&mut scan)
}

#[test]
fn all_fifteen_query_scan_inputs_are_byte_identical_across_the_cluster() {
    let db = TpchDb::load(scc_tpch::generate(0.005, 1), Some(1024));
    let nodes = 3;
    let parted = PartitionedTpch::build(&db, 6, nodes);

    let manifests: Vec<(&PartitionManifest, &[Arc<Table>])> =
        parted.tables.iter().map(|pt| (&pt.manifest, pt.parts.as_slice())).collect();
    let servers = start_shards(&manifests, nodes);

    let topology = Topology { nodes: addrs(&servers), partitions: 6, replication: 1 };
    let mut coord = Coordinator::new(
        topology,
        ClusterConfig { retry: fast_retry(), ..ClusterConfig::default() },
    );
    for pt in &parted.tables {
        coord.register(pt.manifest.clone());
    }
    let infos = coord.handshake().expect("healthy cluster handshakes");
    assert_eq!(infos.len(), nodes);
    assert!(infos.iter().all(|n| n.version == PROTOCOL_VERSION));

    // Every (table, column-set) any of the 15 queries scans, once.
    let mut inputs: Vec<(&str, &[&str])> = Vec::new();
    for &q in queries::PAPER_QUERIES.iter().chain(queries::EXTENDED_QUERIES.iter()) {
        for &(table, cols) in queries::touched_columns(q) {
            if !inputs.contains(&(table, cols)) {
                inputs.push((table, cols));
            }
        }
    }
    assert!(inputs.len() >= 8, "query plans should touch many scan inputs");

    for (table, cols) in inputs {
        let oracle = local_scan(queries::table_by_name(&db, table), cols);
        let (merged, rows) = coord
            .scan(table, cols, None)
            .unwrap_or_else(|e| panic!("cluster scan of {table}: {e}"));
        assert_eq!(
            rows as usize,
            queries::table_by_name(&db, table).n_rows(),
            "row count for {table}"
        );
        assert_eq!(merged, oracle, "cluster scan of {table} {cols:?} diverged from single-node");
    }
}

#[test]
fn killed_primary_is_served_by_its_replica_byte_identically_under_chaos() {
    let rows = 40_000;
    let table = demo_table(rows);
    let nodes = 3;
    let manifest = PartitionManifest::range("demo", rows, table.seg_rows(), 4, nodes);
    let parts = partition_table(&table, &manifest);

    let mut servers = start_shards(&[(&manifest, parts.as_slice())], nodes);
    let topology = Topology { nodes: addrs(&servers), partitions: 4, replication: 1 };
    let cfg = ClusterConfig {
        retry: fast_retry(),
        chaos: Some(ChaosPlan::composite(0xC1A05)),
        ..ClusterConfig::default()
    };
    let mut coord = Coordinator::new(topology, cfg);
    coord.register(manifest.clone());

    // Kill node 0 — the primary of partitions 0 and 3 — outright. Its
    // partitions must be served by their replicas with nothing lost,
    // nothing duplicated, nothing reordered.
    servers[0].stop();
    assert!(manifest.primary.contains(&0), "node 0 should own at least one partition");

    let columns = ["key", "val", "flag"];
    let local_select = |predicate: Expr| {
        let scan =
            Scan::new(Arc::clone(&table), &columns, ScanOptions::default(), stats_handle(), None);
        ops::collect(&mut Select::new(scan, predicate))
    };
    let ship = table.str_col("flag").dict.binary_search(&"SHIP".to_string()).expect("SHIP") as u32;
    // (pushed predicate, single-node answer): none, a numeric column, and
    // a dictionary column compared on its codes.
    let scans = [
        (None, local_scan(&table, &columns)),
        (
            Some(Predicate { column: "val".into(), op: PredOp::Lt, literal: 500 }),
            local_select(Expr::col(1).lt(Expr::lit_i32(500))),
        ),
        (
            Some(Predicate { column: "flag".into(), op: PredOp::Eq, literal: i64::from(ship) }),
            local_select(Expr::col(2).eq(Expr::lit_u32(ship))),
        ),
    ];

    // Point reads spanning the dead node's partition boundary.
    let (p0_start, p0_end) = manifest.bounds[0];
    let span_start = p0_end.saturating_sub(100).max(p0_start);
    let span_len = 200.min(rows - span_start);

    // Two threads share one coordinator, each sending every request kind.
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| {
                for (pred, oracle) in &scans {
                    let (merged, rows_seen) =
                        coord.scan("demo", &columns, pred.as_ref()).expect("replica serves");
                    assert_eq!(&merged, oracle, "replica-served scan diverged under {pred:?}");
                    if pred.is_none() {
                        assert_eq!(rows_seen as usize, rows);
                    }
                }
                for (col, column) in columns.iter().enumerate() {
                    let want = table.try_read_rows(col, span_start, span_len).expect("oracle rows");
                    for raw in [false, true] {
                        let got = coord
                            .segment_range("demo", column, span_start as u64, span_len as u32, raw)
                            .expect("routed point read");
                        assert_eq!(got, want, "routed {column} read (raw={raw}) diverged");
                    }
                }
            });
        }
    });
}

#[test]
fn all_hosts_dark_yields_a_typed_partition_unavailable() {
    // Two listeners bound then dropped: addresses that refuse dials.
    let dark: Vec<String> = (0..2)
        .map(|_| {
            let l = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
            l.local_addr().expect("addr").to_string()
        })
        .collect();
    let topology = Topology { nodes: dark.clone(), partitions: 2, replication: 1 };
    let retry = RetryPolicy {
        max_attempts: 4,
        base_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(10),
        jitter: 0.0,
        deadline: Duration::from_millis(300),
    };
    let mut coord = Coordinator::new(topology, ClusterConfig { retry, ..ClusterConfig::default() });
    coord.register(PartitionManifest::range("demo", 1_000, 128, 2, 2));

    match coord.scan("demo", &["key"], None) {
        Err(ClusterError::PartitionUnavailable { table, partition, primary, replica, .. }) => {
            assert_eq!(table, "demo");
            assert_eq!(partition, 0, "serially-first failed partition wins");
            assert_eq!(primary, dark[0]);
            assert_eq!(replica.as_deref(), Some(dark[1].as_str()));
        }
        other => panic!("expected PartitionUnavailable, got {other:?}"),
    }
}

#[test]
fn wrong_generation_nodes_are_refused_with_a_typed_protocol_mismatch() {
    use scc_core::frame;
    use scc_server::{ErrorCode, Response};

    // A fake node that answers every request with a fixed response —
    // standing in for a shard from a different protocol generation.
    fn fake_node(answer: Response) -> (String, std::thread::JoinHandle<()>) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let handle = std::thread::spawn(move || {
            if let Ok((mut conn, _)) = listener.accept() {
                if frame::read_frame(&mut conn, 1 << 20).is_ok() {
                    let payload = scc_server::protocol::encode_response(&answer);
                    let _ = frame::write_frame(&mut conn, &payload);
                }
            }
        });
        (addr, handle)
    }

    // Case 1: a node speaking a future/older version number.
    let (addr, handle) = fake_node(Response::Hello { version: 1, caps: 0 });
    let coord = Coordinator::new(
        Topology { nodes: vec![addr.clone()], partitions: 1, replication: 0 },
        ClusterConfig { retry: fast_retry(), ..ClusterConfig::default() },
    );
    match coord.handshake() {
        Err(ClusterError::ProtocolMismatch { node, ours, theirs, .. }) => {
            assert_eq!(node, addr);
            assert_eq!(ours, PROTOCOL_VERSION);
            assert_eq!(theirs, Some(1));
        }
        other => panic!("expected ProtocolMismatch, got {other:?}"),
    }
    handle.join().expect("fake node");

    // Case 2: a pre-handshake server that refuses the unknown request
    // kind — typed mismatch with no reported version.
    let (addr, handle) = fake_node(Response::Error {
        code: ErrorCode::BadRequest,
        message: "unknown request kind".into(),
        retry_after_ms: 0,
    });
    let coord = Coordinator::new(
        Topology { nodes: vec![addr.clone()], partitions: 1, replication: 0 },
        ClusterConfig { retry: fast_retry(), ..ClusterConfig::default() },
    );
    match coord.handshake() {
        Err(ClusterError::ProtocolMismatch { node, theirs: None, .. }) => assert_eq!(node, addr),
        other => panic!("expected ProtocolMismatch, got {other:?}"),
    }
    handle.join().expect("fake node");
}
