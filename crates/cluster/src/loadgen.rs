//! Closed-loop cluster load generator: drives a [`Coordinator`] with a
//! deterministic mix of scatter-gather scans and routed point reads,
//! byte-verifying every merged result against a local unsharded oracle
//! table. The cluster analogue of `scc_server::run_loadgen` — same
//! verification stance (a response that is not byte-identical to the
//! local replica is a *wrong result*, counted separately from an
//! error), same nearest-rank latency percentiles.

use crate::coordinator::Coordinator;
use crate::ClusterError;
use scc_engine::{ops, Batch, Expr, Select, Vector};
use scc_server::protocol::{PredOp, Predicate};
use scc_storage::{stats_handle, Column, NumColumn, Scan, ScanOptions, Table};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Cluster loadgen knobs.
#[derive(Debug, Clone)]
pub struct ClusterLoadgenConfig {
    /// Total requests across all threads.
    pub requests: usize,
    /// Closed-loop client threads (each thread scatters its own scans).
    pub threads: usize,
    /// Deterministic seed for the request mix.
    pub seed: u64,
}

impl Default for ClusterLoadgenConfig {
    fn default() -> Self {
        Self { requests: 200, threads: 2, seed: 0xC1A5 }
    }
}

/// What a cluster loadgen run observed.
#[derive(Debug, Clone)]
pub struct ClusterLoadgenReport {
    /// Requests attempted.
    pub requests: usize,
    /// Requests that succeeded and verified byte-exact.
    pub ok: usize,
    /// Requests that failed with a typed cluster error.
    pub errors: usize,
    /// Responses that succeeded but did not match the oracle — must be
    /// zero; a non-zero count means the cluster returned wrong data.
    pub verify_failures: usize,
    /// Errors that were [`ClusterError::PartitionUnavailable`].
    pub unavailable: usize,
    /// Total rows streamed back by verified scans.
    pub rows_streamed: u64,
    /// Wall-clock for the whole run.
    pub elapsed: Duration,
    /// Nearest-rank latency percentiles over all requests, microseconds.
    pub p50_us: f64,
    /// 95th percentile, microseconds.
    pub p95_us: f64,
    /// 99th percentile, microseconds.
    pub p99_us: f64,
    /// Completed requests per second.
    pub throughput_rps: f64,
}

impl ClusterLoadgenReport {
    /// One-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "{} requests in {:.2}s ({:.0} req/s) | ok {} error {} (unavailable {}) \
             verify-fail {} | {} rows | p50 {:.0}us p95 {:.0}us p99 {:.0}us",
            self.requests,
            self.elapsed.as_secs_f64(),
            self.throughput_rps,
            self.ok,
            self.errors,
            self.unavailable,
            self.verify_failures,
            self.rows_streamed,
            self.p50_us,
            self.p95_us,
            self.p99_us,
        )
    }

    /// Structured form for `scc loadgen --cluster --report-json`.
    pub fn to_json(&self) -> scc_obs::json::Json {
        use scc_obs::json::Json;
        Json::Obj(vec![
            ("requests".into(), Json::U64(self.requests as u64)),
            ("ok".into(), Json::U64(self.ok as u64)),
            ("errors".into(), Json::U64(self.errors as u64)),
            ("unavailable".into(), Json::U64(self.unavailable as u64)),
            ("verify_failures".into(), Json::U64(self.verify_failures as u64)),
            ("rows_streamed".into(), Json::U64(self.rows_streamed)),
            ("elapsed_s".into(), Json::F64(self.elapsed.as_secs_f64())),
            ("throughput_rps".into(), Json::F64(self.throughput_rps)),
            ("p50_us".into(), Json::F64(self.p50_us)),
            ("p95_us".into(), Json::F64(self.p95_us)),
            ("p99_us".into(), Json::F64(self.p99_us)),
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

/// The verification oracles, computed once from the local unsharded
/// table with the same single-node scan machinery the servers use —
/// so "verified" literally means "byte-identical to the single-node
/// answer".
struct Oracle {
    full: Batch,
    val_filtered: Batch,
    flag_filtered: Batch,
    flag_code: u32,
    n_rows: usize,
}

fn build_oracle(table: &Arc<Table>) -> Oracle {
    let opts = ScanOptions::default();
    let cols = ["key", "val", "flag"];
    let scan = |t: &Arc<Table>| Scan::new(Arc::clone(t), &cols, opts, stats_handle(), None);
    let full = ops::collect(&mut scan(table));
    let val_filtered =
        ops::collect(&mut Select::new(scan(table), Expr::col(1).lt(Expr::lit_i32(500))));
    let flag_code = match table.col("flag") {
        Column::Str(s) => {
            s.dict.binary_search(&"SHIP".to_string()).expect("demo dict has SHIP") as u32
        }
        _ => panic!("flag must be a string column"),
    };
    let flag_filtered =
        ops::collect(&mut Select::new(scan(table), Expr::col(2).eq(Expr::lit_u32(flag_code))));
    Oracle { full, val_filtered, flag_filtered, flag_code, n_rows: table.n_rows() }
}

/// The plain-representation slice of one column — the byte-exactness
/// oracle for routed point reads (string columns verify their codes).
fn expected_slice(table: &Table, column: &str, start: usize, len: usize) -> Vector {
    match table.col(column) {
        Column::Num(NumColumn::I32(c)) => Vector::I32(c.values()[start..start + len].to_vec()),
        Column::Num(NumColumn::I64(c)) => Vector::I64(c.values()[start..start + len].to_vec()),
        Column::Num(NumColumn::U32(c)) => Vector::U32(c.values()[start..start + len].to_vec()),
        Column::Str(s) => Vector::U32(s.codes.values()[start..start + len].to_vec()),
        Column::Blob(_) => panic!("blob columns are not loadgen targets"),
    }
}

struct Tally {
    ok: usize,
    errors: usize,
    verify_failures: usize,
    unavailable: usize,
    rows: u64,
    latencies_ns: Vec<u64>,
}

/// Drives `coord` with a closed-loop mix of full scans, pushed-down
/// predicate scans (on a numeric and a dictionary column) and routed
/// segment-range point reads against the logical table `oracle` is an
/// unsharded copy of. Every successful response is compared
/// byte-for-byte with the oracle; mismatches are counted as
/// `verify_failures`, which any caller (the CLI exits non-zero, CI
/// fails) must require to be zero.
pub fn run_cluster_loadgen(
    coord: &Coordinator,
    oracle_table: &Arc<Table>,
    cfg: &ClusterLoadgenConfig,
) -> Result<ClusterLoadgenReport, String> {
    assert!(cfg.threads >= 1, "loadgen needs at least one thread");
    let oracle = Arc::new(build_oracle(oracle_table));
    let table = oracle_table.name.clone();
    let started = Instant::now();

    let tallies: Vec<Tally> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cfg.threads)
            .map(|t| {
                let oracle = Arc::clone(&oracle);
                let table = table.as_str();
                let oracle_table = Arc::clone(oracle_table);
                scope.spawn(move || run_thread(coord, &oracle, &oracle_table, table, cfg, t))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("loadgen thread panicked")).collect()
    });

    let elapsed = started.elapsed();
    let mut tally = Tally {
        ok: 0,
        errors: 0,
        verify_failures: 0,
        unavailable: 0,
        rows: 0,
        latencies_ns: vec![],
    };
    for t in tallies {
        tally.ok += t.ok;
        tally.errors += t.errors;
        tally.verify_failures += t.verify_failures;
        tally.unavailable += t.unavailable;
        tally.rows += t.rows;
        tally.latencies_ns.extend(t.latencies_ns);
    }
    tally.latencies_ns.sort_unstable();
    let requests = tally.ok + tally.errors + tally.verify_failures;
    Ok(ClusterLoadgenReport {
        requests,
        ok: tally.ok,
        errors: tally.errors,
        verify_failures: tally.verify_failures,
        unavailable: tally.unavailable,
        rows_streamed: tally.rows,
        elapsed,
        p50_us: percentile_ns(&tally.latencies_ns, 0.50) / 1_000.0,
        p95_us: percentile_ns(&tally.latencies_ns, 0.95) / 1_000.0,
        p99_us: percentile_ns(&tally.latencies_ns, 0.99) / 1_000.0,
        throughput_rps: requests as f64 / elapsed.as_secs_f64().max(1e-9),
    })
}

fn run_thread(
    coord: &Coordinator,
    oracle: &Oracle,
    oracle_table: &Arc<Table>,
    table: &str,
    cfg: &ClusterLoadgenConfig,
    thread_idx: usize,
) -> Tally {
    let mut tally = Tally {
        ok: 0,
        errors: 0,
        verify_failures: 0,
        unavailable: 0,
        rows: 0,
        latencies_ns: vec![],
    };
    let my_requests =
        cfg.requests / cfg.threads + usize::from(thread_idx < cfg.requests % cfg.threads);
    let mut rng = cfg.seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(thread_idx as u64 | 1);
    let mut next = move || {
        rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        rng >> 16
    };
    let columns = ["key", "val", "flag"];
    for i in 0..my_requests {
        let t0 = Instant::now();
        let outcome: Result<(bool, u64), ClusterError> = match i % 4 {
            // Routed point reads: decoded even iterations, raw
            // (compressed-over-the-wire, decoded coordinator-side) odd.
            0 => {
                let raw = next() % 2 == 1;
                let column = columns[next() as usize % columns.len()];
                let start = next() as usize % oracle.n_rows;
                let len = (1 + next() as usize % 4096).min(oracle.n_rows - start);
                coord
                    .segment_range(table, column, start as u64, len as u32, raw)
                    .map(|v| (v == expected_slice(oracle_table, column, start, len), len as u64))
            }
            1 => coord.scan(table, &columns, None).map(|(batch, rows)| {
                (rows as usize == oracle.n_rows && batch == oracle.full, rows)
            }),
            2 => {
                let pred = Predicate { column: "val".into(), op: PredOp::Lt, literal: 500 };
                coord
                    .scan(table, &columns, Some(&pred))
                    .map(|(batch, rows)| (batch == oracle.val_filtered, rows))
            }
            _ => {
                let pred = Predicate {
                    column: "flag".into(),
                    op: PredOp::Eq,
                    literal: i64::from(oracle.flag_code),
                };
                coord
                    .scan(table, &columns, Some(&pred))
                    .map(|(batch, rows)| (batch == oracle.flag_filtered, rows))
            }
        };
        tally.latencies_ns.push(t0.elapsed().as_nanos() as u64);
        match outcome {
            Ok((true, rows)) => {
                tally.ok += 1;
                tally.rows += rows;
            }
            Ok((false, _)) => tally.verify_failures += 1,
            Err(e) => {
                if matches!(e, ClusterError::PartitionUnavailable { .. }) {
                    tally.unavailable += 1;
                }
                tally.errors += 1;
            }
        }
    }
    tally
}
