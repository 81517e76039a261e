//! The scatter-gather coordinator: one logical scan → one `Scan` per
//! partition, fanned out to shard nodes and merged back into exact
//! serial order through the engine's `Exchange`.

use crate::topology::Topology;
use crate::ClusterError;
use scc_engine::ops::exchange::{Exchange, Partition};
use scc_engine::ops::try_collect;
use scc_engine::{Batch, Vector};
use scc_server::chaos::ChaosPlan;
use scc_server::client::{Client, ClientError, RetryPolicy, RetryingClient};
use scc_server::protocol::{Predicate, Request, Response, PROTOCOL_VERSION};
use scc_storage::PartitionManifest;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::sync_channel;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Coordinator knobs.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Retry/backoff/deadline budget for each *partition call* — the
    /// per-shard deadline of the design: a shard that cannot answer
    /// within `retry.deadline` (across primary + replica attempts) makes
    /// the partition `PartitionUnavailable`.
    pub retry: RetryPolicy,
    /// Seeded transport faults on every coordinator connection, so
    /// failure schedules replay exactly.
    pub chaos: Option<ChaosPlan>,
    /// Server-side decode threads requested per shard scan.
    pub shard_threads: u8,
    /// Exchange a `Hello` on each fresh node connection and refuse
    /// mismatched protocol generations before streaming.
    pub handshake: bool,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self {
            retry: RetryPolicy { deadline: Duration::from_secs(10), ..RetryPolicy::default() },
            chaos: None,
            shard_threads: 0,
            handshake: true,
        }
    }
}

/// What a node reported in its handshake.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeInfo {
    /// The node's address.
    pub addr: String,
    /// Protocol generation it speaks.
    pub version: u8,
    /// Capability bits.
    pub caps: u32,
}

/// The cluster coordinator. Holds the topology, the per-table partition
/// manifests, and the retry/chaos configuration; every scan builds its
/// own shard connections, so a `Coordinator` is cheap to share across
/// threads.
pub struct Coordinator {
    topology: Topology,
    cfg: ClusterConfig,
    manifests: HashMap<String, PartitionManifest>,
    salt: AtomicU64,
    handshaken: AtomicBool,
}

impl Coordinator {
    /// A coordinator over `topology`.
    pub fn new(topology: Topology, cfg: ClusterConfig) -> Self {
        Self {
            topology,
            cfg,
            manifests: HashMap::new(),
            salt: AtomicU64::new(1),
            handshaken: AtomicBool::new(false),
        }
    }

    /// The topology this coordinator routes over.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Registers a table's partition manifest (which row ranges exist
    /// and which nodes host them). Scans of unregistered tables fail
    /// with [`ClusterError::UnknownTable`].
    pub fn register(&mut self, manifest: PartitionManifest) {
        self.manifests.insert(manifest.table.clone(), manifest);
    }

    /// The manifest registered for `table`.
    pub fn manifest(&self, table: &str) -> Option<&PartitionManifest> {
        self.manifests.get(table)
    }

    /// Handshakes every node: returns the version/capability report of
    /// each node that answered, or the first
    /// [`ClusterError::ProtocolMismatch`]. A node that cannot be
    /// reached at all is *skipped*, not a mismatch — dead nodes are the
    /// retry/failover layer's problem (its partitions are covered by
    /// replicas); the handshake only judges nodes that answer.
    pub fn handshake(&self) -> Result<Vec<NodeInfo>, ClusterError> {
        let mut infos = Vec::new();
        for addr in &self.topology.nodes {
            let mismatch = |theirs: Option<u8>, detail: String| ClusterError::ProtocolMismatch {
                node: addr.clone(),
                ours: PROTOCOL_VERSION,
                theirs,
                detail,
            };
            let Ok(mut client) = Client::connect(addr) else { continue };
            match client.hello() {
                Ok((version, caps)) if version == PROTOCOL_VERSION => {
                    infos.push(NodeInfo { addr: addr.clone(), version, caps });
                }
                Ok((version, _)) => return Err(mismatch(Some(version), "version skew".into())),
                // A pre-handshake server refuses the unknown request
                // kind: same typed outcome, decided before any stream
                // started.
                Err(ClientError::Server { code, message, .. }) => {
                    return Err(mismatch(None, format!("{code:?}: {message}")))
                }
                Err(e) => return Err(mismatch(None, e.to_string())),
            }
        }
        Ok(infos)
    }

    /// Runs the handshake once per coordinator (cached on success).
    fn ensure_handshake(&self) -> Result<(), ClusterError> {
        if !self.cfg.handshake || self.handshaken.load(Ordering::Acquire) {
            return Ok(());
        }
        self.handshake()?;
        self.handshaken.store(true, Ordering::Release);
        Ok(())
    }

    fn next_salt(&self) -> u64 {
        self.salt.fetch_add(0x9E37_79B9, Ordering::Relaxed)
    }

    /// The failover address list for partition `p`: primary first, then
    /// the replica when the topology has one.
    fn addrs_for(&self, m: &PartitionManifest, p: usize) -> Vec<String> {
        let mut addrs = vec![self.topology.nodes[m.primary[p]].clone()];
        if m.replica[p] != m.primary[p] {
            addrs.push(self.topology.nodes[m.replica[p]].clone());
        }
        addrs
    }

    /// Scatter-gather scan: issues one `Scan` per partition (over the
    /// partition's primary, failing over to its replica) and merges the
    /// streams in partition order. The result — batch content, row
    /// order, and error position — is byte-identical to a single-node
    /// scan of the unsharded table.
    pub fn scan(
        &self,
        table: &str,
        columns: &[&str],
        predicate: Option<&Predicate>,
    ) -> Result<(Batch, u64), ClusterError> {
        let m = self
            .manifests
            .get(table)
            .ok_or_else(|| ClusterError::UnknownTable(table.to_string()))?;
        self.ensure_handshake()?;
        let parts = m.partitions();
        let failures: Arc<Mutex<BTreeMap<usize, ClusterError>>> =
            Arc::new(Mutex::new(BTreeMap::new()));
        let total_rows = Arc::new(AtomicU64::new(0));
        let (tx, rx) = sync_channel::<Partition>(parts.max(1));
        let mut workers = Vec::with_capacity(parts);
        for p in 0..parts {
            let tx = tx.clone();
            let failures = Arc::clone(&failures);
            let total_rows = Arc::clone(&total_rows);
            let part_table = m.partition_name(p);
            let columns: Vec<String> = columns.iter().map(|c| c.to_string()).collect();
            let predicate = predicate.cloned();
            let addrs = self.addrs_for(m, p);
            let table = table.to_string();
            let empty = m.rows_in(p) == 0;
            let threads = self.cfg.shard_threads;
            let policy = self.cfg.retry;
            let chaos = self.cfg.chaos;
            let salt = self.next_salt();
            workers.push(std::thread::spawn(move || {
                if empty {
                    let _ = tx.send(Partition::new(p as u64, Ok(Vec::new())));
                    return;
                }
                let deadline = policy.deadline;
                let mut client = RetryingClient::failover(addrs.clone(), policy, chaos, salt);
                let result = client.with_retry(|c| {
                    shard_scan(c, &part_table, &columns, predicate.as_ref(), threads, deadline)
                });
                match result {
                    Ok((batches, rows)) => {
                        total_rows.fetch_add(rows, Ordering::Relaxed);
                        let _ = tx.send(Partition::new(p as u64, Ok(batches)));
                    }
                    Err(e) => {
                        let typed = typed_failure(&table, p, &addrs, e);
                        failures.lock().expect("failure map").insert(p, typed);
                        // The in-band sentinel keeps Exchange's serial
                        // error position; the coordinator swaps in the
                        // typed ClusterError before the caller sees it.
                        let _ = tx.send(Partition::new(
                            p as u64,
                            Err(scc_core::Error::Frame(scc_core::frame::FrameError::Io(
                                std::io::ErrorKind::NotConnected,
                            ))),
                        ));
                    }
                }
            }));
        }
        drop(tx);
        let mut exchange = Exchange::new(parts as u64, rx, workers);
        match try_collect(&mut exchange) {
            Ok(batch) => Ok((batch, total_rows.load(Ordering::Relaxed))),
            Err(e) => {
                // The serially-first failed partition (BTreeMap order),
                // which is also the one Exchange surfaced the in-band
                // error for.
                let map = failures.lock().expect("failure map");
                match map.values().next() {
                    Some(typed) => Err(typed.clone()),
                    // A merge-side decode failure with no recorded shard
                    // failure: a shard answered with an undecodable
                    // batch stream.
                    None => Err(ClusterError::ShardRefused {
                        table: table.to_string(),
                        partition: 0,
                        detail: format!("merge failed: {e}"),
                    }),
                }
            }
        }
    }

    /// Point access: rows `[row_start, row_start + row_len)` of one
    /// column, routed to the partition(s) hosting them and stitched
    /// back in row order. With `raw`, shards ship compressed segments
    /// and this process decodes — the paper's RAM–CPU boundary, now
    /// crossing the network per shard.
    pub fn segment_range(
        &self,
        table: &str,
        column: &str,
        row_start: u64,
        row_len: u32,
        raw: bool,
    ) -> Result<Vector, ClusterError> {
        let m = self
            .manifests
            .get(table)
            .ok_or_else(|| ClusterError::UnknownTable(table.to_string()))?;
        self.ensure_handshake()?;
        let start = row_start as usize;
        let len = row_len as usize;
        let mut out: Option<Vector> = None;
        let mut row = start;
        let end = start + len;
        while row < end {
            let p = m.partition_of_row(row).ok_or_else(|| ClusterError::ShardRefused {
                table: table.to_string(),
                partition: m.partitions(),
                detail: format!("row {row} beyond table ({} rows)", m.n_rows),
            })?;
            let (pstart, pend) = m.bounds[p];
            let local_start = row - pstart;
            let take = (end.min(pend)) - row;
            let addrs = self.addrs_for(m, p);
            let mut client = RetryingClient::failover(
                addrs.clone(),
                self.cfg.retry,
                self.cfg.chaos,
                self.next_salt(),
            );
            let part_table = m.partition_name(p);
            let piece = client
                .with_retry(|c| {
                    c.segment_range(&part_table, column, local_start as u64, take as u32, raw)
                })
                .map_err(|e| typed_failure(table, p, &addrs, e))?;
            match &mut out {
                None => out = Some(piece),
                Some(v) => v.append(&piece),
            }
            row += take;
        }
        Ok(out.unwrap_or(Vector::I64(Vec::new())))
    }
}

/// One shard scan attempt over an established connection: streams the
/// partition's batches to completion. Runs inside the retry loop, so a
/// stream that dies mid-way is re-run from the start on a fresh
/// connection (whole-partition granularity keeps zero-lost/zero-dup
/// trivially true: a partition is merged only when complete).
fn shard_scan(
    c: &mut Client,
    part_table: &str,
    columns: &[String],
    predicate: Option<&Predicate>,
    threads: u8,
    deadline: Duration,
) -> Result<(Vec<Batch>, u64), ClientError> {
    // The per-shard deadline also bounds a *stalled* (not refusing)
    // shard: a read past it times out, which is retryable and rotates
    // to the replica.
    c.set_read_timeout(Some(deadline))
        .map_err(|e| ClientError::Frame(scc_core::frame::FrameError::Io(e.kind())))?;
    c.send(&Request::Scan {
        table: part_table.to_string(),
        columns: columns.to_vec(),
        predicate: predicate.cloned(),
        threads,
    })?;
    let mut batches = Vec::new();
    loop {
        match c.recv()? {
            Response::Batch(b) => batches.push(b),
            Response::ScanDone { rows, .. } => return Ok((batches, rows)),
            Response::Error { code, message, retry_after_ms } => {
                return Err(ClientError::Server { code, message, retry_after_ms })
            }
            _ => return Err(ClientError::Unexpected("wanted Batch/ScanDone")),
        }
    }
}

/// Maps a spent retry budget (or a hard refusal) to the cluster-typed
/// error for partition `p`.
fn typed_failure(table: &str, p: usize, addrs: &[String], e: ClientError) -> ClusterError {
    match e {
        ClientError::Server { code, message, .. } => ClusterError::ShardRefused {
            table: table.to_string(),
            partition: p,
            detail: format!("{code:?}: {message}"),
        },
        ClientError::Decode(err) => ClusterError::ShardRefused {
            table: table.to_string(),
            partition: p,
            detail: format!("undecodable response: {err}"),
        },
        ClientError::Unexpected(what) => ClusterError::ShardRefused {
            table: table.to_string(),
            partition: p,
            detail: format!("unexpected response: {what}"),
        },
        ClientError::RetryExhausted { attempts } => ClusterError::PartitionUnavailable {
            table: table.to_string(),
            partition: p,
            primary: addrs[0].clone(),
            replica: addrs.get(1).cloned(),
            last_error: attempts
                .last()
                .map(|a| a.error.clone())
                .unwrap_or_else(|| "no attempts".into()),
        },
        other => ClusterError::PartitionUnavailable {
            table: table.to_string(),
            partition: p,
            primary: addrs[0].clone(),
            replica: addrs.get(1).cloned(),
            last_error: other.to_string(),
        },
    }
}
