//! Scatter-gather cluster coordinator over `scc-server` shards.
//!
//! The paper makes one core scan at RAM bandwidth; this crate makes the
//! parallelism story *machine*-level (ROADMAP item 5). Tables are
//! range-partitioned into segment-aligned row ranges
//! (`scc_storage::PartitionManifest`), each partition hosted on a
//! primary node and one replica. A [`Coordinator`] fans a logical scan
//! out as one `Scan` request per partition — predicates pushed down in
//! the compressed domain, exactly as single-node clients do — and
//! merges the returned batch streams back into *exact serial order* by
//! feeding them through the engine's `Exchange` reorder operator: one
//! producer thread per partition, the partition index as the sequence
//! number.
//!
//! Failure semantics, in order of escalation:
//!
//! 1. **Handshake**: on connect the coordinator exchanges `Hello`
//!    frames; a shard speaking a different protocol generation (or one
//!    predating the handshake) is refused with
//!    [`ClusterError::ProtocolMismatch`] *before* any stream starts.
//! 2. **Retry + failover**: each partition call runs under the
//!    server crate's `RetryingClient` in failover mode — a refused dial
//!    flips to the replica with no backoff sleep; slower failures
//!    follow the monotone backoff chain, alternating nodes, bounded by
//!    the per-shard deadline.
//! 3. **Typed partial failure**: when neither primary nor replica
//!    answers within the budget, the scan fails with
//!    [`ClusterError::PartitionUnavailable`] naming the partition, both
//!    nodes, and the final error — surfaced at the partition's serial
//!    position (everything before it streamed normally), never as a
//!    torn stream.
//!
//! All of it replays under seeded `ChaosPlan` transport faults, which is
//! how the tests drive shard crashes deterministically.

#![warn(missing_docs)]

pub mod coordinator;
pub mod topology;

pub use coordinator::{ClusterConfig, Coordinator, NodeInfo};
pub use topology::Topology;

/// Typed cluster failures: what a coordinator caller sees when the
/// cluster — not the request — is the problem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterError {
    /// The topology file didn't parse.
    Topology {
        /// 1-based line the error was found on (0 for file-level
        /// problems).
        line: usize,
        /// What was wrong.
        reason: String,
    },
    /// A shard speaks a different protocol generation (or predates the
    /// handshake); refused before any data stream started.
    ProtocolMismatch {
        /// The offending node's address.
        node: String,
        /// The protocol version this coordinator speaks.
        ours: u8,
        /// The version the shard reported, if it answered the
        /// handshake at all.
        theirs: Option<u8>,
        /// Handshake detail (e.g. the shard's refusal message).
        detail: String,
    },
    /// Neither the primary nor the replica of a partition answered
    /// within the retry budget.
    PartitionUnavailable {
        /// Logical table.
        table: String,
        /// Partition index.
        partition: usize,
        /// Primary node address.
        primary: String,
        /// Replica node address (absent in single-node topologies).
        replica: Option<String>,
        /// What the final attempt failed with.
        last_error: String,
    },
    /// A shard understood the request and refused it (bad column,
    /// unknown partition table, …) — retrying elsewhere cannot help.
    ShardRefused {
        /// Logical table.
        table: String,
        /// Partition index.
        partition: usize,
        /// The shard's typed refusal.
        detail: String,
    },
    /// The coordinator has no manifest registered for this table.
    UnknownTable(String),
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::Topology { line, reason } => {
                write!(f, "topology parse error at line {line}: {reason}")
            }
            ClusterError::ProtocolMismatch { node, ours, theirs, detail } => match theirs {
                Some(theirs) => write!(
                    f,
                    "protocol mismatch: node {node} speaks v{theirs}, coordinator speaks v{ours}"
                ),
                None => write!(
                    f,
                    "protocol mismatch: node {node} did not complete the v{ours} handshake ({detail})"
                ),
            },
            ClusterError::PartitionUnavailable { table, partition, primary, replica, last_error } => {
                match replica {
                    Some(r) => write!(
                        f,
                        "partition {partition} of {table} unavailable: primary {primary} and replica {r} both failed ({last_error})"
                    ),
                    None => write!(
                        f,
                        "partition {partition} of {table} unavailable: {primary} failed with no replica configured ({last_error})"
                    ),
                }
            }
            ClusterError::ShardRefused { table, partition, detail } => {
                write!(f, "shard refused partition {partition} of {table}: {detail}")
            }
            ClusterError::UnknownTable(t) => write!(f, "no partition manifest registered for {t}"),
        }
    }
}

impl std::error::Error for ClusterError {}
