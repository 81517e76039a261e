//! Cluster topology: which nodes exist and how tables split across
//! them.
//!
//! The on-disk format is line-based (see docs/CLUSTER.md):
//!
//! ```text
//! # three shards on localhost
//! node 127.0.0.1:7701
//! node 127.0.0.1:7702
//! node 127.0.0.1:7703
//! partitions 6      # optional; default 2 × nodes
//! replication 1     # optional; 0 disables replicas, default 1
//! ```
//!
//! Placement is deterministic from the file alone: partition `p`'s
//! primary is node `p % nodes`, its replica the next node round-robin —
//! every node can derive which partitions it hosts without a metadata
//! service, and the coordinator derives the same map.

use crate::ClusterError;
use scc_storage::PartitionManifest;

/// A parsed cluster topology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    /// Shard addresses, in file order. Node index = position.
    pub nodes: Vec<String>,
    /// Partitions per table.
    pub partitions: usize,
    /// Replicas per partition (0 or 1).
    pub replication: usize,
}

impl Topology {
    /// A topology over `nodes` with the default partition count
    /// (2 × nodes) and one replica.
    pub fn new(nodes: Vec<String>) -> Self {
        let partitions = scc_storage::manifest::default_partitions(nodes.len());
        Self { nodes, partitions, replication: 1 }
    }

    /// Parses the topology file format.
    pub fn parse(text: &str) -> Result<Topology, ClusterError> {
        let mut nodes = Vec::new();
        let mut partitions: Option<usize> = None;
        let mut replication: usize = 1;
        for (i, raw) in text.lines().enumerate() {
            let line = i + 1;
            // Strip trailing comments, then whitespace.
            let stmt = raw.split('#').next().unwrap_or("").trim();
            if stmt.is_empty() {
                continue;
            }
            let (key, value) = match stmt.split_once(char::is_whitespace) {
                Some((k, v)) => (k, v.trim()),
                None => {
                    return Err(ClusterError::Topology {
                        line,
                        reason: format!("expected `<key> <value>`, got {stmt:?}"),
                    })
                }
            };
            match key {
                "node" => {
                    if value.rsplit_once(':').and_then(|(_, p)| p.parse::<u16>().ok()).is_none() {
                        return Err(ClusterError::Topology {
                            line,
                            reason: format!("node address {value:?} is not host:port"),
                        });
                    }
                    // A repeated address would let a partition's replica
                    // be its primary's own host: no failover at all.
                    if nodes.iter().any(|n| n == value) {
                        return Err(ClusterError::Topology {
                            line,
                            reason: format!("node address {value:?} is listed twice"),
                        });
                    }
                    nodes.push(value.to_string());
                }
                "partitions" => {
                    let n: usize = value.parse().map_err(|_| ClusterError::Topology {
                        line,
                        reason: format!("partitions wants a positive integer, got {value:?}"),
                    })?;
                    if n == 0 {
                        return Err(ClusterError::Topology {
                            line,
                            reason: "partitions must be at least 1".into(),
                        });
                    }
                    partitions = Some(n);
                }
                "replication" => {
                    replication = value.parse().map_err(|_| ClusterError::Topology {
                        line,
                        reason: format!("replication wants 0 or 1, got {value:?}"),
                    })?;
                    if replication > 1 {
                        return Err(ClusterError::Topology {
                            line,
                            reason: format!("replication {replication} unsupported (0 or 1)"),
                        });
                    }
                }
                other => {
                    return Err(ClusterError::Topology {
                        line,
                        reason: format!("unknown directive {other:?}"),
                    })
                }
            }
        }
        if nodes.is_empty() {
            return Err(ClusterError::Topology {
                line: 0,
                reason: "topology declares no nodes".into(),
            });
        }
        let partitions =
            partitions.unwrap_or_else(|| scc_storage::manifest::default_partitions(nodes.len()));
        Ok(Topology { nodes, partitions, replication })
    }

    /// Reads and parses a topology file.
    pub fn load(path: &str) -> Result<Topology, ClusterError> {
        let text = std::fs::read_to_string(path).map_err(|e| ClusterError::Topology {
            line: 0,
            reason: format!("cannot read {path}: {e}"),
        })?;
        Self::parse(&text)
    }

    /// Primary node index of partition `p`.
    pub fn primary(&self, p: usize) -> usize {
        p % self.nodes.len()
    }

    /// Replica node index of partition `p`, when the topology has one.
    pub fn replica(&self, p: usize) -> Option<usize> {
        (self.replication > 0 && self.nodes.len() > 1).then(|| (p + 1) % self.nodes.len())
    }

    /// The manifest this topology induces for a table of `n_rows` rows
    /// at `seg_rows` rows per segment.
    pub fn manifest_for(&self, table: &str, n_rows: usize, seg_rows: usize) -> PartitionManifest {
        let mut m =
            PartitionManifest::range(table, n_rows, seg_rows, self.partitions, self.nodes.len());
        if self.replication == 0 {
            m.replica = m.primary.clone();
        }
        m
    }

    /// True when `node` hosts partition `p` (as primary or replica).
    pub fn hosts(&self, node: usize, p: usize) -> bool {
        self.primary(p) == node || self.replica(p) == Some(node)
    }

    /// Serializes back to the file format (used by tests and the CLI
    /// to generate example topologies).
    pub fn to_file_string(&self) -> String {
        let mut out = String::new();
        for n in &self.nodes {
            out.push_str(&format!("node {n}\n"));
        }
        out.push_str(&format!("partitions {}\n", self.partitions));
        out.push_str(&format!("replication {}\n", self.replication));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_documented_format() {
        let t = Topology::parse(
            "# cluster\nnode 127.0.0.1:7701\nnode 127.0.0.1:7702 # shard 2\n\npartitions 6\nreplication 1\n",
        )
        .unwrap();
        assert_eq!(t.nodes, vec!["127.0.0.1:7701", "127.0.0.1:7702"]);
        assert_eq!(t.partitions, 6);
        assert_eq!(t.replication, 1);
        // Round-trips through the writer.
        assert_eq!(Topology::parse(&t.to_file_string()).unwrap(), t);
    }

    #[test]
    fn defaults_partitions_to_twice_the_nodes() {
        let t = Topology::parse("node a:1\nnode b:2\nnode c:3\n").unwrap();
        assert_eq!(t.partitions, 6);
        assert_eq!(t.replication, 1);
    }

    #[test]
    fn parse_errors_carry_the_line() {
        for (text, want_line) in [
            ("node 127.0.0.1:7701\ngarbage\n", 2),
            ("node noport\n", 1),
            ("node a:1\npartitions 0\n", 2),
            ("node a:1\nreplication 3\n", 2),
            ("node a:1\nnode b:2\nnode a:1\n", 3),
            ("# empty\n", 0),
        ] {
            match Topology::parse(text) {
                Err(ClusterError::Topology { line, .. }) => assert_eq!(line, want_line, "{text:?}"),
                other => panic!("expected topology error for {text:?}, got {other:?}"),
            }
        }
    }

    #[test]
    fn placement_spreads_primaries_and_replicas() {
        let t = Topology::parse("node a:1\nnode b:2\nnode c:3\npartitions 6\n").unwrap();
        for p in 0..6 {
            assert_ne!(t.primary(p), t.replica(p).unwrap(), "partition {p}");
            // Every partition is hosted by exactly two nodes.
            let hosts = (0..3).filter(|&n| t.hosts(n, p)).count();
            assert_eq!(hosts, 2);
        }
        // Killing any single node leaves every partition hosted.
        for dead in 0..3 {
            for p in 0..6 {
                assert!(
                    (0..3).any(|n| n != dead && t.hosts(n, p)),
                    "partition {p} lost when node {dead} dies"
                );
            }
        }
    }
}
