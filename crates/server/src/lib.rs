//! A zero-dependency columnar segment/scan server (DESIGN.md §9).
//!
//! scc-server puts the repository's storage and engine layers behind a
//! small TCP protocol, built entirely on `std::net` + `std::thread` —
//! no async runtime, no serialization crates. Three request types map
//! onto the paper's two access patterns plus operability:
//!
//! * **SegmentRange** — slice-granular random access to a row range of
//!   one column (§3.1 fine-grained access / §4.3 entry points). The
//!   client may ask for decoded values, or for the *raw compressed
//!   segments* covering the range, which it decompresses locally —
//!   the paper's RAM–CPU boundary stretched across the network, so
//!   the cheap-to-decompress representation is also the one that
//!   travels.
//! * **Scan** — a full-column scan, optionally filtered (in code
//!   space, where the segments allow) and run on multiple server
//!   threads ([`scc_storage::Scan::into_plan`]), streamed back one
//!   engine vector per frame. An *unfiltered* [`Client::scan`] sends
//!   **ScanSegments** instead: the server streams each column's stored
//!   segment bytes and the client decodes them into one exactly-sized
//!   vector per column.
//! * **Stats** — the `scc-obs` registry as schema-v1 JSON.
//!
//! Every frame in both directions is CRC32C-checksummed
//! ([`scc_core::frame`]); a corrupt frame is answered with a typed
//! error frame and never panics the server. See `docs/SERVER.md` for
//! the byte-level layout.
//!
//! The serving path is built to degrade, not break: the acceptor
//! sheds load with typed `Busy` refusals carrying retry-after hints,
//! `Shutdown` drains in-flight work before closing (with a `force`
//! escape hatch), a `Health` request reports readiness/draining, and
//! the client side wraps every request in a deadline-aware
//! [`RetryPolicy`]. The [`chaos`] module injects deterministic
//! network faults (resets, torn frames, short writes, throttles,
//! stalls) to prove all of it under fire — see docs/SERVER.md
//! "Fault tolerance".
//!
//! ```no_run
//! use scc_server::{demo_table, Catalog, Client, Server, ServerConfig};
//!
//! let table = demo_table(10_000);
//! let mut catalog = Catalog::new();
//! catalog.add(table);
//! let server = Server::start(ServerConfig::default(), catalog).unwrap();
//! let addr = server.local_addr().to_string();
//!
//! let mut client = Client::connect(&addr).unwrap();
//! let slice = client.segment_range("demo", "val", 1000, 64, true).unwrap();
//! assert_eq!(slice.len(), 64);
//! ```

#![warn(missing_docs)]

pub mod chaos;
pub mod client;
pub mod protocol;
pub mod server;
pub mod top;

pub use chaos::{ChaosPlan, ChaosStream, Transport};
pub use client::{
    run_loadgen, Attempt, Client, ClientError, LoadgenConfig, LoadgenReport, RetryPolicy,
    RetryingClient,
};
pub use protocol::{
    ErrorCode, HealthState, HealthWindow, PredOp, Predicate, RawSegment, Request, Response,
    CAP_PARTITIONS, CAP_PREDICATE_PUSHDOWN, CAP_RAW_SEGMENTS, CAP_SCAN_SEGMENTS, CAP_TRACE_CTX,
    PROTOCOL_VERSION, SERVER_CAPS,
};
pub use server::{Server, ServerConfig};
pub use top::{run_top, TopConfig, TopSample};

use scc_storage::{Table, TableBuilder};
use std::collections::HashMap;
use std::sync::Arc;

/// The tables a server exposes, by name.
#[derive(Default, Clone)]
pub struct Catalog {
    tables: HashMap<String, Arc<Table>>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a table under its own name.
    pub fn add(&mut self, table: Arc<Table>) {
        self.tables.insert(table.name.clone(), table);
    }

    /// Looks a table up by name.
    pub fn get(&self, name: &str) -> Option<&Arc<Table>> {
        self.tables.get(name)
    }

    /// Number of registered tables.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// True when no tables are registered.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }
}

/// The deterministic demo table (`"demo"`) both `scc serve` and
/// `scc loadgen` build: a sequential `i64` key, a pseudo-random
/// `i32` value in `0..1000` (PFOR-friendly), and a four-value string
/// column. Server and load generator must agree on `rows` for the
/// byte-exactness checks to hold.
pub fn demo_table(rows: usize) -> Arc<Table> {
    assert!(rows >= 1, "demo table needs at least one row");
    let (keys, vals, flags) = demo_columns(rows);
    TableBuilder::new("demo")
        .seg_rows(DEMO_SEG_ROWS)
        .add_i64("key", keys)
        .add_i32("val", vals)
        .add_str("flag", flags)
        .build()
}

/// Rows per segment in the demo table.
pub const DEMO_SEG_ROWS: usize = 8192;

/// The raw column values of [`demo_table`], exposed so a cluster shard
/// can build just the slice of rows it hosts (same values, partition
/// bounds applied by the caller) and stay byte-comparable with the
/// unsharded table.
pub fn demo_columns(rows: usize) -> (Vec<i64>, Vec<i32>, Vec<String>) {
    let mix = |i: usize| {
        let mut x = (i as u64).wrapping_add(0x9E3779B97F4A7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
        x ^ (x >> 31)
    };
    const SHIP_MODES: [&str; 4] = ["AIR", "RAIL", "SHIP", "TRUCK"];
    (
        (0..rows as i64).collect(),
        (0..rows).map(|i| (mix(i) % 1000) as i32).collect(),
        (0..rows).map(|i| SHIP_MODES[i % 4].to_string()).collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demo_table_is_deterministic_and_compressible() {
        let a = demo_table(20_000);
        let b = demo_table(20_000);
        assert_eq!(a.n_rows(), 20_000);
        assert_eq!(a.n_segments(), 3);
        // Same bytes on every build — the property loadgen's
        // byte-exact verification rests on.
        for col in ["key", "val", "flag"] {
            let ci = a.find_col(col).unwrap();
            assert_eq!(
                a.try_read_rows(ci, 0, 20_000).unwrap(),
                b.try_read_rows(ci, 0, 20_000).unwrap(),
                "{col}"
            );
        }
        // And it actually exercises the compressed path.
        assert!(a.ratio() > 1.5, "ratio {}", a.ratio());
    }

    #[test]
    fn catalog_lookup() {
        let mut c = Catalog::new();
        assert!(c.is_empty());
        c.add(demo_table(128));
        assert_eq!(c.len(), 1);
        assert!(c.get("demo").is_some());
        assert!(c.get("nope").is_none());
    }
}
