//! ColumnBM-style storage manager (§1.1, §3.1 "Disk Storage").
//!
//! Tables are stored column-wise in *segments* of a fixed row count
//! (64 Ki rows by default), each independently compressed by the
//! `scc-core` analyzer. Two disk layouts are modeled:
//!
//! * **DSM** — each column in its own sequence of chunks; a scan reads
//!   only the referenced columns;
//! * **PAX** — each chunk holds one segment per column; a scan reads
//!   whole chunks, so untouched columns still cost I/O.
//!
//! The disk itself is *simulated*: reads are charged against a
//! configurable bandwidth and the scan reports I/O seconds alongside
//! measured decompression and processing time (see DESIGN.md §4,
//! substitution 1). The buffer pool caches **compressed** chunks — the
//! paper's RAM-CPU design — so a cache of the same byte size holds `r`
//! times more data than an uncompressed-caching design.
//!
//! The [`Scan`] operator implements `scc_engine::Operator` and decodes
//! *vector-wise*: 1024 values per column at a time, straight from the
//! compressed segment into a cache-resident vector. The *page-wise* mode
//! (decompress a whole segment into RAM first, then read vectors from it)
//! exists to reproduce the paper's Figure 7 / Table 3 comparison.
//! [`Scan::into_plan`] fuses the caller's predicate into the scan, which
//! tests it over packed codes where it can (`lazy`), and, given more
//! than one thread, runs that filtered scan per segment on
//! workers whose output `scc_engine`'s `Exchange` puts back into exact
//! serial order (§6 outlook; DESIGN.md §8).

#![warn(missing_docs)]

pub mod column;
pub mod delta;
pub mod disk;
mod lazy;
pub mod manifest;
pub mod pool;
pub mod scan;
pub mod table;

pub use column::{Column, ColumnStore, Compression, NumColumn, StoredSegment, StrColumn};
pub use delta::{materialize, Cell, MergingScan, TableDeltas};
pub use disk::{
    stats_handle, Disk, DiskHandle, DiskRead, FaultPlan, FaultyDisk, ReadOutcome, RetryPolicy,
    ScanSnapshot, ScanStats, StatsHandle,
};
pub use manifest::{hash_partition, partition_name, partition_table, PartitionManifest};
pub use pool::{pool_handle, BufferPool, ChunkId, PoolHandle};
pub use scan::{DecompressionGranularity, Scan, ScanMode, ScanOptions};
pub use table::{Layout, Table, TableBuilder};

/// Rows per storage segment (and per PAX chunk). A multiple of both the
/// 128-value compression block and the 1024-tuple vector.
pub const SEGMENT_ROWS: usize = 64 * 1024;
