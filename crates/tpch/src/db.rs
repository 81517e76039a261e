//! The stored TPC-H database: raw columns loaded into `scc-storage`
//! tables, plus the query-execution plumbing shared by all eleven
//! queries.

use crate::gen::RawTables;
use scc_engine::{Batch, ExplainNode, Expr, Operator};
use scc_storage::disk::{stats_handle, ScanSnapshot, StatsHandle};
use scc_storage::{
    DecompressionGranularity, Disk, Layout, PoolHandle, Scan, ScanMode, ScanOptions, Table,
    TableBuilder,
};
use std::sync::Arc;
use std::time::Instant;

/// The eight stored tables plus the raw data they were loaded from (kept
/// for reference-result validation in tests).
pub struct TpchDb {
    /// Scale factor.
    pub sf: f64,
    /// Raw generated columns.
    pub raw: RawTables,
    /// LINEITEM.
    pub lineitem: Arc<Table>,
    /// ORDERS.
    pub orders: Arc<Table>,
    /// CUSTOMER.
    pub customer: Arc<Table>,
    /// SUPPLIER.
    pub supplier: Arc<Table>,
    /// PART.
    pub part: Arc<Table>,
    /// PARTSUPP.
    pub partsupp: Arc<Table>,
    /// NATION.
    pub nation: Arc<Table>,
    /// REGION.
    pub region: Arc<Table>,
}

impl TpchDb {
    /// Loads generated data into compressed column stores. `seg_rows`
    /// defaults to [`scc_storage::SEGMENT_ROWS`] when `None`.
    pub fn load(raw: RawTables, seg_rows: Option<usize>) -> Self {
        let sr = seg_rows.unwrap_or(scc_storage::SEGMENT_ROWS);
        let l = &raw.lineitem;
        let lineitem = TableBuilder::new("lineitem")
            .seg_rows(sr)
            .add_i64("l_orderkey", l.orderkey.clone())
            .add_i64("l_partkey", l.partkey.clone())
            .add_i64("l_suppkey", l.suppkey.clone())
            .add_i32("l_linenumber", l.linenumber.clone())
            .add_i64("l_quantity", l.quantity.clone())
            .add_i64("l_extendedprice", l.extendedprice.clone())
            .add_i64("l_discount", l.discount.clone())
            .add_i64("l_tax", l.tax.clone())
            .add_str("l_returnflag", l.returnflag.clone())
            .add_str("l_linestatus", l.linestatus.clone())
            .add_i32("l_shipdate", l.shipdate.clone())
            .add_i32("l_commitdate", l.commitdate.clone())
            .add_i32("l_receiptdate", l.receiptdate.clone())
            .add_str("l_shipinstruct", l.shipinstruct.clone())
            .add_str("l_shipmode", l.shipmode.clone())
            .add_blob("l_comment", l.comment_bytes)
            .build();
        let o = &raw.orders;
        let orders = TableBuilder::new("orders")
            .seg_rows(sr)
            .add_i64("o_orderkey", o.orderkey.clone())
            .add_i64("o_custkey", o.custkey.clone())
            .add_str("o_orderstatus", o.orderstatus.clone())
            .add_i64("o_totalprice", o.totalprice.clone())
            .add_i32("o_orderdate", o.orderdate.clone())
            .add_str("o_orderpriority", o.orderpriority.clone())
            .add_i32("o_shippriority", o.shippriority.clone())
            .add_blob("o_comment", o.comment_bytes)
            .build();
        let c = &raw.customer;
        let customer = TableBuilder::new("customer")
            .seg_rows(sr)
            .add_i64("c_custkey", c.custkey.clone())
            .add_i64("c_nationkey", c.nationkey.clone())
            .add_i64("c_acctbal", c.acctbal.clone())
            .add_str("c_mktsegment", c.mktsegment.clone())
            .add_blob("c_comment", c.comment_bytes)
            .build();
        let s = &raw.supplier;
        let supplier = TableBuilder::new("supplier")
            .seg_rows(sr)
            .add_i64("s_suppkey", s.suppkey.clone())
            .add_i64("s_nationkey", s.nationkey.clone())
            .add_i64("s_acctbal", s.acctbal.clone())
            .add_blob("s_comment", s.comment_bytes)
            .build();
        let p = &raw.part;
        let part = TableBuilder::new("part")
            .seg_rows(sr)
            .add_i64("p_partkey", p.partkey.clone())
            .add_str("p_mfgr", p.mfgr.clone())
            .add_str("p_brand", p.brand.clone())
            .add_str("p_type", p.ptype.clone())
            .add_i32("p_size", p.size.clone())
            .add_str("p_container", p.container.clone())
            .add_i64("p_retailprice", p.retailprice.clone())
            .add_blob("p_comment", p.comment_bytes)
            .build();
        let ps = &raw.partsupp;
        let partsupp = TableBuilder::new("partsupp")
            .seg_rows(sr)
            .add_i64("ps_partkey", ps.partkey.clone())
            .add_i64("ps_suppkey", ps.suppkey.clone())
            .add_i32("ps_availqty", ps.availqty.clone())
            .add_i64("ps_supplycost", ps.supplycost.clone())
            .add_blob("ps_comment", ps.comment_bytes)
            .build();
        let n = &raw.nation;
        let nation = TableBuilder::new("nation")
            .seg_rows(sr)
            .add_i64("n_nationkey", n.nationkey.clone())
            .add_str("n_name", n.name.clone())
            .add_i64("n_regionkey", n.regionkey.clone())
            .build();
        let r = &raw.region;
        let region = TableBuilder::new("region")
            .seg_rows(sr)
            .add_i64("r_regionkey", r.regionkey.clone())
            .add_str("r_name", r.name.clone())
            .build();
        Self {
            sf: raw.sf,
            raw,
            lineitem,
            orders,
            customer,
            supplier,
            part,
            partsupp,
            nation,
            region,
        }
    }

    /// Generates and loads in one step.
    pub fn generate(sf: f64, seed: u64) -> Self {
        Self::load(crate::gen::generate(sf, seed), None)
    }
}

/// How a query run scans its tables.
#[derive(Clone)]
pub struct QueryConfig {
    /// Compressed or plain representation.
    pub mode: ScanMode,
    /// DSM or PAX I/O accounting.
    pub layout: Layout,
    /// Vector-wise or page-wise decompression.
    pub granularity: DecompressionGranularity,
    /// The modeled disk.
    pub disk: Disk,
    /// Tuples per vector.
    pub vector_size: usize,
    /// Optional shared buffer pool.
    pub pool: Option<PoolHandle>,
    /// Scan worker threads. `1` scans on the calling thread; higher
    /// counts run every table scan — and the predicate pushed onto it —
    /// per segment on that many workers (see [`Scan::into_plan`]; the
    /// rest of the pipeline stays on the calling thread).
    pub threads: usize,
    /// Compressed-domain predicate pushdown: permits the predicate fused
    /// into a scan to test packed codes and decode only survivors, which
    /// it does for the vectors where its cost rule says that is cheaper
    /// (see [`ScanOptions::code_scan`]); scans without one decode
    /// eagerly either way. Off reproduces the decode-then-test baseline.
    pub code_scan: bool,
}

impl Default for QueryConfig {
    fn default() -> Self {
        Self {
            mode: ScanMode::Compressed,
            layout: Layout::Dsm,
            granularity: DecompressionGranularity::VectorWise,
            disk: Disk::middle_end(),
            vector_size: scc_engine::VECTOR_SIZE,
            pool: None,
            threads: 1,
            code_scan: true,
        }
    }
}

impl QueryConfig {
    /// Builds a scan over `cols` of `table` under this config, reporting
    /// into `stats`.
    pub fn scan(
        &self,
        table: &Arc<Table>,
        cols: &[&str],
        stats: &StatsHandle,
    ) -> Box<dyn Operator> {
        self.scan_where(table, cols, None, stats)
    }

    /// [`Self::scan`] with `predicate` (over the scan's output columns)
    /// pushed down onto it: the plan every query's scan-then-filter
    /// step builds, serial or threaded.
    pub fn scan_where(
        &self,
        table: &Arc<Table>,
        cols: &[&str],
        predicate: Option<Expr>,
        stats: &StatsHandle,
    ) -> Box<dyn Operator> {
        let opts = ScanOptions {
            mode: self.mode,
            granularity: self.granularity,
            vector_size: self.vector_size,
            disk: self.disk,
            layout: self.layout,
            code_scan: self.code_scan,
        };
        Scan::new(Arc::clone(table), cols, opts, Arc::clone(stats), self.pool.clone())
            .into_plan(predicate, self.threads)
    }
}

/// Result of one query execution.
pub struct QueryRun {
    /// The result rows.
    pub batch: Batch,
    /// Accumulated scan counters (I/O, decompression).
    pub stats: ScanSnapshot,
    /// Measured wall-clock CPU seconds (simulated I/O does not sleep, so
    /// this is pure compute: decompression + processing).
    pub cpu_seconds: f64,
    /// Post-execution operator tree with per-operator profiles (rows,
    /// vectors, calls, wall time) — the `scc explain` payload.
    pub explain: ExplainNode,
}

impl QueryRun {
    /// Total modeled elapsed time: CPU plus I/O stalls (prefetched I/O
    /// overlaps compute; see `scc_storage::disk`).
    pub fn total_seconds(&self) -> f64 {
        self.cpu_seconds + self.stats.stall_seconds(self.cpu_seconds)
    }

    /// Processing seconds excluding decompression.
    pub fn processing_seconds(&self) -> f64 {
        (self.cpu_seconds - self.stats.decompress_seconds()).max(0.0)
    }
}

/// Runs a query closure, timing it and collecting its stats. The closure
/// returns the result batch plus the executed plan's explain tree.
pub fn run_query(f: impl FnOnce(&StatsHandle) -> (Batch, ExplainNode)) -> QueryRun {
    let stats = stats_handle();
    let t0 = Instant::now();
    let (batch, explain) = f(&stats);
    let cpu_seconds = t0.elapsed().as_secs_f64();
    let stats = stats.snapshot();
    QueryRun { batch, stats, cpu_seconds, explain }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_compresses_lineitem_well() {
        let db = TpchDb::generate(0.002, 1);
        // The paper reports 3-4x on TPC-H columns (DSM, excluding
        // comments). Check the scannable lineitem columns.
        let cols = [
            "l_orderkey",
            "l_suppkey",
            "l_linenumber",
            "l_quantity",
            "l_discount",
            "l_tax",
            "l_shipdate",
            "l_commitdate",
            "l_receiptdate",
        ];
        let ratio = db.lineitem.ratio_over(&cols);
        assert!(ratio > 2.5, "lineitem ratio {ratio}");
    }

    #[test]
    fn scan_roundtrips_through_storage() {
        let db = TpchDb::generate(0.001, 2);
        let cfg = QueryConfig::default();
        let run = run_query(|stats| {
            let mut scan = cfg.scan(&db.lineitem, &["l_orderkey", "l_quantity"], stats);
            let batch = scc_engine::ops::collect(scan.as_mut());
            (batch, scan.explain())
        });
        assert!(run.explain.label.starts_with("Scan(lineitem"), "label {}", run.explain.label);
        assert_eq!(run.explain.profile.rows, run.batch.len() as u64);
        assert_eq!(run.batch.len(), db.raw.lineitem.orderkey.len());
        assert_eq!(run.batch.col(0).as_i64(), &db.raw.lineitem.orderkey[..]);
        assert_eq!(run.batch.col(1).as_i64(), &db.raw.lineitem.quantity[..]);
        assert!(run.stats.io_bytes > 0);
        assert!(run.total_seconds() >= run.cpu_seconds);
    }
}
