//! The compressed scan: decompression on the RAM–CPU cache boundary.
//!
//! The scan yields 1024-tuple vectors. On entering a segment it charges
//! the segment's bytes to the (simulated) disk unless the buffer pool
//! already holds it; per vector it decodes each referenced column
//! straight from the compressed segment into the output vector, whole
//! 128-value blocks in place — the working set is one vector (plus one
//! scratch block for a partial tail), i.e. cache-resident
//! (*vector-wise*, the paper's proposal).
//!
//! The *page-wise* mode instead decompresses the whole segment into a RAM
//! page on entry and serves vectors by copying out of it — the I/O-RAM
//! design of Figure 1's left side, reproduced for Figure 7 / Table 3.
//!
//! In [`ScanMode::Uncompressed`] the scan reads the plain representation
//! and charges full-width I/O. String columns yield their dictionary
//! codes in every mode (predicates arrive pre-translated); uncompressed
//! mode charges the raw string bytes that a non-dictionary store would
//! read, keeping the I/O accounting faithful to the paper's baseline.
//!
//! There is one scan type and one decode routine,
//! `lazy::decode_window`, and batches always leave the scan decoded.
//! Without a predicate the scan decodes every column and books the batch
//! once. [`Scan::into_plan`] fuses the caller's predicate into the scan
//! as a `lazy::Filter`, which per vector tests either patched columns'
//! codes or decoded values, and with `threads > 1` runs that filtered
//! scan once per claimed segment on worker threads behind an
//! `Exchange` (§6 outlook). Every handle a scan holds is shared and
//! thread-safe (the ledger is lock-free atomics, pool and fault disk are
//! `Arc<Mutex<_>>` touched once per segment), so workers charge the same
//! [`StatsHandle`] the serial scan would.

use crate::column::{Column, ColumnStore, NumColumn};
use crate::disk::{Disk, DiskHandle, ReadOutcome, RetryPolicy, StatsHandle};
use crate::lazy::{decode_window, on_store, segment_is_compressed, Filter, Window};
use crate::pool::{ChunkId, PoolHandle};
use crate::table::{Layout, Table};
use scc_core::{Error, Value};
use scc_engine::{Batch, Exchange, ExplainNode, Expr, OpProfile, Operator, Partition, Vector};
use std::any::Any;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::sync_channel;
use std::sync::Arc;
use std::time::Instant;

/// Whether the scan reads the compressed or the plain representation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanMode {
    /// Read compressed segments, decompress per vector.
    Compressed,
    /// Read plain arrays (the uncompressed baseline).
    Uncompressed,
}

/// Where decompression output lands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecompressionGranularity {
    /// Per 1024-value vector, into the CPU cache (the paper's design).
    VectorWise,
    /// Per segment, into a RAM page, then copied out (I/O-RAM design).
    PageWise,
}

/// Scan configuration.
#[derive(Debug, Clone, Copy)]
pub struct ScanOptions {
    /// Compressed or plain.
    pub mode: ScanMode,
    /// Vector-wise or page-wise decompression.
    pub granularity: DecompressionGranularity,
    /// Tuples per output vector.
    pub vector_size: usize,
    /// The modeled disk.
    pub disk: Disk,
    /// DSM or PAX I/O accounting.
    pub layout: Layout,
    /// Permits the predicate [`Scan::into_plan`] fuses into the scan to
    /// test patched columns' codes and decode only survivors; the filter
    /// chooses per vector whether that is cheaper. Off decodes every
    /// column and tests values. Scans without a predicate, other modes,
    /// plain/LZRW1 segments and vector sizes that are not a multiple of
    /// the 128-value block decode eagerly either way.
    pub code_scan: bool,
}

impl Default for ScanOptions {
    fn default() -> Self {
        Self {
            mode: ScanMode::Compressed,
            granularity: DecompressionGranularity::VectorWise,
            vector_size: scc_engine::VECTOR_SIZE,
            disk: Disk::middle_end(),
            layout: Layout::Dsm,
            code_scan: true,
        }
    }
}

/// The scan operator.
pub struct Scan {
    table: Arc<Table>,
    cols: Vec<usize>,
    opts: ScanOptions,
    stats: StatsHandle,
    pool: Option<PoolHandle>,
    pos: usize,
    /// Exclusive row bound; `n_rows` for a full-table scan, tighter when
    /// [`Scan::try_with_segment_range`] restricted the scan to a slice.
    end: usize,
    cur_segment: Option<usize>,
    /// Page-wise scans: each column's decompressed segment, a `Vec<V>`.
    pages: Vec<Option<Box<dyn Any + Send + Sync>>>,
    /// The predicate [`Scan::into_plan`] fused into the scan, with its
    /// per-segment state, and the profile of the `Select` row it
    /// explains as.
    filter: Option<Filter>,
    filter_profile: OpProfile,
    /// Reused LZRW1 page-decompression buffer for page-wise reads of
    /// `Lz` segments (patched segments never touch it).
    lz_scratch: Vec<u8>,
    /// Fault-injecting disk + retry policy; `None` scans the clean
    /// modeled disk with no per-chunk validation.
    faulty: Option<(DiskHandle, RetryPolicy)>,
    profile: OpProfile,
    /// Open per-segment trace region: (segment, entered-at, values
    /// decoded or copied so far). A segment's span can only
    /// close when the scan *leaves* it — at the next segment's first
    /// vector, or at scan drop — so it is recorded after the fact rather
    /// than held as an RAII guard across `try_next` calls.
    seg_trace: Option<(usize, Instant, u64)>,
}

// Workers share the configured scan as their template.
const _: () = {
    const fn check<T: Send + Sync>() {}
    check::<Scan>();
};

impl Scan {
    /// Builds a scan over `cols` of `table`, reporting into `stats`.
    pub fn new(
        table: Arc<Table>,
        cols: &[&str],
        opts: ScanOptions,
        stats: StatsHandle,
        pool: Option<PoolHandle>,
    ) -> Self {
        assert!(
            opts.vector_size > 0 && table.seg_rows().is_multiple_of(opts.vector_size),
            "vector size must divide segment rows"
        );
        let cols: Vec<usize> = cols.iter().map(|c| table.col_index(c)).collect();
        for &c in &cols {
            assert!(
                !matches!(table.columns()[c].1, Column::Blob(_)),
                "blob columns cannot be scanned"
            );
        }
        let rows = 0..table.n_rows();
        Self::over(table, cols, opts, stats, pool, None, rows)
    }

    /// A scan of rows `rows` (segment-aligned start) in its initial state.
    fn over(
        table: Arc<Table>,
        cols: Vec<usize>,
        opts: ScanOptions,
        stats: StatsHandle,
        pool: Option<PoolHandle>,
        faulty: Option<(DiskHandle, RetryPolicy)>,
        rows: std::ops::Range<usize>,
    ) -> Self {
        let n_cols = cols.len();
        Self {
            table,
            cols,
            opts,
            stats,
            pool,
            pos: rows.start,
            end: rows.end,
            cur_segment: None,
            pages: (0..n_cols).map(|_| None).collect(),
            filter: None,
            filter_profile: OpProfile::default(),
            lz_scratch: Vec::new(),
            faulty,
            profile: OpProfile::default(),
            seg_trace: None,
        }
    }

    /// Routes this scan's chunk reads through a fault-injecting disk
    /// with bounded retry: each attempt is charged full chunk I/O plus a
    /// doubling backoff, corrupt deliveries are rejected by wire
    /// checksum, and chunks still corrupt after the retry budget are
    /// quarantined (evicted from the pool, every later read fails fast).
    pub fn with_fault_injection(mut self, disk: DiskHandle, policy: RetryPolicy) -> Self {
        assert!(policy.max_attempts >= 1, "retry policy needs at least one attempt");
        self.faulty = Some((disk, policy));
        self
    }

    /// Restricts the scan to the segments in `range` (segment indices,
    /// end-exclusive); a full-table scan is `0..table.n_segments()`. An
    /// inverted or out-of-bounds range reports
    /// [`scc_core::Error::SegmentRangeOutOfBounds`] — the server maps
    /// bad client ranges onto this instead of dying in an assert.
    pub fn try_with_segment_range(mut self, range: std::ops::Range<usize>) -> Result<Self, Error> {
        let n_segments = self.table.n_segments();
        if range.start > range.end || range.end > n_segments {
            return Err(Error::SegmentRangeOutOfBounds {
                start: range.start,
                end: range.end,
                n_segments,
            });
        }
        let seg_rows = self.table.seg_rows();
        self.pos = range.start * seg_rows;
        self.end = (range.end * seg_rows).min(self.table.n_rows());
        Ok(self)
    }

    /// A fresh scan with this scan's configuration over segment `seg`
    /// alone (clipped to this scan's own row range).
    fn fragment(&self, seg: usize) -> Scan {
        let seg_rows = self.table.seg_rows();
        let mut scan = Self::over(
            Arc::clone(&self.table),
            self.cols.clone(),
            self.opts,
            Arc::clone(&self.stats),
            self.pool.clone(),
            self.faulty.clone(),
            seg * seg_rows..((seg + 1) * seg_rows).min(self.end),
        );
        scan.filter = self.filter.clone();
        scan
    }

    /// Finishes the plan over this (not yet pulled) scan; every caller
    /// that scans a table builds its plan here. `predicate`, when given,
    /// is fused into the scan, which then emits only dense, decoded
    /// survivors and explains as a `Select` over itself. With
    /// `threads == 1` that is the whole plan, on the calling thread.
    /// With more, the same filtered scan runs once per segment on
    /// `threads` workers (at most one per segment) that claim segments
    /// from a shared counter and feed an [`Exchange`], which yields the
    /// exact serial stream — same batches, same order, same first error
    /// — and reports the workers' summed operator profiles beneath it.
    pub fn into_plan(mut self, predicate: Option<Expr>, threads: usize) -> Box<dyn Operator> {
        assert!(threads >= 1, "a scan needs at least one thread");
        self.filter = predicate.map(|p| Filter::new(&p));
        if threads == 1 {
            return Box::new(self);
        }
        let seg_rows = self.table.seg_rows();
        let first_seg = self.pos / seg_rows;
        let n_parts = self.end.div_ceil(seg_rows).saturating_sub(first_seg);
        let template = Arc::new(self);
        let next_part = Arc::new(AtomicUsize::new(0));
        // If the building thread is inside a sampled trace, its context
        // travels to the workers so their per-segment spans land in the
        // same trace (parented on the span that started the scan).
        let trace_ctx = scc_obs::trace::current_ctx();
        // Bounded: a fast worker can run at most a couple of segments
        // ahead of the consumer before it parks.
        let (tx, rx) = sync_channel::<Partition>(threads * 2);
        let workers = (0..threads.min(n_parts.max(1)))
            .map(|w| {
                let template = Arc::clone(&template);
                let (next_part, tx) = (Arc::clone(&next_part), tx.clone());
                std::thread::Builder::new()
                    .name(format!("scc-scan-{w}"))
                    .spawn(move || {
                        let _tscope = trace_ctx.map(scc_obs::trace::adopt_scope);
                        loop {
                            let part = next_part.fetch_add(1, Ordering::Relaxed);
                            if part >= n_parts {
                                break;
                            }
                            let mut plan = template.fragment(first_seg + part);
                            let result = std::iter::from_fn(|| plan.try_next().transpose())
                                .collect::<Result<Vec<Batch>, Error>>();
                            let fragment = Some(plan.explain());
                            let partition = Partition { seq: part as u64, result, fragment };
                            if tx.send(partition).is_err() {
                                // The exchange dropped the receiver
                                // (consumer went away); stop producing.
                                break;
                            }
                        }
                    })
                    .expect("spawn scan worker")
            })
            .collect();
        drop(tx);
        Box::new(Exchange::new(n_parts as u64, rx, workers))
    }

    /// The stored checksummed bytes of column `c`'s part of segment
    /// `seg`, for fault validation. `None` when the stored form carries
    /// no checksums (plain arrays, LZRW1 pages, blobs, uncompressed
    /// scans): damage there is undetectable and never injected.
    fn chunk_payload(&self, c: usize, seg: usize) -> Option<&[u8]> {
        if self.faulty.is_none() || self.opts.mode == ScanMode::Uncompressed {
            return None;
        }
        match &self.table.columns()[c].1 {
            Column::Num(nc) => nc.segment_wire(seg),
            Column::Str(sc) => sc.codes.segment_wire(seg),
            Column::Blob(_) => None,
        }
    }

    /// Accounts one chunk read, retrying through the fault injector when
    /// one is attached. Pool hits bypass the disk entirely (the cached
    /// copy was validated when it was first read).
    fn charge_chunk(&self, id: ChunkId, bytes: u64, payload: Option<&[u8]>) -> Result<(), Error> {
        if let Some((disk, policy)) = &self.faulty {
            if disk.lock().unwrap().is_quarantined(id) {
                return Err(Error::ChunkQuarantined { chunk: id, attempts: policy.max_attempts });
            }
        }
        let hit = self.pool.as_ref().is_some_and(|p| p.lock().unwrap().access(id, bytes));
        // Compressed (or plain) bytes stream through RAM either way.
        self.stats.charge_ram_traffic(bytes);
        self.stats.charge_pool_access(hit);
        if hit {
            return Ok(());
        }
        let Some((disk, policy)) = &self.faulty else {
            self.stats.charge_io(bytes, self.opts.disk.read_seconds(bytes));
            return Ok(());
        };
        let mut disk = disk.lock().unwrap();
        let mut saw_corruption = false;
        for attempt in 1..=policy.max_attempts {
            self.stats.charge_io(bytes, disk.read_seconds(bytes) + policy.backoff_before(attempt));
            if attempt > 1 {
                self.stats.charge_retry();
            }
            match disk.read_chunk(id, attempt, payload) {
                ReadOutcome::Clean => return Ok(()),
                ReadOutcome::Corrupted(data) => match scc_core::wire::verify(&data) {
                    // Damage that leaves every checksum valid is
                    // indistinguishable from a clean read.
                    Ok(_) => return Ok(()),
                    Err(_) => {
                        self.stats.charge_checksum_failure();
                        saw_corruption = true;
                    }
                },
                ReadOutcome::Failed => {}
            }
        }
        // Retry budget exhausted: the pool must not serve this chunk.
        if let Some(p) = &self.pool {
            p.lock().unwrap().evict(id);
        }
        if saw_corruption {
            disk.quarantine(id);
            self.stats.charge_quarantine();
            Err(Error::ChunkQuarantined { chunk: id, attempts: policy.max_attempts })
        } else {
            Err(Error::ReadFailed { chunk: id, attempts: policy.max_attempts })
        }
    }

    fn try_charge_segment_io(&mut self, seg: usize) -> Result<(), Error> {
        match self.opts.layout {
            Layout::Dsm => {
                for i in 0..self.cols.len() {
                    let c = self.cols[i];
                    let bytes = self.column_segment_bytes(c, seg);
                    let payload = self.chunk_payload(c, seg);
                    self.charge_chunk((self.table.id, c as u32, seg as u32), bytes, payload)?;
                }
            }
            Layout::Pax => {
                // A PAX chunk carries a segment of every column; validate
                // it through the first column with a checksummed form.
                let n_cols = self.table.columns().len();
                let bytes: u64 = (0..n_cols).map(|c| self.column_segment_bytes(c, seg)).sum();
                let payload = (0..n_cols).find_map(|c| self.chunk_payload(c, seg));
                self.charge_chunk((self.table.id, u32::MAX, seg as u32), bytes, payload)?;
            }
        }
        Ok(())
    }

    /// Bytes of column `c`'s part of segment `seg` under the scan mode.
    fn column_segment_bytes(&self, c: usize, seg: usize) -> u64 {
        let seg_rows = self.table.seg_rows();
        let rows_in_seg = seg_rows.min(self.table.n_rows().saturating_sub(seg * seg_rows)) as u64;
        match (&self.table.columns()[c].1, self.opts.mode) {
            (Column::Num(nc), ScanMode::Compressed) => nc.segment_bytes(seg),
            (Column::Num(nc), ScanMode::Uncompressed) => {
                rows_in_seg * (nc.plain_bytes() / nc.len().max(1) as u64)
            }
            (Column::Str(sc), ScanMode::Compressed) => {
                // Codes plus the amortized dictionary.
                sc.codes.segment_bytes(seg) + sc.dict_bytes() / sc.codes.n_segments().max(1) as u64
            }
            (Column::Str(sc), ScanMode::Uncompressed) => sc.raw_seg_bytes[seg],
            (Column::Blob(total), _) => total / self.table.n_segments().max(1) as u64,
        }
    }

    /// One vector of column `slot` from the plain representation
    /// (uncompressed scans) or out of a decompressed RAM page (page-wise
    /// scans). Vector-wise compressed reads go through
    /// `lazy::decode_window` instead.
    fn read_column_vector(
        &mut self,
        slot: usize,
        seg: usize,
        offset: usize,
        take: usize,
    ) -> Vector {
        fn typed<V: Value>(
            store: &ColumnStore<V>,
            wrap: fn(Vec<V>) -> Vector,
            scan: &mut Scan,
            (slot, seg, offset, take): (usize, usize, usize, usize),
        ) -> Vector {
            let mut out = vec![V::default(); take];
            if scan.opts.mode == ScanMode::Uncompressed {
                store.read_plain(seg * store.seg_rows + offset, &mut out);
            } else {
                let page = scan.pages[slot].get_or_insert_with(|| {
                    let rows = store.seg_rows.min(store.len() - seg * store.seg_rows);
                    let mut page = vec![V::default(); rows];
                    let t0 = Instant::now();
                    store.decode_segment_range_with(seg, 0, &mut page, &mut scan.lz_scratch);
                    scan.stats.charge_decompress(t0.elapsed());
                    // The page is written to RAM and read back.
                    scan.stats.charge_ram_traffic(2 * (rows * V::byte_width()) as u64);
                    Box::new(page)
                });
                let page = page.downcast_ref::<Vec<V>>().expect("page type is stable per column");
                out.copy_from_slice(&page[offset..offset + take]);
            }
            scan.stats.charge_output((take * V::byte_width()) as u64);
            wrap(out)
        }
        let table = Arc::clone(&self.table);
        let col = &table.columns()[self.cols[slot]].1;
        on_store!(col, Vector, typed(self, (slot, seg, offset, take)))
    }
}

impl Scan {
    /// Reads the next vector, charging the segment's I/O on entry. Every
    /// column is decoded except, while the filter is in code mode, one
    /// whose segment can answer in code space: that one stays packed for
    /// the filter.
    fn read(&mut self) -> Result<Option<Window>, Error> {
        if self.pos >= self.end {
            self.flush_segment_span();
            return Ok(None);
        }
        let seg_rows = self.table.seg_rows();
        let seg = self.pos / seg_rows;
        if self.cur_segment != Some(seg) {
            self.flush_segment_span();
            self.try_charge_segment_io(seg)?;
            self.cur_segment = Some(seg);
            if let Some(f) = &mut self.filter {
                f.enter(&self.table, &self.cols, seg);
            }
            for p in &mut self.pages {
                *p = None;
            }
            if scc_obs::trace::collecting() {
                self.seg_trace = Some((seg, Instant::now(), 0));
            }
        }
        let offset = self.pos % seg_rows;
        let seg_end = ((seg + 1) * seg_rows).min(self.end);
        let take = self.opts.vector_size.min(seg_end - self.pos);
        let vector_wise = self.opts.mode == ScanMode::Compressed
            && self.opts.granularity == DecompressionGranularity::VectorWise;
        // Whether patched columns can be tested in code space: segment
        // offsets stay 128-block aligned only when the vector size is a
        // multiple of the block.
        let code_scan =
            self.opts.code_scan && self.opts.vector_size.is_multiple_of(scc_core::BLOCK);
        let mut vectors = Vec::with_capacity(self.cols.len());
        // Bytes decoded here, and how many of those columns code mode
        // would have left packed.
        let (mut output_bytes, mut coded) = (0u64, 0u64);
        let t0 = Instant::now();
        for slot in 0..self.cols.len() {
            if !vector_wise {
                vectors.push(Some(self.read_column_vector(slot, seg, offset, take)));
                continue;
            }
            let col = &self.table.columns()[self.cols[slot]].1;
            let codes = code_scan && segment_is_compressed(col, seg);
            if codes && self.filter.as_ref().is_some_and(Filter::code_mode) {
                vectors.push(None);
                continue;
            }
            let (v, bytes) = decode_window(col, seg, offset, take)?;
            vectors.push(Some(v));
            output_bytes += bytes;
            coded += codes as u64;
        }
        if output_bytes > 0 {
            self.stats.charge_decompress(t0.elapsed());
            self.stats.charge_output(output_bytes);
        }
        // What a code-mode filter would have booked on decoding them; a
        // code-mode vector's packed columns the filter books itself.
        self.profile.values_decoded += take as u64 * coded;
        self.pos += take;
        if let Some(t) = &mut self.seg_trace {
            t.2 += (take * vectors.iter().flatten().count()) as u64;
        }
        Ok(Some(Window { seg, offset, len: take, vectors }))
    }

    /// The next vector holding survivors of the filter, dense and decoded.
    fn next_filtered(&mut self) -> Result<Option<Batch>, Error> {
        loop {
            let start = scc_obs::clock();
            let read = self.read();
            let rows = read.as_ref().ok().and_then(|w| w.as_ref().map(|w| w.len));
            self.profile.record_rows(start, rows);
            let Some(w) = read? else {
                return Ok(None);
            };
            let filter = self.filter.as_mut().expect("a filtered scan");
            let (out, decoded, skipped) = filter.apply(&self.table, &self.cols, w, &self.stats)?;
            self.filter_profile.values_decoded += decoded;
            self.filter_profile.values_skipped += skipped;
            scc_obs::counter_add!("engine.select.values_decoded", decoded);
            scc_obs::counter_add!("engine.select.values_skipped", skipped);
            if let Some(t) = &mut self.seg_trace {
                t.2 += decoded;
            }
            if out.is_some() {
                return Ok(out);
            }
        }
    }

    /// Records the in-progress segment's trace span, if any: one
    /// `scan.segment` child per segment entered, tagged with the
    /// bit-unpacking kernel class and the values decoded from it.
    fn flush_segment_span(&mut self) {
        if let Some((seg, entered, values)) = self.seg_trace.take() {
            scc_obs::trace::record_closed(
                "scan.segment",
                entered,
                &[("segment", seg as u64), ("values", values)],
                Some(("kernel", scc_bitpack::kernel::active().name())),
            );
        }
    }

    fn scan_label(&self) -> String {
        let cols: Vec<&str> =
            self.cols.iter().map(|&c| self.table.columns()[c].0.as_str()).collect();
        format!("Scan({}: {})", self.table.name, cols.join(", "))
    }
}

impl Drop for Scan {
    fn drop(&mut self) {
        // The final segment's span closes when the scan is dropped
        // (early-terminated scans included).
        self.flush_segment_span();
    }
}

impl Operator for Scan {
    fn try_next(&mut self) -> Result<Option<Batch>, Error> {
        let start = scc_obs::clock();
        if self.filter.is_none() {
            // Collects in place: an unfiltered read decodes every column.
            let decoded = |v: Option<Vector>| v.expect("unfiltered reads leave nothing packed");
            let out = self
                .read()
                .map(|w| w.map(|w| Batch::new(w.vectors.into_iter().map(decoded).collect())));
            self.profile.record(start, &out);
            return out;
        }
        let out = self.next_filtered();
        self.filter_profile.record(start, &out);
        out
    }

    fn label(&self) -> String {
        match self.filter {
            Some(_) => "Select".into(),
            None => self.scan_label(),
        }
    }

    fn profile(&self) -> OpProfile {
        match self.filter {
            Some(_) => self.filter_profile,
            None => self.profile,
        }
    }

    fn explain(&self) -> ExplainNode {
        let scan = ExplainNode::leaf(self.scan_label(), self.profile);
        match self.filter {
            Some(_) => ExplainNode::new(self.label(), self.filter_profile, vec![scan]),
            None => scan,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::stats_handle;
    use crate::pool::BufferPool;
    use crate::table::TableBuilder;
    use scc_engine::ops::collect;
    use std::sync::Mutex;

    fn test_table() -> Arc<Table> {
        TableBuilder::new("t")
            .seg_rows(2048)
            .add_i64("key", (0..10_000).collect())
            .add_i32("val", (0..10_000).map(|i| i % 97).collect())
            .add_str("flag", (0..10_000).map(|i| ["A", "B", "C"][i % 3].to_string()).collect())
            .add_blob("comment", 500_000)
            .build()
    }

    /// A scan of `cols` under the default options (1024-row vectors).
    fn default_scan(t: &Arc<Table>, cols: &[&str], stats: &StatsHandle) -> Scan {
        Scan::new(Arc::clone(t), cols, ScanOptions::default(), Arc::clone(stats), None)
    }

    #[test]
    fn compressed_scan_yields_original_values() {
        let t = test_table();
        let stats = stats_handle();
        let mut scan = default_scan(&t, &["key", "val", "flag"], &stats);
        let out = collect(&mut scan);
        assert_eq!(out.len(), 10_000);
        assert_eq!(out.col(0).as_i64()[5000], 5000);
        assert_eq!(out.col(1).as_i32()[96], 96);
        // String column arrives as codes.
        let code = out.col(2).as_u32()[4];
        assert_eq!(t.str_col("flag").dict[code as usize], "B");
        let s = stats.snapshot();
        assert!(s.io_bytes > 0);
        assert!(s.output_bytes > 0);
    }

    #[test]
    fn segment_range_scan_matches_full_scan_slice() {
        let t = test_table();
        let full = collect(&mut default_scan(&t, &["key", "val"], &stats_handle()));
        // Segments 1..3 cover rows 2048..6144.
        let stats = stats_handle();
        let mut scan =
            default_scan(&t, &["key", "val"], &stats).try_with_segment_range(1..3).unwrap();
        let part = collect(&mut scan);
        assert_eq!(part.len(), 4096);
        assert_eq!(part.col(0).as_i64(), &full.col(0).as_i64()[2048..6144]);
        assert_eq!(part.col(1).as_i32(), &full.col(1).as_i32()[2048..6144]);
        // Only the two in-range segments were charged.
        assert_eq!(stats.snapshot().pool_misses, 4, "2 segments x 2 columns");
        // An empty range yields nothing.
        let mut empty =
            default_scan(&t, &["key"], &stats_handle()).try_with_segment_range(2..2).unwrap();
        assert_eq!(collect(&mut empty).len(), 0);
    }

    #[test]
    fn bad_segment_range_is_a_typed_error_not_a_clamp() {
        let t = test_table(); // 5 segments of 2048 rows
        let make = || default_scan(&t, &["key"], &stats_handle());
        let err = make().try_with_segment_range(3..9).map(|_| ()).unwrap_err();
        assert_eq!(err, Error::SegmentRangeOutOfBounds { start: 3, end: 9, n_segments: 5 });
        // A reversed (empty) range is rejected, not silently skipped.
        let reversed = std::ops::Range { start: 4, end: 2 };
        let err = make().try_with_segment_range(reversed).map(|_| ()).unwrap_err();
        assert_eq!(err, Error::SegmentRangeOutOfBounds { start: 4, end: 2, n_segments: 5 });
        // The full range and an empty in-bounds range are both fine.
        assert!(make().try_with_segment_range(0..5).is_ok());
        assert!(make().try_with_segment_range(5..5).is_ok());
    }

    #[test]
    fn uncompressed_scan_charges_more_io() {
        let t = test_table();
        let run = |mode| {
            let stats = stats_handle();
            let mut scan = Scan::new(
                Arc::clone(&t),
                &["key", "val"],
                ScanOptions { mode, vector_size: 1024, ..Default::default() },
                Arc::clone(&stats),
                None,
            );
            let out = collect(&mut scan);
            assert_eq!(out.len(), 10_000);
            stats.snapshot().io_bytes
        };
        let comp = run(ScanMode::Compressed);
        let unc = run(ScanMode::Uncompressed);
        assert!(unc > 2 * comp, "uncompressed {unc} vs compressed {comp}");
    }

    #[test]
    fn pax_charges_all_columns_including_blobs() {
        let t = test_table();
        let run = |layout| {
            let stats = stats_handle();
            let mut scan = Scan::new(
                Arc::clone(&t),
                &["key"],
                ScanOptions { layout, vector_size: 1024, ..Default::default() },
                Arc::clone(&stats),
                None,
            );
            collect(&mut scan);
            stats.snapshot().io_bytes
        };
        let dsm = run(Layout::Dsm);
        let pax = run(Layout::Pax);
        // PAX must at least pay for the 500KB blob too.
        assert!(pax > dsm + 400_000, "pax {pax} vs dsm {dsm}");
    }

    #[test]
    fn page_wise_matches_vector_wise_output() {
        let t = test_table();
        let run = |granularity| {
            let stats = stats_handle();
            let mut scan = Scan::new(
                Arc::clone(&t),
                &["key", "val"],
                ScanOptions { granularity, vector_size: 1024, ..Default::default() },
                Arc::clone(&stats),
                None,
            );
            let out = collect(&mut scan);
            (out, stats.snapshot().ram_traffic_bytes)
        };
        let (v_out, v_ram) = run(DecompressionGranularity::VectorWise);
        let (p_out, p_ram) = run(DecompressionGranularity::PageWise);
        assert_eq!(v_out, p_out);
        // Page-wise moves the decompressed pages through RAM twice extra.
        assert!(p_ram > v_ram + t.col("key").plain_bytes(), "{p_ram} vs {v_ram}");
    }

    #[test]
    fn buffer_pool_absorbs_rescans() {
        let t = test_table();
        let pool = Arc::new(Mutex::new(BufferPool::unbounded()));
        let stats = stats_handle();
        for _ in 0..2 {
            let mut scan = Scan::new(
                Arc::clone(&t),
                &["key"],
                ScanOptions { vector_size: 1024, ..Default::default() },
                Arc::clone(&stats),
                Some(Arc::clone(&pool)),
            );
            collect(&mut scan);
        }
        let s = stats.snapshot();
        assert_eq!(s.pool_hits, s.pool_misses, "second scan all hits");
    }

    #[test]
    #[should_panic(expected = "blob")]
    fn scanning_blob_panics() {
        let t = test_table();
        Scan::new(t, &["comment"], ScanOptions::default(), stats_handle(), None);
    }

    fn faulty(plan: crate::disk::FaultPlan) -> DiskHandle {
        Arc::new(Mutex::new(crate::disk::FaultyDisk::new(Disk::middle_end(), plan)))
    }

    #[test]
    fn fault_free_injector_matches_clean_scan() {
        let t = test_table();
        let stats = stats_handle();
        let mut scan = default_scan(&t, &["key", "val"], &stats)
            .with_fault_injection(faulty(crate::disk::FaultPlan::none(1)), RetryPolicy::default());
        let out = collect(&mut scan);
        assert_eq!(out.len(), 10_000);
        let s = stats.snapshot();
        assert_eq!((s.retries, s.checksum_failures, s.quarantined_chunks), (0, 0, 0));
    }

    #[test]
    fn retry_recovers_from_transient_and_corrupt_reads() {
        let t = test_table();
        // Fault draws hash the chunk id, which includes the globally
        // allocated table id, so which seed produces which faults shifts
        // with test ordering. Scan over a few seeds: with these rates and
        // a 20-attempt budget, a seed whose run both retries and catches
        // a checksum failure — while still recovering fully — turns up
        // almost immediately.
        let clean_io = {
            let stats = stats_handle();
            collect(&mut default_scan(&t, &["key", "val", "flag"], &stats));
            stats.snapshot().io_bytes
        };
        let mut recovered_with_faults = false;
        for seed in 0..10 {
            let plan =
                crate::disk::FaultPlan { seed, bit_flip: 0.2, truncate: 0.05, transient_fail: 0.1 };
            let stats = stats_handle();
            let mut scan = default_scan(&t, &["key", "val", "flag"], &stats).with_fault_injection(
                faulty(plan),
                RetryPolicy { max_attempts: 20, backoff_seconds: 0.001 },
            );
            let out = scc_engine::ops::try_collect(&mut scan).expect("20 attempts recover");
            assert_eq!(out.len(), 10_000, "retries recover the full scan");
            assert_eq!(out.col(0).as_i64()[5000], 5000);
            let s = stats.snapshot();
            assert_eq!(s.quarantined_chunks, 0);
            if s.retries > 0 && s.checksum_failures > 0 {
                // Each retry re-charged full chunk I/O.
                assert!(s.io_bytes > clean_io);
                recovered_with_faults = true;
                break;
            }
        }
        assert!(recovered_with_faults, "no seed in 0..10 exercised both fault kinds");
    }

    #[test]
    fn always_corrupt_chunk_is_quarantined_with_typed_error() {
        let t = test_table();
        let plan =
            crate::disk::FaultPlan { seed: 3, bit_flip: 1.0, truncate: 0.0, transient_fail: 0.0 };
        let disk = faulty(plan);
        let pool = Arc::new(Mutex::new(BufferPool::unbounded()));
        let stats = stats_handle();
        let mut scan = Scan::new(
            Arc::clone(&t),
            &["key"],
            ScanOptions { vector_size: 1024, ..Default::default() },
            Arc::clone(&stats),
            Some(Arc::clone(&pool)),
        )
        .with_fault_injection(Arc::clone(&disk), RetryPolicy::default());
        let err = scan.try_next().expect_err("every delivery is corrupt");
        let scc_core::Error::ChunkQuarantined { chunk, attempts } = err else {
            panic!("expected quarantine, got {err}");
        };
        assert_eq!(attempts, 3);
        let s = stats.snapshot();
        assert_eq!(s.checksum_failures, 3);
        assert_eq!(s.retries, 2);
        assert_eq!(s.quarantined_chunks, 1);
        assert!(disk.lock().unwrap().is_quarantined(chunk));
        assert_eq!(pool.lock().unwrap().resident_chunks(), 0, "corrupt chunk evicted");
        // Later reads of the quarantined chunk fail fast: no extra I/O.
        let io_before = s.io_bytes;
        let err2 = scan.try_next().expect_err("quarantined chunk fails fast");
        assert!(matches!(err2, scc_core::Error::ChunkQuarantined { .. }));
        assert_eq!(stats.snapshot().io_bytes, io_before);
    }

    #[test]
    fn always_failing_reads_report_read_failed_without_quarantine() {
        let t = test_table();
        let plan =
            crate::disk::FaultPlan { seed: 5, bit_flip: 0.0, truncate: 0.0, transient_fail: 1.0 };
        let disk = faulty(plan);
        let stats = stats_handle();
        let mut scan = default_scan(&t, &["key"], &stats)
            .with_fault_injection(Arc::clone(&disk), RetryPolicy::default());
        let err = scan.try_next().expect_err("every read fails");
        let scc_core::Error::ReadFailed { chunk, attempts } = err else {
            panic!("expected ReadFailed, got {err}");
        };
        assert_eq!(attempts, 3);
        assert!(
            !disk.lock().unwrap().is_quarantined(chunk),
            "transient failures do not quarantine"
        );
        assert_eq!(stats.snapshot().quarantined_chunks, 0);
    }

    #[test]
    fn fault_injection_is_deterministic_for_a_fixed_seed() {
        let t = test_table();
        let plan = crate::disk::FaultPlan {
            seed: 99,
            bit_flip: 0.25,
            truncate: 0.15,
            transient_fail: 0.2,
        };
        let run = || {
            let stats = stats_handle();
            let mut scan = default_scan(&t, &["key", "val"], &stats).with_fault_injection(
                faulty(plan),
                RetryPolicy { max_attempts: 8, backoff_seconds: 0.001 },
            );
            // Fault draws hash the globally allocated table id, so
            // whether this seed recovers or quarantines depends on test
            // ordering — determinism of the *outcome* (rows or typed
            // error) is what this test pins down.
            let outcome = scc_engine::ops::try_collect(&mut scan).map(|b| b.len());
            let s = stats.snapshot();
            (
                outcome,
                s.io_bytes,
                s.retries,
                s.checksum_failures,
                s.quarantined_chunks,
                s.pool_misses,
            )
        };
        assert_eq!(run(), run(), "same seed, same fault sequence, same stats");
    }

    #[test]
    fn pool_hits_bypass_fault_injection() {
        let t = test_table();
        // Corrupt every delivery — but only on attempts after the first
        // scan has populated the pool, which it can't since bit_flip is
        // keyed per attempt; instead verify hits don't touch the disk.
        let plan = crate::disk::FaultPlan::none(0);
        let disk = faulty(plan);
        let pool = Arc::new(Mutex::new(BufferPool::unbounded()));
        let stats = stats_handle();
        for _ in 0..2 {
            let mut scan = Scan::new(
                Arc::clone(&t),
                &["key"],
                ScanOptions { vector_size: 1024, ..Default::default() },
                Arc::clone(&stats),
                Some(Arc::clone(&pool)),
            )
            .with_fault_injection(Arc::clone(&disk), RetryPolicy::default());
            collect(&mut scan);
        }
        let s = stats.snapshot();
        assert_eq!(s.pool_hits, s.pool_misses, "second scan served from pool");
    }

    #[test]
    fn code_scan_matches_eager_scan_through_select() {
        // Scrambled values so segments compress as PFOR (a sequential
        // column would pick PFOR-DELTA and the pushdown would no-op).
        // Segments of eight vectors: each segment's first vector runs in
        // value mode, and four columns make a mostly dead vector worth
        // leaving packed.
        let mix = |i: usize| i.wrapping_mul(2654435761) >> 7;
        let t = TableBuilder::new("cs")
            .seg_rows(8192)
            .add_i32("a", (0..10_000).map(|i| (mix(i) % 1000) as i32).collect())
            .add_i64("b", (0..10_000).map(|i| (mix(i + 77) % 500) as i64).collect())
            .add_i64("c", (0..10_000).map(|i| (mix(i + 7) % 500) as i64).collect())
            .add_i32("d", (0..10_000).map(|i| (mix(i + 3) % 500) as i32).collect())
            .build();
        let run = |code_scan: bool| {
            let stats = stats_handle();
            // ~0.1% selectivity: most 128-value blocks hold no survivor,
            // so the block-granular gather skips them outright.
            let mut plan = Scan::new(
                Arc::clone(&t),
                &["a", "b", "c", "d"],
                ScanOptions { vector_size: 1024, code_scan, ..Default::default() },
                Arc::clone(&stats),
                None,
            )
            .into_plan(Some(Expr::col(0).eq(Expr::lit_i32(7))), 1);
            let out = collect(plan.as_mut());
            let s = stats.snapshot();
            (out, s.output_bytes, plan.profile())
        };
        let (eager, eager_bytes, _) = run(false);
        let (codes, codes_bytes, profile) = run(true);
        assert_eq!(codes, eager, "pushdown must not change results");
        // The code scan decodes far fewer values.
        assert!(
            codes_bytes < eager_bytes / 2,
            "code scan decoded {codes_bytes} bytes vs eager {eager_bytes}"
        );
        assert!(profile.values_skipped > 0, "skipped counter records the win");
    }

    #[test]
    fn partial_tail_segment() {
        let t = TableBuilder::new("tail").seg_rows(2048).add_i64("x", (0..3000).collect()).build();
        let stats = stats_handle();
        let mut scan = Scan::new(
            t,
            &["x"],
            ScanOptions { vector_size: 512, ..Default::default() },
            stats,
            None,
        );
        let out = collect(&mut scan);
        assert_eq!(out.len(), 3000);
        assert_eq!(out.col(0).as_i64()[2999], 2999);
    }
}
