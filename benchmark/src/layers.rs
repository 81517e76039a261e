//! Every call into the product lives in this file: one function per
//! layer entry point, each a span for the recorder in `trace.rs`. The
//! rest of the benchmark names no product type except through here, so
//! a product API change is absorbed in one place.
//!
//! Layers, bottom up, by crate: `bitpack` (pack / unpack / compare
//! kernels), `core` (segments, analyzer, predicates, frames, wire),
//! `storage` (tables and scans), `engine` + `tpch` (query plans),
//! `server` (TCP protocol). The APIs ROADMAP items 2-4 plan to delete
//! are avoided: no `ParallelScan` by name, no `choose_layout` /
//! `SCC_LAYOUT`, no `ScanStats` field, no `scc-cluster`.

use crate::clock;
use crate::trace::span;
use scc_bitpack::kernel::{self, kernels};
use scc_bitpack::packed_words;
use scc_core::{
    analyze, compress_with_plan, frame, AnalyzeOpts, Layout, Plan, PredOp, SchemeKind, Segment,
    Value, ValuePred,
};
use scc_engine::{Operator as _, Vector};
use scc_server::{
    protocol, Catalog, Client, ClientError, ErrorCode, Request, Response, Server, ServerConfig,
};
use scc_storage::{stats_handle, Column, NumColumn, ScanMode, Table, TableBuilder};
use scc_tpch::{queries, QueryConfig, RawTables, TpchDb};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

pub use scc_engine::Batch;
pub use scc_obs::json::{parse as json_parse, Json};

/// Tuples per vector: the granularity the product's scan decodes at.
pub const VECTOR: usize = scc_engine::VECTOR_SIZE;
pub const SEGMENT_ROWS: usize = scc_storage::SEGMENT_ROWS;
pub const POSTINGS_COLUMNS: [&str; 2] = ["gap", "docid"];

/// The kernel tier the product dispatches to on this machine.
pub fn kernel_class() -> &'static str {
    kernel::active().name()
}

// ---------------------------------------------------------------------
// Data: generated from the seed, the only thing the product receives
// ---------------------------------------------------------------------

/// Raw columns: TPC-H tables plus a postings d-gap stream (a PFOR input)
/// and its running-sum document ids (a PFOR-DELTA input).
pub struct Raw {
    pub tpch: RawTables,
    pub gaps: Vec<u32>,
    pub docids: Vec<u32>,
}

pub fn generate(scale: f64, seed: u64) -> Raw {
    let tpch = scc_tpch::generate(scale, seed);
    let gaps = scc_ir::gap_stream(&scc_ir::synthesize(scc_ir::CollectionPreset::TrecFbis, seed));
    let docids = gaps
        .iter()
        .scan(0u32, |sum, g| {
            *sum = sum.wrapping_add(*g);
            Some(*sum)
        })
        .collect();
    Raw { tpch, gaps, docids }
}

pub enum RawColumn<'a> {
    I64(&'a [i64]),
    I32(&'a [i32]),
    U32(&'a [u32]),
    Str(&'a [String]),
    /// An unscanned blob of this many bytes (TPC-H comments).
    Blob(u64),
}

pub type RawColumns<'a> = Vec<(&'static str, RawColumn<'a>)>;

impl Raw {
    /// LINEITEM as `scc_tpch::TpchDb::load` declares it.
    pub fn lineitem(&self) -> RawColumns<'_> {
        use RawColumn::*;
        let l = &self.tpch.lineitem;
        vec![
            ("l_orderkey", I64(&l.orderkey)),
            ("l_partkey", I64(&l.partkey)),
            ("l_suppkey", I64(&l.suppkey)),
            ("l_linenumber", I32(&l.linenumber)),
            ("l_quantity", I64(&l.quantity)),
            ("l_extendedprice", I64(&l.extendedprice)),
            ("l_discount", I64(&l.discount)),
            ("l_tax", I64(&l.tax)),
            ("l_returnflag", Str(&l.returnflag)),
            ("l_linestatus", Str(&l.linestatus)),
            ("l_shipdate", I32(&l.shipdate)),
            ("l_commitdate", I32(&l.commitdate)),
            ("l_receiptdate", I32(&l.receiptdate)),
            ("l_shipinstruct", Str(&l.shipinstruct)),
            ("l_shipmode", Str(&l.shipmode)),
            ("l_comment", Blob(l.comment_bytes)),
        ]
    }

    pub fn postings(&self) -> RawColumns<'_> {
        let [gap, docid] = POSTINGS_COLUMNS;
        vec![(gap, RawColumn::U32(&self.gaps)), (docid, RawColumn::U32(&self.docids))]
    }
}

/// The write path: analyzes and compresses every column, segment by
/// segment, at the product's default segment size.
pub fn build_table(name: &str, columns: &RawColumns<'_>) -> Arc<Table> {
    span("storage.build_table", || {
        let mut b = TableBuilder::new(name);
        for (col, values) in columns {
            b = match values {
                RawColumn::I64(v) => b.add_i64(col, v.to_vec()),
                RawColumn::I32(v) => b.add_i32(col, v.to_vec()),
                RawColumn::U32(v) => b.add_u32(col, v.to_vec()),
                RawColumn::Str(v) => b.add_str(col, v.to_vec()),
                RawColumn::Blob(bytes) => b.add_blob(col, *bytes),
            };
            clock::checkpoint();
        }
        b.build()
    })
}

/// Reads every column of `table` back from its compressed form and
/// compares it, value by value, with the raw columns.
pub fn table_matches(table: &Table, columns: &RawColumns<'_>) -> bool {
    columns.iter().all(|(col, want)| {
        let Some(idx) = table.find_col(col) else { return false };
        if let RawColumn::Blob(_) = want {
            return true;
        }
        let got = table.try_read_rows(idx, 0, table.n_rows());
        match (want, got) {
            (RawColumn::I64(want), Ok(Vector::I64(got))) => got == *want,
            (RawColumn::I32(want), Ok(Vector::I32(got))) => got == *want,
            (RawColumn::U32(want), Ok(Vector::U32(got))) => got == *want,
            (RawColumn::Str(want), Ok(Vector::U32(codes))) => {
                let dict = &table.str_col(col).dict;
                codes.len() == want.len()
                    && codes.iter().zip(*want).all(|(c, s)| dict.get(*c as usize) == Some(s))
            }
            _ => false,
        }
    })
}

/// The stored tables every read workload runs on.
pub struct Tables {
    pub db: TpchDb,
    pub postings: Arc<Table>,
}

/// Compresses the raw columns. Q1 and Q6 read LINEITEM only, so the
/// other seven TPC-H tables are registered empty: set-up pays for the
/// columns the benchmark reads and nothing else.
pub fn compress(raw: Raw) -> Tables {
    let lineitem = build_table("lineitem", &raw.lineitem());
    let postings = build_table("postings", &raw.postings());
    let empty = |name: &str| TableBuilder::new(name).build();
    let db = TpchDb {
        sf: raw.tpch.sf,
        lineitem,
        orders: empty("orders"),
        customer: empty("customer"),
        supplier: empty("supplier"),
        part: empty("part"),
        partsupp: empty("partsupp"),
        nation: empty("nation"),
        region: empty("region"),
        raw: raw.tpch,
    };
    Tables { db, postings }
}

/// The LINEITEM columns a TPC-H query scans.
pub fn query_columns(q: u32) -> Vec<&'static str> {
    let touched = queries::touched_columns(q).iter();
    touched.filter(|(t, _)| *t == "lineitem").flat_map(|(_, cols)| cols.iter().copied()).collect()
}

/// The lower bound of Q6's ship-date range, as the column stores it.
pub fn q6_shipdate_from() -> i64 {
    i64::from(scc_tpch::date(1994, 1, 1))
}

/// Every column of a table that holds values (blobs do not).
pub fn value_columns(table: &Table) -> Vec<&str> {
    let cols = table.columns().iter();
    cols.filter(|(_, c)| !matches!(c, Column::Blob(_))).map(|(n, _)| n.as_str()).collect()
}

/// Exact size of a set of columns: values, compressed and decoded bytes.
#[derive(Clone, Copy, Default)]
pub struct Footprint {
    pub values: u64,
    pub compressed_bytes: u64,
    pub decoded_bytes: u64,
}

impl std::ops::Add for Footprint {
    type Output = Footprint;
    fn add(self, o: Footprint) -> Footprint {
        Footprint {
            values: self.values + o.values,
            compressed_bytes: self.compressed_bytes + o.compressed_bytes,
            decoded_bytes: self.decoded_bytes + o.decoded_bytes,
        }
    }
}

pub fn footprint(table: &Table, cols: &[&str]) -> Footprint {
    cols.iter().fold(Footprint::default(), |acc, c| {
        let col = table.col(c);
        acc + Footprint {
            values: table.n_rows() as u64,
            compressed_bytes: col.compressed_bytes(),
            decoded_bytes: col.plain_bytes(),
        }
    })
}

// ---------------------------------------------------------------------
// storage + engine: scans and queries
// ---------------------------------------------------------------------

/// Departures from `QueryConfig::default()`; everything left alone
/// stays whatever the product defaults to.
#[derive(Clone, Copy, Default)]
pub struct Cfg {
    /// Scan the plain representation: the reference every compressed
    /// result is checked against.
    pub uncompressed: bool,
    pub two_threads: bool,
    pub code_scan: Option<bool>,
}

fn query_config(cfg: Cfg) -> QueryConfig {
    let mut q = QueryConfig::default();
    if cfg.uncompressed {
        q.mode = ScanMode::Uncompressed;
    }
    if cfg.two_threads {
        q.threads = 2;
    }
    if let Some(on) = cfg.code_scan {
        q.code_scan = on;
    }
    q
}

fn wrapping_sum(v: &Vector) -> u64 {
    match v {
        Vector::I32(v) => v.iter().fold(0u64, |s, x| s.wrapping_add(*x as u64)),
        Vector::I64(v) => v.iter().fold(0u64, |s, x| s.wrapping_add(*x as u64)),
        Vector::U32(v) => v.iter().fold(0u64, |s, x| s.wrapping_add(*x as u64)),
        other => panic!("a stored column decoded to {:?}", other.col_type()),
    }
}

/// One full scan: pulls vectors to exhaustion, materializes every
/// column and folds it into a wrapping sum. Returns one sum per column
/// and, last, the row count.
pub fn scan_sums(table: &Arc<Table>, cols: &[&str], cfg: Cfg) -> Result<Vec<u64>, String> {
    span("storage.scan", || {
        let mut scan = query_config(cfg).scan(table, cols, &stats_handle());
        let mut sums = vec![0u64; cols.len() + 1];
        while let Some(mut batch) = scan.try_next().map_err(|e| e.to_string())? {
            batch.ensure_values().map_err(|e| e.to_string())?;
            for (sum, col) in sums.iter_mut().zip(&batch.columns) {
                *sum = sum.wrapping_add(wrapping_sum(col));
            }
            sums[cols.len()] += batch.len() as u64;
        }
        Ok(sums)
    })
}

/// One full scan collected into a single batch.
pub fn scan_collect(table: &Arc<Table>, cols: &[&str], cfg: Cfg) -> Result<Batch, String> {
    let mut scan = query_config(cfg).scan(table, cols, &stats_handle());
    scc_engine::ops::try_collect(scan.as_mut()).map_err(|e| e.to_string())
}

pub struct QueryOutput {
    pub batch: Batch,
    /// Values the plan decoded, and values it answered without decoding.
    pub decoded: u64,
    pub skipped: u64,
}

pub fn run_query(tables: &Tables, q: u32, cfg: Cfg) -> QueryOutput {
    span("engine.run_query", || {
        let run = queries::run_query(&tables.db, &query_config(cfg), q);
        let (decoded, skipped) = run.explain.values_totals();
        QueryOutput { batch: run.batch, decoded, skipped }
    })
}

/// Entry-point random access on the local table: what a point request
/// costs without the server around it.
pub fn read_rows(table: &Table, col: &str, start: usize, len: usize) -> Result<Vector, String> {
    span("storage.read_rows", || {
        let idx = table.find_col(col).ok_or(format!("no column {col}"))?;
        table.try_read_rows(idx, start, len).map_err(|e| e.to_string())
    })
}

// ---------------------------------------------------------------------
// core: segments rebuilt from the product's own wire bytes
// ---------------------------------------------------------------------

pub enum AnySegment {
    I32(Segment<i32>),
    I64(Segment<i64>),
    U32(Segment<u32>),
}

macro_rules! with_segment {
    ($any:expr, $seg:ident => $body:expr) => {
        match $any {
            AnySegment::I32($seg) => $body,
            AnySegment::I64($seg) => $body,
            AnySegment::U32($seg) => $body,
        }
    };
}

/// The compressed segments of one column, through
/// `segment_wire_bytes` -> `Segment::try_from_bytes`. Segments the
/// analyzer stored plain have no wire form and are left out.
pub fn segments(table: &Table, col: &str) -> Vec<AnySegment> {
    fn parse<V: Value>(bytes: Vec<u8>) -> Segment<V> {
        Segment::try_from_bytes(&bytes).expect("the product parses its own segment bytes")
    }
    let column = table.col(col);
    let wire = |seg: usize| match column {
        Column::Num(c) => c.segment_wire_bytes(seg),
        Column::Str(c) => c.codes.segment_wire_bytes(seg),
        Column::Blob(_) => None,
    };
    let typed: fn(Vec<u8>) -> AnySegment = match column {
        Column::Num(NumColumn::I32(_)) => |b| AnySegment::I32(parse(b)),
        Column::Num(NumColumn::I64(_)) => |b| AnySegment::I64(parse(b)),
        Column::Num(NumColumn::U32(_)) | Column::Str(_) | Column::Blob(_) => {
            |b| AnySegment::U32(parse(b))
        }
    };
    (0..table.n_segments()).filter_map(wire).map(typed).collect()
}

/// `(exceptions, values)` over a set of segments.
pub fn exceptions(segs: &[AnySegment]) -> (u64, u64) {
    segs.iter().fold(
        (0, 0),
        |(e, n), s| with_segment!(s, s => (e + s.exception_count() as u64, n + s.len() as u64)),
    )
}

/// Vector-wise decode of every segment, as the scan does it. Returns
/// the values decoded.
pub fn decode_pass(segs: &[AnySegment]) -> u64 {
    fn decode<V: Value>(seg: &Segment<V>) -> u64 {
        let mut buf = [V::default(); VECTOR];
        for start in (0..seg.len()).step_by(VECTOR) {
            let len = VECTOR.min(seg.len() - start);
            seg.try_decode_range(start, &mut buf[..len]).expect("aligned range inside the segment");
        }
        black_box(buf);
        seg.len() as u64
    }
    span("core.decode_range", || segs.iter().map(|s| with_segment!(s, s => decode(s))).sum())
}

/// `col >= literal` compiled into each segment's code space and run
/// over the packed codes. Segments whose scheme has no code-space form
/// (PFOR-DELTA) answer nothing and count no values.
pub fn select_pass(segs: &[AnySegment], literal: i64) -> u64 {
    fn select<V: Value>(seg: &Segment<V>, literal: i64) -> u64 {
        let Ok(lit) = V::try_from_i64(literal) else { return 0 };
        let Some(compiled) = seg.compile_predicate(&ValuePred::Cmp { op: PredOp::Ge, lit }) else {
            return 0;
        };
        let mut flags = [false; VECTOR];
        for start in (0..seg.len()).step_by(VECTOR) {
            let len = VECTOR.min(seg.len() - start);
            seg.try_select_range(&compiled, start, &mut flags[..len])
                .expect("aligned range inside the segment");
        }
        black_box(flags);
        seg.len() as u64
    }
    span("core.select_range", || {
        segs.iter().map(|s| with_segment!(s, s => select(s, literal))).sum()
    })
}

/// Point reads at the given positions (taken modulo each segment's
/// length) of every segment.
pub fn get_pass(segs: &[AnySegment], positions: &[usize]) -> u64 {
    span("core.get", || {
        for s in segs {
            with_segment!(s, s => for p in positions {
                black_box(s.try_get(p % s.len()).expect("position inside the segment"));
            });
        }
        (segs.len() * positions.len()) as u64
    })
}

/// Serializes and re-parses every segment; returns the wire bytes.
pub fn wire_pass(segs: &[AnySegment]) -> u64 {
    fn roundtrip<V: Value>(seg: &Segment<V>) -> u64 {
        let bytes = seg.to_bytes();
        black_box(Segment::<V>::try_from_bytes(&bytes).expect("own bytes parse"));
        bytes.len() as u64
    }
    span("core.wire", || segs.iter().map(|s| with_segment!(s, s => roundtrip(s))).sum())
}

/// Frames (length prefix + CRC32C) one payload; returns its bytes.
pub fn frame_pass(payload: &[u8]) -> u64 {
    span("core.frame_encode", || {
        black_box(frame::encode(payload));
        payload.len() as u64
    })
}

/// A segment's decoded values with the plan the analyzer picks for them.
pub enum AnySample {
    I32(Vec<i32>, Plan<i32>),
    I64(Vec<i64>, Plan<i64>),
    U32(Vec<u32>, Plan<u32>),
}

macro_rules! with_sample {
    ($any:expr, ($vals:ident, $plan:ident) => $body:expr) => {
        match $any {
            AnySample::I32($vals, $plan) => $body,
            AnySample::I64($vals, $plan) => $body,
            AnySample::U32($vals, $plan) => $body,
        }
    };
}

/// Analyzer and compressor input: the decoded values of these segments.
pub fn samples(segs: &[&AnySegment]) -> Vec<AnySample> {
    fn sample<V: Value>(seg: &Segment<V>) -> Option<(Vec<V>, Plan<V>)> {
        let values = seg.decompress();
        let plan = analyze(&values, &AnalyzeOpts::default()).best()?.plan.clone();
        Some((values, plan))
    }
    let each = segs.iter().filter_map(|s| match s {
        AnySegment::I32(s) => sample(s).map(|(v, p)| AnySample::I32(v, p)),
        AnySegment::I64(s) => sample(s).map(|(v, p)| AnySample::I64(v, p)),
        AnySegment::U32(s) => sample(s).map(|(v, p)| AnySample::U32(v, p)),
    });
    each.collect()
}

pub fn analyze_pass(samples: &[AnySample]) -> u64 {
    span("core.analyze", || {
        let pass = samples.iter().map(|s| {
            with_sample!(s, (vals, _plan) => {
                black_box(analyze(vals, &AnalyzeOpts::default()));
                vals.len() as u64
            })
        });
        pass.sum()
    })
}

pub fn compress_pass(samples: &[AnySample]) -> u64 {
    span("core.compress_with_plan", || {
        let pass = samples.iter().map(|s| {
            with_sample!(s, (vals, plan) => {
                black_box(compress_with_plan(vals, plan));
                vals.len() as u64
            })
        });
        pass.sum()
    })
}

// ---------------------------------------------------------------------
// bitpack: the kernels alone, at each segment's own width and layout
// ---------------------------------------------------------------------

#[derive(Clone, Copy)]
enum Unpack {
    /// PDICT: codes index a dictionary, nothing is added.
    Plain,
    For32,
    For64,
    Delta32,
    Delta64,
}

/// One segment's worth of codes, re-packed at the segment's width and
/// layout: what the segment's decode hands to the kernel, without the
/// segment around it.
pub struct Packed {
    b: u32,
    vertical: bool,
    unpack: Unpack,
    codes: Vec<u32>,
    words: Vec<u32>,
}

/// Re-packs each segment's values (masked to the code width) whole
/// vectors at a time; a ragged tail is dropped, rates are per value.
pub fn repack(segs: &[AnySegment]) -> Vec<Packed> {
    fn one<V: Value>(seg: &Segment<V>) -> Packed {
        let n = seg.len() / VECTOR * VECTOR;
        let b = seg.bit_width();
        let mut values = vec![V::default(); n];
        seg.try_decode_range(0, &mut values).expect("aligned range inside the segment");
        let mask = scc_bitpack::mask(b);
        let codes: Vec<u32> = values.iter().map(|v| v.to_u64_lossy() as u32 & mask).collect();
        let vertical = seg.layout() == Layout::Vertical;
        let unpack = match (seg.scheme(), V::BITS) {
            (SchemeKind::Pdict, _) => Unpack::Plain,
            (SchemeKind::Pfor, 32) => Unpack::For32,
            (SchemeKind::Pfor, _) => Unpack::For64,
            (SchemeKind::PforDelta, 32) => Unpack::Delta32,
            (SchemeKind::PforDelta, _) => Unpack::Delta64,
        };
        let mut packed = Packed { b, vertical, unpack, codes, words: vec![0; packed_words(n, b)] };
        pack_one(&mut packed);
        packed
    }
    segs.iter().map(|s| with_segment!(s, s => one(s))).collect()
}

fn pack_one(p: &mut Packed) {
    if p.vertical {
        kernels().vpack(&p.codes, p.b, &mut p.words);
    } else {
        kernels().pack(&p.codes, p.b, &mut p.words);
    }
}

pub fn pack_pass(packed: &mut [Packed]) -> u64 {
    span("bitpack.pack", || {
        packed.iter_mut().for_each(pack_one);
        packed.iter().map(|p| p.codes.len() as u64).sum()
    })
}

/// Words one vector of `b`-bit codes packs into, in either layout.
fn vector_words(b: u32) -> usize {
    VECTOR / 32 * b as usize
}

/// The fused unpack kernels (unpack + FOR add, unpack + running sum),
/// one vector at a time into a cache-resident buffer.
pub fn unpack_pass(packed: &[Packed]) -> u64 {
    span("bitpack.unpack", || {
        let k = kernels();
        let (mut o32, mut o64) = ([0u32; VECTOR], [0u64; VECTOR]);
        for p in packed {
            let (b, stride) = (p.b, vector_words(p.b));
            for v in 0..p.codes.len() / VECTOR {
                let w = &p.words[v * stride..(v + 1) * stride];
                match (p.unpack, p.vertical) {
                    (Unpack::Plain, false) => k.unpack(w, b, &mut o32),
                    (Unpack::Plain, true) => k.vunpack(w, b, &mut o32),
                    (Unpack::For32, false) => k.unpack_for32(w, b, 1000, &mut o32),
                    (Unpack::For32, true) => k.vunpack_for32(w, b, 1000, &mut o32),
                    (Unpack::For64, false) => k.unpack_for64(w, b, 1000, &mut o64),
                    (Unpack::For64, true) => k.vunpack_for64(w, b, 1000, &mut o64),
                    (Unpack::Delta32, false) => k.unpack_delta32(w, b, 1, 1000, &mut o32),
                    (Unpack::Delta32, true) => k.vunpack_delta32(w, b, 1, &[1000; 4], &mut o32),
                    (Unpack::Delta64, false) => k.unpack_delta64(w, b, 1, 1000, &mut o64),
                    (Unpack::Delta64, true) => k.vunpack_delta64(w, b, 1, &[1000; 4], &mut o64),
                }
            }
        }
        black_box((o32, o64));
        packed.iter().map(|p| p.codes.len() as u64).sum()
    })
}

/// The range-compare kernels over the packed codes (the lower half of
/// each code window passes). Delta codes have no compare form.
pub fn cmp_pass(packed: &[Packed]) -> u64 {
    span("bitpack.cmp_range", || {
        let k = kernels();
        let mut flags = [false; VECTOR];
        let mut values = 0;
        for p in packed.iter().filter(|p| !matches!(p.unpack, Unpack::Delta32 | Unpack::Delta64)) {
            let (b, stride, hi) = (p.b, vector_words(p.b), scc_bitpack::mask(p.b) / 2);
            for v in 0..p.codes.len() / VECTOR {
                let w = &p.words[v * stride..(v + 1) * stride];
                if p.vertical {
                    k.vcmp_range(w, b, 0, hi, false, &mut flags);
                } else {
                    k.cmp_range(w, b, 0, hi, false, &mut flags);
                }
            }
            values += p.codes.len() as u64;
        }
        black_box(flags);
        values
    })
}

// ---------------------------------------------------------------------
// server: in-process server, loopback clients
// ---------------------------------------------------------------------

pub struct Served {
    server: Server,
    addr: String,
}

/// Starts the server on a free loopback port with `workers` workers,
/// everything else at `ServerConfig::default()`. Starting a server
/// switches `scc-obs` on: that is the product's behaviour, so the
/// server workloads are measured with it.
pub fn start_server(tables: &Tables, workers: usize) -> Result<Served, String> {
    let mut catalog = Catalog::new();
    catalog.add(Arc::clone(&tables.db.lineitem));
    catalog.add(Arc::clone(&tables.postings));
    let config = ServerConfig { workers, ..ServerConfig::default() };
    let server = Server::start(config, catalog).map_err(|e| e.to_string())?;
    let addr = server.local_addr().to_string();
    Ok(Served { server, addr })
}

impl Served {
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Stops the server and joins its threads.
    pub fn stop(mut self) {
        self.server.stop();
    }
}

static SHED: AtomicU64 = AtomicU64::new(0);

/// Load-shed refusals (`Busy`, `Draining`) any connection has seen.
pub fn shed_seen() -> u64 {
    SHED.load(Ordering::Relaxed)
}

fn refused(e: ClientError) -> String {
    if let ClientError::Server { code: ErrorCode::Busy | ErrorCode::Draining, .. } = e {
        SHED.fetch_add(1, Ordering::Relaxed);
    }
    e.to_string()
}

/// What one streamed scan looked like from the client side (times in
/// reference-clock nanoseconds).
pub struct ScanFrames {
    pub first_frame_ns: u64,
    pub rest_ns: u64,
    pub values: u64,
    pub wire_bytes: u64,
}

/// One protocol connection. The server dedicates a worker to each
/// connection, so never hold more of these than the server has workers.
pub struct Connection(Client);

pub fn connect(addr: &str) -> Result<Connection, String> {
    span("server.connect", || Client::connect(addr).map(Connection).map_err(|e| e.to_string()))
}

impl Connection {
    pub fn segment_range(
        &mut self,
        col: &str,
        row_start: usize,
        row_len: usize,
        raw: bool,
    ) -> Result<Vector, String> {
        span("server.segment_range", || {
            self.0
                .segment_range("lineitem", col, row_start as u64, row_len as u32, raw)
                .map_err(refused)
        })
    }

    /// `Client::scan` of LINEITEM columns: no predicate, one server
    /// thread. Checks the server's row count against what arrived.
    pub fn scan(&mut self, cols: &[&str]) -> Result<Batch, String> {
        span("server.scan", || {
            let (batch, rows) = self.0.scan("lineitem", cols, None, 1).map_err(refused)?;
            if rows != batch.len() as u64 {
                return Err(format!("server streamed {rows} rows, {} arrived", batch.len()));
            }
            Ok(batch)
        })
    }

    /// The same scan taken apart: `send`, then one `recv` per frame, so
    /// time to the first frame and the cost of the stream separate.
    pub fn scan_frames(&mut self, cols: &[&str]) -> Result<ScanFrames, String> {
        let request = Request::Scan {
            table: "lineitem".into(),
            columns: cols.iter().map(|c| c.to_string()).collect(),
            predicate: None,
            threads: 1,
        };
        let (whole, first) = (clock::start(), clock::start());
        span("server.send", || self.0.send(&request)).map_err(refused)?;
        let mut out = ScanFrames { first_frame_ns: 0, rest_ns: 0, values: 0, wire_bytes: 0 };
        let mut responses = vec![span("server.recv", || self.0.recv()).map_err(refused)?];
        out.first_frame_ns = first.stop();
        while matches!(responses.last(), Some(Response::Batch(_))) {
            responses.push(span("server.recv", || self.0.recv()).map_err(refused)?);
        }
        out.rest_ns = whole.stop().saturating_sub(out.first_frame_ns);
        // Outside the timed part: what the frames held and weighed.
        for response in &responses {
            match response {
                Response::Batch(b) => out.values += (b.len() * b.columns.len()) as u64,
                Response::ScanDone { .. } => {}
                other => return Err(format!("scan answered {other:?}")),
            }
            out.wire_bytes +=
                (protocol::encode_response(response).len() + frame::FRAME_OVERHEAD) as u64;
        }
        Ok(out)
    }

    /// A health round trip: the smallest request the protocol has.
    /// Returns the server's windowed median queue wait in microseconds.
    pub fn health(&mut self) -> Result<u32, String> {
        span("server.health", || {
            let (.., window) = self.0.health_window().map_err(refused)?;
            Ok(window.queue_wait_p50_us)
        })
    }
}

/// A scan response frame of the shape the server streams: one vector
/// of rows of these LINEITEM columns.
pub fn response_sample(tables: &Tables, cols: &[&str]) -> Result<Response, String> {
    let rows = VECTOR.min(tables.db.lineitem.n_rows());
    let columns = cols.iter().map(|c| read_rows(&tables.db.lineitem, c, 0, rows));
    Ok(Response::Batch(Batch::new(columns.collect::<Result<_, _>>()?)))
}

fn response_values(response: &Response) -> u64 {
    match response {
        Response::Batch(b) => (b.len() * b.columns.len()) as u64,
        _ => 0,
    }
}

pub fn encode_response_pass(response: &Response) -> (Vec<u8>, u64) {
    span("server.encode_response", || {
        (protocol::encode_response(response), response_values(response))
    })
}

pub fn decode_response_pass(payload: &[u8]) -> u64 {
    span("server.decode_response", || {
        let response = protocol::decode_response(payload).expect("own payload decodes");
        response_values(black_box(&response))
    })
}
