//! The layer ladder. The layers are timed from outside, so they do not
//! nest: the same segments go through successively higher public entry
//! points (kernel -> segment -> scan -> query -> socket), each rung is
//! timed on its own, and a layer's self time is its rung minus the
//! rung below. Only the server rungs nest for real (`send` / `recv`).
//!
//! Every rung repeats its pass for a fixed slice of the run and reports
//! the median pass, in nanoseconds per value (or row, or byte).

use crate::layers::{self, AnySegment, Cfg, Tables};
use crate::stats::median;
use crate::trace;
use crate::workloads::{scan_columns, server_callers, Rng, POINT_ROWS};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Q6's predicate columns; the first carries the date range.
const Q6_PREDICATE_COLUMNS: [&str; 3] = ["l_shipdate", "l_discount", "l_quantity"];
const FRAME_PAYLOAD_BYTES: usize = 64 << 10;
const POINT_READS_PER_SEGMENT: usize = 1024;

/// Calls of `rung` and `rung_timed` below: a traced run divides its
/// ladder time evenly among them.
pub const RUNGS: u32 = 26;

pub struct Ladder {
    pub seed: u64,
    /// How long each rung repeats its pass.
    pub slice: Duration,
    /// Passes a rung makes at least, however long they take.
    pub min_passes: usize,
    pub metrics: Vec<(&'static str, f64)>,
    /// Carried from the in-process rungs to the server rungs:
    /// `storage` scan cost of the columns `server_scan` streams.
    q6_scan_ns_per_value: f64,
}

impl Ladder {
    pub fn new(seed: u64, slice: Duration, min_passes: usize) -> Ladder {
        Ladder { seed, slice, min_passes, metrics: Vec::new(), q6_scan_ns_per_value: 0.0 }
    }

    /// Repeats `pass` (which times itself and returns `(units, ns)`)
    /// after one unrecorded warm pass; the median ns per unit.
    fn rung_timed(
        &self,
        mut pass: impl FnMut(u64) -> Result<(u64, u64), String>,
    ) -> Result<f64, String> {
        pass(0)?;
        let t0 = Instant::now();
        let mut per_unit = Vec::new();
        while per_unit.len() < self.min_passes || t0.elapsed() < self.slice {
            let (units, ns) = pass(1 + per_unit.len() as u64)?;
            per_unit.push(ns as f64 / units.max(1) as f64);
        }
        Ok(median(&per_unit))
    }

    /// A rung whose whole pass is one timed call returning its units.
    fn rung(&self, name: &'static str, mut pass: impl FnMut() -> u64) -> f64 {
        self.rung_timed(|i| Ok(trace::op(name, i, &mut pass))).expect("the pass cannot fail")
    }

    fn emit(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// `bitpack`, `core`, `storage` and `engine` rungs. Run these before
    /// a server starts: starting one switches `scc-obs` on for the
    /// process, and the in-process workloads are measured with it off.
    pub fn in_process(&mut self, t: &Tables) -> Result<(), String> {
        let lineitem = &t.db.lineitem;
        let scan_cols = scan_columns();

        // The segments `decode_scan` reads, per column.
        let mut columns: Vec<Vec<AnySegment>> =
            scan_cols.iter().map(|c| layers::segments(lineitem, c)).collect();
        columns.extend(layers::POSTINGS_COLUMNS.iter().map(|c| layers::segments(&t.postings, c)));
        let firsts: Vec<&AnySegment> = columns.iter().filter_map(|c| c.first()).collect();
        let samples = layers::samples(&firsts);
        let segs: Vec<AnySegment> = columns.into_iter().flatten().collect();
        let predicate_segs: Vec<AnySegment> =
            Q6_PREDICATE_COLUMNS.iter().flat_map(|c| layers::segments(lineitem, c)).collect();
        let shipdate_segs = layers::segments(lineitem, Q6_PREDICATE_COLUMNS[0]);

        // bitpack
        let mut packed = layers::repack(&segs);
        let predicate_packed = layers::repack(&predicate_segs);
        let unpack = self.rung("ladder.bitpack.unpack", || layers::unpack_pass(&packed));
        let pack = self.rung("ladder.bitpack.pack", || layers::pack_pass(&mut packed));
        let cmp = self.rung("ladder.bitpack.cmp_range", || layers::cmp_pass(&predicate_packed));
        drop((packed, predicate_packed));
        self.emit("bitpack.unpack_ns_per_value", unpack);
        self.emit("bitpack.pack_ns_per_value", pack);
        self.emit("bitpack.cmp_ns_per_value", cmp);

        // core
        let decode = self.rung("ladder.core.decode", || layers::decode_pass(&segs));
        self.emit("core.decode_ns_per_value", decode);
        self.emit("core.decode_self_ns_per_value", decode - unpack);
        self.emit("core.efficiency_vs_below", unpack / decode);
        let (exceptions, values) = layers::exceptions(&segs);
        self.emit("core.exception_rate", exceptions as f64 / values as f64);
        let select = self.rung("ladder.core.select", || {
            layers::select_pass(&shipdate_segs, layers::q6_shipdate_from())
        });
        self.emit("core.select_ns_per_value", select);
        let analyze = self.rung("ladder.core.analyze", || layers::analyze_pass(&samples));
        self.emit("core.analyze_ns_per_value", analyze);
        let compress = self.rung("ladder.core.compress", || layers::compress_pass(&samples));
        self.emit("core.compress_ns_per_value", compress);
        let mut rng = Rng::new(self.seed, 0x6E7);
        let positions: Vec<usize> =
            (0..POINT_READS_PER_SEGMENT).map(|_| rng.below(layers::SEGMENT_ROWS)).collect();
        let get = self.rung("ladder.core.get", || layers::get_pass(&segs, &positions));
        self.emit("core.get_ns_per_value", get);
        let payload: Vec<u8> = (0..FRAME_PAYLOAD_BYTES).map(|_| rng.below(256) as u8).collect();
        let frame = self.rung("ladder.core.frame", || layers::frame_pass(&payload));
        self.emit("core.frame_crc_ns_per_byte", frame);
        let wire = self.rung("ladder.core.wire", || layers::wire_pass(&segs));
        self.emit("core.wire_ns_per_byte", wire);
        drop((segs, predicate_segs, shipdate_segs, samples));

        // storage: the `decode_scan` op itself, serial and on two threads
        let scan_values = lineitem.n_rows() * scan_cols.len()
            + t.postings.n_rows() * layers::POSTINGS_COLUMNS.len();
        let full_scan = |cfg: Cfg| -> Result<u64, String> {
            layers::scan_sums(lineitem, &scan_cols, cfg)?;
            layers::scan_sums(&t.postings, &layers::POSTINGS_COLUMNS, cfg)?;
            Ok(scan_values as u64)
        };
        let scan = self.rung_timed(|i| {
            let (values, ns) = trace::op("ladder.storage.scan", i, || full_scan(Cfg::default()));
            Ok((values?, ns))
        })?;
        self.emit("storage.scan_ns_per_value", scan);
        self.emit("storage.scan_self_ns_per_value", scan - decode);
        self.emit("storage.efficiency_vs_below", decode / scan);
        let two = Cfg { two_threads: true, ..Cfg::default() };
        let scan2 = self.rung_timed(|i| {
            let (values, ns) = trace::op("ladder.storage.scan_two_threads", i, || full_scan(two));
            Ok((values?, ns))
        })?;
        self.emit("storage.parallel2_speedup", scan / scan2);

        // engine: each query against a materializing scan of its columns
        let rows = lineitem.n_rows() as u64;
        let column_scan = |ladder: &Self, cols: &[&str]| {
            ladder.rung_timed(|i| {
                let (sums, ns) = trace::op("ladder.storage.scan_query_columns", i, || {
                    layers::scan_sums(lineitem, cols, Cfg::default())
                });
                Ok((sums.map(|_| rows)?, ns))
            })
        };
        let query = |ladder: &Self, name: &'static str, q: u32, cfg: Cfg| {
            ladder.rung(name, || {
                std::hint::black_box(layers::run_query(t, q, cfg));
                rows
            })
        };
        let q1 = query(self, "ladder.engine.q1", 1, Cfg::default());
        let q1_scan = column_scan(self, &layers::query_columns(1))?;
        self.emit("engine.q1_ns_per_row", q1);
        self.emit("engine.q1_self_ns_per_row", q1 - q1_scan);
        let q6_cols = layers::query_columns(6);
        let q6 = query(self, "ladder.engine.q6", 6, Cfg::default());
        let q6_decoding = query(
            self,
            "ladder.engine.q6_decode_then_test",
            6,
            Cfg { code_scan: Some(false), ..Cfg::default() },
        );
        let q6_scan = column_scan(self, &q6_cols)?;
        self.q6_scan_ns_per_value = q6_scan / q6_cols.len() as f64;
        self.emit("engine.q6_ns_per_row", q6);
        // Self time of the decode-then-test plan: with code scans on, Q6
        // can undercut a scan that materializes its columns.
        self.emit("engine.q6_self_ns_per_row", q6_decoding - q6_scan);
        self.emit("engine.q6_code_vs_decode_ratio", q6 / q6_decoding);
        let out = layers::run_query(t, 6, Cfg::default());
        self.emit(
            "engine.q6_decoded_fraction",
            out.decoded as f64 / (out.decoded + out.skipped).max(1) as f64,
        );
        Ok(())
    }

    /// `server` rungs, over one connection at a time, while a second
    /// caller (when there is a second core and so a second worker) keeps
    /// issuing point requests: the rungs then see the contention the
    /// server workloads see. Alone on an idle server they measure where
    /// the scheduler happened to put two threads instead (a health round
    /// trip is 6 us when caller and worker share a vCPU and 36 us, a halt
    /// exit per wake-up, when they do not).
    pub fn served(&mut self, t: &Tables, addr: &str) -> Result<(), String> {
        let (done, seed) = (AtomicBool::new(false), self.seed);
        let background = || -> Result<(), String> {
            let mut conn = layers::connect(addr)?;
            let mut rng = Rng::new(seed, 0xBAC);
            let cols = layers::query_columns(6);
            let last_start = t.db.lineitem.n_rows() - POINT_ROWS;
            while !done.load(Ordering::Relaxed) {
                let (col, start) = (cols[rng.below(cols.len())], rng.below(last_start + 1));
                conn.segment_range(col, start, POINT_ROWS, false)?;
            }
            Ok(())
        };
        std::thread::scope(|s| {
            let second = (server_callers() > 1).then(|| s.spawn(background));
            let rungs = self.served_rungs(t, addr);
            done.store(true, Ordering::Relaxed);
            second.map_or(Ok(()), |h| h.join().expect("the second caller panicked"))?;
            rungs
        })
    }

    fn served_rungs(&mut self, t: &Tables, addr: &str) -> Result<(), String> {
        let lineitem = &t.db.lineitem;
        let cols = layers::query_columns(6);
        let mut rng = Rng::new(self.seed, 0x5E7);

        // A fresh connection per pass; a health call (untimed) makes
        // sure a worker picked it up before it is dropped.
        let connect = self.rung_timed(|i| {
            let (conn, ns) = trace::op("ladder.server.connect", i, || layers::connect(addr));
            conn?.health()?;
            Ok((1, ns))
        })?;
        self.emit("server.connect_us", connect / 1e3);

        let mut conn = layers::connect(addr)?;
        let floor = self.rung_timed(|i| {
            let (reply, ns) = trace::op("ladder.server.health", i, || conn.health());
            Ok((reply.map(|_| 1)?, ns))
        })?;
        self.emit("server.request_floor_us", floor / 1e3);

        // The same slices through the server and straight off the table.
        let last_start = lineitem.n_rows() - POINT_ROWS;
        let slices: Vec<(&str, usize)> =
            (0..256).map(|_| (cols[rng.below(cols.len())], rng.below(last_start + 1))).collect();
        let mut at = 0;
        let point = self.rung_timed(|i| {
            let (col, start) = slices[at % slices.len()];
            at += 1;
            let (got, ns) = trace::op("ladder.server.point", i, || {
                conn.segment_range(col, start, POINT_ROWS, false)
            });
            Ok((got.map(|_| 1)?, ns))
        })?;
        let mut at = 0;
        let local = self.rung_timed(|i| {
            let (col, start) = slices[at % slices.len()];
            at += 1;
            let (got, ns) = trace::op("ladder.storage.point", i, || {
                layers::read_rows(lineitem, col, start, POINT_ROWS)
            });
            Ok((got.map(|_| 1)?, ns))
        })?;
        self.emit("storage.point_read_us", local / 1e3);
        self.emit("server.point_self_us", (point - local) / 1e3);

        // A streamed scan taken apart frame by frame. Time to the first
        // frame and the rest of the stream are medians of their own.
        let (mut first, mut wire_per_value) = (Vec::new(), 0.0);
        let stream = self.rung_timed(|i| {
            let (frames, _) = trace::op("ladder.server.scan_frames", i, || conn.scan_frames(&cols));
            let frames = frames?;
            first.push(frames.first_frame_ns as f64);
            wire_per_value = frames.wire_bytes as f64 / frames.values as f64;
            Ok((frames.values, frames.rest_ns))
        })?;
        self.emit("server.ttfb_us", median(&first) / 1e3);
        self.emit("server.stream_ns_per_value", stream);
        self.emit("server.wire_bytes_per_value", wire_per_value);

        // The `server_scan` op against the storage scan of its columns.
        let scan = self.rung_timed(|i| {
            let (batch, ns) = trace::op("ladder.server.scan", i, || conn.scan(&cols));
            let batch = batch?;
            Ok(((batch.len() * batch.columns.len()) as u64, ns))
        })?;
        self.emit("server.scan_self_ns_per_value", scan - self.q6_scan_ns_per_value);
        self.emit("server.efficiency_vs_below", self.q6_scan_ns_per_value / scan);

        let response = layers::response_sample(t, &cols)?;
        let mut payload = Vec::new();
        let encode = self.rung_timed(|i| {
            let ((bytes, values), ns) = trace::op("ladder.server.encode_response", i, || {
                layers::encode_response_pass(&response)
            });
            payload = bytes;
            Ok((values, ns))
        })?;
        self.emit("server.encode_response_ns_per_value", encode);
        let decode =
            self.rung("ladder.server.decode_response", || layers::decode_response_pass(&payload));
        self.emit("server.decode_response_ns_per_value", decode);

        // Whole segments shipped compressed and decoded by the client.
        let segment_rows = layers::SEGMENT_ROWS.min(lineitem.n_rows());
        let whole_segments = (lineitem.n_rows() / segment_rows).max(1);
        let mut at = 0;
        let raw = self.rung_timed(|i| {
            let (col, seg) = (cols[at % cols.len()], at / cols.len() % whole_segments);
            at += 1;
            let (got, ns) = trace::op("ladder.server.raw_segment", i, || {
                conn.segment_range(col, seg * segment_rows, segment_rows, true)
            });
            Ok((got.map(|v| v.len() as u64)?, ns))
        })?;
        self.emit("server.raw_range_ns_per_value", raw);

        self.emit("server.queue_wait_p50_us", f64::from(conn.health()?));
        self.emit("server.shed", layers::shed_seen() as f64);
        Ok(())
    }
}
