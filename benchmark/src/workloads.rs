//! The six workloads: what each sets up, what one op is, and how its
//! output is checked. Why each exists is recorded in `BENCHMARK.json`
//! and README.md.

use crate::clock;
use crate::layers::{self, Batch, Cfg, Footprint, Raw, Served, Tables};
use crate::trace::{self, Span};
use std::time::{Duration, Instant};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    Encode,
    DecodeScan,
    TpchQ1,
    TpchQ6,
    ServerPoint,
    ServerScan,
}

/// Rows one `server_point` request asks for.
pub const POINT_ROWS: usize = 1024;

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::Encode,
        Workload::DecodeScan,
        Workload::TpchQ1,
        Workload::TpchQ6,
        Workload::ServerPoint,
        Workload::ServerScan,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Encode => "encode",
            Workload::DecodeScan => "decode_scan",
            Workload::TpchQ1 => "tpch_q1",
            Workload::TpchQ6 => "tpch_q6",
            Workload::ServerPoint => "server_point",
            Workload::ServerScan => "server_scan",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn serves(self) -> bool {
        matches!(self, Workload::ServerPoint | Workload::ServerScan)
    }

    /// Closed-loop callers: one, except against the server.
    pub fn threads(self) -> usize {
        if self.serves() {
            server_callers()
        } else {
            1
        }
    }

    /// The LINEITEM columns the workload touches (`encode` builds, and
    /// `decode_scan` also reads, both POSTINGS columns on top).
    fn lineitem_columns(self, tables: &Tables) -> Vec<&str> {
        match self {
            Workload::Encode => layers::value_columns(&tables.db.lineitem),
            Workload::DecodeScan => scan_columns(),
            Workload::TpchQ1 => layers::query_columns(1),
            Workload::TpchQ6 | Workload::ServerPoint | Workload::ServerScan => {
                layers::query_columns(6)
            }
        }
    }

    /// Exact size of the columns the workload touches.
    pub fn footprint(self, tables: &Tables) -> Footprint {
        let lineitem = layers::footprint(&tables.db.lineitem, &self.lineitem_columns(tables));
        match self {
            Workload::Encode | Workload::DecodeScan => {
                lineitem + layers::footprint(&tables.postings, &layers::POSTINGS_COLUMNS)
            }
            _ => lineitem,
        }
    }

    /// Logical column values one op processes.
    pub fn values_per_op(self, tables: &Tables) -> u64 {
        match self {
            Workload::ServerPoint => POINT_ROWS as u64,
            _ => self.footprint(tables).values,
        }
    }
}

/// Callers against the server, one connection each, and the server's
/// workers (it dedicates a worker to a connection): one per core, up to
/// two.
pub fn server_callers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// Q1's and Q6's LINEITEM columns, each once: what `decode_scan` reads.
pub fn scan_columns() -> Vec<&'static str> {
    let mut cols = layers::query_columns(1);
    for c in layers::query_columns(6) {
        if !cols.contains(&c) {
            cols.push(c);
        }
    }
    cols
}

/// What set-up leaves behind. `encode` works from raw columns; every
/// other workload from the compressed tables, two of them through a
/// server.
pub struct Fixture {
    pub raw: Option<Raw>,
    pub tables: Option<Tables>,
    pub served: Option<Served>,
    /// How long each phase of set-up took, in reference-clock seconds.
    pub gen_s: f64,
    pub compress_s: f64,
    pub server_start_s: f64,
}

impl Fixture {
    /// Generates the data and compresses it if `workload` reads tables.
    /// `everything` compresses whatever the workload (the traced pass
    /// runs the layer ladder over the tables).
    pub fn set_up(workload: Workload, scale: f64, seed: u64, everything: bool) -> Fixture {
        let mut fx = Fixture {
            raw: None,
            tables: None,
            served: None,
            gen_s: 0.0,
            compress_s: 0.0,
            server_start_s: 0.0,
        };
        let stopwatch = clock::start();
        let raw = layers::generate(scale, seed);
        fx.gen_s = stopwatch.stop_seconds();
        let keeps_raw = workload == Workload::Encode;
        if everything || !keeps_raw {
            let stopwatch = clock::start();
            fx.tables = Some(layers::compress(raw));
            fx.compress_s = stopwatch.stop_seconds();
            if keeps_raw {
                fx.raw = Some(layers::generate(scale, seed));
            }
        } else {
            fx.raw = Some(raw);
        }
        fx
    }

    pub fn start_server(&mut self, workers: usize) -> Result<(), String> {
        let stopwatch = clock::start();
        let tables = self.tables.as_ref().expect("a server needs tables");
        self.served = Some(layers::start_server(tables, workers)?);
        self.server_start_s = stopwatch.stop_seconds();
        Ok(())
    }

    /// Reference-clock seconds from nothing to ready for the first op.
    pub fn setup_s(&self) -> f64 {
        self.gen_s + self.compress_s + self.server_start_s
    }

    pub fn tables(&self) -> &Tables {
        self.tables.as_ref().expect("set-up compressed the tables")
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        if let Some(served) = self.served.take() {
            served.stop();
        }
    }
}

/// The result every op is checked against, computed outside the timed
/// window from the plain (`Uncompressed`) representation of `reference`.
pub enum Expected {
    /// Checked against the reference data itself, op by op.
    Reference,
    Sums {
        lineitem: Vec<u64>,
        postings: Vec<u64>,
    },
    Batch(Batch),
}

impl Expected {
    pub fn compute(workload: Workload, reference: &Fixture) -> Result<Expected, String> {
        let plain = Cfg { uncompressed: true, ..Cfg::default() };
        Ok(match workload {
            Workload::Encode | Workload::ServerPoint => Expected::Reference,
            Workload::DecodeScan => {
                let t = reference.tables();
                Expected::Sums {
                    lineitem: layers::scan_sums(&t.db.lineitem, &scan_columns(), plain)?,
                    postings: layers::scan_sums(&t.postings, &layers::POSTINGS_COLUMNS, plain)?,
                }
            }
            Workload::TpchQ1 => {
                Expected::Batch(layers::run_query(reference.tables(), 1, plain).batch)
            }
            Workload::TpchQ6 => {
                Expected::Batch(layers::run_query(reference.tables(), 6, plain).batch)
            }
            Workload::ServerScan => {
                let lineitem = &reference.tables().db.lineitem;
                Expected::Batch(layers::scan_collect(lineitem, &layers::query_columns(6), plain)?)
            }
        })
    }
}

/// One op's latency and whether its output was right. A failed or
/// refused op is wrong.
pub struct Outcome {
    pub ns: u64,
    pub ok: bool,
}

/// xorshift64*: request offsets come from the seed, not from the clock.
pub struct Rng(u64);

impl Rng {
    /// An independent stream per `(seed, stream)`, through one
    /// splitmix64 step so that neighbouring seeds do not collide.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut z = seed.wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Rng((z ^ (z >> 31)) | 1)
    }

    pub fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        (self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 33) as usize % n
    }
}

/// What one phase of closed-loop load produced.
#[derive(Default)]
pub struct Phase {
    /// Latencies of the verified ops, per caller, in completion order.
    pub latencies_ns: Vec<Vec<u64>>,
    pub attempted: u64,
    pub failed: u64,
    /// Spans per caller, when the phase was traced.
    pub spans: Vec<Vec<Span>>,
}

#[derive(Clone, Copy)]
pub struct Load<'a> {
    pub workload: Workload,
    pub fixture: &'a Fixture,
    pub reference: &'a Fixture,
    pub expected: &'a Expected,
    pub seed: u64,
}

type Op<'a> = Box<dyn FnMut(u64) -> Outcome + 'a>;

impl<'a> Load<'a> {
    /// Builds one caller's op: the timed product call, then the untimed
    /// check of what it returned.
    fn op(&self, thread: usize) -> Result<Op<'a>, String> {
        let Load { workload, fixture: fx, reference, expected, seed } = *self;
        let name = workload.name();
        let connect =
            || layers::connect(fx.served.as_ref().expect("set-up started the server").addr());
        Ok(match workload {
            Workload::Encode => {
                let raw = fx.raw.as_ref().expect("set-up kept the raw columns");
                let want = reference.raw.as_ref().expect("the reference kept its raw columns");
                Box::new(move |i| {
                    let ((lineitem, postings), ns) = trace::op(name, i, || {
                        (
                            layers::build_table("lineitem", &raw.lineitem()),
                            layers::build_table("postings", &raw.postings()),
                        )
                    });
                    let ok = layers::table_matches(&lineitem, &want.lineitem())
                        && layers::table_matches(&postings, &want.postings());
                    Outcome { ns, ok }
                })
            }
            Workload::DecodeScan => {
                let (tables, cols) = (fx.tables(), scan_columns());
                let Expected::Sums { lineitem, postings } = expected else { unreachable!() };
                Box::new(move |i| {
                    let ((l, p), ns) = trace::op(name, i, || {
                        (
                            layers::scan_sums(&tables.db.lineitem, &cols, Cfg::default()),
                            layers::scan_sums(
                                &tables.postings,
                                &layers::POSTINGS_COLUMNS,
                                Cfg::default(),
                            ),
                        )
                    });
                    Outcome { ns, ok: l.as_ref() == Ok(lineitem) && p.as_ref() == Ok(postings) }
                })
            }
            Workload::TpchQ1 | Workload::TpchQ6 => {
                let q = if workload == Workload::TpchQ1 { 1 } else { 6 };
                let Expected::Batch(want) = expected else { unreachable!() };
                Box::new(move |i| {
                    let (out, ns) =
                        trace::op(name, i, || layers::run_query(fx.tables(), q, Cfg::default()));
                    Outcome { ns, ok: out.batch == *want }
                })
            }
            Workload::ServerPoint => {
                let mut conn = connect()?;
                let mut rng = Rng::new(seed, thread as u64);
                let cols = layers::query_columns(6);
                let replica = &reference.tables().db.lineitem;
                let last_start = fx.tables().db.lineitem.n_rows() - POINT_ROWS;
                Box::new(move |i| {
                    let (col, start) = (cols[rng.below(cols.len())], rng.below(last_start + 1));
                    let (got, ns) =
                        trace::op(name, i, || conn.segment_range(col, start, POINT_ROWS, false));
                    Outcome {
                        ns,
                        ok: got.is_ok()
                            && got == layers::read_rows(replica, col, start, POINT_ROWS),
                    }
                })
            }
            Workload::ServerScan => {
                let mut conn = connect()?;
                let cols = layers::query_columns(6);
                let Expected::Batch(want) = expected else { unreachable!() };
                Box::new(move |i| {
                    let (got, ns) = trace::op(name, i, || conn.scan(&cols));
                    Outcome { ns, ok: got.as_ref() == Ok(want) }
                })
            }
        })
    }
}

impl Load<'_> {
    /// Runs the workload's callers: ops for `warmup` that are thrown
    /// away, then ops for `measure` that are kept. Every caller issues
    /// its next op when the previous one has been answered and checked.
    /// With `trace_epoch` the measured ops are recorded as spans, timed
    /// from that instant.
    pub fn drive(
        &self,
        warmup: Duration,
        measure: Duration,
        trace_epoch: Option<Instant>,
    ) -> Result<Phase, String> {
        let threads = self.workload.threads();
        let began = Instant::now();
        let caller = |thread: usize| -> Result<(Vec<u64>, u64, Vec<Span>), String> {
            let mut op = self.op(thread)?;
            let mut i = thread as u64;
            while began.elapsed() < warmup {
                op(i);
                i += threads as u64;
            }
            if let Some(epoch) = trace_epoch {
                trace::enable(epoch);
            }
            let (mut latencies, mut failed) = (Vec::new(), 0);
            loop {
                let outcome = op(i);
                i += threads as u64;
                if outcome.ok {
                    latencies.push(outcome.ns);
                } else {
                    failed += 1;
                }
                if began.elapsed() >= warmup + measure {
                    return Ok((latencies, failed, trace::take()));
                }
            }
        };
        let caller = &caller;
        let callers: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads).map(|t| s.spawn(move || caller(t))).collect();
            handles.into_iter().map(|h| h.join().expect("a caller panicked")).collect()
        });
        let mut phase = Phase::default();
        for caller in callers {
            let (latencies, failed, spans) = caller?;
            phase.attempted += latencies.len() as u64 + failed;
            phase.failed += failed;
            phase.latencies_ns.push(latencies);
            phase.spans.push(spans);
        }
        Ok(phase)
    }
}
