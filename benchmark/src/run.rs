//! One run of one workload in this process: set-up, a warm-up, the
//! measured phase, and the metrics. Untraced runs give the end-to-end
//! metrics; traced runs give the per-layer metrics and a span file, and
//! their end-to-end numbers are never reported.

use crate::clock;
use crate::ladder::{self, Ladder};
use crate::layers::{self, Footprint};
use crate::stats::{chunked_rate, median, percentile};
use crate::trace;
use crate::workloads::{server_callers, Expected, Fixture, Load, Phase, Workload};
use std::time::{Duration, Instant};

/// TPC-H scale factor: about 600 k LINEITEM rows in ten 64 Ki-row
/// segments. README.md has the arithmetic behind the choice.
const SCALE: f64 = 0.1;
const SMOKE_SCALE: f64 = 0.02;
const WARMUP: Duration = Duration::from_secs(2);
/// Set-ups per untraced run; the median is reported as `setup_s`.
const SETUPS: usize = 3;

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// One second per phase on a fifth of the data: same code paths,
    /// same checks, for the package's own tests.
    pub smoke: bool,
    /// Check against results computed from another seed's data, which
    /// must fail every op: shows that verification is live.
    pub sabotage: bool,
}

pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
    /// Context that is not a metric: sizes, sample counts, tail.
    pub notes: Vec<(&'static str, String)>,
}

impl Args {
    fn scale(&self) -> f64 {
        if self.smoke {
            SMOKE_SCALE
        } else {
            SCALE
        }
    }

    fn measure(&self) -> Duration {
        Duration::from_secs_f64(if self.smoke { self.seconds.min(1.0) } else { self.seconds })
    }

    /// The data results are checked against: this run's own, unless
    /// sabotaged.
    fn reference(&self, everything: bool) -> Option<Fixture> {
        self.sabotage
            .then(|| Fixture::set_up(self.workload, self.scale(), self.seed ^ 1, everything))
    }
}

pub fn run(args: &Args) -> Result<Report, String> {
    if args.trace {
        per_layer(args)
    } else {
        end_to_end(args)
    }
}

fn latencies_us(phase: &Phase) -> Vec<f64> {
    phase.latencies_ns.iter().flatten().map(|ns| *ns as f64 / 1e3).collect()
}

fn ops_per_s(phase: &Phase) -> f64 {
    phase.latencies_ns.iter().filter(|l| !l.is_empty()).map(|l| chunked_rate(l)).sum()
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?.trim().parse().ok());
    kb.unwrap_or(0.0) / 1024.0
}

fn size_notes(
    notes: &mut Vec<(&'static str, String)>,
    fp: Footprint,
    phase: &Phase,
    threads: usize,
) {
    notes.push(("working_set_values", fp.values.to_string()));
    notes.push(("working_set_compressed_bytes", fp.compressed_bytes.to_string()));
    notes.push(("working_set_decoded_bytes", fp.decoded_bytes.to_string()));
    notes.push(("callers", threads.to_string()));
    notes.push(("samples", latencies_us(phase).len().to_string()));
    // Times are reference-clock times; divide by this for wall time.
    notes.push(("clock_speed_mean", format!("{:.4}", clock::mean_speed())));
}

fn end_to_end(args: &Args) -> Result<Report, String> {
    let w = args.workload;
    let (setups, warmup) = if args.smoke { (1, WARMUP / 10) } else { (SETUPS, WARMUP) };
    let set_up = || -> Result<Fixture, String> {
        let mut fx = Fixture::set_up(w, args.scale(), args.seed, false);
        if w.serves() {
            fx.start_server(w.threads())?;
        }
        Ok(fx)
    };
    let mut fixture = set_up()?;
    let mut setup_s = vec![fixture.setup_s()];
    let other = args.reference(false);
    let reference = other.as_ref().unwrap_or(&fixture);
    let expected = Expected::compute(w, reference)?;
    let load =
        Load { workload: w, fixture: &fixture, reference, expected: &expected, seed: args.seed };
    let phase = load.drive(warmup, args.measure(), None)?;
    // Memory is what one set-up and the load on it need; the set-ups
    // repeated below, for a steadier `setup_s`, are the harness's.
    let peak_rss_mb = peak_rss_mb();

    // `encode` never needed tables; build them now to size its output.
    if fixture.tables.is_none() {
        fixture.tables = fixture.raw.take().map(layers::compress);
    }
    let fp = w.footprint(fixture.tables());
    let values_per_op = w.values_per_op(fixture.tables());
    drop(fixture);
    for _ in 1..setups {
        setup_s.push(set_up()?.setup_s());
    }
    let rate = ops_per_s(&phase);
    let lat = latencies_us(&phase);
    let mut report = Report {
        attempted: phase.attempted,
        failed: phase.failed,
        metrics: Vec::new(),
        notes: Vec::new(),
    };
    if !lat.is_empty() {
        report.metrics = vec![
            ("ops_per_s", rate),
            ("op_p50_us", median(&lat)),
            ("values_per_s", rate * values_per_op as f64),
            ("bytes_per_value", fp.compressed_bytes as f64 / fp.values as f64),
            ("setup_s", median(&setup_s)),
            ("peak_rss_mb", peak_rss_mb),
        ];
        report.notes.push(("op_p95_us", format!("{:.3}", percentile(&lat, 0.95))));
    }
    size_notes(&mut report.notes, fp, &phase, w.threads());
    Ok(report)
}

fn per_layer(args: &Args) -> Result<Report, String> {
    let w = args.workload;
    let epoch = Instant::now();
    let mut fixture = Fixture::set_up(w, args.scale(), args.seed, true);
    let other = args.reference(true);
    // Half the run for the op loop, half for the ladder.
    let phase_len = args.measure().mul_f64(0.2);
    let slice = args.measure().mul_f64(0.5) / ladder::RUNGS;
    let min_passes = if args.smoke { 1 } else { 3 };

    // The op loop, untraced then traced: the ratio is what the span
    // recorder costs, and the traced spans are the ones written out.
    let op_loop = |fixture: &Fixture| -> Result<(Phase, Phase), String> {
        let reference = other.as_ref().unwrap_or(fixture);
        let expected = Expected::compute(w, reference)?;
        let load = Load { workload: w, fixture, reference, expected: &expected, seed: args.seed };
        let plain = load.drive(phase_len / 2, phase_len, None)?;
        Ok((plain, load.drive(Duration::ZERO, phase_len, Some(epoch))?))
    };

    let mut phases = None;
    if !w.serves() {
        phases = Some(op_loop(&fixture)?);
    }
    // This thread records the ladder; the op loop's callers are threads
    // of their own and record themselves.
    trace::enable(epoch);
    let mut ladder = Ladder::new(args.seed, slice, min_passes);
    ladder.in_process(fixture.tables())?;
    fixture.start_server(server_callers())?;
    if w.serves() {
        phases = Some(op_loop(&fixture)?);
    }
    ladder.served(fixture.tables(), fixture.served.as_ref().expect("just started").addr())?;
    let mut spans = vec![trace::take()];
    let mut metrics = ladder.metrics;

    let (plain, mut traced) = phases.expect("the op loop ran before or after the server started");
    spans.append(&mut traced.spans);
    metrics.push(("setup.gen_s", fixture.gen_s));
    metrics.push(("setup.compress_s", fixture.compress_s));
    metrics.push(("setup.server_start_s", fixture.server_start_s));
    let lat = latencies_us(&plain);
    let mut notes = Vec::new();
    // (A sabotaged run has no verified op to take a latency from.)
    if !lat.is_empty() && !traced.latencies_ns.iter().all(Vec::is_empty) {
        metrics.push(("loadgen.op_p95_us", percentile(&lat, 0.95)));
        metrics.push(("loadgen.samples", lat.len() as f64));
        metrics.push(("loadgen.trace_overhead_ratio", ops_per_s(&traced) / ops_per_s(&plain)));
    }
    size_notes(&mut notes, w.footprint(fixture.tables()), &plain, w.threads());

    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let file = dir.join(format!("trace_{}.json", w.name()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    std::fs::write(&file, trace::to_json(spans).compact())
        .map_err(|e| format!("{}: {e}", file.display()))?;
    notes.push(("trace_file", file.display().to_string()));

    Ok(Report {
        attempted: plain.attempted + traced.attempted,
        failed: plain.failed + traced.failed,
        metrics,
        notes,
    })
}
