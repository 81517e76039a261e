//! `scc` — command-line compressor for columns of little-endian integers.
//!
//! ```text
//! scc analyze    <in.bin>  [--type u32|i32|u64|i64]
//! scc compress   <in.bin>  <out.scc> [--type T] [--scheme auto|pfor|pfordelta|pdict] [--bits B]
//! scc decompress <in.scc>  <out.bin>
//! scc inspect    <in.scc>
//! scc verify     <in.scc>
//! scc explain    [--queries 1,6] [--sf 0.01] [--threads N] [--no-code-scan]
//!                [--metrics-json <out.json>]
//! scc serve      [--addr A] [--workers N] [--rows R] [--queue-depth Q] [--deadline-ms D]
//!                [--drain-ms D] [--write-timeout-ms W]
//!                [--trace-out <trace.json>] [--trace-sample R] [--trace-slow-ms M]
//! scc loadgen    [--addr A] [--requests N] [--threads T] [--rows R] [--corrupt]
//!                [--chaos] [--chaos-seed S] [--retry-attempts N] [--retry-deadline-ms D]
//!                [--stats-json <out.json>] [--client-metrics-json <out.json>]
//!                [--report-json <out.json>] [--shutdown] [--force]
//!                [--trace-json <trace.json>] [--trace-sample R]
//! scc cluster-serve --topology <file> --node <index> [--rows R] [--workers N]
//! scc top        [--addr A] [--interval-ms I] [--iterations N] [--no-clear]
//! ```
//!
//! File format: `SCCF` magic, a type tag, a segment count, then
//! length-prefixed `scc_core` wire segments of up to 2^20 values each.
//!
//! Corrupt or truncated inputs never panic: every structural defect is
//! reported as a typed [`scc::core::Error`] mapped to a message and a
//! nonzero exit. `scc verify` checks each segment's checksums without
//! decompressing and reports the first corrupt byte offset.

use scc::core::wire::{self, WireError};
use scc::core::{analyze, compress_with_plan, frame, AnalyzeOpts, Error, Plan, Segment, Value};
use std::fs;
use std::process::ExitCode;

const FILE_MAGIC: &[u8; 4] = b"SCCF";
const SEG_VALUES: usize = 1 << 20;

fn type_tag(name: &str) -> Option<u8> {
    match name {
        "u32" => Some(1),
        "i32" => Some(2),
        "u64" => Some(3),
        "i64" => Some(4),
        _ => None,
    }
}

fn die(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!(
        "usage:\n  scc analyze    <in.bin> [--type T]\n  scc compress   <in.bin> <out.scc> \
         [--type T] [--scheme auto|pfor|pfordelta|pdict] [--bits B]\n  scc decompress <in.scc> \
         <out.bin>\n  scc inspect    <in.scc>\n  scc verify     <in.scc>\n  scc explain    \
         [--queries 1,6] [--sf 0.01] [--threads N] [--no-code-scan] [--metrics-json <out.json>]\n  scc serve      \
         [--addr A] [--workers N] [--rows R] [--queue-depth Q] [--deadline-ms D] [--drain-ms D] \
         [--write-timeout-ms W] [--trace-out J] [--trace-sample R] [--trace-slow-ms M]\n  \
         scc loadgen    \
         [--addr A] [--requests N] [--threads T] [--rows R] [--corrupt] [--chaos] \
         [--chaos-seed S] [--retry-attempts N] [--retry-deadline-ms D] \
         [--stats-json J] [--client-metrics-json J] \
         [--report-json J] [--shutdown] [--force] [--trace-json J] [--trace-sample R]\n  \
         scc cluster-serve --topology F --node I [--rows R] [--workers N]\n  \
         scc top        [--addr A] [--interval-ms I] [--iterations N] [--no-clear]\n  \
         (T = u32|i32|u64|i64, default u32)"
    );
    ExitCode::FAILURE
}

fn parse_values<V: Value>(bytes: &[u8]) -> Result<Vec<V>, String> {
    let w = V::byte_width();
    if !bytes.len().is_multiple_of(w) {
        return Err(format!("input length {} is not a multiple of {w}", bytes.len()));
    }
    Ok(bytes.chunks_exact(w).map(V::read_le).collect())
}

fn pick_plan<V: Value>(values: &[V], scheme: &str, bits: Option<u32>) -> Result<Plan<V>, String> {
    let analysis = analyze(values, &AnalyzeOpts::default());
    let matches_scheme = |p: &Plan<V>| match scheme {
        "auto" => true,
        "pfor" => matches!(p, Plan::Pfor { .. }),
        "pfordelta" => matches!(p, Plan::PforDelta { .. }),
        "pdict" => matches!(p, Plan::Pdict { .. }),
        _ => false,
    };
    if !["auto", "pfor", "pfordelta", "pdict"].contains(&scheme) {
        return Err(format!("unknown scheme {scheme}"));
    }
    analysis
        .candidates
        .iter()
        .filter(|c| matches_scheme(&c.plan))
        .filter(|c| bits.is_none_or(|b| c.plan.bit_width() == b))
        .map(|c| c.plan.clone())
        .next()
        .ok_or_else(|| format!("no {scheme} candidate at the requested width"))
}

fn cmd_analyze<V: Value>(values: &[V]) {
    let analysis = analyze(values, &AnalyzeOpts::default());
    println!(
        "{} values of {}; plain storage {} bytes",
        values.len(),
        V::NAME,
        values.len() * V::byte_width()
    );
    println!("{:<12} {:>4} {:>14} {:>10}", "scheme", "b", "est bits/value", "est ratio");
    for cand in analysis.candidates.iter().take(6) {
        println!(
            "{:<12} {:>4} {:>14.2} {:>9.2}x",
            cand.plan.name(),
            cand.plan.bit_width(),
            cand.est_bits_per_value,
            V::BITS as f64 / cand.est_bits_per_value
        );
    }
    if !analysis.worthwhile() {
        println!("(recommendation: store plain)");
    }
}

fn cmd_compress<V: Value>(
    values: &[V],
    out_path: &str,
    scheme: &str,
    bits: Option<u32>,
) -> Result<(), String> {
    let plan = pick_plan(values, scheme, bits)?;
    let mut out = Vec::new();
    out.extend_from_slice(FILE_MAGIC);
    out.push(type_tag(V::NAME).expect("known type"));
    let n_segs = values.len().div_ceil(SEG_VALUES).max(1);
    out.extend_from_slice(&(n_segs as u32).to_le_bytes());
    let mut total_comp = 0usize;
    let chunks: Vec<&[V]> =
        if values.is_empty() { vec![&[][..]] } else { values.chunks(SEG_VALUES).collect() };
    for chunk in chunks {
        let seg = compress_with_plan(chunk, &plan);
        let bytes = seg.to_bytes();
        total_comp += bytes.len();
        frame::put_len_prefixed(&mut out, &bytes);
    }
    fs::write(out_path, &out).map_err(|e| format!("writing {out_path}: {e}"))?;
    let raw = values.len() * V::byte_width();
    println!(
        "{} -> {} bytes ({:.2}x) with {} b={} in {} segment(s)",
        raw,
        total_comp,
        raw as f64 / total_comp.max(1) as f64,
        plan.name(),
        plan.bit_width(),
        values.len().div_ceil(SEG_VALUES).max(1)
    );
    Ok(())
}

/// The `SCCF` preamble's segment count (bytes 5..9).
fn segment_count(bytes: &[u8]) -> Result<usize, Error> {
    if bytes.len() < 9 {
        return Err(Error::Truncated { offset: 5, need: 4, have: bytes.len().saturating_sub(5) });
    }
    Ok(u32::from_le_bytes(bytes[5..9].try_into().unwrap()) as usize)
}

/// The container ends exactly where its last declared segment does: a
/// count that is too small, or bytes appended after the last segment, are
/// corruption rather than data to ignore.
fn expect_end(bytes: &[u8], pos: usize) -> Result<(), Error> {
    if pos == bytes.len() {
        Ok(())
    } else {
        Err(WireError::Corrupt("trailing bytes after the last segment").into())
    }
}

/// Walks the `SCCF` container. Every structural defect — a file too short
/// for the segment count, a length prefix past EOF, bytes past the last
/// segment, a segment body the wire parser rejects — comes back as a
/// typed [`Error`], never a panic.
fn read_segments<V: Value>(bytes: &[u8]) -> Result<Vec<Segment<V>>, Error> {
    let n_segs = segment_count(bytes)?;
    let mut pos = 9usize;
    // The count is untrusted input: grow the vec lazily rather than
    // pre-reserving an attacker-chosen capacity.
    let mut segs = Vec::new();
    for _ in 0..n_segs {
        let seg_bytes = frame::take_len_prefixed(bytes, &mut pos)?;
        segs.push(Segment::<V>::try_from_bytes(seg_bytes)?);
    }
    expect_end(bytes, pos)?;
    Ok(segs)
}

fn cmd_decompress<V: Value>(bytes: &[u8], out_path: &str) -> Result<(), String> {
    let mut out = Vec::new();
    for seg in read_segments::<V>(bytes).map_err(|e| e.to_string())? {
        for v in seg.decompress() {
            v.write_le(&mut out);
        }
    }
    fs::write(out_path, &out).map_err(|e| format!("writing {out_path}: {e}"))?;
    println!("wrote {} bytes", out.len());
    Ok(())
}

/// Per-segment integrity check: validates structure and checksums via
/// `wire::verify` without decompressing any data, and reports the file
/// offset of the first corrupt byte range. Type-agnostic — the width is
/// read from each segment's own header.
fn cmd_verify(bytes: &[u8]) -> Result<(), String> {
    let n_segs = segment_count(bytes).map_err(|e| e.to_string())?;
    let mut pos = 9usize;
    let mut corrupt = 0usize;
    let mut verified = 0usize;
    for i in 0..n_segs {
        let data_at = pos + frame::LEN_PREFIX_BYTES;
        let seg_bytes = match frame::take_len_prefixed(bytes, &mut pos) {
            Ok(b) => b,
            Err(e) => {
                println!("  seg {i}: CORRUPT: {e}");
                corrupt += 1;
                break;
            }
        };
        match wire::verify(seg_bytes) {
            Ok(r) => {
                verified += 1;
                println!(
                    "  seg {i}: v{} {:?} {} n={} {} bytes - verified",
                    r.version,
                    r.scheme,
                    r.layout.name(),
                    r.n,
                    r.bytes
                );
            }
            Err(f) => {
                println!("  seg {i}: CORRUPT at file offset {}: {}", data_at + f.offset, f.error);
                corrupt += 1;
            }
        }
    }
    println!("{n_segs} segment(s): {verified} verified, {corrupt} corrupt");
    if corrupt > 0 {
        return Err(format!("{corrupt} corrupt segment(s)"));
    }
    // Every segment framed cleanly, so the walk knows where the file ends.
    expect_end(bytes, pos).map_err(|e| e.to_string())
}

fn cmd_inspect<V: Value>(bytes: &[u8]) -> Result<(), String> {
    let segs = read_segments::<V>(bytes).map_err(|e| e.to_string())?;
    println!("type {}; {} segment(s)", V::NAME, segs.len());
    for (i, seg) in segs.iter().enumerate() {
        let s = seg.stats();
        println!(
            "  seg {i}: {:?} {} b={} n={} exceptions={} ({:.2}%) {} bytes ({:.2}x)",
            seg.scheme(),
            seg.layout().name(),
            s.b,
            s.n,
            s.exceptions,
            100.0 * s.exceptions as f64 / s.n.max(1) as f64,
            s.compressed_bytes,
            s.ratio
        );
    }
    Ok(())
}

/// `scc explain`: EXPLAIN ANALYZE over TPC-H queries against a freshly
/// generated database. Prints one annotated operator tree per query with
/// per-operator rows, vectors, calls and wall time, plus the scan-level
/// I/O counters. `--metrics-json` additionally dumps the full telemetry
/// registry (schema v1).
fn cmd_explain(args: &[String]) -> Result<(), String> {
    let mut sf = 0.01f64;
    let mut queries: Vec<u32> = vec![1, 6];
    let mut metrics_path: Option<String> = None;
    let mut threads = 1usize;
    let mut code_scan = true;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--threads" => {
                threads = args
                    .get(i + 1)
                    .ok_or("--threads needs a value")?
                    .parse()
                    .map_err(|_| "--threads must be a positive integer")?;
                if threads == 0 {
                    return Err("--threads must be at least 1".into());
                }
                i += 2;
            }
            "--sf" => {
                sf = args
                    .get(i + 1)
                    .ok_or("--sf needs a value")?
                    .parse()
                    .map_err(|_| "--sf must be a number")?;
                i += 2;
            }
            "--queries" => {
                queries = args
                    .get(i + 1)
                    .ok_or("--queries needs a comma-separated list")?
                    .split(',')
                    .map(|s| s.trim().parse::<u32>().map_err(|_| format!("bad query number {s}")))
                    .collect::<Result<_, _>>()?;
                i += 2;
            }
            "--metrics-json" => {
                metrics_path = Some(args.get(i + 1).ok_or("--metrics-json needs a path")?.clone());
                i += 2;
            }
            "--no-code-scan" => {
                code_scan = false;
                i += 1;
            }
            other => return Err(format!("unknown explain option {other}")),
        }
    }
    use scc::tpch::queries::{EXTENDED_QUERIES, PAPER_QUERIES};
    for &q in &queries {
        if !PAPER_QUERIES.contains(&q) && !EXTENDED_QUERIES.contains(&q) {
            return Err(format!(
                "query {q} is not implemented (available: {PAPER_QUERIES:?} + {EXTENDED_QUERIES:?})"
            ));
        }
    }

    scc::obs::set_enabled(true);
    println!(
        "decode kernel: {} (override with SCC_KERNEL=scalar|sse41|avx2)",
        scc::bitpack::kernel::active()
    );
    let db = scc::tpch::TpchDb::generate(sf, 20_060_703);
    let cfg = scc::tpch::QueryConfig { threads, code_scan, ..Default::default() };
    for &q in &queries {
        let run = scc::tpch::queries::run_query(&db, &cfg, q);
        println!(
            "Q{q} — {} row(s), {thr} scan thread(s), cpu {:.2} ms, modeled total {:.2} ms",
            run.batch.len(),
            run.cpu_seconds * 1e3,
            run.total_seconds() * 1e3,
            thr = threads,
        );
        print!("{}", run.explain.render());
        println!("  [{}]", run.stats);
        let (decoded, skipped) = run.explain.values_totals();
        if decoded + skipped > 0 {
            println!(
                "  compressed-domain: {decoded} values decoded, {skipped} skipped ({:.1}% \
                 answered in code space)",
                100.0 * skipped as f64 / (decoded + skipped) as f64
            );
        }
        println!();
    }
    let (h, v) = scc::core::telemetry::layout_counts();
    if h + v > 0 {
        println!("segments encoded: {h} horizontal, {v} vertical");
    }
    if let Some(path) = metrics_path {
        scc::core::telemetry::publish_derived();
        scc::obs::export::write_file(scc::obs::global(), std::path::Path::new(&path))
            .map_err(|e| format!("writing {path}: {e}"))?;
        println!("metrics written to {path}");
    }
    Ok(())
}

/// Pulls `--flag value` pairs out of an option list with uniform
/// error messages; used by the server subcommands.
struct OptParser<'a> {
    args: &'a [String],
    i: usize,
}

impl<'a> OptParser<'a> {
    fn new(args: &'a [String]) -> Self {
        Self { args, i: 0 }
    }

    fn next_flag(&mut self) -> Option<&'a str> {
        let flag = self.args.get(self.i)?;
        self.i += 1;
        Some(flag.as_str())
    }

    fn value(&mut self, flag: &str) -> Result<&'a str, String> {
        let v = self.args.get(self.i).ok_or(format!("{flag} needs a value"))?;
        self.i += 1;
        Ok(v.as_str())
    }

    fn parse<T: std::str::FromStr>(&mut self, flag: &str) -> Result<T, String> {
        self.value(flag)?.parse().map_err(|_| format!("{flag}: bad value"))
    }
}

/// `scc serve`: expose the deterministic demo table over TCP (see
/// `docs/SERVER.md`). Blocks until a protocol `Shutdown` request
/// arrives, then prints the service-time percentiles the run observed.
fn cmd_serve(args: &[String]) -> Result<(), String> {
    let mut config =
        scc::server::ServerConfig { addr: "127.0.0.1:7644".into(), ..Default::default() };
    let mut rows = 50_000usize;
    let mut trace_out: Option<String> = None;
    let mut trace_sample: f64 = 0.01;
    let mut trace_slow_ms: Option<u64> = None;
    let mut p = OptParser::new(args);
    while let Some(flag) = p.next_flag() {
        match flag {
            "--addr" => config.addr = p.value(flag)?.to_string(),
            "--workers" => config.workers = p.parse(flag)?,
            "--rows" => rows = p.parse(flag)?,
            "--queue-depth" => config.queue_depth = p.parse(flag)?,
            "--deadline-ms" => config.deadline = std::time::Duration::from_millis(p.parse(flag)?),
            "--drain-ms" => {
                config.drain_deadline = std::time::Duration::from_millis(p.parse(flag)?)
            }
            "--write-timeout-ms" => {
                config.write_timeout = std::time::Duration::from_millis(p.parse(flag)?)
            }
            "--max-scan-threads" => config.max_scan_threads = p.parse(flag)?,
            "--trace-out" => trace_out = Some(p.value(flag)?.to_string()),
            "--trace-sample" => trace_sample = p.parse(flag)?,
            "--trace-slow-ms" => trace_slow_ms = Some(p.parse(flag)?),
            other => return Err(format!("unknown serve option {other}")),
        }
    }
    if rows == 0 || config.workers == 0 {
        return Err("--rows and --workers must be positive".into());
    }
    if let Some(path) = &trace_out {
        if !(0.0..=1.0).contains(&trace_sample) {
            return Err("--trace-sample must be in 0..=1".into());
        }
        scc::obs::trace::configure(scc::obs::trace::TraceConfig {
            sample_rate: trace_sample,
            // 0 = derive from the request deadline (Server::start).
            slow_ns: trace_slow_ms.unwrap_or(0).saturating_mul(1_000_000),
        });
        scc::obs::trace::set_collect(true);
        println!("tracing to {path} (sample {trace_sample}, slow-capture on)");
    } else if trace_slow_ms.is_some() {
        return Err("--trace-slow-ms needs --trace-out".into());
    }
    let mut catalog = scc::server::Catalog::new();
    catalog.add(scc::server::demo_table(rows));
    let workers = config.workers;
    let server =
        scc::server::Server::start(config, catalog).map_err(|e| format!("binding server: {e}"))?;
    println!(
        "scc-server listening on {} ({} worker(s), table demo x {rows} rows)",
        server.local_addr(),
        workers
    );
    server.wait();
    println!("scc-server: shut down cleanly");
    if let Some(path) = &trace_out {
        let n = scc::obs::trace::write_chrome_file(std::path::Path::new(path))
            .map_err(|e| format!("writing {path}: {e}"))?;
        println!("{n} trace span(s) written to {path} (chrome://tracing / Perfetto)");
    }
    for kind in ["segment_range", "scan", "stats"] {
        let hist = scc::obs::global().histogram(&format!("server.service_ns.{kind}"));
        if hist.count() == 0 {
            continue;
        }
        let p = |q| hist.percentile(q).unwrap_or(0) as f64 / 1_000.0;
        println!(
            "  {kind}: {} request(s), service time p50 {:.0}us p95 {:.0}us p99 {:.0}us",
            hist.count(),
            p(0.50),
            p(0.95),
            p(0.99)
        );
    }
    Ok(())
}

/// `scc cluster-serve`: serve one node's slice of the partitioned demo
/// table (see `docs/CLUSTER.md`). The topology file decides which
/// partitions this node hosts (as primary or replica) and which address
/// it binds; every node derives the same placement from the same file.
fn cmd_cluster_serve(args: &[String]) -> Result<(), String> {
    let mut topology_path: Option<String> = None;
    let mut node: Option<usize> = None;
    let mut rows = 50_000usize;
    let mut workers: Option<usize> = None;
    let mut p = OptParser::new(args);
    while let Some(flag) = p.next_flag() {
        match flag {
            "--topology" => topology_path = Some(p.value(flag)?.to_string()),
            "--node" => node = Some(p.parse(flag)?),
            "--rows" => rows = p.parse(flag)?,
            "--workers" => workers = Some(p.parse(flag)?),
            other => return Err(format!("unknown cluster-serve option {other}")),
        }
    }
    let topology_path = topology_path.ok_or("cluster-serve needs --topology <file>")?;
    let node = node.ok_or("cluster-serve needs --node <index>")?;
    let topology = scc::cluster::Topology::load(&topology_path).map_err(|e| e.to_string())?;
    if node >= topology.nodes.len() {
        return Err(format!("--node {node} out of range ({} nodes)", topology.nodes.len()));
    }
    if rows == 0 {
        return Err("--rows must be positive".into());
    }
    let table = scc::server::demo_table(rows);
    let manifest = topology.manifest_for("demo", rows, table.seg_rows());
    let parts = scc::storage::partition_table(&table, &manifest);
    let mut catalog = scc::server::Catalog::new();
    let mut hosted = Vec::new();
    for (pi, part) in parts.iter().enumerate() {
        if manifest.primary[pi] == node || manifest.replica[pi] == node {
            catalog.add(std::sync::Arc::clone(part));
            hosted.push(pi);
        }
    }
    let mut config =
        scc::server::ServerConfig { addr: topology.nodes[node].clone(), ..Default::default() };
    if let Some(w) = workers {
        config.workers = w;
    }
    let server = scc::server::Server::start(config, catalog)
        .map_err(|e| format!("binding shard {node} ({}): {e}", topology.nodes[node]))?;
    println!(
        "scc-cluster shard {node} listening on {} hosting partition(s) {hosted:?} of demo x {rows} rows",
        server.local_addr()
    );
    server.wait();
    println!("scc-cluster shard {node}: shut down cleanly");
    Ok(())
}

/// `scc loadgen`: closed-loop load against a running `scc serve`,
/// verifying every response byte-exactly against a local replica of
/// the demo table (`--rows` must match the server's).
fn cmd_loadgen(args: &[String]) -> Result<(), String> {
    let mut cfg = scc::server::LoadgenConfig::default();
    let mut rows = 50_000usize;
    let mut stats_json: Option<String> = None;
    let mut client_metrics_json: Option<String> = None;
    let mut report_json: Option<String> = None;
    let mut shutdown = false;
    let mut force = false;
    let mut chaos = false;
    let mut chaos_seed: Option<u64> = None;
    let mut trace_json: Option<String> = None;
    let mut trace_sample: f64 = 1.0;
    let mut p = OptParser::new(args);
    while let Some(flag) = p.next_flag() {
        match flag {
            "--addr" => cfg.addr = p.value(flag)?.to_string(),
            "--requests" => cfg.requests = p.parse(flag)?,
            "--threads" => cfg.threads = p.parse(flag)?,
            "--scan-threads" => cfg.scan_threads = p.parse(flag)?,
            "--rows" => rows = p.parse(flag)?,
            "--seed" => cfg.seed = p.parse(flag)?,
            "--corrupt" => cfg.corrupt = true,
            "--chaos" => chaos = true,
            "--chaos-seed" => chaos_seed = Some(p.parse(flag)?),
            "--retry-attempts" => cfg.retry.max_attempts = p.parse(flag)?,
            "--retry-deadline-ms" => {
                cfg.retry.deadline = std::time::Duration::from_millis(p.parse(flag)?)
            }
            "--stats-json" => stats_json = Some(p.value(flag)?.to_string()),
            "--client-metrics-json" => client_metrics_json = Some(p.value(flag)?.to_string()),
            "--report-json" => report_json = Some(p.value(flag)?.to_string()),
            "--shutdown" => shutdown = true,
            "--force" => force = true,
            "--trace-json" => trace_json = Some(p.value(flag)?.to_string()),
            "--trace-sample" => trace_sample = p.parse(flag)?,
            other => return Err(format!("unknown loadgen option {other}")),
        }
    }
    if let Some(_path) = &trace_json {
        if !(0.0..=1.0).contains(&trace_sample) {
            return Err("--trace-sample must be in 0..=1".into());
        }
        // Sampled client requests carry their context to the server,
        // so one trace covers attempts, retries and server phases.
        scc::obs::trace::configure(scc::obs::trace::TraceConfig {
            sample_rate: trace_sample,
            slow_ns: 0,
        });
        scc::obs::trace::set_collect(true);
    }
    if chaos {
        // The composite plan: every fault type at once, deterministic
        // in the seed, with requests riding the default retry policy.
        cfg.chaos = Some(scc::server::ChaosPlan::composite(chaos_seed.unwrap_or(cfg.seed)));
    } else if chaos_seed.is_some() {
        return Err("--chaos-seed needs --chaos".into());
    }
    if force && !shutdown {
        return Err("--force needs --shutdown".into());
    }
    if rows == 0 || cfg.threads == 0 {
        return Err("--rows and --threads must be positive".into());
    }
    let replica = scc::server::demo_table(rows);
    let report = scc::server::run_loadgen(&cfg, &replica)?;
    println!("{}", report.summary());
    if let Some(path) = &trace_json {
        let n = scc::obs::trace::write_chrome_file(std::path::Path::new(path))
            .map_err(|e| format!("writing {path}: {e}"))?;
        println!("{n} trace span(s) written to {path} (chrome://tracing / Perfetto)");
    }
    if let Some(path) = report_json {
        fs::write(&path, report.to_json().pretty() + "\n")
            .map_err(|e| format!("writing {path}: {e}"))?;
        println!("report written to {path}");
    }
    if let Some(path) = stats_json {
        let mut client = scc::server::Client::connect(&cfg.addr)
            .map_err(|e| format!("connecting for stats: {e}"))?;
        let json = client.stats_json().map_err(|e| e.to_string())?;
        fs::write(&path, json + "\n").map_err(|e| format!("writing {path}: {e}"))?;
        println!("server metrics written to {path}");
    }
    if let Some(path) = client_metrics_json {
        // The loadgen process's own registry: client.retries,
        // client.backoff_ms and friends live here, not on the server.
        let json = scc::obs::export::to_json(scc::obs::global()).pretty();
        fs::write(&path, json + "\n").map_err(|e| format!("writing {path}: {e}"))?;
        println!("client metrics written to {path}");
    }
    if shutdown {
        let mut client = scc::server::Client::connect(&cfg.addr)
            .map_err(|e| format!("connecting for shutdown: {e}"))?;
        client.shutdown_server(force).map_err(|e| e.to_string())?;
        println!(
            "server acknowledged shutdown ({})",
            if force { "forced" } else { "graceful drain" }
        );
    }
    if report.errors > 0 || report.verify_failures > 0 {
        return Err(format!(
            "{} failed and {} unverified response(s)",
            report.errors, report.verify_failures
        ));
    }
    if report.corrupt_rejected != report.corrupt_sent {
        return Err(format!(
            "only {}/{} corrupt frames were refused with a typed error",
            report.corrupt_rejected, report.corrupt_sent
        ));
    }
    Ok(())
}

/// `scc top`: a live terminal dashboard over a running server's
/// windowed Health section — sliding-window p50/p95/p99, queue depth,
/// request and shed rates, and a p99 trend sparkline.
fn cmd_top(args: &[String]) -> Result<(), String> {
    let mut cfg = scc::server::TopConfig::default();
    let mut p = OptParser::new(args);
    while let Some(flag) = p.next_flag() {
        match flag {
            "--addr" => cfg.addr = p.value(flag)?.to_string(),
            "--interval-ms" => {
                cfg.interval = std::time::Duration::from_millis(p.parse(flag)?);
            }
            "--iterations" => cfg.iterations = Some(p.parse(flag)?),
            "--no-clear" => cfg.clear_screen = false,
            other => return Err(format!("unknown top option {other}")),
        }
    }
    let mut out = std::io::stdout();
    let frames = scc::server::run_top(&cfg, &mut out).map_err(|e| e.to_string())?;
    println!("scc top: {frames} frame(s) rendered");
    Ok(())
}

fn dispatch(args: &[String]) -> Result<(), String> {
    let cmd = args[0].as_str();
    if cmd == "explain" {
        return cmd_explain(&args[1..]);
    }
    if cmd == "serve" {
        return cmd_serve(&args[1..]);
    }
    if cmd == "loadgen" {
        return cmd_loadgen(&args[1..]);
    }
    if cmd == "cluster-serve" {
        return cmd_cluster_serve(&args[1..]);
    }
    if cmd == "top" {
        return cmd_top(&args[1..]);
    }
    let mut ty = "u32".to_string();
    let mut scheme = "auto".to_string();
    let mut bits: Option<u32> = None;
    let mut positional: Vec<&String> = Vec::new();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--type" => {
                ty = args.get(i + 1).ok_or("--type needs a value")?.clone();
                i += 2;
            }
            "--scheme" => {
                scheme = args.get(i + 1).ok_or("--scheme needs a value")?.clone();
                i += 2;
            }
            "--bits" => {
                bits = Some(
                    args.get(i + 1)
                        .ok_or("--bits needs a value")?
                        .parse()
                        .map_err(|_| "--bits must be an integer")?,
                );
                i += 2;
            }
            other => {
                positional.push(&args[i]);
                let _ = other;
                i += 1;
            }
        }
    }
    type_tag(&ty).ok_or_else(|| format!("unknown type {ty}"))?;
    let input = positional.first().ok_or("missing input file")?;
    let bytes = fs::read(input.as_str()).map_err(|e| format!("reading {input}: {e}"))?;

    // For compressed inputs, the embedded tag overrides --type.
    let compressed_input = bytes.len() >= 9 && &bytes[..4] == FILE_MAGIC;

    // `verify` is type-agnostic (each segment header carries its own
    // width), so it runs before type resolution: a corrupted type tag
    // must not prevent verification.
    if cmd == "verify" {
        if bytes.len() < 4 || &bytes[..4] != FILE_MAGIC {
            return Err("input is not an scc file".into());
        }
        return cmd_verify(&bytes);
    }

    let eff_ty: String = if compressed_input {
        match bytes[4] {
            1 => "u32",
            2 => "i32",
            3 => "u64",
            4 => "i64",
            t => return Err(format!("unknown embedded type tag {t}")),
        }
        .to_string()
    } else {
        ty
    };

    macro_rules! with_type {
        ($V:ty) => {
            match cmd {
                "analyze" => {
                    cmd_analyze::<$V>(&parse_values::<$V>(&bytes)?);
                    Ok(())
                }
                "compress" => {
                    let out = positional.get(1).ok_or("missing output file")?;
                    cmd_compress::<$V>(&parse_values::<$V>(&bytes)?, out, &scheme, bits)
                }
                "decompress" => {
                    if !compressed_input {
                        return Err("input is not an scc file".into());
                    }
                    let out = positional.get(1).ok_or("missing output file")?;
                    cmd_decompress::<$V>(&bytes, out)
                }
                "inspect" => {
                    if !compressed_input {
                        return Err("input is not an scc file".into());
                    }
                    cmd_inspect::<$V>(&bytes)
                }
                other => Err(format!("unknown command {other}")),
            }
        };
    }
    match eff_ty.as_str() {
        "u32" => with_type!(u32),
        "i32" => with_type!(i32),
        "u64" => with_type!(u64),
        "i64" => with_type!(i64),
        _ => unreachable!("validated above"),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        return die("no command");
    }
    match dispatch(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => die(&e),
    }
}
