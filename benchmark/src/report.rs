//! Result files: the one line a single run prints, the file `run`
//! writes for a whole run set, and `compare` between two such files.

use crate::layers::{self, json_parse, Json};
use crate::manifest::{Manifest, Metric};
use crate::run::Report;
use crate::stats::quartiles;
use crate::workloads::Workload;
use std::process::Command;

fn obj(pairs: Vec<(&str, Json)>) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// The last line of a single run: `correct`, `attempted`, `failed` and
/// every metric of the run's kind with its unit. A correct run that
/// reports other metrics than the manifest lists is a bug here, and is
/// refused.
pub fn result_line(report: &Report, listed: &[Metric]) -> Result<String, String> {
    let correct = report.failed == 0 && report.attempted > 0;
    let mut metrics = Vec::new();
    for m in listed {
        match report.metrics.iter().find(|(name, _)| *name == m.name) {
            Some((_, v)) if v.is_finite() => {
                metrics.push((
                    m.name.as_str(),
                    obj(vec![("value", Json::F64(*v)), ("unit", Json::Str(m.unit.clone()))]),
                ));
            }
            Some((_, v)) if correct => return Err(format!("{} came out as {v}", m.name)),
            None if correct => return Err(format!("the run did not measure {}", m.name)),
            _ => {}
        }
    }
    if let Some((stray, _)) =
        report.metrics.iter().find(|(n, _)| listed.iter().all(|m| m.name != *n))
    {
        return Err(format!("the run measured {stray}, which BENCHMARK.json does not list"));
    }
    let line = obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::U64(report.attempted)),
        ("failed", Json::U64(report.failed)),
        ("metrics", obj(metrics)),
    ]);
    Ok(line.compact())
}

/// Every metric by name with its unit, then the context notes.
pub fn print_report(workload: Workload, report: &Report, listed: &[Metric]) {
    for (name, value) in &report.metrics {
        let unit = listed.iter().find(|m| m.name == *name).map_or("?", |m| m.unit.as_str());
        println!("{:<14} {name:<38} {value:>18.6} {unit}", workload.name());
    }
    for (name, value) in &report.notes {
        println!("note {name} {value}");
    }
}

fn first_line(program: &str, args: &[&str]) -> String {
    let out = Command::new(program).args(args).output().ok().filter(|o| o.status.success());
    let text = out.map(|o| String::from_utf8_lossy(&o.stdout).into_owned()).unwrap_or_default();
    text.lines().next().unwrap_or("unknown").trim().to_string()
}

fn cache_bytes(level: &str) -> Json {
    let dir = "/sys/devices/system/cpu/cpu0/cache";
    let read = |i: usize, f: &str| {
        std::fs::read_to_string(format!("{dir}/index{i}/{f}")).unwrap_or_default()
    };
    let index = (0..8)
        .find(|i| read(*i, "level").trim() == level && read(*i, "type").trim() != "Instruction");
    let size = index.map(|i| read(i, "size"));
    let kib = size.and_then(|s| s.trim().strip_suffix('K')?.parse::<u64>().ok());
    kib.map_or(Json::Null, |k| Json::U64(k << 10))
}

/// Where and how a run set was measured.
fn envelope(seed: u64, seconds: u64, runs: usize, smoke: bool) -> Json {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo.lines().find_map(|l| l.strip_prefix("model name")?.split(':').nth(1));
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    obj(vec![
        (
            "git_rev",
            Json::Str(first_line("git", &["-C", env!("CARGO_MANIFEST_DIR"), "rev-parse", "HEAD"])),
        ),
        ("rustc", Json::Str(first_line("rustc", &["--version"]))),
        ("seed", Json::U64(seed)),
        ("seconds", Json::U64(seconds)),
        ("runs", Json::U64(runs as u64)),
        ("smoke", Json::Bool(smoke)),
        ("nproc", Json::U64(nproc as u64)),
        ("cpu_model", Json::Str(model.unwrap_or("unknown").trim().to_string())),
        ("l2_bytes", cache_bytes("2")),
        ("l3_bytes", cache_bytes("3")),
        ("kernel_class", Json::Str(layers::kernel_class().to_string())),
    ])
}

pub struct RunSet {
    pub seed: u64,
    pub seconds: u64,
    pub runs: usize,
    pub smoke: bool,
    pub out: String,
}

/// One child of this binary: one workload, traced or not. Returns the
/// notes the child printed (as an object) and its result line, parsed.
fn child(workload: Workload, set: &RunSet, trace: bool) -> Result<(Json, Json), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload.name(), "--seed", &set.seed.to_string()]);
    cmd.args(["--seconds", &set.seconds.to_string(), "--trace", if trace { "1" } else { "0" }]);
    if set.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&out.stdout);
    let last = text.lines().last().unwrap_or_default();
    let result =
        json_parse(last).map_err(|e| format!("{} printed no result: {e}", workload.name()))?;
    let notes = text.lines().filter_map(|l| l.strip_prefix("note ")?.split_once(' '));
    let notes = Json::Obj(notes.map(|(k, v)| (k.to_string(), Json::Str(v.to_string()))).collect());
    if !out.status.success() || result.get("correct") != Some(&Json::Bool(true)) {
        return Err(format!("{} failed: {last}", workload.name()));
    }
    Ok((notes, result))
}

fn metric_value(result: &Json, name: &str) -> Result<f64, String> {
    let value = result.get("metrics").and_then(|m| m.get(name)).and_then(|m| m.get("value"));
    value.and_then(Json::as_f64).ok_or(format!("no value for {name}"))
}

/// Runs every workload, each run in a fresh child process: `runs`
/// untraced runs for the end-to-end metrics (median and quartiles over
/// the runs), one traced run for the per-layer metrics. Prints every
/// metric by name with its unit and writes one JSON file.
pub fn run_all(manifest: &Manifest, set: &RunSet) -> Result<(), String> {
    let mut workloads = Vec::new();
    for w in Workload::ALL {
        let mut runs = Vec::new();
        let mut notes = Json::Null;
        for _ in 0..set.runs {
            let (n, result) = child(w, set, false)?;
            notes = n;
            runs.push(result);
        }
        let mut end_to_end = Vec::new();
        for m in &manifest.end_to_end {
            let values =
                runs.iter().map(|r| metric_value(r, &m.name)).collect::<Result<Vec<_>, _>>()?;
            let (q1, median, q3) = quartiles(&values);
            println!(
                "{:<14} {:<38} {median:>18.6} {} [{q1:.6} .. {q3:.6}] n={}",
                w.name(),
                m.name,
                m.unit,
                values.len()
            );
            let entry = obj(vec![
                ("unit", Json::Str(m.unit.clone())),
                ("better", Json::Str(if m.higher_is_better { "higher" } else { "lower" }.into())),
                ("bound", Json::F64(m.bound.expect("end-to-end metrics have bounds"))),
                ("median", Json::F64(median)),
                ("q1", Json::F64(q1)),
                ("q3", Json::F64(q3)),
                ("runs", Json::Arr(values.into_iter().map(Json::F64).collect())),
            ]);
            end_to_end.push((m.name.as_str(), entry));
        }
        let (_, traced) = child(w, set, true)?;
        let mut per_layer = Vec::new();
        for m in &manifest.per_layer {
            let value = metric_value(&traced, &m.name)?;
            println!("{:<14} {:<38} {value:>18.6} {}", w.name(), m.name, m.unit);
            per_layer.push((
                m.name.as_str(),
                obj(vec![("unit", Json::Str(m.unit.clone())), ("value", Json::F64(value))]),
            ));
        }
        for (name, value) in notes.as_obj().unwrap_or_default() {
            println!("{:<14} ({name}: {})", w.name(), value.as_str().unwrap_or_default());
        }
        let count = |key: &str| runs.iter().filter_map(|r| r.get(key)?.as_u64()).sum::<u64>();
        let entry = obj(vec![
            ("attempted", Json::U64(count("attempted"))),
            ("failed", Json::U64(count("failed"))),
            ("notes", notes),
            ("end_to_end", obj(end_to_end)),
            ("per_layer", obj(per_layer)),
        ]);
        workloads.push((w.name(), entry));
    }
    let file = obj(vec![
        ("schema", Json::U64(1)),
        ("envelope", envelope(set.seed, set.seconds, set.runs, set.smoke)),
        ("workloads", obj(workloads)),
    ]);
    std::fs::write(&set.out, file.pretty()).map_err(|e| format!("{}: {e}", set.out))?;
    println!("wrote {}", set.out);
    Ok(())
}

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum Verdict {
    Ok,
    Worse,
    /// The runs of one side spread wider than the bound: no call.
    Unresolved,
}

/// `b` against `a` for one metric; each side is `(q1, median, q3)`.
/// Returns the change as a share of `a`'s median, positive when worse.
pub fn judge(
    a: (f64, f64, f64),
    b: (f64, f64, f64),
    higher_is_better: bool,
    bound: f64,
) -> (f64, Verdict) {
    let worse_by = if higher_is_better { (a.1 - b.1) / a.1 } else { (b.1 - a.1) / a.1 };
    let spread = |s: (f64, f64, f64)| (s.2 - s.0) / s.1;
    let verdict = if spread(a) > bound || spread(b) > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    };
    (worse_by, verdict)
}

/// One row per (workload, end-to-end metric) of two run-set files.
/// `Ok(true)` when no row is worse.
pub fn compare(a_path: &str, b_path: &str) -> Result<bool, String> {
    let load = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        json_parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    let workloads = |f: &Json| {
        f.get("workloads").and_then(Json::as_obj).map(<[_]>::to_vec).ok_or("no workloads")
    };
    let mut clean = true;
    println!(
        "{:<14} {:<16} {:>16} {:>16} {:>9}  verdict",
        "workload", "metric", "a median", "b median", "worse by"
    );
    for (workload, wa) in workloads(&a)? {
        let metrics = wa.get("end_to_end").and_then(Json::as_obj).ok_or("no end_to_end")?;
        for (metric, ma) in metrics {
            let mb =
                b.get("workloads").and_then(|w| w.get(&workload)?.get("end_to_end")?.get(metric));
            let mb = mb.ok_or(format!("{b_path} has no {workload} {metric}"))?;
            let stat = |m: &Json, k: &str| {
                m.get(k).and_then(Json::as_f64).ok_or(format!("{workload} {metric}: no {k}"))
            };
            let side =
                |m: &Json| Ok::<_, String>((stat(m, "q1")?, stat(m, "median")?, stat(m, "q3")?));
            let higher = ma.get("better").and_then(Json::as_str) == Some("higher");
            let (sa, sb) = (side(ma)?, side(mb)?);
            let (worse_by, verdict) = judge(sa, sb, higher, stat(ma, "bound")?);
            clean &= verdict != Verdict::Worse;
            let verdict = format!("{verdict:?}").to_lowercase();
            println!(
                "{workload:<14} {metric:<16} {:>16.4} {:>16.4} {:>+8.2}%  {verdict}",
                sa.1,
                sb.1,
                worse_by * 100.0
            );
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_separates_ok_worse_and_unresolved() {
        let tight = |m: f64| (m * 0.99, m, m * 1.01);
        assert_eq!(judge(tight(100.0), tight(105.0), false, 0.1).1, Verdict::Ok);
        assert_eq!(judge(tight(100.0), tight(115.0), false, 0.1).1, Verdict::Worse);
        assert_eq!(judge(tight(100.0), tight(115.0), true, 0.1).1, Verdict::Ok);
        assert_eq!(judge(tight(100.0), tight(85.0), true, 0.1).1, Verdict::Worse);
        assert_eq!(judge((80.0, 100.0, 120.0), tight(150.0), false, 0.1).1, Verdict::Unresolved);
        let (worse_by, _) = judge(tight(200.0), tight(150.0), true, 0.1);
        assert!((worse_by - 0.25).abs() < 1e-12);
    }
}
