//! Drives the built binary the way the driver and a developer do, on
//! smoke-sized data: every workload, both trace modes, every function
//! of `layers.rs`. Checks the contract between what a run prints and
//! what `BENCHMARK.json` lists; no timing is asserted.

use scc_benchmark::layers::{json_parse, Json};
use scc_benchmark::manifest::{self, Metric};
use scc_benchmark::workloads::Workload;
use std::path::Path;
use std::process::{Command, Output};

fn bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_scc-benchmark")).args(args).output().expect("the binary runs")
}

fn last_line(out: &Output) -> Json {
    let text = String::from_utf8_lossy(&out.stdout);
    let last = text.lines().last().unwrap_or_default();
    json_parse(last).unwrap_or_else(|e| panic!("last line is not JSON ({e}): {last}\n{text}"))
}

fn keys(obj: &Json) -> Vec<&str> {
    obj.as_obj().expect("an object").iter().map(|(k, _)| k.as_str()).collect()
}

/// The result line carries exactly the listed metrics, each a finite
/// number with the manifest's unit.
fn assert_metrics(result: &Json, listed: &[Metric], what: &str) {
    let metrics = result.get("metrics").expect("metrics");
    let listed_names: Vec<&str> = listed.iter().map(|m| m.name.as_str()).collect();
    assert_eq!(keys(metrics), listed_names, "{what}");
    for m in listed {
        let entry = metrics.get(&m.name).unwrap();
        assert_eq!(keys(entry), ["value", "unit"], "{what} {}", m.name);
        assert_eq!(entry.get("unit").unwrap().as_str(), Some(m.unit.as_str()), "{what} {}", m.name);
        let value = entry.get("value").unwrap().as_f64();
        assert!(value.is_some_and(f64::is_finite), "{what} {} = {value:?}", m.name);
    }
}

#[test]
fn manifest_names_what_the_benchmark_has() {
    let m = manifest::load();
    let listed: Vec<&str> = m.workloads.iter().map(|(n, _)| n.as_str()).collect();
    let built: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(listed, built);
    assert_eq!((m.workloads.len(), m.end_to_end.len()), (6, 6));
    assert!(m.per_layer.len() <= 128);
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap();
    for p in &m.paths {
        assert!(root.join(p).is_dir(), "{p} is not a directory of the repository");
    }
    // The command builds and runs the package in `paths`, nothing else.
    assert!(m.command.iter().any(|a| a == "benchmark/Cargo.toml"));
    let largest = m.end_to_end.iter().map(|m| m.bound.unwrap()).fold(0.0, f64::max);
    let setup = m.end_to_end.iter().find(|m| m.name == "setup_s").unwrap();
    assert_eq!(setup.bound, Some(largest), "setup_s carries the largest bound");
}

#[test]
fn a_run_set_covers_every_workload_and_compares_with_itself() {
    let m = manifest::load();
    let file = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke_run.json");
    let file = file.to_str().unwrap();
    let out = bench(&["run", "--smoke", "--runs", "2", "--seed", "7", "--out", file]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    let text = std::fs::read_to_string(file).unwrap();
    let set = json_parse(&text).unwrap();
    let envelope = set.get("envelope").unwrap();
    for key in [
        "git_rev",
        "rustc",
        "seed",
        "seconds",
        "runs",
        "nproc",
        "cpu_model",
        "l2_bytes",
        "l3_bytes",
        "kernel_class",
    ] {
        assert!(envelope.get(key).is_some(), "envelope lacks {key}");
    }
    let workloads = set.get("workloads").unwrap();
    assert_eq!(keys(workloads), Workload::ALL.map(|w| w.name()));
    for w in Workload::ALL {
        let entry = workloads.get(w.name()).unwrap();
        assert_eq!(entry.get("failed").unwrap().as_u64(), Some(0), "{}", w.name());
        let names = |ms: &[Metric]| ms.iter().map(|m| m.name.clone()).collect::<Vec<_>>();
        assert_eq!(keys(entry.get("end_to_end").unwrap()), names(&m.end_to_end), "{}", w.name());
        assert_eq!(keys(entry.get("per_layer").unwrap()), names(&m.per_layer), "{}", w.name());
        for note in ["working_set_compressed_bytes", "working_set_decoded_bytes", "samples"] {
            assert!(entry.get("notes").unwrap().get(note).is_some(), "{} lacks {note}", w.name());
        }

        // The traced child left a span file: every span is an op root
        // or hangs under an earlier span of the same op.
        let trace =
            Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("out/trace_{}.json", w.name()));
        let spans = json_parse(&std::fs::read_to_string(trace).unwrap()).unwrap();
        let spans = spans.as_arr().unwrap();
        assert!(
            spans.iter().any(|s| s.get("name").unwrap().as_str() == Some(w.name())),
            "{} has no op root",
            w.name()
        );
        for (i, s) in spans.iter().enumerate() {
            if let Some(p) = s.get("parent").unwrap().as_u64() {
                assert!((p as usize) < i, "{}: span {i} precedes its parent", w.name());
                assert_eq!(spans[p as usize].get("op"), s.get("op"), "{}: span {i}", w.name());
            }
        }
    }

    assert!(bench(&["compare", file, file]).status.success());
    // A set whose throughput medians are a quarter lower is worse.
    let slower = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke_run_slower.json");
    let doctored = json_parse(&text).unwrap();
    std::fs::write(&slower, scale_medians(&doctored, "ops_per_s", 0.75).pretty()).unwrap();
    let out = bench(&["compare", file, slower.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "{}", String::from_utf8_lossy(&out.stdout));

    // The driver's form of the command, one workload at a time.
    for (trace, listed) in [("0", &m.end_to_end), ("1", &m.per_layer)] {
        let out = bench(&[
            "--workload",
            "decode_scan",
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            trace,
            "--smoke",
        ]);
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        let result = last_line(&out);
        assert_eq!(keys(&result), ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
        assert!(result.get("attempted").unwrap().as_u64().unwrap() >= 1);
        assert_metrics(&result, listed, &format!("decode_scan --trace {trace}"));
    }
}

/// `set` with every workload's quartiles of `metric` scaled by `factor`.
fn scale_medians(set: &Json, metric: &str, factor: f64) -> Json {
    match set {
        Json::Obj(pairs) => Json::Obj(
            pairs
                .iter()
                .map(|(k, v)| {
                    let v = if k == metric {
                        let scaled = v.as_obj().unwrap().iter().map(|(k, v)| {
                            match (k.as_str(), v.as_f64()) {
                                ("median" | "q1" | "q3", Some(x)) => {
                                    (k.clone(), Json::F64(x * factor))
                                }
                                _ => (k.clone(), v.clone()),
                            }
                        });
                        Json::Obj(scaled.collect())
                    } else {
                        scale_medians(v, metric, factor)
                    };
                    (k.clone(), v)
                })
                .collect(),
        ),
        other => other.clone(),
    }
}

#[test]
fn results_checked_against_the_wrong_data_fail() {
    for w in ["encode", "decode_scan", "tpch_q6", "server_point", "server_scan"] {
        let out = bench(&[
            "--workload",
            w,
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            "0",
            "--smoke",
            "--sabotage",
        ]);
        let result = last_line(&out);
        assert_eq!(result.get("correct"), Some(&Json::Bool(false)), "{w}");
        assert_eq!(result.get("failed"), result.get("attempted"), "{w}");
        assert_eq!(out.status.code(), Some(1), "{w}");
    }
}

#[test]
fn bad_arguments_exit_without_a_result() {
    for args in [
        &["--workload", "nope", "--seed", "1"][..],
        &["--workload", "encode"],
        &["compare", "one.json"],
    ] {
        let out = bench(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
