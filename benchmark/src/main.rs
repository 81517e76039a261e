//! Command line of the benchmark.
//!
//! ```text
//! scc-benchmark --workload W --seed N --seconds S --trace 0|1 [--smoke] [--sabotage]
//! scc-benchmark run [--seed N] [--seconds S] [--runs K] [--smoke] [--out FILE]
//! scc-benchmark compare A.json B.json
//! ```
//!
//! The first form is one run of one workload in this process and ends
//! with the one-line JSON result the driver reads. `run` makes a whole
//! run set, every run in a fresh child process, and writes one file;
//! `compare` judges two such files against the manifest's bounds.

use scc_benchmark::manifest::{self, Manifest};
use scc_benchmark::report::{self, RunSet};
use scc_benchmark::run::{self, Args};
use scc_benchmark::workloads::Workload;
use std::process::ExitCode;

/// The value after `--name`, parsed; `default` when the flag is absent.
fn flag<T: std::str::FromStr>(
    args: &[String],
    name: &str,
    default: Option<T>,
) -> Result<T, String> {
    match args.iter().position(|a| a == name) {
        Some(i) => {
            let value = args.get(i + 1).ok_or(format!("{name} needs a value"))?;
            value.parse().map_err(|_| format!("{name}: cannot read {value:?}"))
        }
        None => default.ok_or(format!("{name} is required")),
    }
}

fn one_workload(manifest: &Manifest, argv: &[String]) -> Result<ExitCode, String> {
    let name: String = flag(argv, "--workload", None)?;
    let workload = Workload::from_name(&name).ok_or(format!("no workload {name:?}"))?;
    let seconds: f64 = flag(argv, "--seconds", Some(manifest.run_seconds as f64))?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds {seconds} is outside (0, 60]"));
    }
    let args = Args {
        workload,
        seed: flag(argv, "--seed", None)?,
        seconds,
        trace: flag::<u8>(argv, "--trace", Some(0))? != 0,
        smoke: argv.iter().any(|a| a == "--smoke"),
        sabotage: argv.iter().any(|a| a == "--sabotage"),
    };
    let report = run::run(&args)?;
    let listed = if args.trace { &manifest.per_layer } else { &manifest.end_to_end };
    report::print_report(workload, &report, listed);
    println!("{}", report::result_line(&report, listed)?);
    Ok(if report.failed == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn dispatch(argv: &[String]) -> Result<ExitCode, String> {
    let manifest = manifest::load();
    match argv.first().map(String::as_str) {
        Some("run") => {
            let set = RunSet {
                seed: flag(argv, "--seed", Some(1))?,
                seconds: flag(argv, "--seconds", Some(manifest.run_seconds))?,
                runs: flag(argv, "--runs", Some(3))?,
                smoke: argv.iter().any(|a| a == "--smoke"),
                out: flag(
                    argv,
                    "--out",
                    Some(concat!(env!("CARGO_MANIFEST_DIR"), "/out/run.json").to_string()),
                )?,
            };
            if let Some(dir) = std::path::Path::new(&set.out).parent() {
                std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            }
            report::run_all(&manifest, &set)?;
            Ok(ExitCode::SUCCESS)
        }
        Some("compare") => match argv {
            [_, a, b] => {
                Ok(if report::compare(a, b)? { ExitCode::SUCCESS } else { ExitCode::FAILURE })
            }
            _ => Err("compare needs two result files".into()),
        },
        _ => one_workload(&manifest, argv),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    dispatch(&argv).unwrap_or_else(|e| {
        eprintln!("scc-benchmark: {e}");
        ExitCode::from(2)
    })
}
