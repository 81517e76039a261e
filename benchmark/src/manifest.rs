//! `BENCHMARK.json` is the one place that names workloads and metrics
//! and fixes units, directions and bounds. It is compiled into the
//! binary; a run refuses to report a metric the manifest does not list,
//! or to leave one out.

use crate::layers::{json_parse, Json};

const TEXT: &str = include_str!("../../BENCHMARK.json");

pub struct Metric {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen; per-layer metrics have none.
    pub bound: Option<f64>,
}

pub struct Manifest {
    pub command: Vec<String>,
    pub paths: Vec<String>,
    pub run_seconds: u64,
    /// `(name, why)`.
    pub workloads: Vec<(String, String)>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

/// The manifest this binary was built against.
pub fn load() -> Manifest {
    parse(TEXT).unwrap_or_else(|e| panic!("BENCHMARK.json: {e}"))
}

fn is_name(s: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
    s.len() <= 64 && s.starts_with(|c: char| c.is_ascii_alphanumeric()) && s.chars().all(ok)
}

fn is_unit(s: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
    !s.is_empty() && s.len() <= 16 && s.chars().all(ok)
}

fn is_path(s: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || "_.-/".contains(c);
    let leaves = s.starts_with('/') || s.split('/').any(|part| part == "..");
    !s.is_empty() && s.len() <= 200 && s.chars().all(ok) && !leaves
}

fn keys_are(obj: &Json, want: &[&str], what: &str) -> Result<(), String> {
    let pairs = obj.as_obj().ok_or(format!("{what} is not an object"))?;
    let mut have: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
    let mut want = want.to_vec();
    have.sort_unstable();
    want.sort_unstable();
    if have == want {
        Ok(())
    } else {
        Err(format!("{what} has keys {have:?}, wanted exactly {want:?}"))
    }
}

fn strings(v: &Json, what: &str) -> Result<Vec<String>, String> {
    let items = v.as_arr().ok_or(format!("{what} is not an array"))?;
    items
        .iter()
        .map(|s| s.as_str().map(str::to_string).ok_or(format!("{what} holds a non-string")))
        .collect()
}

fn metrics(v: &Json, what: &str, bounded: bool) -> Result<Vec<Metric>, String> {
    let keys: &[&str] =
        if bounded { &["name", "unit", "better", "bound"] } else { &["name", "unit", "better"] };
    let mut out = Vec::new();
    for m in v.as_arr().ok_or(format!("{what} is not an array"))? {
        keys_are(m, keys, what)?;
        let text = |k: &str| m.get(k).and_then(Json::as_str).ok_or(format!("{what}: bad {k}"));
        let (name, unit) = (text("name")?, text("unit")?);
        if !is_name(name) || !is_unit(unit) {
            return Err(format!("{what}: bad name or unit in {name:?} / {unit:?}"));
        }
        let higher_is_better = match text("better")? {
            "higher" => true,
            "lower" => false,
            other => return Err(format!("{what}: {name} is better {other:?}")),
        };
        let bound = match m.get("bound") {
            None => None,
            Some(b) => match b.as_f64() {
                Some(b) if b > 0.0 && b <= 0.25 => Some(b),
                _ => return Err(format!("{what}: {name} needs a bound in (0, 0.25]")),
            },
        };
        out.push(Metric { name: name.into(), unit: unit.into(), higher_is_better, bound });
    }
    Ok(out)
}

/// Parses a manifest and checks it against the builder's contract:
/// exact keys, name, unit and path alphabets, counts, bounds, `setup_s`.
pub fn parse(text: &str) -> Result<Manifest, String> {
    if text.len() > 64 << 10 {
        return Err("larger than 64 KiB".into());
    }
    let root = json_parse(text).map_err(|e| format!("not JSON: {e:?}"))?;
    keys_are(
        &root,
        &["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"],
        "the manifest",
    )?;
    let field = |k: &str| root.get(k).expect("keys checked above");

    let command = strings(field("command"), "command")?;
    if command.is_empty() || command.len() > 32 || command.iter().any(|s| s.len() > 200) {
        return Err("command needs 1 to 32 strings of at most 200 characters".into());
    }
    let paths = strings(field("paths"), "paths")?;
    if paths.is_empty() || paths.len() > 16 || !paths.iter().all(|p| is_path(p)) {
        return Err("paths needs 1 to 16 relative directories".into());
    }
    let run_seconds = field("run_seconds").as_u64().filter(|s| (1..=60).contains(s));
    let run_seconds = run_seconds.ok_or("run_seconds is not a whole number from 1 to 60")?;

    let mut workloads = Vec::new();
    for w in field("workloads").as_arr().ok_or("workloads is not an array")? {
        keys_are(w, &["name", "why"], "a workload")?;
        let name = w.get("name").and_then(Json::as_str).filter(|n| is_name(n));
        let why =
            w.get("why").and_then(Json::as_str).filter(|y| y.len() <= 200 && !y.contains('\n'));
        match (name, why) {
            (Some(n), Some(y)) => workloads.push((n.to_string(), y.to_string())),
            _ => return Err("a workload needs a name and a one-line why".into()),
        }
    }
    let end_to_end = metrics(field("end_to_end"), "end_to_end", true)?;
    let per_layer = metrics(field("per_layer"), "per_layer", false)?;
    if !(2..=8).contains(&workloads.len())
        || !(1..=16).contains(&end_to_end.len())
        || !(1..=128).contains(&per_layer.len())
    {
        return Err("wanted 2-8 workloads, 1-16 end-to-end and 1-128 per-layer metrics".into());
    }
    let setup = end_to_end.iter().find(|m| m.name == "setup_s");
    if !setup.is_some_and(|m| m.unit == "s" && !m.higher_is_better) {
        return Err("end_to_end needs setup_s, in s, lower is better".into());
    }
    let mut names: Vec<&str> = workloads.iter().map(|(n, _)| n.as_str()).collect();
    names.extend(end_to_end.iter().chain(&per_layer).map(|m| m.name.as_str()));
    names.sort_unstable();
    if let Some(dup) = names.windows(2).find(|w| w[0] == w[1]) {
        return Err(format!("the name {} is used twice", dup[0]));
    }
    Ok(Manifest { command, paths, run_seconds, workloads, end_to_end, per_layer })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_committed_manifest_is_valid() {
        load();
    }

    #[test]
    fn contract_violations_are_refused() {
        let refused = |from: &str, to: &str| {
            assert!(TEXT.contains(from), "{from} not in the manifest");
            let err = parse(&TEXT.replacen(from, to, 1)).err();
            assert!(err.is_some(), "accepted {from} -> {to}");
        };
        refused("\"setup_s\"", "\"set_up\"");
        refused("\"ops_per_s\"", "\"ops per s\"");
        refused("\"ops_per_s\"", "\"setup_s\"");
        refused("\"1/s\"", "\"µs\"");
        refused("\"bound\": 0.1", "\"bound\": 0.5");
        refused("\"better\": \"lower\"", "\"better\": \"less\"");
        refused("\"run_seconds\": ", "\"run_seconds\": 6");
        refused("\"benchmark\"", "\"../benchmark\"");
        refused("\"why\"", "\"because\"");
        refused("{", "{\"extra\": 1, ");
    }
}
