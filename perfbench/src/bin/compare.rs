//! `compare <parent-results> <change-results> [--benchmark BENCHMARK.json]`
//!
//! Reads two result sets written by `perfbench --out <dir>` (one JSON file
//! per run under `<dir>/<workload>/`), pairs the runs of the two sides by
//! workload, seed and trace mode, and prints one row per (workload, metric):
//! each side's median and quartiles, the pairs won, and a verdict of
//! better, worse, unchanged or unresolved. Metric directions and bounds come
//! from `BENCHMARK.json`. A pair is dropped, and each row counts the pairs
//! it dropped, when either run's figures may not measure the program: its
//! load generator fell behind its schedule (`generator_behind`), or the host
//! stole more than `meta::STEAL_LIMIT` of its CPU time (`host_steal_frac`). Run the two sides alternately, on the same seeds,
//! so that pairs share the host's conditions.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use perfbench::compare::{verdict, Better, Verdict};
use perfbench::{meta, stats};
use rf_trace::json::{self, JsonValue};

/// One run: whether it is flagged (generator behind or host steal), and
/// metric → value.
type RunResult = (bool, BTreeMap<String, f64>);

/// (workload, seed, trace) → run.
type ResultSet = BTreeMap<(String, u64, u64), RunResult>;

/// Metric name → (direction, bound if end-to-end).
type Spec = BTreeMap<String, (Better, Option<f64>)>;

fn read_json(path: &Path) -> Result<JsonValue, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn load_spec(path: &Path) -> Result<Spec, String> {
    let doc = read_json(path)?;
    let mut spec = Spec::new();
    for (section, bounded) in [("end_to_end", true), ("per_layer", false)] {
        let entries = doc
            .get(section)
            .and_then(JsonValue::as_array)
            .ok_or(format!("{}: no {section} list", path.display()))?;
        for entry in entries {
            let name = entry.get("name").and_then(JsonValue::as_str);
            let better = entry
                .get("better")
                .and_then(JsonValue::as_str)
                .and_then(Better::parse);
            let (Some(name), Some(better)) = (name, better) else {
                return Err(format!("{}: malformed {section} entry", path.display()));
            };
            let bound = if bounded {
                entry.get("bound").and_then(JsonValue::as_f64)
            } else {
                None
            };
            spec.insert(name.to_string(), (better, bound));
        }
    }
    Ok(spec)
}

fn load_results(dir: &Path) -> Result<ResultSet, String> {
    let mut set = ResultSet::new();
    let workloads = fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for workload in workloads.flatten().filter(|e| e.path().is_dir()) {
        let files = fs::read_dir(workload.path()).map_err(|e| e.to_string())?;
        for file in files.flatten() {
            let path = file.path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if !name.ends_with(".json") || name.ends_with("-spans.json") {
                continue;
            }
            let doc = read_json(&path)?;
            let meta = doc.get("meta");
            let field = |k: &str| meta.and_then(|m| m.get(k)).and_then(JsonValue::as_f64);
            let (Some(kind), Some(seed), Some(trace), Some(JsonValue::Object(metrics))) = (
                doc.get("workload").and_then(JsonValue::as_str),
                field("seed"),
                field("trace"),
                doc.get("metrics"),
            ) else {
                return Err(format!("{}: not a perfbench result", path.display()));
            };
            let values = metrics
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
                .collect();
            let behind = ["run", "run_trace_off"].iter().any(|k| {
                matches!(
                    doc.get(k).and_then(|r| r.get("generator_behind")),
                    Some(JsonValue::Bool(true))
                )
            });
            let steal = doc.get("host_steal_frac").and_then(JsonValue::as_f64);
            let flagged = behind || steal.is_some_and(|s| s > meta::STEAL_LIMIT);
            set.insert(
                (kind.to_string(), seed as u64, trace as u64),
                (flagged, values),
            );
        }
    }
    Ok(set)
}

fn summary(values: &[f64]) -> String {
    let (q1, q3) = stats::quartiles(values);
    format!("{:.6} [{:.6} {:.6}]", stats::median(values), q1, q3)
}

fn run(parent: &Path, change: &Path, spec_path: &Path) -> Result<bool, String> {
    let spec = load_spec(spec_path)?;
    let (a, b) = (load_results(parent)?, load_results(change)?);
    // (workload, metric) → pairs of (parent, change) values, and pairs
    // dropped because a run is flagged.
    type Row = (Vec<(f64, f64)>, usize);
    let mut rows: BTreeMap<(String, String), Row> = BTreeMap::new();
    for (key, (parent_flagged, parent_metrics)) in &a {
        let Some((change_flagged, change_metrics)) = b.get(key) else {
            continue;
        };
        for (metric, &pv) in parent_metrics {
            if let Some(&cv) = change_metrics.get(metric) {
                let row = rows.entry((key.0.clone(), metric.clone())).or_default();
                if *parent_flagged || *change_flagged {
                    row.1 += 1;
                } else {
                    row.0.push((pv, cv));
                }
            }
        }
    }
    if rows.is_empty() {
        return Err("no run appears in both result sets".into());
    }
    println!(
        "workload\tmetric\tparent median [q1 q3]\tchange median [q1 q3]\tpairs\tdropped\twins\tverdict"
    );
    let mut worse = false;
    for ((workload, metric), (pairs, dropped)) in &rows {
        let Some(&(better, bound)) = spec.get(metric) else {
            continue;
        };
        let v = verdict(pairs, better, bound);
        worse |= v == Verdict::Worse;
        let parent: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let change: Vec<f64> = pairs.iter().map(|p| p.1).collect();
        let wins = pairs
            .iter()
            .filter(|(p, c)| match better {
                Better::Higher => c > p,
                Better::Lower => c < p,
            })
            .count();
        println!(
            "{workload}\t{metric}\t{}\t{}\t{}\t{dropped}\t{wins}\t{}",
            summary(&parent),
            summary(&change),
            pairs.len(),
            v.name()
        );
    }
    Ok(!worse)
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mut dirs = Vec::new();
    let mut spec = PathBuf::from("BENCHMARK.json");
    while let Some(arg) = args.next() {
        if arg == "--benchmark" {
            match args.next() {
                Some(path) => spec = PathBuf::from(path),
                None => {
                    eprintln!("compare: --benchmark needs a path");
                    return ExitCode::from(2);
                }
            }
        } else {
            dirs.push(PathBuf::from(arg));
        }
    }
    let [parent, change] = &dirs[..] else {
        eprintln!("usage: compare <parent-results> <change-results> [--benchmark BENCHMARK.json]");
        return ExitCode::from(2);
    };
    match run(parent, change, &spec) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(err) => {
            eprintln!("compare: {err}");
            ExitCode::from(2)
        }
    }
}
