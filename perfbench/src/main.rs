//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of standard output, one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` (end-to-end
//! metrics with `--trace 0`, per-layer metrics with `--trace 1`). The full
//! result — metrics, run metadata and diagnostics — is also written to
//! `<out>/<workload>/seed<n>-trace<t>.json` (default `<out>` is
//! `.bench_out`), and a traced run writes its spans beside it as Chrome
//! trace-event JSON. Exits 1 when any output disagrees with the oracle.

use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use rf_runtime::TraceLevel;
use rf_trace::json;

use perfbench::jobs::{Input, Kind, CLASSES};
use perfbench::loadgen::{self, Record};
use perfbench::replay::replay;
use perfbench::run::{self, EngineTarget, Gated, Spans, Summary};
use perfbench::{meta, stats};

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out = PathBuf::from(".bench_out");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => kind = Some(Kind::parse(&value).ok_or_else(|| bad("a workload"))?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or_else(|| bad("a positive number"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            "--out" => out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out,
    })
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                json::escape(&m.name),
                finite(m.value),
                m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Every digit of a measured value (non-finite values cannot be JSON).
fn finite(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".into()
    }
}

fn object(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("\"{}\": {v}", json::escape(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn text(s: &str) -> String {
    format!("\"{}\"", json::escape(s))
}

fn summary_json(s: &Summary, kind: Kind) -> String {
    object(&[
        ("attempted", s.attempted.to_string()),
        ("ok", s.ok.to_string()),
        ("wrong", s.wrong.to_string()),
        ("shed", s.shed.to_string()),
        ("error_frac", finite(s.error_frac())),
        ("throughput_rps", finite(s.throughput_rps)),
        ("latency_p50_us", finite(s.p50_us)),
        ("latency_p90_us", finite(s.p90_us)),
        ("latency_p99_us", finite(s.p99_us)),
        ("latency_p999_us", finite(s.p999_us)),
        ("slo_attain_frac", finite(s.slo_attain_frac)),
        ("generator_lateness_p50_us", finite(s.lateness_p50_us)),
        ("generator_lateness_max_us", finite(s.lateness_max_us)),
        ("generator_late_frac", finite(s.late_frac)),
        ("generator_behind", s.generator_behind(kind).to_string()),
        ("resolution_p50_us", finite(s.resolution_p50_us)),
        ("resolution_p99_us", finite(s.resolution_p99_us)),
        ("resolution_max_us", finite(s.resolution_max_us)),
    ])
}

fn gated_json(g: &Gated) -> String {
    object(&[
        ("window_s", finite(run::WINDOW.as_secs_f64())),
        ("windows", g.windows.to_string()),
        ("quiet_windows", g.quiet.to_string()),
        ("used_windows", g.used.to_string()),
        ("used_steal_frac", finite(g.used_steal_frac)),
        ("throughput_rps", finite(g.throughput_rps)),
        ("latency_p50_us", finite(g.p50_us)),
        ("latency_p90_us", finite(g.p90_us)),
        ("latency_p99_us", finite(g.p99_us)),
        ("slo_attain_frac", finite(g.slo_attain_frac)),
    ])
}

fn metadata(args: &Args) -> String {
    let config = run::config(args.kind, TraceLevel::Off);
    let engine = object(&[
        ("arch", text(run::arch().name)),
        ("workers", config.workers.to_string()),
        ("max_batch", config.max_batch.to_string()),
        ("cache_capacity", config.cache_capacity.to_string()),
        ("max_in_flight", config.max_in_flight.to_string()),
        (
            "trace_level",
            text(if args.trace {
                "off, then histograms"
            } else {
                "off"
            }),
        ),
    ]);
    let load = match args.kind {
        Kind::ServeMixed => format!("open loop, Poisson {} rps", run::SERVE_RATE_RPS),
        Kind::ExecLarge => format!("closed loop, window {}", run::WORKERS),
        Kind::CompileCold => "closed loop, window 1".to_string(),
    };
    object(&[
        ("nproc", meta::nproc().to_string()),
        ("cpu", text(&meta::cpu_model())),
        ("l2", text(&meta::cache_size(2))),
        ("llc", text(&meta::cache_size(3))),
        ("commit", text(&meta::commit())),
        ("seed", args.seed.to_string()),
        ("seconds", finite(args.seconds)),
        ("trace", u8::from(args.trace).to_string()),
        ("load", text(&load)),
        ("slo_us", finite(run::slo(args.kind).as_secs_f64() * 1e6)),
        ("setup_repeats", run::SETUP_REPEATS.to_string()),
        ("engine", engine),
        (
            "cpus",
            match run::placement() {
                Some((engine, client)) => object(&[
                    ("engine", engine.to_string()),
                    ("load_generator", client.to_string()),
                ]),
                None => text("unpinned"),
            },
        ),
        ("clock", text("host wall-clock (std::time::Instant)")),
    ])
}

/// Warns when the host stole more than [`meta::STEAL_LIMIT`] of this
/// guest's CPU time during the run: its figures may then measure the host
/// rather than the program. Returns `frac`.
fn warn_steal(frac: f64) -> f64 {
    if frac > meta::STEAL_LIMIT {
        eprintln!(
            "warning: the host stole {:.1}% of this guest's CPU time during the run",
            100.0 * frac
        );
    }
    frac
}

/// The outcome of one mode: what to print and what to keep.
struct Outcome {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
    diagnostics: Vec<(&'static str, String)>,
    spans: Option<Spans>,
}

fn end_to_end(args: &Args) -> Outcome {
    let pool = run::pool(args.kind, args.seed);
    let (ready, setup_s) = run::timed_setup(args.kind, &pool, TraceLevel::Off);
    let warm_wrong = run::warm(args.kind, &ready.engine, &pool, &ready.expected, args.seed);
    let target = EngineTarget::new(&ready.engine, &pool, &ready.expected, None);
    let (driven, steal) =
        meta::sampling_steal(|| run::drive(args.kind, &target, args.seed, args.seconds));
    let steal_frac = warn_steal(steal.frac(driven.start, driven.start + driven.sending));
    let summary = Summary::of(&driven.records, driven.sending, run::slo(args.kind));
    let gated = Gated::of(
        &driven.records,
        driven.sending,
        driven.start,
        &steal,
        run::slo(args.kind),
    );
    let warmup_ok = ready.warmup_ok;
    drop(ready);
    if summary.generator_behind(args.kind) {
        eprintln!(
            "warning: the generator fell behind its schedule ({:.2}% of sends over 1 ms late)",
            100.0 * summary.late_frac
        );
    }
    let metrics = vec![
        metric("throughput_rps", gated.throughput_rps, "1/s"),
        metric("latency_p50_us", gated.p50_us, "us"),
        metric("latency_tail_us", gated.tail_us(args.kind), "us"),
        metric("slo_attain_frac", gated.slo_attain_frac, "ratio"),
        metric("success_frac", 1.0 - summary.error_frac(), "ratio"),
        metric("setup_s", setup_s, "s"),
        metric("peak_rss_mib", meta::peak_rss_mib(), "MiB"),
    ];
    Outcome {
        correct: summary.wrong == 0 && warm_wrong == 0 && warmup_ok,
        attempted: summary.attempted,
        failed: summary.attempted - summary.ok,
        metrics,
        diagnostics: vec![
            ("run", summary_json(&summary, args.kind)),
            ("gated", gated_json(&gated)),
            (
                "latency_by_class",
                by_class(&pool, &driven.records, args.kind == Kind::ExecLarge),
            ),
            ("pool", pool.len().to_string()),
            ("host_steal_frac", finite(steal_frac)),
        ],
        spans: None,
    }
}

fn per_layer(args: &Args) -> Outcome {
    // Four driven slices, engine tracing off / histograms / histograms /
    // off (the ABBA order cancels drift between slices), then the replay
    // for as long as two slices.
    let slice = args.seconds / 6.0;
    let pool = run::pool(args.kind, args.seed);
    // Two spans a request, at up to ~20k requests a second.
    let spans = Spans::with_capacity((40_000.0 * args.seconds) as usize);
    let mut correct = true;
    let mut records = [Vec::new(), Vec::new()];
    let mut sending = [Duration::ZERO; 2];
    let (mut hits, mut lookups, mut evictions, mut iterations) = (0, 0, 0, 0);
    let mut depths = Vec::new();
    let mut queue_us = Vec::new();
    let mut expected = Vec::new();
    let ticks = meta::cpu_ticks();
    let levels = [
        TraceLevel::Off,
        TraceLevel::Histograms,
        TraceLevel::Histograms,
        TraceLevel::Off,
    ];
    for (k, level) in levels.into_iter().enumerate() {
        let mut ready = run::setup(args.kind, &pool, level);
        let engine = &ready.engine;
        correct &=
            ready.warmup_ok && run::warm(args.kind, engine, &pool, &ready.expected, args.seed) == 0;
        let (stats0, iters0) = (engine.cache_stats(), engine.iterations());
        let target = EngineTarget::new(engine, &pool, &ready.expected, Some(&spans));
        let seed = args.seed.wrapping_add(k as u64);
        let driven = run::drive(args.kind, &target, seed, slice);
        let (stats1, iters1) = (engine.cache_stats(), engine.iterations());
        let side = usize::from(level != TraceLevel::Off);
        records[side].extend(driven.records);
        sending[side] += driven.sending;
        if level == TraceLevel::Off {
            hits += stats1.hits - stats0.hits;
            lookups += stats1.hits + stats1.misses - stats0.hits - stats0.misses;
            evictions += stats1.evictions - stats0.evictions;
            iterations += iters1 - iters0;
            depths.extend(target.depths().into_iter().map(|d| d as f64));
            queue_us.extend(target.queue_us());
        }
        drop(target);
        expected = std::mem::take(&mut ready.expected);
    }
    let off = Summary::of(&records[0], sending[0], run::slo(args.kind));
    let hist = Summary::of(&records[1], sending[1], run::slo(args.kind));

    let rep = replay(args.kind, &pool, &expected, 2.0 * slice, &spans);
    let steal_frac = warn_steal(meta::steal_between(ticks, meta::cpu_ticks()));
    correct &= off.wrong == 0 && hist.wrong == 0 && rep.wrong == 0;

    let submit_us = stats::median(&spans.durations("submit"));
    let delivered = (off.attempted - off.shed) as f64;
    // Each replayed layer's median over the requests that use it, and its
    // time per request: that median times the share of requests using it
    // (graphs are one request in ten on `serve_mixed`).
    let column = |k: usize| nonzero(&rep.path.iter().map(|p| p[k]).collect::<Vec<_>>());
    let replayed = rep.path.len().max(1) as f64;
    let per_call: Vec<f64> = (0..6).map(|k| stats::median(&column(k))).collect();
    let per_request: Vec<f64> = (0..6)
        .map(|k| per_call[k] * column(k).len() as f64 / replayed)
        .collect();
    let accounted = submit_us + per_request.iter().sum::<f64>();
    let unaccounted = off.p50_us - accounted;
    let whole = off.p50_us.max(accounted).max(1e-9);
    let compile = stats::sorted(&rep.compile);

    let mut metrics = vec![
        metric("runtime.submit_us", submit_us, "us"),
        metric("runtime.validate_us", per_call[0], "us"),
        metric("runtime.plan_lookup_us", per_call[1], "us"),
        metric("runtime.queue_depth_mean", stats::mean(&depths), "count"),
        metric(
            "runtime.batch_occupancy",
            delivered / (iterations as f64).max(1.0),
            "count",
        ),
        metric(
            "runtime.plan_hit_ratio",
            hits as f64 / (lookups as f64).max(1.0),
            "ratio",
        ),
        metric("runtime.plan_evictions", evictions as f64, "count"),
        metric("runtime.unaccounted_us", unaccounted, "us"),
        metric(
            "runtime.unaccounted_frac",
            unaccounted / off.p50_us.max(1e-9),
            "ratio",
        ),
        metric("codegen.compile_us", stats::quantile(&compile, 0.5), "us"),
        metric(
            "codegen.compile_p99_us",
            stats::quantile(&compile, 0.99),
            "us",
        ),
        metric(
            "codegen.tuner_evals",
            stats::mean(&rep.tuner_evals),
            "count",
        ),
        metric("fusion.acrf_us", stats::median(&rep.acrf), "us"),
    ];
    for class in CLASSES {
        let get = |m: &std::collections::BTreeMap<&str, Vec<f64>>| {
            m.get(class).map_or(0.0, |v| stats::median(v))
        };
        let (fused, unfused) = (get(&rep.exec), get(&rep.unfused));
        metrics.push(metric(format!("tile.exec_us.{class}"), fused, "us"));
        metrics.push(metric(
            format!("tile.exec_gbps.{class}"),
            get(&rep.gbps),
            "GB/s-computed",
        ));
        metrics.push(metric(format!("kernels.unfused_us.{class}"), unfused, "us"));
        metrics.push(metric(
            format!("tile.fused_speedup.{class}"),
            if fused > 0.0 { unfused / fused } else { 0.0 },
            "x",
        ));
    }
    metrics.extend([
        metric("graph.partition_us", per_call[4], "us"),
        metric("graph.exec_us", per_call[5], "us"),
        metric(
            "trace.overhead_frac",
            hist.p50_us / off.p50_us.max(1e-9) - 1.0,
            "ratio",
        ),
    ]);
    // Each layer's share of the median request. What no layer accounts
    // for (queue wait, wake-up, delivery) is a share of its own.
    let share = |us: f64| finite(us / whole);
    let shares = object(&[
        (
            "runtime",
            share(submit_us + per_request[0] + per_request[1]),
        ),
        ("codegen", share(per_request[2])),
        ("tile", share(per_request[3])),
        ("graph", share(per_request[4] + per_request[5])),
        ("unaccounted", share(unaccounted.max(0.0))),
    ]);
    let layers = |values: &[f64]| {
        let names = [
            "validate",
            "plan_hit",
            "plan_miss",
            "run",
            "partition",
            "graph_exec",
        ];
        let fields: Vec<(&str, String)> = names
            .iter()
            .zip(values)
            .map(|(name, v)| (*name, finite(*v)))
            .collect();
        object(&fields)
    };
    let attempted = off.attempted + hist.attempted + rep.replayed;
    let failed = (off.attempted - off.ok) + (hist.attempted - hist.ok) + rep.wrong;
    Outcome {
        correct,
        attempted,
        failed,
        metrics,
        diagnostics: vec![
            ("run_trace_off", summary_json(&off, args.kind)),
            ("run_histograms", summary_json(&hist, args.kind)),
            ("replayed", rep.replayed.to_string()),
            ("replay_wrong", rep.wrong.to_string()),
            ("layer_shares_of_p50", shares),
            ("layer_us_per_call", layers(&per_call)),
            ("layer_us_per_request", layers(&per_request)),
            ("engine_queue_p50_us", finite(stats::median(&queue_us))),
            ("host_steal_frac", finite(steal_frac)),
        ],
        spans: Some(spans),
    }
}

/// Latency p50/p99 (µs) and count of successful requests per class, or
/// per shape when `by_shape`.
fn by_class(pool: &[Input], records: &[Record], by_shape: bool) -> String {
    let mut classes: std::collections::BTreeMap<String, Vec<f64>> = Default::default();
    for r in records.iter().filter(|r| r.outcome == loadgen::Outcome::Ok) {
        let input = &pool[r.index % pool.len()];
        let key = if by_shape {
            input.label()
        } else {
            input.class().to_string()
        };
        classes
            .entry(key)
            .or_default()
            .push(r.latency().as_secs_f64() * 1e6);
    }
    let fields: Vec<(&str, String)> = classes
        .iter()
        .map(|(class, lat)| {
            let s = stats::sorted(lat);
            (
                class.as_str(),
                object(&[
                    ("count", s.len().to_string()),
                    ("p50_us", finite(stats::quantile(&s, 0.5))),
                    ("p99_us", finite(stats::quantile(&s, 0.99))),
                ]),
            )
        })
        .collect();
    object(&fields)
}

fn nonzero(values: &[f64]) -> Vec<f64> {
    values.iter().copied().filter(|v| *v > 0.0).collect()
}

fn main() -> ExitCode {
    meta::nproc();
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench: {err}");
            eprintln!(
                "usage: perfbench --workload <serve_mixed|exec_large|compile_cold> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]"
            );
            return ExitCode::from(2);
        }
    };
    let outcome = if args.trace {
        per_layer(&args)
    } else {
        end_to_end(&args)
    };
    let line = object(&[
        ("correct", outcome.correct.to_string()),
        ("attempted", outcome.attempted.max(1).to_string()),
        ("failed", outcome.failed.to_string()),
        ("metrics", metrics_json(&outcome.metrics)),
    ]);
    let dir = args.out.join(args.kind.name());
    let stem = format!("seed{}-trace{}", args.seed, u8::from(args.trace));
    let mut fields = vec![
        ("workload", text(args.kind.name())),
        ("correct", outcome.correct.to_string()),
        ("attempted", outcome.attempted.to_string()),
        ("failed", outcome.failed.to_string()),
        ("metrics", metrics_json(&outcome.metrics)),
        ("meta", metadata(&args)),
    ];
    fields.extend(outcome.diagnostics);
    let written = fs::create_dir_all(&dir).and_then(|()| {
        fs::write(dir.join(format!("{stem}.json")), object(&fields) + "\n")?;
        match &outcome.spans {
            Some(spans) => fs::write(dir.join(format!("{stem}-spans.json")), spans.chrome_json()),
            None => Ok(()),
        }
    });
    if let Err(err) = written {
        eprintln!(
            "perfbench: could not write results under {}: {err}",
            dir.display()
        );
    }
    println!("{line}");
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: an output disagreed with the unfused oracle");
        ExitCode::FAILURE
    }
}
