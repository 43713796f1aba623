//! Serving load harness: drives the continuous-batching engine with a mixed
//! workload + graph trace in closed- or open-loop mode and writes
//! `BENCH_serving.json`.
//!
//! ```console
//! $ cargo run --release -p rf-bench --bin serve_trace -- \
//!       arch=h800 requests=512 mode=open rate=2000 burst-period=64 \
//!       burst-factor=4 out=BENCH_serving.json
//! ```
//!
//! All arguments are optional `key=value` pairs:
//!
//! | key | default | meaning |
//! |---|---|---|
//! | `arch` | `h800` | `a10 \| a100 \| h800 \| mi308x` |
//! | `devices` | unset | homogeneous fleet: N devices of `arch` |
//! | `fleet` | unset | heterogeneous fleet: `+`-separated arch names, e.g. `a10+h800`; overrides `arch`/`devices` |
//! | `routing` | `least-loaded` | fleet placement: `least-loaded \| sticky \| row-shard` |
//! | `suite` | unset | `fleet`: run the single/fleet4/hetero scenario suite and write one multi-scenario document |
//! | `requests` | `256` | total submissions (workloads + graphs) |
//! | `mode` | `closed` | `closed` (client windows) or `open` (Poisson) |
//! | `clients` | `4` | closed loop: concurrent client threads |
//! | `window` | `16` | closed loop: per-client in-flight window |
//! | `rate` | `1000` | open loop: mean arrivals per second |
//! | `burst-period` | `64` | open loop: arrivals per burst phase (0 = steady) |
//! | `burst-factor` | `4` | open loop: rate multiplier in bursty phases |
//! | `graph-every` | `10` | every Nth slot submits a whole operator graph |
//! | `seed` | `7` | arrival-process seed |
//! | `workers` | `4` | engine worker threads |
//! | `max-batch` | `16` | engine max batch size |
//! | `max-in-flight` | `1024` | admission-control budget |
//! | `trace` | `hist` | engine telemetry: `off \| hist \| full` |
//! | `trace-buffer` | `65536` | span-buffer bound at `trace=full` |
//! | `trace-out` | `TRACE_serving.json` | Perfetto trace path (`trace=full`) |
//! | `profile` | `0` | `1`: capture the tile-VM op profiler and write a folded-stack profile |
//! | `profile-out` | `PROFILE_serving.txt` | folded-stack profile path (`profile=1`) |
//! | `window-ms` | `250` | rolling-telemetry window width, milliseconds |
//! | `windows` | `64` | rolling-telemetry windows retained |
//! | `out` | `BENCH_serving.json` | report path |
//!
//! At `trace=full` the run additionally writes a Chrome trace-event JSON
//! document (validated before writing) that loads directly into Perfetto
//! (`ui.perfetto.dev`) or `chrome://tracing`. At `profile=1` it writes a
//! folded-stack op profile (`device;class;region;op weight` lines — prefixed
//! with the scenario name under `suite=fleet`) that feeds any
//! inferno/flamegraph toolchain directly.
//!
//! The two historical positional arguments (`serve_trace [arch] [requests]`)
//! are still accepted.

use std::process::ExitCode;

use rf_bench::serving::{run_traced, suite_to_json, Mode, TraceConfig};
use rf_gpusim::GpuArch;
use rf_runtime::{RoutingPolicy, RuntimeConfig};
use rf_trace::TraceLevel;

struct Args {
    config: TraceConfig,
    suite: bool,
    out: String,
    trace_out: String,
    profile_out: String,
}

/// Parses a `fleet=` spec: `+`-separated arch names.
fn parse_fleet(spec: &str) -> Result<Vec<GpuArch>, String> {
    spec.split('+')
        .map(|item| {
            GpuArch::by_name(item).ok_or(format!(
                "unknown arch `{item}` in fleet `{spec}` (expected a10|a100|h800|mi308x)"
            ))
        })
        .collect()
}

fn parse_args() -> Result<Args, String> {
    let mut arch = GpuArch::h800();
    let mut device_count: usize = 0;
    let mut fleet_spec: Option<String> = None;
    let mut routing = RoutingPolicy::LeastLoaded;
    let mut suite = false;
    let mut requests: u64 = 256;
    let mut mode = "closed".to_string();
    let mut clients: u64 = 4;
    let mut window: usize = 16;
    let mut rate: f64 = 1000.0;
    let mut burst_period: u64 = 64;
    let mut burst_factor: f64 = 4.0;
    let mut graph_every: u64 = 10;
    let mut seed: u64 = 7;
    let mut workers: usize = 4;
    let mut max_batch: usize = 16;
    let mut max_in_flight: usize = 1024;
    let mut trace_level = TraceLevel::Histograms;
    let mut trace_buffer: usize = 65_536;
    let mut profile = false;
    let mut window_ms: u64 = 250;
    let mut windows: usize = 64;
    let mut out = "BENCH_serving.json".to_string();
    let mut trace_out = "TRACE_serving.json".to_string();
    let mut profile_out = "PROFILE_serving.txt".to_string();

    for (position, raw) in std::env::args().skip(1).enumerate() {
        let (key, value) = match raw.split_once('=') {
            Some((key, value)) => (key.to_string(), value.to_string()),
            // Positional back-compat: `serve_trace [arch] [requests]`.
            None if position == 0 => ("arch".to_string(), raw),
            None if position == 1 => ("requests".to_string(), raw),
            None => return Err(format!("unexpected positional argument `{raw}`")),
        };
        let parse_err = |what: &str| format!("`{key}={value}`: expected {what}");
        match key.as_str() {
            "arch" => {
                arch = GpuArch::by_name(&value).ok_or(format!(
                    "unknown arch `{value}` (expected a10|a100|h800|mi308x)"
                ))?;
            }
            "devices" => device_count = value.parse().map_err(|_| parse_err("an integer"))?,
            "fleet" => fleet_spec = Some(value),
            "routing" => {
                routing = RoutingPolicy::by_name(&value).ok_or(format!(
                    "unknown routing `{value}` (expected least-loaded|sticky|row-shard)"
                ))?;
            }
            "suite" => {
                if value != "fleet" {
                    return Err(format!("unknown suite `{value}` (expected fleet)"));
                }
                suite = true;
            }
            "requests" => requests = value.parse().map_err(|_| parse_err("an integer"))?,
            "mode" => {
                if value != "closed" && value != "open" {
                    return Err(format!("unknown mode `{value}` (expected closed|open)"));
                }
                mode = value;
            }
            "clients" => clients = value.parse().map_err(|_| parse_err("an integer"))?,
            "window" => window = value.parse().map_err(|_| parse_err("an integer"))?,
            "rate" => rate = value.parse().map_err(|_| parse_err("a number"))?,
            "burst-period" => burst_period = value.parse().map_err(|_| parse_err("an integer"))?,
            "burst-factor" => burst_factor = value.parse().map_err(|_| parse_err("a number"))?,
            "graph-every" => graph_every = value.parse().map_err(|_| parse_err("an integer"))?,
            "seed" => seed = value.parse().map_err(|_| parse_err("an integer"))?,
            "workers" => workers = value.parse().map_err(|_| parse_err("an integer"))?,
            "max-batch" => max_batch = value.parse().map_err(|_| parse_err("an integer"))?,
            "max-in-flight" => {
                max_in_flight = value.parse().map_err(|_| parse_err("an integer"))?
            }
            "trace" => {
                trace_level = match value.as_str() {
                    "off" => TraceLevel::Off,
                    "hist" | "histograms" => TraceLevel::Histograms,
                    "full" => TraceLevel::Full,
                    other => {
                        return Err(format!(
                            "unknown trace level `{other}` (expected off|hist|full)"
                        ))
                    }
                };
            }
            "trace-buffer" => trace_buffer = value.parse().map_err(|_| parse_err("an integer"))?,
            "trace-out" => trace_out = value,
            "profile" => {
                profile = match value.as_str() {
                    "1" | "true" | "on" => true,
                    "0" | "false" | "off" => false,
                    _ => return Err(parse_err("a boolean (0|1)")),
                };
            }
            "profile-out" => profile_out = value,
            "window-ms" => window_ms = value.parse().map_err(|_| parse_err("an integer"))?,
            "windows" => windows = value.parse().map_err(|_| parse_err("an integer"))?,
            "out" => out = value,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }

    let runtime = RuntimeConfig::builder()
        .workers(workers)
        .max_batch(max_batch)
        .cache_capacity(32)
        .max_in_flight(max_in_flight)
        .trace(rf_trace::TraceConfig {
            level: trace_level,
            capacity: trace_buffer,
            profile,
            window_ms,
            windows,
        })
        .build()
        .map_err(|err| format!("invalid engine config: {err}"))?;
    let mode = if mode == "open" {
        Mode::Open {
            rate_rps: rate,
            burst_period,
            burst_factor,
        }
    } else {
        Mode::Closed { clients, window }
    };
    let devices = if let Some(spec) = fleet_spec {
        parse_fleet(&spec)?
    } else {
        vec![arch.clone(); device_count]
    };
    Ok(Args {
        config: TraceConfig {
            arch,
            devices,
            routing,
            requests,
            mode,
            graph_every,
            seed,
            runtime,
        },
        suite,
        out,
        trace_out,
        profile_out,
    })
}

/// Validates and writes folded-stack profile text, reporting the frame count.
fn write_profile(path: &str, folded: &str) -> Result<(), String> {
    let frames = rf_trace::validate_folded(folded)
        .map_err(|err| format!("malformed folded profile: {err}"))?;
    std::fs::write(path, folded).map_err(|err| format!("cannot write {path}: {err}"))?;
    println!("wrote {path} ({frames} op frames, flamegraph-ready)");
    Ok(())
}

/// Runs the fleet scenario suite off the base config: the same trace served
/// by one device, by a homogeneous 4-device fleet, and by a heterogeneous
/// A10 + H800 pair. Returns the named reports in that order.
fn run_fleet_suite(base: &TraceConfig) -> Vec<(String, rf_bench::serving::ServingReport)> {
    let scenarios = [
        ("single", vec![base.arch.clone()], base.routing),
        ("fleet4", vec![base.arch.clone(); 4], base.routing),
        (
            "hetero",
            vec![GpuArch::a10(), GpuArch::h800()],
            RoutingPolicy::LeastLoaded,
        ),
    ];
    scenarios
        .into_iter()
        .map(|(name, devices, routing)| {
            let config = TraceConfig {
                devices,
                routing,
                ..base.clone()
            };
            let (report, _) = run_traced(&config);
            println!("--- scenario {name} ---\n{}\n", report.summary());
            (name.to_string(), report)
        })
        .collect()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("serve_trace: {err}");
            return ExitCode::FAILURE;
        }
    };
    if args.suite {
        println!(
            "serving fleet suite: {} requests per scenario, {:?}, base arch {}",
            args.config.requests, args.config.mode, args.config.arch.name
        );
        let scenarios = run_fleet_suite(&args.config);
        let single = scenarios[0].1.sim_throughput_rps;
        let fleet4 = scenarios[1].1.sim_throughput_rps;
        if single > 0.0 {
            println!(
                "fleet4 vs single simulated throughput: {:.2}x",
                fleet4 / single
            );
        }
        if let Err(err) = std::fs::write(&args.out, suite_to_json(&scenarios)) {
            eprintln!("serve_trace: cannot write {}: {err}", args.out);
            return ExitCode::FAILURE;
        }
        println!("wrote {}", args.out);
        if args.config.runtime.trace.profile {
            // One folded-stack document for the whole suite: each frame is
            // prefixed with its scenario name so the flamegraph separates
            // single/fleet4/hetero at the root.
            let folded: String = scenarios
                .iter()
                .flat_map(|(name, report)| {
                    report
                        .folded_profile
                        .lines()
                        .map(move |line| format!("{name};{line}\n"))
                })
                .collect();
            if let Err(err) = write_profile(&args.profile_out, &folded) {
                eprintln!("serve_trace: {err}");
                return ExitCode::FAILURE;
            }
        }
        return ExitCode::SUCCESS;
    }
    println!(
        "serving trace: {} requests, {:?}, arch {}, {} device(s), routing {}",
        args.config.requests,
        args.config.mode,
        args.config.arch.name,
        args.config.devices.len().max(1),
        args.config.routing.name()
    );
    let (report, trace_json) = run_traced(&args.config);
    println!("{}", report.summary());
    if let Err(err) = std::fs::write(&args.out, report.to_json()) {
        eprintln!("serve_trace: cannot write {}: {err}", args.out);
        return ExitCode::FAILURE;
    }
    println!("wrote {}", args.out);
    if args.config.runtime.trace.profile {
        if let Err(err) = write_profile(&args.profile_out, &report.folded_profile) {
            eprintln!("serve_trace: {err}");
            return ExitCode::FAILURE;
        }
    }
    if let Some(trace_json) = trace_json {
        // Validate before writing: a malformed trace artifact is a bug, not
        // something to hand to Perfetto.
        match rf_trace::validate_chrome_trace(&trace_json) {
            Ok(stats) => println!(
                "trace: {} events ({} spans, {} instants) across {} request tracks",
                stats.events, stats.spans, stats.instants, stats.request_tracks
            ),
            Err(err) => {
                eprintln!("serve_trace: malformed trace document: {err}");
                return ExitCode::FAILURE;
            }
        }
        if let Err(err) = std::fs::write(&args.trace_out, trace_json) {
            eprintln!("serve_trace: cannot write {}: {err}", args.trace_out);
            return ExitCode::FAILURE;
        }
        println!("wrote {} (load it at ui.perfetto.dev)", args.trace_out);
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_specs_take_arch_names_only() {
        let fleet = parse_fleet("a10+h800").unwrap();
        assert_eq!(
            fleet.iter().map(|arch| arch.name).collect::<Vec<_>>(),
            ["NVIDIA A10", "NVIDIA H800"]
        );
        // An `arch:kind` item is an unknown arch, not a silent fallback.
        let err = parse_fleet("a10+h800:cost").unwrap_err();
        assert!(err.contains("unknown arch `h800:cost`"), "{err}");
    }
}
