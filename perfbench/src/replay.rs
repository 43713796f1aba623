//! The traced replay: the run's seeded inputs, one at a time on one thread,
//! through each layer's public function, timed around every call.
//!
//! Workloads go `validate` → `PlanCache::get_or_compile` →
//! `CompiledKernel::run`, with `execute_reference` beside them; graphs go
//! `partition` → `execute_graph_plan`. For every distinct shape it warms the
//! plan cache with, and on every plan-cache miss, the replay also times the
//! compiler on its own — `compile_workload_with` with a shared
//! `TuningCache`, and `analyze_cascade` on the workload's cascade.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rf_codegen::{compile_workload_with, CompileOptions, TuningCache, Workload};
use rf_fusion::analyze_cascade;
use rf_graph::partition;
use rf_runtime::request::validate;
use rf_runtime::{execute_graph_plan, execute_reference, PlanCache, RequestOutput, TraceLevel};

use crate::jobs::{Expected, Input, Kind};
use crate::run::{arch, config, distinct, Spans};

/// Per-layer samples of one replay, in µs.
#[derive(Debug, Default)]
pub struct Replay {
    /// Requests replayed.
    pub replayed: usize,
    /// Replayed outputs that disagreed with the oracle.
    pub wrong: usize,
    /// `compile_workload_with`, per miss.
    pub compile: Vec<f64>,
    /// `TuningChoice::evaluated`, per miss.
    pub tuner_evals: Vec<f64>,
    /// `analyze_cascade`, per miss.
    pub acrf: Vec<f64>,
    /// `CompiledKernel::run`, per class.
    pub exec: BTreeMap<&'static str, Vec<f64>>,
    /// Computed bytes over `run` time (GB/s), per class.
    pub gbps: BTreeMap<&'static str, Vec<f64>>,
    /// `execute_reference`, per class.
    pub unfused: BTreeMap<&'static str, Vec<f64>>,
    /// Per-request layer times (0 where a layer does not apply), in the
    /// order `[validate, get_or_compile on a hit, get_or_compile on a miss,
    /// run, partition, execute_graph_plan]`.
    pub path: Vec<[f64; 6]>,
}

fn us(from: Instant) -> f64 {
    from.elapsed().as_secs_f64() * 1e6
}

/// Replays `pool` in order (wrapping) for `seconds`, through a plan cache of
/// the engine's capacity. The cache is first warmed with every distinct
/// shape, except on `compile_cold`, whose replay must miss like its run;
/// the compiler is timed once for each shape warmed and on every miss.
pub fn replay(
    kind: Kind,
    pool: &[Input],
    expected: &[Expected],
    seconds: f64,
    spans: &Spans,
) -> Replay {
    let arch = arch();
    let cache = PlanCache::new(arch.clone(), config(kind, TraceLevel::Off).cache_capacity);
    let tuning = Arc::new(TuningCache::new());
    let options = CompileOptions {
        tuning_cache: Some(Arc::clone(&tuning)),
        ..CompileOptions::default()
    };
    let mut out = Replay::default();
    if kind != Kind::CompileCold {
        for (i, input) in distinct(pool).into_iter().map(|i| (i, &pool[i])) {
            match input {
                Input::Single { request, .. } => {
                    cache.get_or_compile(&request.workload);
                    time_compiler(&request.workload, i, &options, spans, &mut out);
                }
                Input::Graph {
                    graph, bindings, ..
                } => {
                    let plan = partition(graph);
                    execute_graph_plan(&cache, &arch, None, graph, &plan, bindings)
                        .expect("builder graphs execute");
                }
            }
        }
    }
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    // One full pass at least, so every class is sampled; `compile_cold`'s
    // pool is sized for the whole run, so its replay is bounded by time only.
    let full_pass = if kind == Kind::CompileCold {
        0
    } else {
        pool.len()
    };
    let mut i = 0;
    while i < full_pass || Instant::now() < deadline {
        let at = i % pool.len();
        let (input, want) = (&pool[at], &expected[at]);
        out.replayed += 1;
        match input {
            Input::Single { request, .. } => {
                let (workload, tensors) = (&request.workload, &request.input);
                let class = workload.class();
                let t = Instant::now();
                let valid = validate(workload, tensors).is_ok();
                let validate_us = us(t);
                spans.record("validate", i, 3, t, Instant::now());

                let hit = cache.contains(workload);
                let t = Instant::now();
                let kernel = cache.get_or_compile(workload);
                let plan_us = us(t);
                spans.record(
                    if hit { "plan_hit" } else { "plan_miss" },
                    i,
                    3,
                    t,
                    Instant::now(),
                );
                let (lookup_us, miss_us) = if hit { (plan_us, 0.0) } else { (0.0, plan_us) };

                let t = Instant::now();
                let got = kernel.run(&tensors.as_exec());
                let run_us = us(t);
                spans.record("run", i, 3, t, Instant::now());

                let t = Instant::now();
                let reference = execute_reference(workload, tensors);
                let unfused_us = us(t);
                spans.record("reference", i, 3, t, Instant::now());

                let ok = valid
                    && got.is_ok_and(|g| input.check(want, &RequestOutput::from_exec(g)))
                    && input.check(want, &reference);
                out.wrong += usize::from(!ok);

                if !hit {
                    time_compiler(workload, i, &options, spans, &mut out);
                }
                out.exec.entry(class).or_default().push(run_us);
                out.gbps
                    .entry(class)
                    .or_default()
                    .push(input.bytes(want) / (run_us.max(1e-3) * 1e3));
                out.unfused.entry(class).or_default().push(unfused_us);
                out.path
                    .push([validate_us, lookup_us, miss_us, run_us, 0.0, 0.0]);
            }
            Input::Graph {
                graph, bindings, ..
            } => {
                let t = Instant::now();
                let plan = partition(graph);
                let partition_us = us(t);
                spans.record("partition", i, 3, t, Instant::now());
                let t = Instant::now();
                let got = execute_graph_plan(&cache, &arch, None, graph, &plan, bindings);
                let exec_us = us(t);
                spans.record("graph_exec", i, 3, t, Instant::now());
                let ok = got.is_ok_and(|g| input.check(want, &RequestOutput::Tensors(g.outputs)));
                out.wrong += usize::from(!ok);
                out.path.push([0.0, 0.0, 0.0, 0.0, partition_us, exec_us]);
            }
        }
        i += 1;
    }
    out
}

/// Times the compiler on its own for `workload` (request `i`):
/// `compile_workload_with` under `options`, then `analyze_cascade` on its
/// cascade.
fn time_compiler(
    workload: &Workload,
    i: usize,
    options: &CompileOptions,
    spans: &Spans,
    out: &mut Replay,
) {
    let t = Instant::now();
    let compiled = compile_workload_with(workload, &arch(), options);
    out.compile.push(us(t));
    spans.record("compile", i, 3, t, Instant::now());
    out.tuner_evals.push(compiled.tuning.evaluated as f64);
    let spec = workload.cascade_spec();
    let t = Instant::now();
    let fused = analyze_cascade(&spec);
    out.acrf.push(us(t));
    spans.record("acrf", i, 3, t, Instant::now());
    out.wrong += usize::from(fused.is_err());
}
