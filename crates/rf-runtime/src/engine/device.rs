//! One fleet device: its plan/tuning caches, stream scheduler, worker pool
//! and the per-iteration serving loop.
//!
//! A [`Device`] is the pre-fleet engine's whole execution half, owned per
//! device id: requests admitted onto its scheduler are formed into
//! shape-compatible batches at iteration boundaries, compiled (or re-used)
//! through its own [`PlanCache`], which fixes the device's architecture,
//! executed on the tile VM ([`execute_plan`], or [`execute_plan_profiled`]
//! when op profiling is on; graphs through [`execute_graph_plan`]) and
//! accounted into its own [`RuntimeMetrics`]. The only shared piece is the
//! fleet-wide [`TraceCollector`]; every event a device records is tagged with
//! its id so the exported trace groups per device.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rf_gpusim::GpuArch;
use rf_trace::{ArgValue, OpProfiler, OpSample, TraceCollector, TraceEvent, Track};

use crate::cache::PlanCache;
use crate::config::RuntimeConfig;
use crate::graph::execute_graph_plan;
use crate::metrics::RuntimeMetrics;
use crate::request::{execute_plan, execute_plan_profiled, RequestOutput, RuntimeError};
use crate::stream::{batch_latency_us, Iteration, QueuedWork, StreamScheduler, Ticket};
use crate::submit::{GraphStats, Priority, RequestTiming, Response, Submission};

/// Microseconds from `from` to `to` (0 when the clock says they inverted —
/// the metrics path must never panic on a monotonic-clock edge case).
pub(crate) fn duration_us(from: Instant, to: Instant) -> f64 {
    to.checked_duration_since(from)
        .map(|d| d.as_secs_f64() * 1e6)
        .unwrap_or(0.0)
}

/// The state one device's workers and the fleet front door share.
pub(crate) struct DeviceShared {
    /// The device's position in the fleet (trace process id is `id + 2`).
    pub id: usize,
    /// This device's own compiled-plan cache; its arch is the device's.
    pub cache: PlanCache,
    /// This device's own serving counters.
    pub metrics: RuntimeMetrics,
    /// This device's own work queue and batching state.
    pub scheduler: StreamScheduler,
    /// The fleet-wide span collector (events are device-tagged).
    pub trace: Arc<TraceCollector>,
    /// The fleet-wide tile-VM op profiler (entries are device-keyed).
    /// Disabled unless [`rf_trace::TraceConfig::profile`] is set, in which
    /// case workload batches execute through the VM's profiled path.
    pub profiler: Arc<OpProfiler>,
    /// Measured wall time of this device's latest iteration execution, in
    /// µs (`f64` bits): the basis of shed retry hints.
    last_iteration_us: AtomicU64,
}

impl DeviceShared {
    /// The backoff to suggest alongside an [`RuntimeError::Overloaded`] shed
    /// of `in_flight` queued-or-executing submissions: roughly how long until
    /// this device's in-flight budget frees up, estimated as the latest
    /// iteration's measured wall time times the iterations queued ahead,
    /// clamped to 100 µs ..= 100 ms.
    fn retry_hint(&self, in_flight: usize) -> Duration {
        let wall_us = f64::from_bits(self.last_iteration_us.load(Ordering::Relaxed));
        let iterations_ahead = (in_flight as f64 / self.scheduler.max_batch() as f64).max(1.0);
        let hint_us = (wall_us * iterations_ahead).clamp(100.0, 100_000.0);
        Duration::from_micros(hint_us as u64)
    }

    /// Records one iteration's measured execution wall time for
    /// [`DeviceShared::retry_hint`].
    fn record_iteration_wall(&self, wall_us: f64) {
        self.last_iteration_us
            .store(wall_us.to_bits(), Ordering::Relaxed);
    }

    /// Admits one already-validated submission onto this device's scheduler,
    /// maintaining the device's submit/shed ledger and trace markers.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Overloaded`] (with a retry hint) when this device's
    /// bounded in-flight budget is exhausted, [`RuntimeError::ShuttingDown`]
    /// once the fleet is being dropped.
    pub fn enqueue(&self, id: u64, submission: Submission) -> Result<Ticket, RuntimeError> {
        let priority = submission.priority();
        let (queued, ticket) = QueuedWork::new(id, submission);
        // Count before enqueueing so a snapshot can never observe a completed
        // request that was not yet counted as submitted; roll back if the
        // scheduler rejects the request (shutdown or shed), so rejected
        // requests never inflate the counter.
        self.metrics.record_submit(priority);
        if let Err(err) = self
            .scheduler
            .enqueue(queued, |in_flight| self.retry_hint(in_flight))
        {
            self.metrics.cancel_submit(priority);
            if let RuntimeError::Overloaded { retry_hint, source } = &err {
                self.metrics.record_shed(priority, *retry_hint);
                if self.trace.enabled() {
                    self.trace.record(
                        TraceEvent::instant("shed", self.trace.now_us(), Track::FrontDoor)
                            .with_device(self.id)
                            .with_request(id)
                            .with_lane(priority.name())
                            .with_arg("in_flight", ArgValue::U64(source.in_flight as u64))
                            .with_arg("budget", ArgValue::U64(source.budget as u64))
                            .with_arg("retry_us", ArgValue::F64(retry_hint.as_secs_f64() * 1e6)),
                    );
                }
            }
            return Err(err);
        }
        if self.trace.enabled() {
            self.trace.record(
                TraceEvent::instant("submit", self.trace.now_us(), Track::Request(id))
                    .with_device(self.id)
                    .with_request(id)
                    .with_lane(priority.name()),
            );
        }
        Ok(ticket)
    }

    /// This device's point-in-time metrics snapshot.
    pub fn snapshot(&self) -> crate::metrics::MetricsSnapshot {
        self.metrics.snapshot(
            self.scheduler.depth(),
            self.cache.stats(),
            self.cache.tuning_stats(),
        )
    }
}

/// One running device: its shared state plus its worker threads.
pub(crate) struct Device {
    pub shared: Arc<DeviceShared>,
    workers: Vec<JoinHandle<()>>,
}

impl Device {
    /// Spawns device `id` for `arch`: its own caches and scheduler, and
    /// `config.workers` worker threads.
    pub fn start(
        id: usize,
        arch: &GpuArch,
        config: &RuntimeConfig,
        trace: Arc<TraceCollector>,
        profiler: Arc<OpProfiler>,
    ) -> Device {
        let shared = Arc::new(DeviceShared {
            id,
            cache: PlanCache::new(arch.clone(), config.cache_capacity),
            metrics: RuntimeMetrics::with_trace(config.trace),
            scheduler: StreamScheduler::new(
                config.max_batch,
                config.max_in_flight,
                config.lane_weights.as_array(),
            ),
            trace,
            profiler,
            last_iteration_us: AtomicU64::new(0),
        });
        let workers = (0..config.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("rf-runtime-d{id}-worker-{i}"))
                    .spawn(move || worker_loop(&shared, i))
                    .expect("spawning a runtime worker failed")
            })
            .collect();
        Device { shared, workers }
    }

    /// Joins the worker threads. The scheduler must already be shut down or
    /// this blocks forever.
    pub fn join_workers(&mut self) {
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

fn worker_loop(shared: &DeviceShared, worker: usize) {
    while let Some(iteration) = shared.scheduler.next_iteration() {
        // A panicking kernel must not wedge the device: the unwind guard
        // keeps the in-flight accounting balanced (so `run_until_drained`
        // returns) and dropping the unfulfilled `QueuedWork`s delivers
        // `ExecutionFailed` to their tickets (so `Ticket::wait` returns).
        let size = iteration.work.len();
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_iteration(shared, worker, iteration)
        }));
        shared.scheduler.finish_iteration(size);
    }
}

/// Executes one iteration taken off the stream: a shape-compatible workload
/// batch, or a singleton graph.
fn run_iteration(shared: &DeviceShared, worker: usize, iteration: Iteration) {
    let Iteration {
        index,
        lane,
        formed_at,
        work,
    } = iteration;
    let size = work.len();
    match &work[0].submission {
        Submission::Workload { .. } => run_workload_batch(shared, index, formed_at, work),
        Submission::Graph { .. } => {
            for work in work {
                run_graph(shared, index, work);
            }
        }
    }
    if shared.trace.enabled() {
        let start = shared.trace.ts_us_of(formed_at);
        shared.trace.record(
            TraceEvent::span(
                "iteration",
                start,
                shared.trace.now_us() - start,
                Track::Worker(worker),
            )
            .with_device(shared.id)
            .with_iteration(index)
            .with_lane(Priority::ALL[lane].name())
            .with_arg("batch", ArgValue::U64(size as u64))
            .with_arg(
                "occupancy",
                ArgValue::F64(size as f64 / shared.scheduler.max_batch() as f64),
            ),
        );
    }
}

/// Executes one shape-compatible batch on the tile VM — a cache hit reuses
/// both the tuning and the executable. No scheduler or cache lock is held
/// here: the plan is an `Arc` snapshot and the VM runs on borrowed views of
/// the queued tensors.
fn run_workload_batch(
    shared: &DeviceShared,
    index: u64,
    formed_at: Instant,
    work: Vec<QueuedWork>,
) {
    let Submission::Workload { request, .. } = &work[0].submission else {
        unreachable!("workload iterations contain only workload submissions");
    };
    let workload = request.workload.clone();
    let class = workload.class();
    let plan_started = Instant::now();
    let (plan, cache_hit) = shared.cache.get_or_compile_traced(&workload);
    let plan_ready = Instant::now();
    // Plan acquisition as *this iteration* experienced it: ~0 on a hit, the
    // full compile+tune wall time on a miss (the compiled kernel carries its
    // own tuner share).
    let (compile_us, tune_us) = if cache_hit {
        (0.0, 0.0)
    } else {
        (duration_us(plan_started, plan_ready), plan.timing.tune_us)
    };
    let batch_size = work.len();
    let arch = shared.cache.arch();
    let simulated_us = batch_latency_us(arch, &plan.profile, batch_size);
    let (mut executed, mut failed) = (0usize, 0usize);
    for queued in work {
        let priority = queued.priority();
        let Submission::Workload { request, .. } = &queued.submission else {
            unreachable!("workload iterations contain only workload submissions");
        };
        let outcome = if shared.profiler.enabled() {
            execute_plan_profiled(&plan, request).map(|(output, profile)| {
                record_op_profile(shared, class, &request.workload.name(), &profile);
                output
            })
        } else {
            execute_plan(&plan, request)
        };
        let delivered_at = Instant::now();
        let timing = RequestTiming {
            queue_us: duration_us(queued.submitted_at, formed_at),
            compile_us,
            tune_us,
            execute_us: duration_us(plan_ready, delivered_at),
            total_us: duration_us(queued.submitted_at, delivered_at),
            iterations_waited: index.saturating_sub(queued.iterations_at_submit + 1),
        };
        let result = outcome.map(|output| Response {
            id: queued.id,
            workload: request.workload.name(),
            output,
            simulated_us,
            batch_size,
            cache_hit,
            iteration: index,
            priority,
            device: shared.id,
            graph: None,
            timing,
        });
        match &result {
            Ok(_) => {
                executed += 1;
                shared.metrics.record_served(priority, 1);
                shared.metrics.record_timing(priority, &timing);
            }
            Err(_) => {
                failed += 1;
                shared.metrics.record_failed(priority, 1);
            }
        }
        if shared.trace.enabled() {
            record_request_spans(
                shared,
                queued.id,
                priority,
                class,
                index,
                &timing,
                queued.submitted_at,
                plan_started,
                plan_ready,
                batch_size,
                cache_hit,
                result.is_ok(),
            );
        }
        queued.fulfil(result);
    }
    // Calibrate the cost model: the analytical estimate for this batch
    // against the wall-clock time the VM actually took to serve it.
    let measured_us = duration_us(plan_ready, Instant::now());
    shared.record_iteration_wall(measured_us);
    shared.metrics.record_calibration(
        class,
        arch.name,
        arch.fingerprint(),
        simulated_us,
        measured_us,
    );
    shared
        .metrics
        .record_batch(class, executed, failed, simulated_us, cache_hit);
}

/// Feeds one profiled execution's per-op counters into the fleet-wide op
/// profiler: one folded-stack leaf per TileOp kind, under this device, the
/// batch's workload class and the request's concrete shape (the region
/// frame).
fn record_op_profile(
    shared: &DeviceShared,
    class: &'static str,
    region: &str,
    profile: &rf_tile::ExecProfile,
) {
    for op in &profile.ops {
        shared.profiler.record(
            shared.id,
            class,
            region,
            op.op,
            &OpSample {
                invocations: op.invocations,
                rows: op.rows,
                bytes_read: op.bytes_read,
                bytes_written: op.bytes_written,
                wall_ns: op.wall_ns,
            },
        );
    }
}

/// Records one served request's lifecycle spans on its own trace track:
/// `queue` (admission → iteration formed), `compile` (miss) or a `hit`
/// instant, `execute` (plan ready → delivery) and a final `deliver` marker.
/// The three spans tile the request's wall-clock life, so their durations sum
/// to its end-to-end latency (up to scheduling gaps).
#[allow(clippy::too_many_arguments)]
fn record_request_spans(
    shared: &DeviceShared,
    id: u64,
    priority: Priority,
    class: &'static str,
    index: u64,
    timing: &RequestTiming,
    submitted_at: Instant,
    plan_started: Instant,
    plan_ready: Instant,
    batch_size: usize,
    cache_hit: bool,
    ok: bool,
) {
    let trace = &shared.trace;
    let track = Track::Request(id);
    let lane = priority.name();
    let plan_start = trace.ts_us_of(plan_started);
    let execute_start = trace.ts_us_of(plan_ready);
    trace.record(
        TraceEvent::span(
            "queue",
            trace.ts_us_of(submitted_at),
            timing.queue_us,
            track,
        )
        .with_device(shared.id)
        .with_request(id)
        .with_lane(lane)
        .with_class(class)
        .with_iteration(index),
    );
    if cache_hit {
        trace.record(
            TraceEvent::instant("hit", execute_start, track)
                .with_device(shared.id)
                .with_request(id)
                .with_class(class),
        );
    } else {
        trace.record(
            TraceEvent::span("compile", plan_start, timing.compile_us, track)
                .with_device(shared.id)
                .with_request(id)
                .with_class(class)
                .with_arg("tune_us", ArgValue::F64(timing.tune_us)),
        );
    }
    trace.record(
        TraceEvent::span("execute", execute_start, timing.execute_us, track)
            .with_device(shared.id)
            .with_request(id)
            .with_lane(lane)
            .with_class(class)
            .with_iteration(index)
            .with_arg("batch", ArgValue::U64(batch_size as u64)),
    );
    trace.record(
        TraceEvent::instant("deliver", execute_start + timing.execute_us, track)
            .with_device(shared.id)
            .with_request(id)
            .with_arg("ok", ArgValue::U64(ok as u64)),
    );
}

/// Serves one graph submission: partitions (unless a plan was supplied),
/// executes the region steps through the device's plan cache on the tile VM,
/// and answers with the graph outputs plus serving counters.
fn run_graph(shared: &DeviceShared, index: u64, work: QueuedWork) {
    let Submission::Graph {
        graph,
        plan,
        bindings,
        priority,
    } = &work.submission
    else {
        unreachable!("graph iterations contain only graph submissions");
    };
    let priority = *priority;
    let label = work.submission.label();
    let graph = Arc::clone(graph);
    let bindings = Arc::clone(bindings);
    let started = Instant::now();
    let plan = plan
        .clone()
        .unwrap_or_else(|| Arc::new(rf_graph::partition(&graph)));
    let result = execute_graph_plan(
        &shared.cache,
        shared.cache.arch(),
        Some(&shared.metrics),
        &graph,
        &plan,
        bindings.as_slice(),
    );
    let delivered_at = Instant::now();
    // For a graph the `execute` stage covers partitioning plus every region
    // step — region compiles hide inside it, so `compile_us` stays zero.
    let timing = RequestTiming {
        queue_us: duration_us(work.submitted_at, started),
        compile_us: 0.0,
        tune_us: 0.0,
        execute_us: duration_us(started, delivered_at),
        total_us: duration_us(work.submitted_at, delivered_at),
        iterations_waited: index.saturating_sub(work.iterations_at_submit + 1),
    };
    shared.record_iteration_wall(timing.execute_us);
    if shared.trace.enabled() {
        let trace = &shared.trace;
        let track = Track::Request(work.id);
        let lane = priority.name();
        trace.record(
            TraceEvent::span(
                "queue",
                trace.ts_us_of(work.submitted_at),
                timing.queue_us,
                track,
            )
            .with_device(shared.id)
            .with_request(work.id)
            .with_lane(lane)
            .with_class("graph")
            .with_iteration(index),
        );
        trace.record(
            TraceEvent::span("execute", trace.ts_us_of(started), timing.execute_us, track)
                .with_device(shared.id)
                .with_request(work.id)
                .with_lane(lane)
                .with_class("graph")
                .with_iteration(index),
        );
        trace.record(
            TraceEvent::instant("deliver", trace.ts_us_of(delivered_at), track)
                .with_device(shared.id)
                .with_request(work.id)
                .with_arg("ok", ArgValue::U64(result.is_ok() as u64)),
        );
    }
    match result {
        Ok(graph_response) => {
            let stats = GraphStats {
                fused_regions: graph_response.fused_regions,
                fused_ops: graph_response.fused_ops,
                glue_ops: graph_response.glue_ops,
                region_cache_hits: graph_response.region_cache_hits,
            };
            // "Cache hit" for a graph means every fused region re-used an
            // already-compiled plan.
            let cache_hit =
                stats.fused_regions > 0 && stats.region_cache_hits == stats.fused_regions;
            let arch = shared.cache.arch();
            shared.metrics.record_calibration(
                "graph",
                arch.name,
                arch.fingerprint(),
                graph_response.simulated_us,
                timing.execute_us,
            );
            shared
                .metrics
                .record_batch("graph", 1, 0, graph_response.simulated_us, cache_hit);
            shared.metrics.record_served(priority, 1);
            shared.metrics.record_timing(priority, &timing);
            let id = work.id;
            work.fulfil(Ok(Response {
                id,
                workload: label,
                output: RequestOutput::Tensors(graph_response.outputs),
                simulated_us: graph_response.simulated_us,
                batch_size: 1,
                cache_hit,
                iteration: index,
                priority,
                device: shared.id,
                graph: Some(stats),
                timing,
            }));
        }
        Err(err) => {
            shared.metrics.record_batch("graph", 0, 1, 0.0, false);
            shared.metrics.record_failed(priority, 1);
            work.fulfil(Err(err));
        }
    }
}
