//! The serving engine: the unified submission front door, a fleet of
//! tile-VM devices and the engine lifecycle.
//!
//! Everything the engine serves — single workloads, whole operator graphs,
//! pre-partitioned plans — enters through [`Engine::submit`] as a
//! [`Submission`] and resolves to a [`crate::Response`] through the returned
//! [`Ticket`]. The engine is a **fleet**: one or more devices (`device`
//! module), each owning its own architecture, plan/tuning caches, work queue
//! and workers, behind a routing policy (`router` module) that decides
//! placement at submission time ([`crate::RoutingPolicy`]). Every device
//! executes its compiled plans on the tile VM, so every served output is
//! computed. Row-shardable workloads can fan out across every device and are
//! reassembled deterministically by the `fleet` module's merger. A one-device
//! fleet behaves exactly like the pre-fleet single-arch engine.
//!
//! ```
//! use rf_gpusim::GpuArch;
//! use rf_runtime::{Engine, Priority, Request, Submission};
//! use rf_workloads::random_matrix;
//!
//! let engine = Engine::new(GpuArch::a10());
//! // A bare `Request` converts into a normal-priority submission…
//! let ticket = engine
//!     .submit(Request::softmax(random_matrix(4, 64, 1, -2.0, 2.0)))
//!     .unwrap();
//! // …and the explicit form picks a priority lane.
//! let urgent = engine
//!     .submit(
//!         Submission::workload(Request::softmax(random_matrix(4, 64, 2, -2.0, 2.0)))
//!             .with_priority(Priority::High),
//!     )
//!     .unwrap();
//! let result = ticket.wait().unwrap();
//! assert_eq!(result.workload, "softmax_4x64");
//! assert!(urgent.wait().unwrap().iteration >= 1);
//! ```
//!
//! Multi-device serving needs nothing but a [`FleetConfig`]:
//!
//! ```
//! use rf_gpusim::GpuArch;
//! use rf_runtime::{Engine, FleetConfig, Request, RuntimeConfig};
//! use rf_workloads::random_matrix;
//!
//! let engine = Engine::with_fleet(FleetConfig::homogeneous(
//!     GpuArch::a10(),
//!     2,
//!     RuntimeConfig::default(),
//! ));
//! let response = engine
//!     .submit(Request::softmax(random_matrix(4, 64, 1, -2.0, 2.0)))
//!     .unwrap()
//!     .wait()
//!     .unwrap();
//! assert!(response.device < 2, "responses say which device served them");
//! ```

mod device;
mod fleet;
mod router;

use std::sync::atomic::{AtomicU64, Ordering};

use rf_gpusim::GpuArch;
use rf_trace::{OpProfileSnapshot, TraceCollector, TraceSnapshot};

use crate::cache::CacheStats;
use crate::config::{FleetConfig, RoutingPolicy, RuntimeConfig};
use crate::metrics::{MetricsSnapshot, RuntimeMetrics};
use crate::request::RuntimeError;
use crate::stream::Ticket;
use crate::submit::{Submission, LANES};

use fleet::Fleet;

/// A point-in-time view of one fleet device: identity plus its private
/// serving metrics.
#[derive(Debug, Clone)]
pub struct DeviceSnapshot {
    /// The device id (also its trace process: `device-<id>`).
    pub device: usize,
    /// The architecture the device compiles and costs for.
    pub arch: &'static str,
    /// The architecture's capability fingerprint (equal fingerprints mean
    /// interchangeable compiled plans).
    pub fingerprint: u64,
    /// The device's own metrics snapshot (its queue depth, caches, latency
    /// percentiles and ledger counters).
    pub metrics: MetricsSnapshot,
}

/// A concurrent serving engine over a fleet of one or more devices.
///
/// [`Engine::submit`] validates a [`Submission`], routes it to a device per
/// the fleet's [`RoutingPolicy`] and returns a [`Ticket`]; each device's
/// worker pool serves its stream in iterations, grouping shape-compatible
/// requests into batches formed at each iteration boundary, compiling (or
/// re-using) fused plans via its own [`crate::PlanCache`] and executing
/// them on the tile VM. Admission is bounded per device: past
/// [`RuntimeConfig::max_in_flight`] a device sheds with
/// [`RuntimeError::Overloaded`] instead of queuing without bound. Dropping
/// the engine shuts the fleet down; still-queued submissions fail with
/// [`RuntimeError::ShuttingDown`].
pub struct Engine {
    fleet: Fleet,
    next_id: AtomicU64,
}

impl Engine {
    /// Creates a single-device engine for `arch` with the default
    /// [`RuntimeConfig`].
    pub fn new(arch: GpuArch) -> Self {
        Engine::with_config(arch, RuntimeConfig::default())
    }

    /// Creates a single-device engine with explicit tunables.
    ///
    /// This is a thin wrapper over [`Engine::try_with_config`] for callers
    /// that treat a bad configuration as a programming error; prefer the
    /// fallible form where the configuration is user-supplied.
    ///
    /// # Panics
    ///
    /// Panics if `config` violates its invariants (see
    /// [`RuntimeConfig::validate`]). Configurations built through
    /// [`RuntimeConfig::builder`] are already validated.
    pub fn with_config(arch: GpuArch, config: RuntimeConfig) -> Self {
        match Engine::try_with_config(arch, config) {
            Ok(engine) => engine,
            Err(err) => panic!("invalid RuntimeConfig: {err}"),
        }
    }

    /// Creates a single-device engine with explicit tunables, returning the
    /// typed validation error instead of panicking.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::InvalidConfig`] describing the first violated
    /// invariant (see [`RuntimeConfig::validate`]).
    pub fn try_with_config(arch: GpuArch, config: RuntimeConfig) -> Result<Self, RuntimeError> {
        Engine::try_with_fleet(FleetConfig {
            devices: vec![arch],
            routing: RoutingPolicy::default(),
            runtime: config,
        })
    }

    /// Creates a multi-device engine from a [`FleetConfig`].
    ///
    /// # Panics
    ///
    /// Panics if `config` violates its invariants (see
    /// [`FleetConfig::validate`]).
    pub fn with_fleet(config: FleetConfig) -> Self {
        match Engine::try_with_fleet(config) {
            Ok(engine) => engine,
            Err(err) => panic!("invalid FleetConfig: {err}"),
        }
    }

    /// Creates a multi-device engine from a [`FleetConfig`], returning the
    /// typed validation error instead of panicking.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::InvalidConfig`] describing the first violated
    /// invariant (an empty device list, or a bad per-device
    /// [`RuntimeConfig`]).
    pub fn try_with_fleet(config: FleetConfig) -> Result<Self, RuntimeError> {
        config.validate()?;
        Ok(Engine {
            fleet: Fleet::start(&config),
            next_id: AtomicU64::new(0),
        })
    }

    /// The architecture of device 0 — the whole fleet's architecture when it
    /// is homogeneous.
    pub fn arch(&self) -> &GpuArch {
        self.fleet.devices[0].shared.cache.arch()
    }

    /// Number of devices in the fleet.
    pub fn devices(&self) -> usize {
        self.fleet.devices.len()
    }

    /// The placement policy the front door routes with.
    pub fn routing(&self) -> RoutingPolicy {
        self.fleet.routing
    }

    /// Validates and enqueues a submission, returning the completion ticket.
    /// Accepts anything convertible into a [`Submission`] — in particular a
    /// bare [`Request`](crate::Request), which submits at
    /// [`crate::Priority::Normal`].
    ///
    /// Placement follows the fleet's [`RoutingPolicy`]: least-loaded picks
    /// the shallowest queue, sticky-by-key hashes the workload key, and
    /// row-shard fans eligible workloads out across every device (the
    /// returned ticket then resolves to the merged response). The request
    /// joins its device's open stream immediately: if a batch is executing
    /// right now, the request is eligible for the next iteration boundary —
    /// it never waits for the queue to drain.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::InputMismatch`] / [`RuntimeError::ShapeMismatch`] for
    /// invalid workload requests, [`RuntimeError::Overloaded`] (with a retry
    /// hint) when the target device's bounded in-flight budget is exhausted,
    /// and [`RuntimeError::ShuttingDown`] once the engine is being dropped.
    pub fn submit(&self, submission: impl Into<Submission>) -> Result<Ticket, RuntimeError> {
        let submission = submission.into();
        if let Submission::Workload { request, .. } = &submission {
            crate::request::validate(&request.workload, &request.input)?;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        if self.fleet.routing == RoutingPolicy::RowShard && self.fleet.devices.len() > 1 {
            if let Submission::Workload { request, priority } = &submission {
                if let Some(shards) = router::shard_request(request, self.fleet.devices.len()) {
                    let priority = *priority;
                    return self.fleet.submit_sharded(
                        id,
                        &self.next_id,
                        submission,
                        shards,
                        priority,
                    );
                }
            }
        }
        let target = if self.fleet.devices.len() == 1 {
            0
        } else {
            router::route(self.fleet.routing, &submission, &self.fleet.depths())
        };
        self.fleet.devices[target].shared.enqueue(id, submission)
    }

    /// Blocks until every accepted submission has been executed (and every
    /// row-sharded submission has been merged and delivered).
    pub fn run_until_drained(&self) {
        self.fleet.wait_drained();
    }

    /// Submissions currently queued or executing, summed over the fleet.
    pub fn queue_depth(&self) -> usize {
        self.fleet.depths().iter().sum()
    }

    /// Queued submissions per priority lane (high, normal, low), summed over
    /// the fleet.
    pub fn lane_depths(&self) -> [usize; LANES] {
        let mut depths = [0usize; LANES];
        for device in &self.fleet.devices {
            for (total, lane) in depths.iter_mut().zip(device.shared.scheduler.lane_depths()) {
                *total += lane;
            }
        }
        depths
    }

    /// Engine iterations started so far, summed over the fleet.
    pub fn iterations(&self) -> u64 {
        self.fleet
            .devices
            .iter()
            .map(|d| d.shared.scheduler.iterations())
            .sum()
    }

    /// Plan-cache counters, summed over the fleet's per-device caches.
    pub fn cache_stats(&self) -> CacheStats {
        let mut total = CacheStats {
            hits: 0,
            misses: 0,
            evictions: 0,
            entries: 0,
        };
        for device in &self.fleet.devices {
            let stats = device.shared.cache.stats();
            total.hits += stats.hits;
            total.misses += stats.misses;
            total.evictions += stats.evictions;
            total.entries += stats.entries;
        }
        total
    }

    /// A point-in-time metrics snapshot (latency percentiles, batch sizes,
    /// queue depth, shed counts, per-lane traffic, cache effectiveness).
    ///
    /// For a one-device fleet this is exactly the device's own snapshot.
    /// For a larger fleet the per-device metrics are folded together:
    /// counters and lifetime histograms merge exactly; the recent-window
    /// percentiles become an approximation over the concatenated windows.
    pub fn metrics(&self) -> MetricsSnapshot {
        if self.fleet.devices.len() == 1 {
            let device = &self.fleet.devices[0].shared;
            return device.metrics.snapshot(
                device.scheduler.depth(),
                device.cache.stats(),
                device.cache.tuning_stats(),
            );
        }
        let merged = RuntimeMetrics::with_trace(self.fleet.trace_config);
        let mut tuning = rf_codegen::TuningCacheStats::default();
        for device in &self.fleet.devices {
            merged.merge_from(&device.shared.metrics);
            let t = device.shared.cache.tuning_stats();
            tuning.lookups += t.lookups;
            tuning.seeded += t.seeded;
            tuning.insertions += t.insertions;
            tuning.entries += t.entries;
        }
        merged.snapshot(self.queue_depth(), self.cache_stats(), tuning)
    }

    /// Per-device snapshots, in device order: each device's identity
    /// (arch, fingerprint) plus its own private metrics.
    pub fn device_snapshots(&self) -> Vec<DeviceSnapshot> {
        self.fleet
            .devices
            .iter()
            .map(|device| {
                let shared = &device.shared;
                let arch = shared.cache.arch();
                DeviceSnapshot {
                    device: shared.id,
                    arch: arch.name,
                    fingerprint: arch.fingerprint(),
                    metrics: shared.snapshot(),
                }
            })
            .collect()
    }

    /// The fleet-wide tile-VM op profile: per-op-kind invocation, row and
    /// byte counters with attributed wall time, aggregated per (device,
    /// workload class, region). Empty unless the engine was started with
    /// [`rf_trace::TraceConfig::with_profile`]; render it with
    /// [`OpProfileSnapshot::folded`] for inferno-style flamegraph tools.
    pub fn op_profile(&self) -> OpProfileSnapshot {
        self.fleet.profiler.snapshot()
    }

    /// The fleet-wide metrics in Prometheus exposition format, including
    /// per-device labelled gauges from [`Engine::device_snapshots`] —
    /// serve it verbatim under a `/metrics` endpoint.
    pub fn prometheus(&self) -> String {
        self.metrics()
            .prometheus_with_devices(&self.device_snapshots())
    }

    /// The fleet's span collector (level, timestamps, drop count). Only
    /// records at [`rf_trace::TraceLevel::Full`]; see
    /// [`RuntimeConfig::builder`]'s `trace`/`trace_level`. One collector
    /// serves the whole fleet; events are device-tagged, so the exported
    /// trace groups one process per device.
    pub fn trace_collector(&self) -> &TraceCollector {
        &self.fleet.trace
    }

    /// A copy of the buffered span events (empty below
    /// [`rf_trace::TraceLevel::Full`]).
    pub fn trace_snapshot(&self) -> TraceSnapshot {
        self.fleet.trace.snapshot()
    }

    /// The buffered span events as Chrome trace-event JSON, loadable in
    /// Perfetto (`ui.perfetto.dev`) or `chrome://tracing`.
    pub fn chrome_trace(&self) -> String {
        self.fleet.trace.chrome_trace()
    }
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("arch", &self.arch().name)
            .field("devices", &self.devices())
            .field("routing", &self.fleet.routing.name())
            .field("queue_depth", &self.queue_depth())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{execute_reference, Request, RequestInput, RequestOutput};
    use crate::stream::Ticket;
    use crate::submit::{Priority, Response};
    use rf_codegen::Workload;
    use rf_workloads::{moe_tiny, random_matrix};
    use std::sync::Arc;

    fn tiny_engine(workers: usize) -> Engine {
        Engine::with_config(
            GpuArch::a10(),
            RuntimeConfig::builder()
                .workers(workers)
                .max_batch(4)
                .cache_capacity(16)
                .build()
                .unwrap(),
        )
    }

    #[test]
    fn served_results_match_the_reference_kernels() {
        let engine = tiny_engine(2);
        let requests: Vec<Request> = (0..6)
            .map(|seed| Request::softmax(random_matrix(2, 32, seed, -2.0, 2.0)))
            .collect();
        let tickets: Vec<Ticket> = requests
            .iter()
            .map(|r| engine.submit(r.clone()).unwrap())
            .collect();
        engine.run_until_drained();
        for (request, ticket) in requests.iter().zip(tickets) {
            let result = ticket.wait().unwrap();
            let oracle = execute_reference(&request.workload, &request.input);
            assert!(result.output.approx_eq(&oracle, 1e-9));
            assert!(result.simulated_us.is_finite() && result.simulated_us > 0.0);
            assert!(result.iteration >= 1, "responses carry their iteration");
            assert_eq!(result.priority, Priority::Normal);
            assert_eq!(result.device, 0, "a one-device fleet serves on device 0");
        }
        let metrics = engine.metrics();
        assert_eq!(metrics.completed, 6);
        assert_eq!(metrics.queue_depth, 0);
        assert_eq!(metrics.shed, 0);
        assert_eq!(metrics.cache.misses, 1, "one shape => one compile");
        assert!(metrics.p99_us >= metrics.p50_us);
    }

    #[test]
    fn invalid_requests_are_rejected_at_the_front_door() {
        let engine = tiny_engine(1);
        let c = moe_tiny();
        let err = engine
            .submit(Request {
                workload: Workload::Moe(c.clone()),
                input: RequestInput::Rows(random_matrix(2, 4, 1, 0.0, 1.0)),
            })
            .unwrap_err();
        assert!(matches!(err, RuntimeError::InputMismatch { .. }));
        assert_eq!(err.code(), "input_mismatch");
        assert_eq!(engine.metrics().submitted, 0);
    }

    #[test]
    fn invalid_configs_panic_with_the_typed_detail() {
        let config = RuntimeConfig {
            workers: 0,
            ..RuntimeConfig::default()
        };
        let panic = std::panic::catch_unwind(|| Engine::with_config(GpuArch::a10(), config))
            .expect_err("zero workers must be rejected");
        let message = panic
            .downcast_ref::<String>()
            .expect("panic carries a message");
        assert!(message.contains("workers"), "got: {message}");
    }

    #[test]
    fn try_with_config_returns_the_typed_error_instead_of_panicking() {
        let err = Engine::try_with_config(
            GpuArch::a10(),
            RuntimeConfig {
                workers: 0,
                ..RuntimeConfig::default()
            },
        )
        .unwrap_err();
        assert_eq!(err.code(), "invalid_config");
        assert!(err.to_string().contains("workers"));
        // An empty fleet is the fleet-level invariant.
        let err =
            Engine::try_with_fleet(FleetConfig::heterogeneous(vec![], RuntimeConfig::default()))
                .unwrap_err();
        assert!(err.to_string().contains("at least one device"));
        // And the happy path actually serves.
        let engine = Engine::try_with_config(GpuArch::a10(), RuntimeConfig::default()).unwrap();
        let response = engine
            .submit(Request::softmax(random_matrix(2, 16, 1, -1.0, 1.0)))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(response.workload, "softmax_2x16");
    }

    #[test]
    fn drop_fails_pending_tickets_cleanly() {
        let engine = tiny_engine(1);
        // Queue more work than one worker can finish instantly, then drop.
        let tickets: Vec<Ticket> = (0..16)
            .map(|seed| {
                engine
                    .submit(Request::softmax(random_matrix(8, 128, seed, -1.0, 1.0)))
                    .unwrap()
            })
            .collect();
        drop(engine);
        for ticket in tickets {
            match ticket.wait() {
                Ok(result) => assert!(result.simulated_us > 0.0),
                Err(err) => assert_eq!(err, RuntimeError::ShuttingDown),
            }
        }
    }

    #[test]
    fn failed_executions_are_counted_as_failures_not_completions() {
        use rf_workloads::inertia_tiny;
        // A massless inertia system passes shape validation but is rejected
        // by the VM at execution time: the ticket must receive the error and
        // the metrics must report a failure, not a served request.
        let engine = tiny_engine(1);
        let inertia = inertia_tiny();
        let ticket = engine
            .submit(
                Request::new(
                    Workload::Inertia(inertia.clone()),
                    RequestInput::Inertia {
                        masses: vec![0.0; 8],
                        positions: random_matrix(8, inertia.dim, 1, -1.0, 1.0),
                    },
                )
                .unwrap(),
            )
            .unwrap();
        engine.run_until_drained();
        assert!(matches!(
            ticket.wait(),
            Err(RuntimeError::ExecutionFailed { .. })
        ));
        let metrics = engine.metrics();
        assert_eq!(metrics.submitted, 1);
        assert_eq!(metrics.completed, 0);
        assert_eq!(metrics.failed, 1);
        assert_eq!(metrics.p50_us, 0.0, "failures contribute no latency");
        let class = &metrics.classes[0];
        assert_eq!(
            (class.class, class.completed, class.failed),
            ("inertia", 0, 1)
        );
        assert_eq!(class.p99_us, 0.0);
        assert!(metrics.report().contains("requests failed"));
    }

    #[test]
    fn metrics_break_down_per_workload_class() {
        use rf_workloads::variance_tiny;
        let engine = tiny_engine(2);
        let var = variance_tiny();
        for seed in 0..4 {
            engine
                .submit(Request::softmax(random_matrix(2, 32, seed, -1.0, 1.0)))
                .unwrap();
            engine
                .submit(
                    Request::new(
                        Workload::Variance(var.clone()),
                        RequestInput::Rows(random_matrix(3, var.l, seed + 50, -2.0, 2.0)),
                    )
                    .unwrap(),
                )
                .unwrap();
        }
        engine.run_until_drained();
        let metrics = engine.metrics();
        assert_eq!(metrics.completed, 8);
        let classes: Vec<&str> = metrics.classes.iter().map(|c| c.class).collect();
        assert_eq!(classes, ["softmax", "variance"]);
        for class in &metrics.classes {
            assert_eq!(class.completed, 4);
            assert!(class.batches >= 1);
            assert!(class.p99_us >= class.p50_us);
            assert!(class.p50_us > 0.0);
        }
        let total_class_batches: u64 = metrics.classes.iter().map(|c| c.batches).sum();
        assert_eq!(total_class_batches, metrics.batches);
        let report = metrics.report();
        assert!(report.contains("per-class breakdown"));
        assert!(report.contains("variance"));
    }

    #[test]
    fn graph_serving_shares_the_engine_cache_and_surfaces_metrics() {
        use rf_graph::builders;
        let engine = tiny_engine(1);
        let graph = Arc::new(builders::moe_block(4, 8, 4));
        let bindings: Vec<(String, rf_workloads::Matrix)> = builders::moe_block_inputs(4, 8, 4, 3)
            .into_iter()
            .map(|(n, m)| (n.to_string(), m))
            .collect();
        let serve = || -> Response {
            engine
                .submit(Submission::graph(Arc::clone(&graph), bindings.clone()))
                .unwrap()
                .wait()
                .unwrap()
        };
        let first = serve();
        let second = serve();
        assert_eq!(first.output, second.output);
        let first_stats = first.graph.expect("graph stats attached");
        let second_stats = second.graph.expect("graph stats attached");
        assert_eq!(first_stats.region_cache_hits, 0);
        assert_eq!(
            second_stats.region_cache_hits, 1,
            "the region plan is cached"
        );
        let metrics = engine.metrics();
        assert_eq!(metrics.graphs_served, 2);
        assert_eq!(metrics.graph_fused_ops, 2 * first_stats.fused_ops as u64);
        assert_eq!(metrics.graph_glue_ops, 2 * first_stats.glue_ops as u64);
        assert_eq!((metrics.region_hits, metrics.region_lookups), (1, 2));
        assert!(metrics.report().contains("graphs served"));
        // Graphs ride the unified stream, so they also count as served
        // requests under the "graph" class.
        assert_eq!(metrics.submitted, 2);
        assert_eq!(metrics.completed, 2);
        assert!(metrics.classes.iter().any(|c| c.class == "graph"));
        // The routing-softmax region landed in the same plan cache the
        // request path uses.
        assert_eq!(engine.cache_stats().misses, 1);
    }

    #[test]
    fn unified_submit_serves_graphs_asynchronously() {
        use rf_graph::builders;
        let engine = tiny_engine(2);
        let graph = Arc::new(builders::moe_block(4, 8, 4));
        let bindings: Vec<(String, rf_workloads::Matrix)> = builders::moe_block_inputs(4, 8, 4, 3)
            .into_iter()
            .map(|(n, m)| (n.to_string(), m))
            .collect();
        let reference = graph
            .evaluate(&builders::moe_block_inputs(4, 8, 4, 3))
            .unwrap();
        let ticket = engine
            .submit(Submission::graph(Arc::clone(&graph), bindings).with_priority(Priority::High))
            .unwrap();
        let response = ticket.wait().unwrap();
        assert_eq!(response.priority, Priority::High);
        assert_eq!(response.batch_size, 1, "graphs are singleton iterations");
        let stats = response.graph.expect("graph stats attached");
        assert!(stats.fused_regions >= 1);
        let RequestOutput::Tensors(outputs) = &response.output else {
            panic!("graph submissions produce tensors");
        };
        assert_eq!(outputs.len(), reference.len());
        assert!(outputs[0].max_abs_diff(&reference[0]) < 1e-9);
        assert!(response.workload.starts_with("graph["));
    }

    #[test]
    fn mean_batch_size_grows_when_shapes_repeat() {
        let engine = Engine::with_config(
            GpuArch::a10(),
            RuntimeConfig::builder()
                .workers(1)
                .max_batch(8)
                .cache_capacity(16)
                .build()
                .unwrap(),
        );
        for seed in 0..8 {
            engine
                .submit(Request::softmax(random_matrix(2, 64, seed, -1.0, 1.0)))
                .unwrap();
        }
        engine.run_until_drained();
        let metrics = engine.metrics();
        assert_eq!(metrics.completed, 8);
        assert!(
            metrics.mean_batch_size > 1.0,
            "identical shapes should have been batched (mean {})",
            metrics.mean_batch_size
        );
    }

    #[test]
    fn overload_sheds_are_counted_per_lane() {
        // One worker, a budget of 2: flood the engine and require typed,
        // counted sheds while everything admitted still completes.
        let engine = Engine::with_config(
            GpuArch::a10(),
            RuntimeConfig::builder()
                .workers(1)
                .max_batch(2)
                .max_in_flight(2)
                .cache_capacity(8)
                .build()
                .unwrap(),
        );
        let mut admitted = Vec::new();
        let mut sheds = 0usize;
        for seed in 0..64 {
            match engine.submit(Request::softmax(random_matrix(8, 256, seed, -1.0, 1.0))) {
                Ok(ticket) => admitted.push(ticket),
                Err(err @ RuntimeError::Overloaded { .. }) => {
                    assert_eq!(err.code(), "overloaded");
                    sheds += 1;
                }
                Err(other) => panic!("unexpected error: {other:?}"),
            }
        }
        engine.run_until_drained();
        for ticket in admitted {
            ticket.wait().unwrap();
        }
        let metrics = engine.metrics();
        assert_eq!(metrics.shed as usize, sheds);
        assert_eq!(metrics.submitted + metrics.shed, 64);
        assert_eq!(metrics.completed, metrics.submitted);
        let normal = &metrics.lanes[Priority::Normal.lane()];
        assert_eq!(normal.shed as usize, sheds);
        assert_eq!(normal.completed, metrics.completed);
        assert!(metrics.report().contains("requests shed"));
        if sheds > 0 {
            assert!(metrics.shed_retry_last_us > 0.0, "sheds carry retry hints");
            assert!(metrics.shed_retry_mean_us > 0.0);
            assert!(normal.shed_rate() > 0.0);
            assert!(metrics.report().contains("shed retry hint"));
        }
    }

    #[test]
    fn shed_retry_hint_covers_the_measured_execute_time() {
        // One worker, one request in flight at a time: a multi-ms softmax
        // keeps the device busy, so a second submission sheds while the
        // first executes.
        let engine = Engine::with_config(
            GpuArch::h800(),
            RuntimeConfig::builder()
                .workers(1)
                .max_batch(1)
                .max_in_flight(1)
                .build()
                .unwrap(),
        );
        let request = || Request::softmax(random_matrix(64, 2048, 3, -2.0, 2.0));
        // Warm the plan cache, then serve sequentially to measure the VM.
        let mut executed_us = Vec::new();
        for _ in 0..3 {
            let response = engine.submit(request()).unwrap().wait().unwrap();
            executed_us.push(response.timing().execute_us);
            // The ticket resolves before the worker frees its budget slot.
            engine.run_until_drained();
        }
        let retry_hint = loop {
            let admitted = engine.submit(request()).unwrap();
            match engine.submit(request()) {
                Err(RuntimeError::Overloaded { retry_hint, .. }) => {
                    executed_us.push(admitted.wait().unwrap().timing().execute_us);
                    break retry_hint;
                }
                Ok(ticket) => {
                    // The first finished before the second arrived: both
                    // served, try again.
                    for ticket in [admitted, ticket] {
                        executed_us.push(ticket.wait().unwrap().timing().execute_us);
                    }
                    engine.run_until_drained();
                }
                Err(other) => panic!("unexpected error: {other:?}"),
            }
        };
        let fastest_us = executed_us.iter().copied().fold(f64::INFINITY, f64::min);
        assert!(
            fastest_us > 1_000.0,
            "the workload must take milliseconds on the VM, took {fastest_us:.0} us"
        );
        // The hint is wall time (the modelled H800 latency of this softmax
        // is under 10 µs), clamped to 100 µs ..= 100 ms.
        let floor_us = fastest_us.clamp(100.0, 100_000.0) as u64;
        assert!(
            retry_hint >= std::time::Duration::from_micros(floor_us),
            "retry hint {retry_hint:?} is below the measured execute time {fastest_us:.0} us"
        );
        assert!(retry_hint <= std::time::Duration::from_millis(100));
    }

    #[test]
    fn responses_carry_a_wall_clock_timing_breakdown() {
        let engine = tiny_engine(1);
        let first = engine
            .submit(Request::softmax(random_matrix(2, 64, 1, -1.0, 1.0)))
            .unwrap()
            .wait()
            .unwrap();
        let timing = *first.timing();
        assert!(!first.cache_hit);
        assert!(timing.total_us > 0.0);
        assert!(timing.execute_us > 0.0);
        assert!(
            timing.compile_us > 0.0,
            "the first request of a shape pays the compile"
        );
        assert!(
            timing.tune_us <= timing.compile_us,
            "tuning is inside compile"
        );
        assert!(timing.accounted_us() <= timing.total_us * 1.001);
        // Same shape again: served off the cache, so no compile share.
        let second = engine
            .submit(Request::softmax(random_matrix(2, 64, 2, -1.0, 1.0)))
            .unwrap()
            .wait()
            .unwrap();
        assert!(second.cache_hit);
        assert_eq!(second.timing().compile_us, 0.0);
        assert_eq!(second.timing().tune_us, 0.0);
        // The stage histograms saw both requests.
        let metrics = engine.metrics();
        let e2e = metrics.stages.iter().find(|s| s.stage == "e2e").unwrap();
        assert_eq!(e2e.wall.count, 2);
        let compile = metrics
            .stages
            .iter()
            .find(|s| s.stage == "compile")
            .unwrap();
        assert_eq!(compile.wall.count, 1, "cache hits record no compile sample");
    }

    #[test]
    fn full_tracing_exports_a_valid_nested_chrome_trace() {
        let engine = Engine::with_config(
            GpuArch::a10(),
            RuntimeConfig::builder()
                .workers(2)
                .max_batch(4)
                .trace_level(rf_trace::TraceLevel::Full)
                .build()
                .unwrap(),
        );
        let tickets: Vec<Ticket> = (0..8)
            .map(|seed| {
                engine
                    .submit(Request::softmax(random_matrix(2, 32, seed, -1.0, 1.0)))
                    .unwrap()
            })
            .collect();
        engine.run_until_drained();
        let responses: Vec<Response> = tickets.into_iter().map(|t| t.wait().unwrap()).collect();
        let snapshot = engine.trace_snapshot();
        assert_eq!(snapshot.dropped, 0);
        // Every lifecycle stage appears, plus worker iteration spans.
        for name in ["submit", "queue", "execute", "deliver", "iteration"] {
            assert!(
                snapshot.events.iter().any(|e| e.name == name),
                "trace must contain `{name}` events"
            );
        }
        // Every event of a one-device engine is tagged with device 0.
        assert!(snapshot.events.iter().all(|e| e.device == Some(0)));
        let json = engine.chrome_trace();
        let stats = rf_trace::validate_chrome_trace(&json).expect("trace must be well-formed");
        assert!(stats.spans >= 8 * 2, "≥ queue+execute per request");
        assert!(stats.request_tracks >= 1);
        // The sampled request's spans account for its reported e2e latency.
        let sampled = &responses[0];
        let span_sum: f64 = snapshot
            .events
            .iter()
            .filter(|e| e.request == Some(sampled.id) && e.dur_us > 0.0)
            .map(|e| e.dur_us)
            .sum();
        let total = sampled.timing().total_us;
        assert!(
            span_sum <= total * 1.001 && span_sum >= total * 0.9,
            "request spans must sum to within 10% of the e2e latency \
             (spans {span_sum:.1} us vs e2e {total:.1} us)"
        );
    }

    #[test]
    fn tracing_off_records_no_spans_but_still_times_responses() {
        let engine = Engine::with_config(
            GpuArch::a10(),
            RuntimeConfig::builder()
                .workers(1)
                .trace(rf_trace::TraceConfig::off())
                .build()
                .unwrap(),
        );
        let response = engine
            .submit(Request::softmax(random_matrix(2, 32, 7, -1.0, 1.0)))
            .unwrap()
            .wait()
            .unwrap();
        assert!(
            response.timing().total_us > 0.0,
            "timing is always measured"
        );
        assert!(engine.trace_snapshot().events.is_empty());
        assert_eq!(engine.trace_collector().dropped(), 0);
        let metrics = engine.metrics();
        assert_eq!(metrics.trace_level, rf_trace::TraceLevel::Off);
        assert!(metrics.stages.iter().all(|s| s.wall.count == 0));
        assert_eq!(metrics.lifetime.count, 0);
    }

    #[test]
    fn graph_submissions_time_their_execute_stage() {
        use rf_graph::builders;
        let engine = Engine::with_config(
            GpuArch::a10(),
            RuntimeConfig::builder()
                .workers(1)
                .trace_level(rf_trace::TraceLevel::Full)
                .build()
                .unwrap(),
        );
        let graph = Arc::new(builders::moe_block(4, 8, 4));
        let bindings: Vec<(String, rf_workloads::Matrix)> = builders::moe_block_inputs(4, 8, 4, 3)
            .into_iter()
            .map(|(n, m)| (n.to_string(), m))
            .collect();
        let response = engine
            .submit(Submission::graph(graph, bindings))
            .unwrap()
            .wait()
            .unwrap();
        let timing = response.timing();
        assert!(timing.execute_us > 0.0);
        assert_eq!(
            timing.compile_us, 0.0,
            "region compiles hide inside execute"
        );
        assert!(timing.total_us >= timing.execute_us);
        let snapshot = engine.trace_snapshot();
        assert!(snapshot
            .events
            .iter()
            .any(|e| e.name == "execute" && e.class == Some("graph")));
        rf_trace::validate_chrome_trace(&engine.chrome_trace()).expect("graph trace well-formed");
    }

    #[test]
    fn serving_populates_calibration_and_timeseries() {
        let engine = tiny_engine(2);
        for seed in 0..6 {
            engine
                .submit(Request::softmax(random_matrix(4, 64, seed, -1.0, 1.0)))
                .unwrap();
        }
        engine.run_until_drained();
        let metrics = engine.metrics();
        assert!(!metrics.calibration.is_empty());
        let entry = &metrics.calibration[0];
        assert_eq!(entry.class, "softmax");
        assert_eq!(entry.arch, "NVIDIA A10");
        assert!(entry.samples >= 1);
        assert!(entry.predicted_mean_us > 0.0);
        assert!(entry.measured_mean_us > 0.0);
        assert!(entry.mean_ratio > 0.0);
        let window = metrics
            .timeseries
            .latest_active()
            .expect("serving filled a telemetry window");
        assert!(window.completed >= 1);
        assert!(window.throughput_rps > 0.0);
        // The engine-level exposition carries the fleet families plus
        // per-device labels.
        let text = engine.prometheus();
        assert!(text.contains("redfuser_calibration_mape_pct"));
        assert!(text.contains("redfuser_window_throughput_rps"));
        assert!(text.contains("redfuser_device_queue_depth{device=\"0\""));
    }

    #[test]
    fn op_profiler_captures_folded_stacks_only_when_enabled() {
        let engine = Engine::with_config(
            GpuArch::a10(),
            RuntimeConfig::builder()
                .workers(1)
                .trace(rf_trace::TraceConfig::default().with_profile(true))
                .build()
                .unwrap(),
        );
        engine
            .submit(Request::softmax(random_matrix(4, 64, 1, -2.0, 2.0)))
            .unwrap()
            .wait()
            .unwrap();
        let profile = engine.op_profile();
        assert!(!profile.is_empty(), "profiling was on");
        let folded = profile.folded();
        let frames = rf_trace::validate_folded(&folded).expect("folded output validates");
        assert!(frames >= 3, "softmax runs several op kinds, got {frames}");
        assert!(
            folded.contains("device-0;softmax;softmax_4x64;"),
            "frames are device;class;region;op:\n{folded}"
        );
        // Without the opt-in the profiler records nothing.
        let plain = tiny_engine(1);
        plain
            .submit(Request::softmax(random_matrix(4, 64, 1, -2.0, 2.0)))
            .unwrap()
            .wait()
            .unwrap();
        assert!(plain.op_profile().is_empty());
    }

    #[test]
    fn multi_device_fleet_spreads_load_and_merges_metrics() {
        let engine = Engine::with_fleet(FleetConfig::homogeneous(
            GpuArch::a10(),
            3,
            RuntimeConfig::builder()
                .workers(1)
                .max_batch(4)
                .cache_capacity(16)
                .build()
                .unwrap(),
        ));
        assert_eq!(engine.devices(), 3);
        let tickets: Vec<Ticket> = (0..24)
            .map(|seed| {
                engine
                    .submit(Request::softmax(random_matrix(4, 64, seed, -1.0, 1.0)))
                    .unwrap()
            })
            .collect();
        engine.run_until_drained();
        let mut devices_seen = std::collections::HashSet::new();
        for ticket in tickets {
            let response = ticket.wait().unwrap();
            assert!(response.device < 3);
            devices_seen.insert(response.device);
        }
        assert!(
            devices_seen.len() > 1,
            "least-loaded routing must use more than one device, saw {devices_seen:?}"
        );
        // The fleet-wide snapshot is the sum of the per-device ledgers.
        let merged = engine.metrics();
        assert_eq!(merged.completed, 24);
        let snapshots = engine.device_snapshots();
        assert_eq!(snapshots.len(), 3);
        let per_device_completed: u64 = snapshots.iter().map(|d| d.metrics.completed).sum();
        assert_eq!(per_device_completed, 24);
        assert!(snapshots.iter().all(|d| d.arch == "NVIDIA A10"));
        // Every device compiled the (one) shape it saw.
        assert!(merged.cache.misses >= devices_seen.len() as u64);
    }
}
