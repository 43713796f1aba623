//! A concurrent serving runtime over the RedFuser compiler pipeline.
//!
//! The compiler crates answer "how do I fuse and tune this cascade once"; this
//! crate answers "how do I serve an **open stream** of such requests". It adds
//! the layer both serving systems this repository mirrors are built around (a
//! router/worker split with compiled-model reuse and continuous batching):
//! callers submit [`Submission`]s — a single workload [`Request`], a whole
//! operator graph, or a pre-partitioned plan, each on a [`Priority`] lane —
//! through the unified [`Engine::submit`] front door, and a worker pool serves
//! them through four cooperating pieces:
//!
//! * [`PlanCache`] — a bounded, thread-safe LRU cache of tuned
//!   [`rf_codegen::CompiledKernel`]s keyed by [`rf_codegen::PlanKey`]
//!   (`(workload, arch)`), so detection, ACRF analysis, lowering and
//!   auto-tuning run once per distinct shape instead of once per request;
//! * [`StreamScheduler`] — iteration-level continuous batching: each engine
//!   iteration's batch is formed at the iteration boundary from whatever
//!   shape-compatible work is queued, so a request submitted while a batch is
//!   mid-flight joins a subsequent iteration instead of waiting for a drain.
//!   Admission is bounded ([`RuntimeConfig::max_in_flight`]) with graceful
//!   shedding ([`RuntimeError::Overloaded`] plus a retry hint), and the three
//!   priority lanes are scheduled by deficit-weighted round-robin so no lane
//!   starves;
//! * [`RuntimeMetrics`] — served/shed/batch counters, per-lane and per-class
//!   breakdowns, p50/p99 *simulated* latency from the `rf-gpusim` model,
//!   queue depth and cache hit rate, with a plain-text
//!   [`MetricsSnapshot::report`];
//! * [`RuntimeConfig`] — a validating [`RuntimeConfig::builder`] that rejects
//!   impossible configurations (zero workers, zero budgets, inverted lane
//!   weights) with typed [`RuntimeError::InvalidConfig`] errors.
//!
//! The [`Engine`] facade ties them together:
//!
//! ```
//! use rf_gpusim::GpuArch;
//! use rf_runtime::{Engine, Request};
//! use rf_workloads::random_matrix;
//!
//! let engine = Engine::new(GpuArch::h800());
//! let tickets: Vec<_> = (0..32)
//!     .map(|seed| {
//!         let rows = random_matrix(4, 128, seed, -2.0, 2.0);
//!         engine.submit(Request::softmax(rows)).unwrap()
//!     })
//!     .collect();
//! engine.run_until_drained();
//! assert!(tickets.into_iter().all(|t| t.wait().is_ok()));
//! // 32 identical shapes -> 1 compilation.
//! assert_eq!(engine.cache_stats().misses, 1);
//! ```
//!
//! Execution has one path: every device of the fleet interprets each cached
//! kernel's tile program on the `rf_tile::exec` VM ([`execute_plan`]; graph
//! submissions go through [`execute_graph_plan`]), so every served output is
//! computed. A device's [`rf_gpusim::GpuArch`] decides only what its plans
//! are compiled, tuned and costed for.
//!
//! Locking discipline: the scheduler mutex and the cache's `RwLock` protect
//! only queue and map state. Compilation runs behind a per-key
//! [`std::sync::OnceLock`] and kernel execution runs on `Arc` snapshots — no
//! lock is ever held across either.

pub mod cache;
pub mod config;
pub mod engine;
pub mod graph;
pub mod metrics;
pub mod request;
pub mod stream;
pub mod submit;

pub use cache::{CacheStats, PlanCache};
pub use config::{FleetConfig, LaneWeights, RoutingPolicy, RuntimeConfig, RuntimeConfigBuilder};
pub use engine::{DeviceSnapshot, Engine};
pub use graph::{execute_graph_plan, GraphResponse};
pub use metrics::{ClassSnapshot, LaneSnapshot, MetricsSnapshot, RuntimeMetrics};
pub use request::{
    execute_plan, execute_reference, OverloadInfo, Request, RequestId, RequestInput, RequestOutput,
    RuntimeError,
};
pub use stream::{QueuedWork, StreamScheduler, Ticket};
pub use submit::{GraphStats, Priority, RequestResult, RequestTiming, Response, Submission, LANES};
// Tracing/telemetry types (from `rf-trace`), re-exported so engine users
// configure and consume tracing without naming the crate.
pub use rf_trace::{
    CalibrationSnapshot, HistogramSnapshot, OpProfileSnapshot, Stage, TimeSeriesSnapshot,
    TraceCollector, TraceConfig, TraceLevel, TraceSnapshot, WindowSnapshot,
};
