//! Engine configuration: tunables plus a validating builder.
//!
//! [`RuntimeConfig`] is constructed through [`RuntimeConfig::builder`],
//! which rejects configurations that would deadlock or misbehave at runtime
//! (zero worker counts, zero in-flight budgets, inverted priority-lane
//! weights) with typed [`RuntimeError::InvalidConfig`] errors instead of
//! letting the engine panic later.
//!
//! [`FleetConfig`] scales one engine to N devices: each device is named by
//! its [`GpuArch`] and executes on the tile VM, a [`RoutingPolicy`] decides
//! placement at the shared front door, and the per-device tunables
//! (`RuntimeConfig`) apply to every device uniformly — each device gets its
//! own worker pool, plan cache and in-flight budget of that size.

use crate::request::RuntimeError;
use crate::submit::LANES;
use rf_gpusim::GpuArch;
use rf_trace::{TraceConfig, TraceLevel};

/// Deficit-round-robin weights of the three priority lanes. Each iteration
/// boundary, every backlogged lane's credit grows by its weight and the lane
/// with the most credit seeds the batch, so a lane with weight `w` gets
/// roughly `w / (sum of backlogged weights)` of the iterations — and even
/// the lightest lane is served at a bounded interval (no starvation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneWeights {
    /// Weight of the [`crate::Priority::High`] lane.
    pub high: u32,
    /// Weight of the [`crate::Priority::Normal`] lane.
    pub normal: u32,
    /// Weight of the [`crate::Priority::Low`] lane.
    pub low: u32,
}

impl Default for LaneWeights {
    fn default() -> Self {
        LaneWeights {
            high: 4,
            normal: 2,
            low: 1,
        }
    }
}

impl LaneWeights {
    /// The weights as a lane-indexed array (see [`crate::Priority::lane`]).
    pub fn as_array(&self) -> [u64; LANES] {
        [self.high as u64, self.normal as u64, self.low as u64]
    }
}

/// Tunables of one [`crate::Engine`].
///
/// Build through [`RuntimeConfig::builder`] — the builder validates, so an
/// impossible configuration is a typed error at construction instead of a
/// panic inside the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuntimeConfig {
    /// Worker threads executing iterations.
    pub workers: usize,
    /// Maximum requests grouped into one iteration's batch.
    pub max_batch: usize,
    /// Maximum resident compiled plans.
    pub cache_capacity: usize,
    /// Bounded in-flight budget: the maximum number of submissions queued or
    /// executing at once. Submissions beyond it are shed with
    /// [`RuntimeError::Overloaded`] instead of queuing without bound.
    pub max_in_flight: usize,
    /// Priority-lane scheduling weights.
    pub lane_weights: LaneWeights,
    /// Tracing/telemetry level and span-buffer bound (see
    /// [`TraceConfig`]). Defaults to headline histograms only;
    /// [`TraceLevel::Full`] additionally buffers per-request spans for
    /// Chrome-trace export, [`TraceLevel::Off`] makes tracing zero-cost.
    pub trace: TraceConfig,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
            .clamp(2, 8);
        RuntimeConfig {
            workers,
            max_batch: 16,
            cache_capacity: 64,
            max_in_flight: 1024,
            lane_weights: LaneWeights::default(),
            trace: TraceConfig::default(),
        }
    }
}

impl RuntimeConfig {
    /// Starts a validating builder seeded with the defaults.
    pub fn builder() -> RuntimeConfigBuilder {
        RuntimeConfigBuilder {
            config: RuntimeConfig::default(),
        }
    }

    /// Checks the configuration's invariants.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::InvalidConfig`] describing the first violated
    /// invariant: zero workers / batch bound / cache capacity / in-flight
    /// budget, an in-flight budget smaller than one batch, a zero lane
    /// weight, or inverted lane weights (a lower-priority lane weighted
    /// above a higher-priority one).
    pub fn validate(&self) -> Result<(), RuntimeError> {
        let invalid = |detail: String| Err(RuntimeError::InvalidConfig { detail });
        if self.workers == 0 {
            return invalid("workers must be at least 1 (the pool could never serve)".into());
        }
        if self.max_batch == 0 {
            return invalid("max_batch must be at least 1".into());
        }
        if self.cache_capacity == 0 {
            return invalid("cache_capacity must be at least 1".into());
        }
        if self.max_in_flight == 0 {
            return invalid(
                "max_in_flight must be at least 1 (a zero budget sheds everything)".into(),
            );
        }
        if self.max_in_flight < self.max_batch {
            return invalid(format!(
                "max_in_flight ({}) must be >= max_batch ({}): a full batch must fit the budget",
                self.max_in_flight, self.max_batch
            ));
        }
        let w = self.lane_weights;
        if w.high == 0 || w.normal == 0 || w.low == 0 {
            return invalid(format!(
                "lane weights must all be positive, got high={} normal={} low={}",
                w.high, w.normal, w.low
            ));
        }
        if w.high < w.normal || w.normal < w.low {
            return invalid(format!(
                "lane weights are inverted (high={} normal={} low={}): \
                 a higher-priority lane must never be weighted below a lower one",
                w.high, w.normal, w.low
            ));
        }
        if self.trace.level == TraceLevel::Full && self.trace.capacity == 0 {
            return invalid(
                "trace capacity must be at least 1 at TraceLevel::Full \
                 (a zero buffer drops every span)"
                    .into(),
            );
        }
        if self.trace.window_ms == 0 || self.trace.windows == 0 {
            return invalid(format!(
                "telemetry windows must be non-degenerate, got window_ms={} windows={}",
                self.trace.window_ms, self.trace.windows
            ));
        }
        Ok(())
    }
}

/// How the fleet front door places submissions onto devices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RoutingPolicy {
    /// Route to the device with the shallowest queue (ties to the lowest
    /// device id). The default: balances load without any workload insight.
    #[default]
    LeastLoaded,
    /// Route by a stable hash of the workload key, so identical shapes
    /// always land on the same device — maximising that device's plan-cache
    /// and batch locality.
    StickyByKey,
    /// Tensor-parallel row-sharding for the GEMM-dominated families whose
    /// output rows are independent (MHA over query rows, quant-GEMM over
    /// activation rows): the row block is split across every device and the
    /// partial results are merged deterministically in device order.
    /// Everything that cannot shard falls back to [`Self::LeastLoaded`].
    RowShard,
}

impl RoutingPolicy {
    /// The policy's stable name (`"least-loaded"`, `"sticky"`,
    /// `"row-shard"`).
    pub fn name(self) -> &'static str {
        match self {
            RoutingPolicy::LeastLoaded => "least-loaded",
            RoutingPolicy::StickyByKey => "sticky",
            RoutingPolicy::RowShard => "row-shard",
        }
    }

    /// Looks a policy up by (case-insensitive) name.
    pub fn by_name(name: &str) -> Option<RoutingPolicy> {
        match name.to_ascii_lowercase().as_str() {
            "least-loaded" | "leastloaded" | "least" => Some(RoutingPolicy::LeastLoaded),
            "sticky" | "sticky-by-key" => Some(RoutingPolicy::StickyByKey),
            "row-shard" | "rowshard" | "shard" => Some(RoutingPolicy::RowShard),
            _ => None,
        }
    }
}

/// Configuration of a multi-device fleet engine: the device list, the
/// routing policy, and the per-device tunables.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// The devices' architectures, in id order. Device `i` of the running
    /// fleet compiles, tunes and costs for `devices[i]`.
    pub devices: Vec<GpuArch>,
    /// How the front door places submissions.
    pub routing: RoutingPolicy,
    /// Per-device tunables: every device gets its own worker pool, plan
    /// cache, and in-flight budget of this size. The trace level is shared
    /// (one collector serves the whole fleet, events are device-tagged).
    pub runtime: RuntimeConfig,
}

impl FleetConfig {
    /// A single-device fleet — behaviourally identical to the pre-fleet
    /// single-arch engine.
    pub fn single(arch: GpuArch) -> Self {
        FleetConfig::homogeneous(arch, 1, RuntimeConfig::default())
    }

    /// `devices` identical devices of `arch`, each tuned by `runtime`.
    pub fn homogeneous(arch: GpuArch, devices: usize, runtime: RuntimeConfig) -> Self {
        FleetConfig {
            devices: vec![arch; devices],
            routing: RoutingPolicy::default(),
            runtime,
        }
    }

    /// An explicitly mixed fleet, one device per listed architecture.
    pub fn heterogeneous(devices: Vec<GpuArch>, runtime: RuntimeConfig) -> Self {
        FleetConfig {
            devices,
            routing: RoutingPolicy::default(),
            runtime,
        }
    }

    /// Returns the configuration with `routing` as the placement policy.
    pub fn with_routing(mut self, routing: RoutingPolicy) -> Self {
        self.routing = routing;
        self
    }

    /// Checks the fleet's invariants: a non-empty device list and a valid
    /// per-device [`RuntimeConfig`].
    ///
    /// # Errors
    ///
    /// [`RuntimeError::InvalidConfig`] describing the first violation.
    pub fn validate(&self) -> Result<(), RuntimeError> {
        if self.devices.is_empty() {
            return Err(RuntimeError::InvalidConfig {
                detail: "fleet must have at least one device".into(),
            });
        }
        self.runtime.validate()
    }
}

/// Builder for [`RuntimeConfig`]; see [`RuntimeConfig::builder`].
#[derive(Debug, Clone)]
pub struct RuntimeConfigBuilder {
    config: RuntimeConfig,
}

impl RuntimeConfigBuilder {
    /// Sets the worker-thread count.
    pub fn workers(mut self, workers: usize) -> Self {
        self.config.workers = workers;
        self
    }

    /// Sets the per-iteration batch bound.
    pub fn max_batch(mut self, max_batch: usize) -> Self {
        self.config.max_batch = max_batch;
        self
    }

    /// Sets the compiled-plan cache capacity.
    pub fn cache_capacity(mut self, cache_capacity: usize) -> Self {
        self.config.cache_capacity = cache_capacity;
        self
    }

    /// Sets the bounded in-flight budget.
    pub fn max_in_flight(mut self, max_in_flight: usize) -> Self {
        self.config.max_in_flight = max_in_flight;
        self
    }

    /// Sets the priority-lane weights (high, normal, low).
    pub fn lane_weights(mut self, high: u32, normal: u32, low: u32) -> Self {
        self.config.lane_weights = LaneWeights { high, normal, low };
        self
    }

    /// Sets the full tracing configuration (level + span-buffer bound).
    pub fn trace(mut self, trace: TraceConfig) -> Self {
        self.config.trace = trace;
        self
    }

    /// Sets just the tracing level, keeping the buffer bound.
    pub fn trace_level(mut self, level: TraceLevel) -> Self {
        self.config.trace.level = level;
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    ///
    /// See [`RuntimeConfig::validate`].
    pub fn build(self) -> Result<RuntimeConfig, RuntimeError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_validates() {
        assert!(RuntimeConfig::default().validate().is_ok());
        let built = RuntimeConfig::builder().build().unwrap();
        assert_eq!(built, RuntimeConfig::default());
    }

    #[test]
    fn builder_rejects_zero_counts_with_typed_errors() {
        for (builder, needle) in [
            (RuntimeConfig::builder().workers(0), "workers"),
            (RuntimeConfig::builder().max_batch(0), "max_batch"),
            (RuntimeConfig::builder().cache_capacity(0), "cache_capacity"),
            (RuntimeConfig::builder().max_in_flight(0), "max_in_flight"),
        ] {
            let err = builder.build().unwrap_err();
            assert_eq!(err.code(), "invalid_config");
            assert!(
                err.to_string().contains(needle),
                "error `{err}` should mention `{needle}`"
            );
        }
    }

    #[test]
    fn builder_rejects_inverted_and_zero_lane_weights() {
        let err = RuntimeConfig::builder()
            .lane_weights(1, 2, 4)
            .build()
            .unwrap_err();
        assert!(matches!(err, RuntimeError::InvalidConfig { .. }));
        assert!(err.to_string().contains("inverted"));
        let err = RuntimeConfig::builder()
            .lane_weights(4, 0, 1)
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("positive"));
        // Equal weights are fine (plain round-robin).
        assert!(RuntimeConfig::builder()
            .lane_weights(1, 1, 1)
            .build()
            .is_ok());
    }

    #[test]
    fn builder_sets_trace_levels_and_rejects_zero_full_buffers() {
        let config = RuntimeConfig::builder()
            .trace_level(TraceLevel::Full)
            .build()
            .unwrap();
        assert_eq!(config.trace.level, TraceLevel::Full);
        assert!(config.trace.capacity > 0, "default capacity survives");
        let config = RuntimeConfig::builder()
            .trace(TraceConfig::off())
            .build()
            .unwrap();
        assert_eq!(config.trace.level, TraceLevel::Off);
        let err = RuntimeConfig::builder()
            .trace(TraceConfig::full().with_capacity(0))
            .build()
            .unwrap_err();
        assert_eq!(err.code(), "invalid_config");
        assert!(err.to_string().contains("trace capacity"));
        // A zero buffer is fine when spans are not recorded anyway.
        assert!(RuntimeConfig::builder()
            .trace(TraceConfig::off().with_capacity(0))
            .build()
            .is_ok());
        // Degenerate telemetry windows are rejected at any level.
        let err = RuntimeConfig::builder()
            .trace(TraceConfig::off().with_windows(0, 64))
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("telemetry windows"));
    }

    #[test]
    fn fleet_config_validates_devices_and_names_round_trip() {
        let fleet = FleetConfig::homogeneous(GpuArch::a10(), 4, RuntimeConfig::default());
        assert_eq!(fleet.devices.len(), 4);
        assert_eq!(fleet.routing, RoutingPolicy::LeastLoaded);
        assert!(fleet.validate().is_ok());
        let empty = FleetConfig::heterogeneous(Vec::new(), RuntimeConfig::default());
        let err = empty.validate().unwrap_err();
        assert_eq!(err.code(), "invalid_config");
        assert!(err.to_string().contains("at least one device"));
        // An invalid per-device runtime fails fleet validation too.
        let mut bad = FleetConfig::single(GpuArch::a10());
        bad.runtime.workers = 0;
        assert!(bad.validate().is_err());
        for policy in [
            RoutingPolicy::LeastLoaded,
            RoutingPolicy::StickyByKey,
            RoutingPolicy::RowShard,
        ] {
            assert_eq!(RoutingPolicy::by_name(policy.name()), Some(policy));
        }
        assert!(RoutingPolicy::by_name("fifo").is_none());
        assert!(RoutingPolicy::by_name("predicted").is_none());
    }

    #[test]
    fn builder_rejects_budget_smaller_than_a_batch() {
        let err = RuntimeConfig::builder()
            .max_batch(16)
            .max_in_flight(8)
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("max_in_flight"));
        assert!(RuntimeConfig::builder()
            .max_batch(16)
            .max_in_flight(16)
            .build()
            .is_ok());
    }
}
