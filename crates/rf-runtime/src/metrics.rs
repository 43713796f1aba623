//! Serving metrics: request/batch counters, simulated latency percentiles,
//! queue depth and cache effectiveness, with a plain-text report and a
//! Prometheus-style exposition.
//!
//! Two latency families coexist here:
//!
//! * **Simulated** latencies from the analytical GPU model (`rf-gpusim`) —
//!   the quantity the paper's evaluation reasons about. They feed both the
//!   bounded sliding windows (recent percentiles, as before) and, at
//!   [`TraceLevel::Histograms`] and above, lifetime-accurate HDR-style
//!   [`LogHistogram`]s ([`MetricsSnapshot::lifetime`], per class).
//! * **Wall-clock** per-stage times measured by the engine
//!   ([`crate::RequestTiming`]): queue wait, compile, tune, execute and
//!   end-to-end, recorded into per-[`Stage`] and per-lane histograms so a
//!   long run can attribute its served latency to pipeline stages.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use rf_codegen::TuningCacheStats;
use rf_trace::{
    CalibrationLedger, CalibrationSnapshot, HistogramSnapshot, LogHistogram, RollingTelemetry,
    Stage, TimeSeriesSnapshot, TraceConfig, TraceLevel, STAGES,
};

use crate::cache::CacheStats;
use crate::submit::{Priority, RequestTiming, LANES};

/// Number of most-recent latency samples kept for the percentile estimates.
/// Bounds the engine's memory at one `f64` per slot regardless of how long it
/// serves; the mean is maintained over the full lifetime separately.
pub const LATENCY_WINDOW: usize = 8192;

/// Per-workload-class latency window size. Classes are few (one per workload
/// family), so a smaller window per class keeps the total bound comparable to
/// the global one.
pub const CLASS_LATENCY_WINDOW: usize = 2048;

/// A sliding window of latency samples plus lifetime totals.
#[derive(Debug, Default)]
struct LatencyTrack {
    window: VecDeque<f64>,
    total_us: f64,
    count: u64,
    /// Simulated device-busy time: each executed batch's latency counted
    /// once (unlike `total_us`, which weights by batch size). The fleet's
    /// simulated-time throughput is served requests over the busiest
    /// device's `busy_us`.
    busy_us: f64,
}

/// Accumulators for one [`rf_codegen::Workload::class`]: request/batch
/// counters, plan-cache effectiveness, a bounded latency window and a
/// lifetime histogram.
#[derive(Debug, Default)]
struct ClassTrack {
    completed: u64,
    failed: u64,
    batches: u64,
    cache_hits: u64,
    window: VecDeque<f64>,
    /// Lifetime simulated-latency histogram (populated at
    /// [`TraceLevel::Histograms`] and above).
    lifetime: LogHistogram,
}

/// Per-priority-lane accumulators.
#[derive(Debug, Default)]
struct LaneTrack {
    submitted: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    shed: AtomicU64,
    /// Lifetime end-to-end wall-clock histogram (populated at
    /// [`TraceLevel::Histograms`] and above).
    wall: LogHistogram,
}

/// Thread-safe metric accumulators, owned by the engine and updated by the
/// worker pool.
#[derive(Debug, Default)]
pub struct RuntimeMetrics {
    /// How much telemetry to record (histograms are skipped at
    /// [`TraceLevel::Off`]).
    level: TraceLevel,
    /// Wall-clock per-stage histograms, indexed by [`Stage::index`].
    stage_walls: [LogHistogram; STAGES],
    /// Lifetime simulated-latency histogram (all classes).
    lifetime: LogHistogram,
    /// Last retry hint attached to a shed, as `f64::to_bits` microseconds.
    shed_retry_last_bits: AtomicU64,
    /// Sum of shed retry hints, in integer microseconds (mean = sum/shed).
    shed_retry_sum_us: AtomicU64,
    submitted: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    /// Submissions shed by admission control (`RuntimeError::Overloaded`).
    shed: AtomicU64,
    /// Per-priority-lane traffic, indexed by [`Priority::lane`].
    lanes: [LaneTrack; LANES],
    batches: AtomicU64,
    /// Simulated per-request latencies, in microseconds.
    latencies_us: Mutex<LatencyTrack>,
    /// Per-workload-class accumulators, keyed by `Workload::class()`.
    classes: Mutex<HashMap<&'static str, ClassTrack>>,
    /// Sum of batch sizes, for the mean batch size.
    batched_requests: AtomicU64,
    /// Whole graphs served end-to-end via graph submissions.
    graphs_served: AtomicU64,
    /// Graph ops executed inside fused regions, over all served graphs.
    graph_fused_ops: AtomicU64,
    /// Graph ops executed unfused as glue, over all served graphs.
    graph_glue_ops: AtomicU64,
    /// Fused-region plan lookups issued by graph serving.
    region_lookups: AtomicU64,
    /// Fused-region plan lookups served from the plan cache.
    region_hits: AtomicU64,
    /// Predicted-vs-measured latency ledger per (class, arch).
    calibration: CalibrationLedger,
    /// Rolling time-windowed telemetry (throughput, p99, shed rate, batch
    /// occupancy, busy fraction per fixed-width window).
    telemetry: RollingTelemetry,
}

/// A point-in-time view of one workload class's serving health.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassSnapshot {
    /// The workload class name (e.g. `"softmax"`, `"mha"`).
    pub class: &'static str,
    /// Requests of this class fully executed.
    pub completed: u64,
    /// Requests of this class whose execution failed (the ticket received an
    /// error instead of a result).
    pub failed: u64,
    /// Batches of this class executed.
    pub batches: u64,
    /// Batches of this class served from an already-compiled plan.
    pub cache_hits: u64,
    /// Median simulated latency over the class's recent window, in µs.
    pub p50_us: f64,
    /// 99th-percentile simulated latency over the class's recent window, µs.
    pub p99_us: f64,
    /// Lifetime simulated-latency histogram summary (p50/p99/p999 over the
    /// whole run, not just the recent window). All-zero at
    /// [`TraceLevel::Off`].
    pub lifetime: HistogramSnapshot,
}

impl ClassSnapshot {
    /// Fraction of this class's batches served from the plan cache, in
    /// `[0, 1]`.
    pub fn cache_hit_rate(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.batches as f64
        }
    }
}

/// A point-in-time view of one priority lane's traffic.
#[derive(Debug, Clone, PartialEq)]
pub struct LaneSnapshot {
    /// The lane name (`"high"`, `"normal"`, `"low"`).
    pub lane: &'static str,
    /// Submissions accepted onto this lane.
    pub submitted: u64,
    /// Submissions from this lane fully served.
    pub completed: u64,
    /// Submissions from this lane delivered an execution error.
    pub failed: u64,
    /// Submissions to this lane shed by admission control.
    pub shed: u64,
    /// Lifetime end-to-end wall-clock histogram summary for this lane.
    /// All-zero at [`TraceLevel::Off`].
    pub wall: HistogramSnapshot,
}

impl LaneSnapshot {
    /// Fraction of this lane's arrivals shed by admission control, in
    /// `[0, 1]` (sheds never count as submitted, so arrivals are
    /// `submitted + shed`).
    pub fn shed_rate(&self) -> f64 {
        let arrivals = self.submitted + self.shed;
        if arrivals == 0 {
            0.0
        } else {
            self.shed as f64 / arrivals as f64
        }
    }
}

/// A point-in-time wall-clock summary of one pipeline [`Stage`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageSnapshot {
    /// The stage name (also the span name in exported traces).
    pub stage: &'static str,
    /// Lifetime histogram summary of the stage's wall time.
    pub wall: HistogramSnapshot,
}

/// A point-in-time view of the runtime's health.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Requests accepted by `submit`.
    pub submitted: u64,
    /// Requests fully executed.
    pub completed: u64,
    /// Requests whose execution failed (delivered an error, not a result).
    pub failed: u64,
    /// Submissions shed by admission control with
    /// [`crate::RuntimeError::Overloaded`] — never accepted, so disjoint
    /// from `submitted`.
    pub shed: u64,
    /// Per-priority-lane traffic, highest lane first.
    pub lanes: Vec<LaneSnapshot>,
    /// Batches executed.
    pub batches: u64,
    /// Requests waiting or executing right now.
    pub queue_depth: usize,
    /// Mean batch size over all executed batches.
    pub mean_batch_size: f64,
    /// Median simulated request latency over the last [`LATENCY_WINDOW`]
    /// requests, in microseconds.
    pub p50_us: f64,
    /// 99th-percentile simulated request latency over the last
    /// [`LATENCY_WINDOW`] requests, in microseconds.
    pub p99_us: f64,
    /// Mean simulated request latency over the engine's lifetime, in
    /// microseconds.
    pub mean_us: f64,
    /// Total simulated device-busy time in microseconds: each executed
    /// batch's simulated latency counted once, regardless of batch size.
    /// In a fleet this is per device, so served requests over the busiest
    /// device's `busy_us` is the fleet's simulated-time throughput.
    pub busy_us: f64,
    /// The telemetry level the engine ran with.
    pub trace_level: TraceLevel,
    /// Lifetime simulated-latency histogram summary: p50/p99/p999 over the
    /// whole run (unbiased, unlike the sliding-window `p50_us`/`p99_us`).
    /// All-zero at [`TraceLevel::Off`].
    pub lifetime: HistogramSnapshot,
    /// Wall-clock per-stage breakdown in lifecycle order (queue, compile,
    /// tune, execute, e2e). Counts are zero at [`TraceLevel::Off`].
    pub stages: Vec<StageSnapshot>,
    /// The retry hint attached to the most recent shed, in microseconds
    /// (0 when nothing was shed).
    pub shed_retry_last_us: f64,
    /// Mean retry hint over all sheds, in microseconds.
    pub shed_retry_mean_us: f64,
    /// Plan-cache counters.
    pub cache: CacheStats,
    /// Auto-tuner warm-start cache counters (the searches behind plan-cache
    /// misses).
    pub tuning: TuningCacheStats,
    /// Per-workload-class breakdown (requests, latency percentiles, cache
    /// effectiveness), sorted by class name.
    pub classes: Vec<ClassSnapshot>,
    /// Whole graphs served end-to-end (graph submissions).
    pub graphs_served: u64,
    /// Graph ops executed inside fused regions, over all served graphs.
    pub graph_fused_ops: u64,
    /// Graph ops executed unfused as glue, over all served graphs.
    pub graph_glue_ops: u64,
    /// Fused-region plan lookups issued by graph serving.
    pub region_lookups: u64,
    /// Fused-region plan lookups served from the plan cache.
    pub region_hits: u64,
    /// Cost-model calibration per (class, arch): predicted vs
    /// measured latency, MAPE, relative-error percentiles and the drift
    /// flag. Empty at [`TraceLevel::Off`].
    pub calibration: Vec<CalibrationSnapshot>,
    /// Rolling time-windowed telemetry, oldest window first. Empty at
    /// [`TraceLevel::Off`].
    pub timeseries: TimeSeriesSnapshot,
}

impl MetricsSnapshot {
    /// Fraction of fused-region plan lookups served from the plan cache, in
    /// `[0, 1]`.
    pub fn region_hit_rate(&self) -> f64 {
        if self.region_lookups == 0 {
            0.0
        } else {
            self.region_hits as f64 / self.region_lookups as f64
        }
    }
}

/// Linear-interpolation percentile of an unsorted sample set, `p` in `[0, 100]`.
///
/// Non-finite samples (the infinite latency of an infeasible kernel, or a NaN
/// from downstream arithmetic on one) are ignored rather than allowed to
/// poison the ordering: the metrics path must never panic on a pathological
/// sample. Returns `0.0` when no finite samples remain.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut sorted: Vec<f64> = samples.iter().copied().filter(|v| v.is_finite()).collect();
    sorted.sort_by(f64::total_cmp);
    percentile_sorted(&sorted, p)
}

/// [`percentile`] over an already-sorted, all-finite sample set (sort once,
/// query many). Callers computing several percentiles of one window should
/// sort once and use this instead of paying [`percentile`]'s copy+sort per
/// call.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p.clamp(0.0, 100.0) / 100.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = rank - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

impl RuntimeMetrics {
    /// Creates zeroed metrics at the default [`TraceLevel::Histograms`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates zeroed metrics recording at `level`. At [`TraceLevel::Off`]
    /// every histogram update is skipped (one predictable branch), keeping
    /// the hot path as cheap as before tracing existed.
    pub fn with_level(level: TraceLevel) -> Self {
        RuntimeMetrics {
            level,
            ..Self::default()
        }
    }

    /// Creates zeroed metrics from a full [`TraceConfig`]: the trace level
    /// plus the rolling-telemetry window geometry (`window_ms` × `windows`).
    pub fn with_trace(config: TraceConfig) -> Self {
        RuntimeMetrics {
            level: config.level,
            telemetry: RollingTelemetry::new(config.window_ms, config.windows),
            ..Self::default()
        }
    }

    /// The telemetry level these metrics record at.
    pub fn level(&self) -> TraceLevel {
        self.level
    }

    /// Folds another metrics instance into this one — how a multi-device
    /// engine builds its fleet-wide snapshot from the per-device ledgers.
    ///
    /// Counters add and lifetime histograms merge exactly (bucket-aligned);
    /// the bounded recent-latency windows concatenate up to their capacity,
    /// so windowed percentiles over the merge are an approximation. The last
    /// shed retry hint is taken from `other` when it has seen any shed.
    pub fn merge_from(&self, other: &RuntimeMetrics) {
        for (mine, theirs) in [
            (&self.submitted, &other.submitted),
            (&self.completed, &other.completed),
            (&self.failed, &other.failed),
            (&self.shed, &other.shed),
            (&self.batches, &other.batches),
            (&self.batched_requests, &other.batched_requests),
            (&self.graphs_served, &other.graphs_served),
            (&self.graph_fused_ops, &other.graph_fused_ops),
            (&self.graph_glue_ops, &other.graph_glue_ops),
            (&self.region_lookups, &other.region_lookups),
            (&self.region_hits, &other.region_hits),
            (&self.shed_retry_sum_us, &other.shed_retry_sum_us),
        ] {
            mine.fetch_add(theirs.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        if other.shed.load(Ordering::Relaxed) > 0 {
            self.shed_retry_last_bits.store(
                other.shed_retry_last_bits.load(Ordering::Relaxed),
                Ordering::Relaxed,
            );
        }
        for (mine, theirs) in self.lanes.iter().zip(&other.lanes) {
            for (m, t) in [
                (&mine.submitted, &theirs.submitted),
                (&mine.completed, &theirs.completed),
                (&mine.failed, &theirs.failed),
                (&mine.shed, &theirs.shed),
            ] {
                m.fetch_add(t.load(Ordering::Relaxed), Ordering::Relaxed);
            }
            mine.wall.merge_from(&theirs.wall);
        }
        for (mine, theirs) in self.stage_walls.iter().zip(&other.stage_walls) {
            mine.merge_from(theirs);
        }
        self.lifetime.merge_from(&other.lifetime);
        {
            let theirs = other.latencies_us.lock().expect("metrics lock poisoned");
            let mut mine = self.latencies_us.lock().expect("metrics lock poisoned");
            mine.total_us += theirs.total_us;
            mine.count += theirs.count;
            mine.busy_us += theirs.busy_us;
            for &sample in &theirs.window {
                if mine.window.len() == LATENCY_WINDOW {
                    mine.window.pop_front();
                }
                mine.window.push_back(sample);
            }
        }
        let theirs = other.classes.lock().expect("metrics lock poisoned");
        let mut mine = self.classes.lock().expect("metrics lock poisoned");
        for (class, track) in theirs.iter() {
            let merged = mine.entry(class).or_default();
            merged.completed += track.completed;
            merged.failed += track.failed;
            merged.batches += track.batches;
            merged.cache_hits += track.cache_hits;
            for &sample in &track.window {
                if merged.window.len() == CLASS_LATENCY_WINDOW {
                    merged.window.pop_front();
                }
                merged.window.push_back(sample);
            }
            merged.lifetime.merge_from(&track.lifetime);
        }
        drop(mine);
        drop(theirs);
        self.calibration.merge_from(&other.calibration);
        self.telemetry.merge_from(&other.telemetry);
    }

    /// Records one accepted submission on `priority`'s lane.
    pub fn record_submit(&self, priority: Priority) {
        self.submitted.fetch_add(1, Ordering::Relaxed);
        self.lanes[priority.lane()]
            .submitted
            .fetch_add(1, Ordering::Relaxed);
        if self.level.histograms_enabled() {
            self.telemetry.record_submit();
        }
    }

    /// Rolls back one [`RuntimeMetrics::record_submit`] whose submission was
    /// rejected after counting (scheduler shutdown race or admission shed).
    pub fn cancel_submit(&self, priority: Priority) {
        self.submitted.fetch_sub(1, Ordering::Relaxed);
        self.lanes[priority.lane()]
            .submitted
            .fetch_sub(1, Ordering::Relaxed);
        if self.level.histograms_enabled() {
            self.telemetry.cancel_submit();
        }
    }

    /// Records one submission shed by admission control, together with the
    /// retry hint the caller was given (surfaced as last/mean in
    /// [`MetricsSnapshot`] so operators can see what backoff the engine is
    /// asking for).
    pub fn record_shed(&self, priority: Priority, retry_hint: Duration) {
        self.shed.fetch_add(1, Ordering::Relaxed);
        self.lanes[priority.lane()]
            .shed
            .fetch_add(1, Ordering::Relaxed);
        let hint_us = retry_hint.as_secs_f64() * 1e6;
        self.shed_retry_last_bits
            .store(hint_us.to_bits(), Ordering::Relaxed);
        self.shed_retry_sum_us
            .fetch_add(hint_us as u64, Ordering::Relaxed);
        if self.level.histograms_enabled() {
            self.telemetry.record_shed();
        }
    }

    /// Records `failed` submissions from `priority`'s lane delivered an
    /// execution error — the lane-level counterpart of the class-level
    /// failure count in [`RuntimeMetrics::record_batch`], keeping the
    /// per-lane invariant `submitted == completed + failed` exact once the
    /// queue drains.
    pub fn record_failed(&self, priority: Priority, failed: usize) {
        self.lanes[priority.lane()]
            .failed
            .fetch_add(failed as u64, Ordering::Relaxed);
    }

    /// Records one served request's wall-clock stage breakdown into the
    /// per-stage and per-lane histograms. No-op at [`TraceLevel::Off`]. A
    /// zero `compile_us` (plan-cache hit) contributes no compile/tune
    /// samples, so those histograms describe misses only.
    pub fn record_timing(&self, priority: Priority, timing: &RequestTiming) {
        if !self.level.histograms_enabled() {
            return;
        }
        self.stage_walls[Stage::Queue.index()].record_us(timing.queue_us);
        if timing.compile_us > 0.0 {
            self.stage_walls[Stage::Compile.index()].record_us(timing.compile_us);
        }
        if timing.tune_us > 0.0 {
            self.stage_walls[Stage::Tune.index()].record_us(timing.tune_us);
        }
        self.stage_walls[Stage::Execute.index()].record_us(timing.execute_us);
        self.stage_walls[Stage::EndToEnd.index()].record_us(timing.total_us);
        self.lanes[priority.lane()].wall.record_us(timing.total_us);
    }

    /// Records `served` submissions from `priority`'s lane fully served.
    /// Lane attribution only — class counters come from
    /// [`RuntimeMetrics::record_batch`], which has no per-request priority.
    pub fn record_served(&self, priority: Priority, served: usize) {
        self.lanes[priority.lane()]
            .completed
            .fetch_add(served as u64, Ordering::Relaxed);
    }

    /// Records one batch of workload class `class`: `executed` requests were
    /// served successfully (each experiencing the batch's simulated latency
    /// `latency_us`) and `failed` requests were delivered an execution error.
    /// `cache_hit` says whether the batch's plan came from the cache.
    ///
    /// Failed requests are never counted as completed and contribute no
    /// latency samples. Non-finite latencies (an infeasible kernel's infinite
    /// estimate) still count their requests as completed but are excluded
    /// from the latency distributions — a single infinite sample would
    /// otherwise poison the lifetime mean forever.
    pub fn record_batch(
        &self,
        class: &'static str,
        executed: usize,
        failed: usize,
        latency_us: f64,
        cache_hit: bool,
    ) {
        let size = executed + failed;
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batched_requests
            .fetch_add(size as u64, Ordering::Relaxed);
        self.completed.fetch_add(executed as u64, Ordering::Relaxed);
        self.failed.fetch_add(failed as u64, Ordering::Relaxed);
        {
            let mut classes = self.classes.lock().expect("metrics lock poisoned");
            let track = classes.entry(class).or_default();
            track.completed += executed as u64;
            track.failed += failed as u64;
            track.batches += 1;
            if cache_hit {
                track.cache_hits += 1;
            }
            if latency_us.is_finite() {
                for _ in 0..executed {
                    if track.window.len() == CLASS_LATENCY_WINDOW {
                        track.window.pop_front();
                    }
                    track.window.push_back(latency_us);
                }
                if self.level.histograms_enabled() {
                    for _ in 0..executed {
                        track.lifetime.record_us(latency_us);
                    }
                }
            }
        }
        if self.level.histograms_enabled() {
            self.telemetry
                .record_batch(executed as u64, failed as u64, latency_us, size as u64);
        }
        if !latency_us.is_finite() {
            return;
        }
        if self.level.histograms_enabled() {
            for _ in 0..executed {
                self.lifetime.record_us(latency_us);
            }
        }
        let mut track = self.latencies_us.lock().expect("metrics lock poisoned");
        track.total_us += latency_us * executed as f64;
        track.count += executed as u64;
        track.busy_us += latency_us;
        for _ in 0..executed {
            if track.window.len() == LATENCY_WINDOW {
                track.window.pop_front();
            }
            track.window.push_back(latency_us);
        }
    }

    /// Records one executed batch into the calibration ledger:
    /// `predicted_us` is the analytical model's estimate for the batch,
    /// `measured_us` the wall-clock time the tile VM actually took, keyed by
    /// (workload class, arch, arch fingerprint). No-op at
    /// [`TraceLevel::Off`].
    pub fn record_calibration(
        &self,
        class: &str,
        arch: &str,
        fingerprint: u64,
        predicted_us: f64,
        measured_us: f64,
    ) {
        if !self.level.histograms_enabled() {
            return;
        }
        self.calibration
            .record(class, arch, fingerprint, predicted_us, measured_us);
    }

    /// Records one graph served end-to-end: `fused_ops` graph ops were
    /// covered by fused regions, `glue_ops` executed unfused, and of the
    /// `region_lookups` per-region plan-cache lookups `region_hits` found an
    /// already-compiled plan.
    pub fn record_graph(
        &self,
        fused_ops: usize,
        glue_ops: usize,
        region_hits: usize,
        region_lookups: usize,
    ) {
        self.graphs_served.fetch_add(1, Ordering::Relaxed);
        self.graph_fused_ops
            .fetch_add(fused_ops as u64, Ordering::Relaxed);
        self.graph_glue_ops
            .fetch_add(glue_ops as u64, Ordering::Relaxed);
        self.region_hits
            .fetch_add(region_hits as u64, Ordering::Relaxed);
        self.region_lookups
            .fetch_add(region_lookups as u64, Ordering::Relaxed);
    }

    /// Builds a snapshot; the caller supplies the current queue depth plus the
    /// plan-cache and tuning-cache counters (owned by the engine). The latency
    /// window is copied out under the lock (dropping non-finite samples, see
    /// [`percentile`]) and sorted once outside it.
    pub fn snapshot(
        &self,
        queue_depth: usize,
        cache: CacheStats,
        tuning: TuningCacheStats,
    ) -> MetricsSnapshot {
        let (mut window, mean_us, busy_us) = {
            let track = self.latencies_us.lock().expect("metrics lock poisoned");
            let mean = if track.count == 0 {
                0.0
            } else {
                track.total_us / track.count as f64
            };
            (
                Vec::from_iter(track.window.iter().copied().filter(|v| v.is_finite())),
                mean,
                track.busy_us,
            )
        };
        window.sort_by(f64::total_cmp);
        let mut classes: Vec<ClassSnapshot> = {
            let tracks = self.classes.lock().expect("metrics lock poisoned");
            tracks
                .iter()
                .map(|(&class, track)| {
                    // `record_batch` only admits finite samples, so the
                    // window can be sorted as-is.
                    let mut class_window: Vec<f64> = track.window.iter().copied().collect();
                    class_window.sort_by(f64::total_cmp);
                    ClassSnapshot {
                        class,
                        completed: track.completed,
                        failed: track.failed,
                        batches: track.batches,
                        cache_hits: track.cache_hits,
                        p50_us: percentile_sorted(&class_window, 50.0),
                        p99_us: percentile_sorted(&class_window, 99.0),
                        lifetime: track.lifetime.snapshot(),
                    }
                })
                .collect()
        };
        classes.sort_by_key(|c| c.class);
        let batches = self.batches.load(Ordering::Relaxed);
        let batched = self.batched_requests.load(Ordering::Relaxed);
        let lanes = Priority::ALL
            .iter()
            .map(|priority| {
                let track = &self.lanes[priority.lane()];
                LaneSnapshot {
                    lane: priority.name(),
                    submitted: track.submitted.load(Ordering::Relaxed),
                    completed: track.completed.load(Ordering::Relaxed),
                    failed: track.failed.load(Ordering::Relaxed),
                    shed: track.shed.load(Ordering::Relaxed),
                    wall: track.wall.snapshot(),
                }
            })
            .collect();
        let stages = Stage::ALL
            .iter()
            .map(|stage| StageSnapshot {
                stage: stage.name(),
                wall: self.stage_walls[stage.index()].snapshot(),
            })
            .collect();
        let shed = self.shed.load(Ordering::Relaxed);
        let shed_retry_last_us = f64::from_bits(self.shed_retry_last_bits.load(Ordering::Relaxed));
        let shed_retry_mean_us = if shed == 0 {
            0.0
        } else {
            self.shed_retry_sum_us.load(Ordering::Relaxed) as f64 / shed as f64
        };
        MetricsSnapshot {
            submitted: self.submitted.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            shed,
            lanes,
            batches,
            queue_depth,
            mean_batch_size: if batches == 0 {
                0.0
            } else {
                batched as f64 / batches as f64
            },
            p50_us: percentile_sorted(&window, 50.0),
            p99_us: percentile_sorted(&window, 99.0),
            mean_us,
            busy_us,
            trace_level: self.level,
            lifetime: self.lifetime.snapshot(),
            stages,
            shed_retry_last_us,
            shed_retry_mean_us,
            cache,
            tuning,
            classes,
            graphs_served: self.graphs_served.load(Ordering::Relaxed),
            graph_fused_ops: self.graph_fused_ops.load(Ordering::Relaxed),
            graph_glue_ops: self.graph_glue_ops.load(Ordering::Relaxed),
            region_lookups: self.region_lookups.load(Ordering::Relaxed),
            region_hits: self.region_hits.load(Ordering::Relaxed),
            calibration: self.calibration.snapshot(),
            timeseries: self.telemetry.snapshot(),
        }
    }
}

impl MetricsSnapshot {
    /// Renders the snapshot as an aligned plain-text report.
    pub fn report(&self) -> String {
        let mut out = String::new();
        out.push_str("runtime metrics\n");
        out.push_str(&format!("  requests submitted   {:>12}\n", self.submitted));
        out.push_str(&format!("  requests completed   {:>12}\n", self.completed));
        out.push_str(&format!("  requests failed      {:>12}\n", self.failed));
        out.push_str(&format!("  requests shed        {:>12}\n", self.shed));
        out.push_str(&format!("  batches executed     {:>12}\n", self.batches));
        out.push_str(&format!(
            "  mean batch size      {:>12.2}\n",
            self.mean_batch_size
        ));
        out.push_str(&format!(
            "  queue depth          {:>12}\n",
            self.queue_depth
        ));
        out.push_str(&format!("  p50 latency (sim)    {:>9.2} us\n", self.p50_us));
        out.push_str(&format!("  p99 latency (sim)    {:>9.2} us\n", self.p99_us));
        out.push_str(&format!(
            "  mean latency (sim)   {:>9.2} us\n",
            self.mean_us
        ));
        if self.lifetime.count > 0 {
            out.push_str(&format!(
                "  lifetime sim latency p50 {:>9.2} us  p99 {:>9.2} us  p999 {:>9.2} us\n",
                self.lifetime.p50_us, self.lifetime.p99_us, self.lifetime.p999_us
            ));
        }
        if self.stages.iter().any(|s| s.wall.count > 0) {
            out.push_str("  per-stage wall time\n");
            for stage in &self.stages {
                if stage.wall.count == 0 {
                    continue;
                }
                out.push_str(&format!(
                    "    {:<8} n {:>8}  p50 {:>9.2} us  p99 {:>9.2} us  p999 {:>9.2} us\n",
                    stage.stage,
                    stage.wall.count,
                    stage.wall.p50_us,
                    stage.wall.p99_us,
                    stage.wall.p999_us
                ));
            }
        }
        if self.shed > 0 {
            out.push_str(&format!(
                "  shed retry hint      last {:>9.2} us  mean {:>9.2} us\n",
                self.shed_retry_last_us, self.shed_retry_mean_us
            ));
        }
        out.push_str(&format!(
            "  cache hits / misses  {:>6} / {:<6} ({:.1}% hit rate)\n",
            self.cache.hits,
            self.cache.misses,
            self.cache.hit_rate() * 100.0
        ));
        out.push_str(&format!(
            "  cache entries        {:>12} ({} evictions)\n",
            self.cache.entries, self.cache.evictions
        ));
        out.push_str(&format!(
            "  tuner warm starts    {:>6} / {:<6} ({} classes)\n",
            self.tuning.seeded, self.tuning.lookups, self.tuning.entries
        ));
        if self.graphs_served > 0 {
            out.push_str(&format!(
                "  graphs served        {:>12}\n",
                self.graphs_served
            ));
            out.push_str(&format!(
                "  graph ops fused      {:>6} / {:<6} ({} glue)\n",
                self.graph_fused_ops,
                self.graph_fused_ops + self.graph_glue_ops,
                self.graph_glue_ops
            ));
            out.push_str(&format!(
                "  region cache hits    {:>6} / {:<6} ({:.1}% hit rate)\n",
                self.region_hits,
                self.region_lookups,
                self.region_hit_rate() * 100.0
            ));
        }
        if self.lanes.iter().any(|l| l.submitted > 0 || l.shed > 0) {
            out.push_str("  per-lane breakdown\n");
            for lane in &self.lanes {
                out.push_str(&format!(
                    "    {:<10} submitted {:>8}  completed {:>8}  failed {:>6}  \
                     shed {:>8} ({:>5.1}% shed rate)\n",
                    lane.lane,
                    lane.submitted,
                    lane.completed,
                    lane.failed,
                    lane.shed,
                    lane.shed_rate() * 100.0
                ));
            }
        }
        if !self.classes.is_empty() {
            out.push_str("  per-class breakdown\n");
            for class in &self.classes {
                out.push_str(&format!(
                    "    {:<10} reqs {:>8}  p50 {:>9.2} us  p99 {:>9.2} us  cache {:>5.1}%\n",
                    class.class,
                    class.completed,
                    class.p50_us,
                    class.p99_us,
                    class.cache_hit_rate() * 100.0
                ));
            }
        }
        if !self.calibration.is_empty() {
            out.push_str("  calibration: modelled vs measured\n");
            for entry in &self.calibration {
                out.push_str(&format!(
                    "    {:<10} {:<12} n {:>6}  mape {:>6.1}%  rel-err p50 {:>5.2} p95 {:>5.2}  \
                     ratio {:>9.2}{}\n",
                    entry.class,
                    entry.arch,
                    entry.samples,
                    entry.mape_pct,
                    entry.rel_err_p50,
                    entry.rel_err_p95,
                    entry.mean_ratio,
                    if entry.drifting { "  DRIFTING" } else { "" }
                ));
            }
        }
        if let Some(window) = self.timeseries.latest_active() {
            out.push_str(&format!(
                "  latest window ({} ms)  rps {:>8.1}  p99 {:>9.2} us  shed {:>5.1}%  \
                 batch {:>5.2}  busy {:>5.1}%\n",
                self.timeseries.window_ms,
                window.throughput_rps,
                window.p99_us,
                window.shed_rate * 100.0,
                window.mean_batch,
                window.busy_frac * 100.0
            ));
        }
        out
    }

    /// Renders the snapshot in the Prometheus plain-text exposition format
    /// (counters for traffic, gauges for instantaneous state, summaries with
    /// `quantile` labels from the lifetime histograms). The string is
    /// scrape-ready: serve it verbatim under a `/metrics` endpoint.
    pub fn prometheus(&self) -> String {
        fn meta(out: &mut String, name: &str, kind: &str, help: &str) {
            out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
        }
        fn summary(out: &mut String, name: &str, labels: &str, hist: &HistogramSnapshot) {
            let sep = if labels.is_empty() { "" } else { "," };
            for (q, v) in [
                ("0.5", hist.p50_us),
                ("0.99", hist.p99_us),
                ("0.999", hist.p999_us),
            ] {
                out.push_str(&format!("{name}{{{labels}{sep}quantile=\"{q}\"}} {v}\n"));
            }
            let braces = if labels.is_empty() {
                String::new()
            } else {
                format!("{{{labels}}}")
            };
            out.push_str(&format!(
                "{name}_sum{braces} {}\n",
                hist.mean_us * hist.count as f64
            ));
            out.push_str(&format!("{name}_count{braces} {}\n", hist.count));
        }
        let mut out = String::new();
        meta(
            &mut out,
            "redfuser_requests_total",
            "counter",
            "Request traffic by outcome (submitted/completed/failed/shed).",
        );
        for (outcome, value) in [
            ("submitted", self.submitted),
            ("completed", self.completed),
            ("failed", self.failed),
            ("shed", self.shed),
        ] {
            out.push_str(&format!(
                "redfuser_requests_total{{outcome=\"{outcome}\"}} {value}\n"
            ));
        }
        meta(
            &mut out,
            "redfuser_batches_total",
            "counter",
            "Engine iterations that executed a batch.",
        );
        out.push_str(&format!("redfuser_batches_total {}\n", self.batches));
        meta(
            &mut out,
            "redfuser_queue_depth",
            "gauge",
            "Submissions queued or executing right now.",
        );
        out.push_str(&format!("redfuser_queue_depth {}\n", self.queue_depth));
        meta(
            &mut out,
            "redfuser_mean_batch_size",
            "gauge",
            "Mean requests per executed batch over the engine lifetime.",
        );
        out.push_str(&format!(
            "redfuser_mean_batch_size {}\n",
            self.mean_batch_size
        ));
        meta(
            &mut out,
            "redfuser_plan_cache_total",
            "counter",
            "Plan-cache lookups by result.",
        );
        for (result, value) in [
            ("hit", self.cache.hits),
            ("miss", self.cache.misses),
            ("eviction", self.cache.evictions),
        ] {
            out.push_str(&format!(
                "redfuser_plan_cache_total{{result=\"{result}\"}} {value}\n"
            ));
        }
        meta(
            &mut out,
            "redfuser_shed_retry_hint_us",
            "gauge",
            "Retry hint attached to the most recent shed, microseconds.",
        );
        out.push_str(&format!(
            "redfuser_shed_retry_hint_us {}\n",
            self.shed_retry_last_us
        ));
        meta(
            &mut out,
            "redfuser_sim_latency_us",
            "summary",
            "Lifetime simulated request latency, microseconds.",
        );
        summary(&mut out, "redfuser_sim_latency_us", "", &self.lifetime);
        meta(
            &mut out,
            "redfuser_stage_wall_us",
            "summary",
            "Wall-clock time per pipeline stage, microseconds.",
        );
        for stage in &self.stages {
            summary(
                &mut out,
                "redfuser_stage_wall_us",
                &format!("stage=\"{}\"", stage.stage),
                &stage.wall,
            );
        }
        meta(
            &mut out,
            "redfuser_lane_requests_total",
            "counter",
            "Per-priority-lane traffic by outcome.",
        );
        for lane in &self.lanes {
            for (outcome, value) in [
                ("submitted", lane.submitted),
                ("completed", lane.completed),
                ("failed", lane.failed),
                ("shed", lane.shed),
            ] {
                out.push_str(&format!(
                    "redfuser_lane_requests_total{{lane=\"{}\",outcome=\"{outcome}\"}} {value}\n",
                    lane.lane
                ));
            }
        }
        meta(
            &mut out,
            "redfuser_lane_wall_us",
            "summary",
            "Per-lane end-to-end wall-clock latency, microseconds.",
        );
        for lane in &self.lanes {
            summary(
                &mut out,
                "redfuser_lane_wall_us",
                &format!("lane=\"{}\"", lane.lane),
                &lane.wall,
            );
        }
        meta(
            &mut out,
            "redfuser_class_sim_latency_us",
            "summary",
            "Per-workload-class lifetime simulated latency, microseconds.",
        );
        for class in &self.classes {
            summary(
                &mut out,
                "redfuser_class_sim_latency_us",
                &format!("class=\"{}\"", class.class),
                &class.lifetime,
            );
        }
        if !self.calibration.is_empty() {
            meta(
                &mut out,
                "redfuser_calibration_samples_total",
                "counter",
                "Predicted-vs-measured latency pairs recorded per (class, arch).",
            );
            for entry in &self.calibration {
                out.push_str(&format!(
                    "redfuser_calibration_samples_total{{{}}} {}\n",
                    calibration_labels(entry),
                    entry.samples
                ));
            }
            type Gauge = fn(&CalibrationSnapshot) -> f64;
            for (name, help, value) in [
                (
                    "redfuser_calibration_mape_pct",
                    "Mean absolute percentage error of the cost model's predictions.",
                    (|e: &CalibrationSnapshot| e.mape_pct) as Gauge,
                ),
                (
                    "redfuser_calibration_rel_err_p50",
                    "Median relative error of the cost model's predictions (windowed).",
                    |e: &CalibrationSnapshot| e.rel_err_p50,
                ),
                (
                    "redfuser_calibration_rel_err_p95",
                    "95th-percentile relative error of the cost model's predictions (windowed).",
                    |e: &CalibrationSnapshot| e.rel_err_p95,
                ),
                (
                    "redfuser_calibration_mean_ratio",
                    "Lifetime mean measured/predicted latency ratio.",
                    |e: &CalibrationSnapshot| e.mean_ratio,
                ),
                (
                    "redfuser_calibration_drifting",
                    "1 when the mean measured/predicted ratio left the drift band.",
                    |e: &CalibrationSnapshot| f64::from(e.drifting),
                ),
            ] {
                meta(&mut out, name, "gauge", help);
                for entry in &self.calibration {
                    out.push_str(&format!(
                        "{name}{{{}}} {}\n",
                        calibration_labels(entry),
                        value(entry)
                    ));
                }
            }
        }
        if let Some(window) = self.timeseries.latest_active() {
            for (name, help, value) in [
                (
                    "redfuser_window_throughput_rps",
                    "Completions per second over the latest active telemetry window.",
                    window.throughput_rps,
                ),
                (
                    "redfuser_window_p99_us",
                    "p99 simulated batch latency in the latest active window, microseconds.",
                    window.p99_us,
                ),
                (
                    "redfuser_window_shed_rate",
                    "Shed fraction of arrivals in the latest active window.",
                    window.shed_rate,
                ),
                (
                    "redfuser_window_mean_batch",
                    "Mean batch occupancy in the latest active window.",
                    window.mean_batch,
                ),
                (
                    "redfuser_window_busy_frac",
                    "Simulated device-busy fraction of the latest active window.",
                    window.busy_frac,
                ),
            ] {
                meta(&mut out, name, "gauge", help);
                out.push_str(&format!("{name} {value}\n"));
            }
        }
        out
    }

    /// [`MetricsSnapshot::prometheus`] plus per-device gauges: each device of
    /// the fleet contributes its own traffic counters, queue depth and
    /// latency summary under `device`/`arch` labels (from
    /// [`crate::Engine::device_snapshots`]), so a scrape can tell a hot
    /// device from an idle one inside an otherwise-aggregated fleet.
    pub fn prometheus_with_devices(&self, devices: &[crate::engine::DeviceSnapshot]) -> String {
        fn meta(out: &mut String, name: &str, kind: &str, help: &str) {
            out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
        }
        let mut out = self.prometheus();
        if devices.is_empty() {
            return out;
        }
        let label = |d: &crate::engine::DeviceSnapshot| {
            format!("device=\"{}\",arch=\"{}\"", d.device, d.arch)
        };
        meta(
            &mut out,
            "redfuser_device_requests_total",
            "counter",
            "Per-device request traffic by outcome.",
        );
        for d in devices {
            for (outcome, value) in [
                ("submitted", d.metrics.submitted),
                ("completed", d.metrics.completed),
                ("failed", d.metrics.failed),
                ("shed", d.metrics.shed),
            ] {
                out.push_str(&format!(
                    "redfuser_device_requests_total{{{},outcome=\"{outcome}\"}} {value}\n",
                    label(d)
                ));
            }
        }
        meta(
            &mut out,
            "redfuser_device_queue_depth",
            "gauge",
            "Per-device submissions queued or executing right now.",
        );
        for d in devices {
            out.push_str(&format!(
                "redfuser_device_queue_depth{{{}}} {}\n",
                label(d),
                d.metrics.queue_depth
            ));
        }
        meta(
            &mut out,
            "redfuser_device_busy_us",
            "gauge",
            "Per-device lifetime simulated busy time, microseconds.",
        );
        for d in devices {
            out.push_str(&format!(
                "redfuser_device_busy_us{{{}}} {}\n",
                label(d),
                d.metrics.busy_us
            ));
        }
        meta(
            &mut out,
            "redfuser_device_p99_us",
            "gauge",
            "Per-device recent-window p99 simulated latency, microseconds.",
        );
        for d in devices {
            out.push_str(&format!(
                "redfuser_device_p99_us{{{}}} {}\n",
                label(d),
                d.metrics.p99_us
            ));
        }
        out
    }
}

/// The Prometheus label set of one calibration entry.
fn calibration_labels(entry: &CalibrationSnapshot) -> String {
    format!("class=\"{}\",arch=\"{}\"", entry.class, entry.arch)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empty_cache_stats() -> CacheStats {
        CacheStats {
            hits: 0,
            misses: 0,
            evictions: 0,
            entries: 0,
        }
    }

    fn empty_tuning_stats() -> TuningCacheStats {
        TuningCacheStats::default()
    }

    #[test]
    fn percentile_interpolates() {
        let samples = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&samples, 0.0), 1.0);
        assert_eq!(percentile(&samples, 100.0), 4.0);
        assert!((percentile(&samples, 50.0) - 2.5).abs() < 1e-12);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn non_finite_samples_do_not_panic_the_metrics_path() {
        // Regression: sorting with `partial_cmp(...).expect(...)` panicked the
        // metrics path as soon as an infeasible kernel's infinite (or NaN)
        // latency reached a sample. Non-finite samples are now ignored.
        let samples = vec![
            4.0,
            f64::INFINITY,
            1.0,
            f64::NAN,
            3.0,
            f64::NEG_INFINITY,
            2.0,
        ];
        assert_eq!(percentile(&samples, 0.0), 1.0);
        assert_eq!(percentile(&samples, 100.0), 4.0);
        assert!((percentile(&samples, 50.0) - 2.5).abs() < 1e-12);
        assert_eq!(percentile(&[f64::NAN, f64::INFINITY], 50.0), 0.0);

        // The snapshot path filters the window the same way.
        let metrics = RuntimeMetrics::new();
        metrics.record_batch("softmax", 2, 0, 10.0, false);
        metrics.record_batch("softmax", 1, 0, f64::INFINITY, true);
        metrics.record_batch("softmax", 1, 0, f64::NAN, true);
        let snap = metrics.snapshot(0, empty_cache_stats(), empty_tuning_stats());
        assert_eq!(snap.p50_us, 10.0);
        assert_eq!(snap.p99_us, 10.0);
        assert_eq!(snap.completed, 4);
        assert_eq!(snap.mean_us, 10.0, "the lifetime mean must stay finite");
    }

    #[test]
    fn merge_from_folds_per_device_ledgers_into_one() {
        let a = RuntimeMetrics::new();
        let b = RuntimeMetrics::new();
        for _ in 0..3 {
            a.record_submit(Priority::Normal);
        }
        a.record_batch("softmax", 3, 0, 10.0, false);
        a.record_served(Priority::Normal, 3);
        for _ in 0..2 {
            b.record_submit(Priority::High);
        }
        b.record_batch("softmax", 1, 0, 30.0, true);
        b.record_batch("mha", 1, 1, 50.0, false);
        b.record_served(Priority::High, 2);
        b.record_failed(Priority::High, 1);
        b.record_shed(Priority::Low, Duration::from_micros(750));
        b.record_graph(4, 1, 1, 2);

        let merged = RuntimeMetrics::new();
        merged.merge_from(&a);
        merged.merge_from(&b);
        let snap = merged.snapshot(0, empty_cache_stats(), empty_tuning_stats());
        assert_eq!(snap.submitted, 5);
        assert_eq!(snap.completed, 5);
        assert_eq!(snap.failed, 1);
        assert_eq!(snap.shed, 1);
        assert_eq!(snap.batches, 3);
        assert_eq!(snap.shed_retry_last_us, 750.0);
        // Latency distribution spans both ledgers' windows.
        assert_eq!(snap.p50_us, 10.0);
        assert!(snap.p99_us > 10.0 && snap.p99_us <= 50.0);
        assert!((snap.mean_us - 22.0).abs() < 1e-12);
        // Busy time counts each batch's latency once: 10 + 30 + 50.
        assert!((snap.busy_us - 90.0).abs() < 1e-12);
        // Classes merge by name, keeping their per-class counters.
        let softmax = snap.classes.iter().find(|c| c.class == "softmax").unwrap();
        assert_eq!((softmax.completed, softmax.batches), (4, 2));
        assert_eq!(softmax.cache_hits, 1);
        let mha = snap.classes.iter().find(|c| c.class == "mha").unwrap();
        assert_eq!((mha.completed, mha.failed), (1, 1));
        // Lanes merge positionally.
        assert_eq!(snap.lanes[Priority::High.lane()].completed, 2);
        assert_eq!(snap.lanes[Priority::Normal.lane()].completed, 3);
        assert_eq!(snap.lanes[Priority::Low.lane()].shed, 1);
        // Graph counters ride along.
        assert_eq!(snap.graphs_served, 1);
        assert_eq!((snap.region_hits, snap.region_lookups), (1, 2));
        // The lifetime histogram merged exactly: 5 finite samples.
        assert_eq!(snap.lifetime.count, 5);
    }

    #[test]
    fn batches_update_counters_and_latency_distribution() {
        let metrics = RuntimeMetrics::new();
        for _ in 0..4 {
            metrics.record_submit(Priority::Normal);
        }
        metrics.record_batch("softmax", 3, 0, 10.0, false);
        metrics.record_batch("mha", 1, 0, 50.0, true);
        metrics.record_served(Priority::Normal, 3);
        metrics.record_served(Priority::High, 1);
        let snap = metrics.snapshot(0, empty_cache_stats(), empty_tuning_stats());
        assert_eq!(snap.submitted, 4);
        assert_eq!(snap.completed, 4);
        assert_eq!(snap.batches, 2);
        assert!((snap.mean_batch_size - 2.0).abs() < 1e-12);
        assert_eq!(snap.p50_us, 10.0);
        assert!(snap.p99_us > 10.0 && snap.p99_us <= 50.0);
        assert!((snap.mean_us - 20.0).abs() < 1e-12);
        // Lane attribution: 4 normal submissions, 3 normal + 1 high served.
        assert_eq!(snap.lanes.len(), LANES);
        assert_eq!(snap.lanes[0].lane, "high");
        assert_eq!((snap.lanes[0].submitted, snap.lanes[0].completed), (0, 1));
        assert_eq!((snap.lanes[1].submitted, snap.lanes[1].completed), (4, 3));
    }

    #[test]
    fn sheds_are_counted_per_lane_and_reported() {
        let metrics = RuntimeMetrics::new();
        let empty = metrics.snapshot(0, empty_cache_stats(), empty_tuning_stats());
        assert_eq!(empty.mean_us, 0.0, "no samples => zero mean");
        // An overloaded submission is first counted, then rolled back and
        // recorded as a shed — it must not inflate `submitted`.
        metrics.record_submit(Priority::Low);
        metrics.cancel_submit(Priority::Low);
        metrics.record_shed(Priority::Low, Duration::from_micros(200));
        metrics.record_shed(Priority::High, Duration::from_micros(400));
        let snap = metrics.snapshot(0, empty_cache_stats(), empty_tuning_stats());
        assert_eq!(snap.submitted, 0);
        assert_eq!(snap.shed, 2);
        assert_eq!(snap.lanes[Priority::Low.lane()].shed, 1);
        assert_eq!(snap.lanes[Priority::High.lane()].shed, 1);
        assert_eq!(snap.lanes[Priority::Low.lane()].submitted, 0);
        // Retry hints: last is the most recent shed's, mean averages both.
        assert!((snap.shed_retry_last_us - 400.0).abs() < 1e-9);
        assert!((snap.shed_retry_mean_us - 300.0).abs() < 1e-9);
        // Shed rate: the low lane saw 1 arrival, all shed.
        assert!((snap.lanes[Priority::Low.lane()].shed_rate() - 1.0).abs() < 1e-12);
        let report = snap.report();
        assert!(report.contains("requests shed"));
        assert!(report.contains("per-lane breakdown"));
        assert!(report.contains("low"));
        assert!(report.contains("shed retry hint"));
        assert!(report.contains("shed rate"));
    }

    #[test]
    fn shed_rate_is_zero_on_an_idle_lane() {
        let snap = RuntimeMetrics::new().snapshot(0, empty_cache_stats(), empty_tuning_stats());
        assert_eq!(snap.lanes[0].shed_rate(), 0.0);
        assert_eq!(snap.shed_retry_last_us, 0.0);
        assert_eq!(snap.shed_retry_mean_us, 0.0);
        assert!(
            !snap.report().contains("shed retry hint"),
            "the retry-hint line is omitted until something is shed"
        );
    }

    #[test]
    fn percentile_sorted_matches_percentile_on_a_shared_sort() {
        // Satellite regression: computing several percentiles of one window
        // must sort once, not once per call — and the shared-sort path must
        // agree exactly with the sort-per-call one.
        let samples: Vec<f64> = (0..1000)
            .map(|i| ((i * 7919) % 1000) as f64 * 0.5)
            .collect();
        let mut sorted = samples.clone();
        sorted.sort_by(f64::total_cmp);
        for p in [0.0, 10.0, 50.0, 90.0, 99.0, 99.9, 100.0] {
            assert_eq!(
                percentile(&samples, p),
                percentile_sorted(&sorted, p),
                "p{p} must be identical through both paths"
            );
        }
    }

    #[test]
    fn stage_timings_feed_histograms_unless_traced_off() {
        let timing = RequestTiming {
            queue_us: 100.0,
            compile_us: 5_000.0,
            tune_us: 3_000.0,
            execute_us: 400.0,
            total_us: 5_500.0,
            iterations_waited: 1,
        };
        let hit = RequestTiming {
            compile_us: 0.0,
            tune_us: 0.0,
            ..timing
        };
        let metrics = RuntimeMetrics::new();
        metrics.record_timing(Priority::Normal, &timing);
        metrics.record_timing(Priority::High, &hit);
        let snap = metrics.snapshot(0, empty_cache_stats(), empty_tuning_stats());
        let by_name = |name: &str| {
            snap.stages
                .iter()
                .find(|s| s.stage == name)
                .expect("stage present")
        };
        // Queue and e2e see both requests; compile/tune only the cache miss.
        assert_eq!(by_name("queue").wall.count, 2);
        assert_eq!(by_name("e2e").wall.count, 2);
        assert_eq!(by_name("compile").wall.count, 1);
        assert_eq!(by_name("tune").wall.count, 1);
        assert_eq!(by_name("execute").wall.count, 2);
        assert!((by_name("compile").wall.p50_us - 5_000.0).abs() / 5_000.0 < 0.08);
        // Lane attribution of the e2e wall time.
        assert_eq!(snap.lanes[Priority::Normal.lane()].wall.count, 1);
        assert_eq!(snap.lanes[Priority::High.lane()].wall.count, 1);
        assert!(snap.report().contains("per-stage wall time"));

        // At TraceLevel::Off the same recording is a no-op.
        let off = RuntimeMetrics::with_level(TraceLevel::Off);
        off.record_timing(Priority::Normal, &timing);
        off.record_batch("softmax", 4, 0, 10.0, true);
        let snap = off.snapshot(0, empty_cache_stats(), empty_tuning_stats());
        assert_eq!(snap.trace_level, TraceLevel::Off);
        assert!(snap.stages.iter().all(|s| s.wall.count == 0));
        assert_eq!(snap.lifetime.count, 0);
        // The sliding-window estimates still work at Off.
        assert_eq!(snap.p50_us, 10.0);
    }

    #[test]
    fn lifetime_histograms_track_the_full_run() {
        let metrics = RuntimeMetrics::new();
        // Overfill the sliding window with late slow samples: the window
        // forgets the fast early traffic, the lifetime histogram does not.
        metrics.record_batch("softmax", LATENCY_WINDOW, 0, 1.0, false);
        metrics.record_batch("softmax", LATENCY_WINDOW, 0, 1.0, true);
        metrics.record_batch("softmax", LATENCY_WINDOW, 0, 9.0, true);
        let snap = metrics.snapshot(0, empty_cache_stats(), empty_tuning_stats());
        assert_eq!(snap.p50_us, 9.0, "the window only remembers the tail");
        assert!(
            snap.lifetime.p50_us < 2.0,
            "the lifetime histogram remembers the 2/3 fast majority, got {}",
            snap.lifetime.p50_us
        );
        assert_eq!(snap.lifetime.count as usize, 3 * LATENCY_WINDOW);
        let softmax = &snap.classes[0];
        assert_eq!(softmax.lifetime.count as usize, 3 * LATENCY_WINDOW);
        assert!(snap.report().contains("lifetime sim latency"));
    }

    #[test]
    fn prometheus_exposition_contains_every_family() {
        let metrics = RuntimeMetrics::new();
        metrics.record_submit(Priority::Normal);
        metrics.record_batch("softmax", 1, 0, 12.5, false);
        metrics.record_served(Priority::Normal, 1);
        metrics.record_timing(
            Priority::Normal,
            &RequestTiming {
                queue_us: 10.0,
                compile_us: 100.0,
                tune_us: 50.0,
                execute_us: 30.0,
                total_us: 140.0,
                iterations_waited: 0,
            },
        );
        metrics.record_shed(Priority::Low, Duration::from_micros(250));
        let text = metrics
            .snapshot(2, empty_cache_stats(), empty_tuning_stats())
            .prometheus();
        for needle in [
            "# TYPE redfuser_requests_total counter",
            "redfuser_requests_total{outcome=\"submitted\"} 1",
            "redfuser_requests_total{outcome=\"shed\"} 1",
            "redfuser_queue_depth 2",
            "# TYPE redfuser_stage_wall_us summary",
            "redfuser_stage_wall_us{stage=\"queue\",quantile=\"0.5\"}",
            "redfuser_stage_wall_us_count{stage=\"compile\"} 1",
            "redfuser_lane_requests_total{lane=\"normal\",outcome=\"completed\"} 1",
            "redfuser_lane_wall_us{lane=\"normal\",quantile=\"0.99\"}",
            "redfuser_class_sim_latency_us{class=\"softmax\",quantile=\"0.5\"}",
            "redfuser_shed_retry_hint_us 250",
            "redfuser_sim_latency_us_count 1",
        ] {
            assert!(
                text.contains(needle),
                "exposition must contain `{needle}`:\n{text}"
            );
        }
        // Every line is either a comment or `name{labels} value`.
        for line in text.lines() {
            assert!(
                line.starts_with('#')
                    || line
                        .rsplit_once(' ')
                        .is_some_and(|(_, v)| v.parse::<f64>().is_ok()),
                "malformed exposition line: `{line}`"
            );
        }
    }

    #[test]
    fn calibration_and_timeseries_ride_the_snapshot() {
        let metrics = RuntimeMetrics::new();
        metrics.record_submit(Priority::Normal);
        metrics.record_batch("softmax", 2, 0, 10.0, false);
        // 10% over-prediction on every sample: MAPE 10, no drift.
        for _ in 0..4 {
            metrics.record_calibration("softmax", "NVIDIA A10", 42, 100.0, 90.0);
        }
        let snap = metrics.snapshot(0, empty_cache_stats(), empty_tuning_stats());
        assert_eq!(snap.calibration.len(), 1);
        let entry = &snap.calibration[0];
        assert_eq!((entry.class.as_str(), entry.samples), ("softmax", 4));
        assert!((entry.mape_pct - 10.0).abs() < 1e-9);
        assert!((entry.mean_ratio - 0.9).abs() < 1e-9);
        assert!(!entry.drifting);
        // The telemetry ring saw both the submit and the batch in its
        // current window.
        let window = snap.timeseries.latest_active().expect("an active window");
        assert_eq!(window.submitted, 1);
        assert_eq!(window.completed, 2);
        assert!(window.throughput_rps > 0.0);
        assert!(window.p99_us >= 10.0);
        // Both surface in the report and the exposition.
        let report = snap.report();
        assert!(report.contains("calibration: modelled vs measured"));
        assert!(!report.contains("DRIFTING"));
        assert!(report.contains("latest window"));
        let text = snap.prometheus();
        for needle in [
            "redfuser_calibration_samples_total{class=\"softmax\",arch=\"NVIDIA A10\"} 4",
            "# TYPE redfuser_calibration_mape_pct gauge",
            "redfuser_calibration_drifting{class=\"softmax\",arch=\"NVIDIA A10\"} 0",
            "redfuser_window_throughput_rps",
            "redfuser_window_busy_frac",
        ] {
            assert!(
                text.contains(needle),
                "exposition must contain `{needle}`:\n{text}"
            );
        }
        // The new families keep every line scrape-parseable.
        for line in text.lines() {
            assert!(
                line.starts_with('#')
                    || line
                        .rsplit_once(' ')
                        .is_some_and(|(_, v)| v.parse::<f64>().is_ok()),
                "malformed exposition line: `{line}`"
            );
        }
    }

    #[test]
    fn calibration_is_gated_off_and_merges_across_devices() {
        // At TraceLevel::Off neither ledger records anything.
        let off = RuntimeMetrics::with_level(TraceLevel::Off);
        off.record_calibration("softmax", "NVIDIA A10", 42, 100.0, 90.0);
        off.record_submit(Priority::Normal);
        off.record_batch("softmax", 1, 0, 10.0, false);
        let snap = off.snapshot(0, empty_cache_stats(), empty_tuning_stats());
        assert!(snap.calibration.is_empty());
        assert!(snap.timeseries.is_empty());

        // Two device ledgers fold into one fleet view.
        let a = RuntimeMetrics::new();
        let b = RuntimeMetrics::new();
        a.record_calibration("softmax", "NVIDIA A10", 42, 100.0, 90.0);
        b.record_calibration("softmax", "NVIDIA A10", 42, 100.0, 110.0);
        b.record_calibration("mha", "NVIDIA H800", 7, 50.0, 50.0);
        b.record_batch("mha", 1, 0, 20.0, true);
        let merged = RuntimeMetrics::new();
        merged.merge_from(&a);
        merged.merge_from(&b);
        let snap = merged.snapshot(0, empty_cache_stats(), empty_tuning_stats());
        assert_eq!(snap.calibration.len(), 2);
        let softmax = snap
            .calibration
            .iter()
            .find(|e| e.class == "softmax")
            .unwrap();
        assert_eq!(softmax.samples, 2);
        assert!((softmax.mean_ratio - 1.0).abs() < 1e-9);
        // Calibrated cost: the sample-weighted measured mean.
        assert_eq!(softmax.measured_mean_us, 100.0);
        let mha = snap.calibration.iter().find(|e| e.class == "mha").unwrap();
        assert_eq!(mha.measured_mean_us, 50.0);
        // The merged telemetry ring carries b's batch.
        let window = snap.timeseries.latest_active().expect("an active window");
        assert_eq!(window.completed, 1);
    }

    #[test]
    fn per_device_prometheus_carries_device_labels() {
        let a = RuntimeMetrics::new();
        a.record_submit(Priority::Normal);
        a.record_batch("softmax", 1, 0, 10.0, false);
        let b = RuntimeMetrics::new();
        let devices: Vec<crate::engine::DeviceSnapshot> = [("NVIDIA A10", &a), ("NVIDIA H800", &b)]
            .into_iter()
            .enumerate()
            .map(|(id, (arch, metrics))| crate::engine::DeviceSnapshot {
                device: id,
                arch,
                fingerprint: id as u64,
                metrics: metrics.snapshot(id, empty_cache_stats(), empty_tuning_stats()),
            })
            .collect();
        let merged = RuntimeMetrics::new();
        merged.merge_from(&a);
        merged.merge_from(&b);
        let text = merged
            .snapshot(1, empty_cache_stats(), empty_tuning_stats())
            .prometheus_with_devices(&devices);
        for needle in [
            "# TYPE redfuser_device_requests_total counter",
            "redfuser_device_requests_total{device=\"0\",arch=\"NVIDIA A10\",outcome=\"completed\"} 1",
            "redfuser_device_requests_total{device=\"1\",arch=\"NVIDIA H800\",outcome=\"completed\"} 0",
            "redfuser_device_queue_depth{device=\"1\",arch=\"NVIDIA H800\"} 1",
            "redfuser_device_busy_us{device=\"0\",arch=\"NVIDIA A10\"} 10",
            "redfuser_device_p99_us{device=\"0\"",
        ] {
            assert!(
                text.contains(needle),
                "exposition must contain `{needle}`:\n{text}"
            );
        }
        // The device families keep every line scrape-parseable.
        for line in text.lines() {
            assert!(
                line.starts_with('#')
                    || line
                        .rsplit_once(' ')
                        .is_some_and(|(_, v)| v.parse::<f64>().is_ok()),
                "malformed exposition line: `{line}`"
            );
        }
        // No devices => exactly the plain exposition.
        let plain = merged
            .snapshot(1, empty_cache_stats(), empty_tuning_stats())
            .prometheus();
        let with_none = merged
            .snapshot(1, empty_cache_stats(), empty_tuning_stats())
            .prometheus_with_devices(&[]);
        assert_eq!(plain, with_none);
    }

    #[test]
    fn latency_window_is_bounded_but_mean_is_lifetime() {
        let metrics = RuntimeMetrics::new();
        // Overfill the window: the old 1.0us samples must be displaced by the
        // later 9.0us ones for the percentiles, while the mean still sees all.
        metrics.record_batch("softmax", LATENCY_WINDOW, 0, 1.0, false);
        metrics.record_batch("softmax", LATENCY_WINDOW, 0, 9.0, true);
        metrics.record_batch("softmax", LATENCY_WINDOW, 0, 9.0, true);
        let snap = metrics.snapshot(0, empty_cache_stats(), empty_tuning_stats());
        assert_eq!(snap.completed as usize, 3 * LATENCY_WINDOW);
        assert_eq!(snap.p50_us, 9.0, "window holds only the latest samples");
        let track = metrics.latencies_us.lock().unwrap();
        assert_eq!(track.window.len(), LATENCY_WINDOW);
        drop(track);
        assert!((snap.mean_us - (1.0 + 9.0 + 9.0) / 3.0).abs() < 1e-12);
    }

    #[test]
    fn report_mentions_every_headline_number() {
        let metrics = RuntimeMetrics::new();
        metrics.record_submit(Priority::Normal);
        metrics.record_batch("softmax", 1, 0, 12.5, false);
        let report = metrics
            .snapshot(
                3,
                CacheStats {
                    hits: 9,
                    misses: 1,
                    evictions: 0,
                    entries: 1,
                },
                TuningCacheStats {
                    lookups: 2,
                    seeded: 1,
                    insertions: 2,
                    entries: 1,
                },
            )
            .report();
        assert!(report.contains("requests completed"));
        assert!(report.contains("p99 latency"));
        assert!(report.contains("90.0% hit rate"));
        assert!(report.contains("queue depth"));
        assert!(report.contains("tuner warm starts"));
        assert!(report.contains("1 / 2"));
        assert!(report.contains("per-class breakdown"));
        assert!(report.contains("softmax"));
    }

    #[test]
    fn per_class_breakdown_tracks_each_class_separately() {
        let metrics = RuntimeMetrics::new();
        // softmax: 3 batches (2 cache hits), fast; mha: 1 batch (miss), slow.
        metrics.record_batch("softmax", 2, 0, 10.0, false);
        metrics.record_batch("softmax", 4, 0, 12.0, true);
        metrics.record_batch("softmax", 2, 0, 14.0, true);
        metrics.record_batch("mha", 1, 0, 200.0, false);
        let snap = metrics.snapshot(0, empty_cache_stats(), empty_tuning_stats());
        assert_eq!(snap.classes.len(), 2);
        // Sorted by class name: mha before softmax.
        let mha = &snap.classes[0];
        let softmax = &snap.classes[1];
        assert_eq!(mha.class, "mha");
        assert_eq!((mha.completed, mha.batches, mha.cache_hits), (1, 1, 0));
        assert_eq!(mha.cache_hit_rate(), 0.0);
        assert_eq!(mha.p50_us, 200.0);
        assert_eq!(softmax.class, "softmax");
        assert_eq!(
            (softmax.completed, softmax.batches, softmax.cache_hits),
            (8, 3, 2)
        );
        assert!((softmax.cache_hit_rate() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(softmax.p50_us, 12.0);
        assert!(softmax.p99_us <= 14.0 && softmax.p99_us > 12.0);
        // Class percentiles are independent of the global distribution.
        assert!(snap.p99_us > softmax.p99_us);
        // Non-finite latencies count requests but never enter the window.
        metrics.record_batch("mha", 1, 0, f64::INFINITY, true);
        let snap = metrics.snapshot(0, empty_cache_stats(), empty_tuning_stats());
        let mha = &snap.classes[0];
        assert_eq!((mha.completed, mha.batches, mha.cache_hits), (2, 2, 1));
        assert_eq!(mha.p99_us, 200.0);
    }

    #[test]
    fn graph_counters_accumulate_and_render() {
        let metrics = RuntimeMetrics::new();
        let before = metrics.snapshot(0, empty_cache_stats(), empty_tuning_stats());
        assert_eq!(before.graphs_served, 0);
        assert_eq!(before.region_hit_rate(), 0.0);
        assert!(
            !before.report().contains("graphs served"),
            "graph lines are omitted until a graph is served"
        );
        // First graph: 2 regions (both compile), 9 fused ops, 8 glue ops.
        metrics.record_graph(9, 8, 0, 2);
        // Same graph again: both regions hit the plan cache.
        metrics.record_graph(9, 8, 2, 2);
        let snap = metrics.snapshot(0, empty_cache_stats(), empty_tuning_stats());
        assert_eq!(snap.graphs_served, 2);
        assert_eq!(snap.graph_fused_ops, 18);
        assert_eq!(snap.graph_glue_ops, 16);
        assert_eq!((snap.region_hits, snap.region_lookups), (2, 4));
        assert!((snap.region_hit_rate() - 0.5).abs() < 1e-12);
        let report = snap.report();
        assert!(report.contains("graphs served"));
        assert!(report.contains("graph ops fused"));
        assert!(report.contains("region cache hits"));
        assert!(report.contains("50.0% hit rate"));
    }

    #[test]
    fn class_windows_are_bounded() {
        let metrics = RuntimeMetrics::new();
        metrics.record_batch("quant", CLASS_LATENCY_WINDOW, 0, 1.0, false);
        metrics.record_batch("quant", CLASS_LATENCY_WINDOW, 0, 9.0, true);
        let snap = metrics.snapshot(0, empty_cache_stats(), empty_tuning_stats());
        let quant = &snap.classes[0];
        assert_eq!(quant.completed as usize, 2 * CLASS_LATENCY_WINDOW);
        assert_eq!(quant.p50_us, 9.0, "old samples displaced");
        let tracks = metrics.classes.lock().unwrap();
        assert_eq!(tracks["quant"].window.len(), CLASS_LATENCY_WINDOW);
    }
}
