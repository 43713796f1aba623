//! The fleet: N running devices behind one front door, plus the merger
//! thread that reassembles row-sharded submissions.
//!
//! The fleet owns the devices (each with its own scheduler, caches, metrics
//! and workers — see [`super::device`]), the shared [`TraceCollector`], and
//! a single merger thread. A row-sharded submission fans out as one full
//! per-device submission per row block; the merger waits on the shard
//! tickets **in device order** and concatenates the row-block partials, so
//! the merged output is deterministic regardless of device completion order.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use rf_trace::{ArgValue, OpProfiler, TraceCollector, TraceConfig, TraceEvent, Track};
use rf_workloads::Matrix;

use crate::config::{FleetConfig, RoutingPolicy};
use crate::request::{Request, RequestOutput, RuntimeError};
use crate::stream::{QueuedWork, Ticket};
use crate::submit::{Priority, RequestTiming, Response, Submission};

use super::device::{duration_us, Device};

/// Count of merges in flight, so `run_until_drained` can also wait for the
/// merger to deliver every outer ticket after the device queues empty.
#[derive(Default)]
struct MergeLedger {
    pending: Mutex<usize>,
    drained: Condvar,
}

impl MergeLedger {
    fn start(&self) {
        *self.pending.lock().expect("merge ledger poisoned") += 1;
    }

    fn finish(&self) {
        let mut pending = self.pending.lock().expect("merge ledger poisoned");
        *pending -= 1;
        if *pending == 0 {
            self.drained.notify_all();
        }
    }

    fn wait_zero(&self) {
        let mut pending = self.pending.lock().expect("merge ledger poisoned");
        while *pending > 0 {
            pending = self.drained.wait(pending).expect("merge ledger poisoned");
        }
    }
}

/// One row-sharded submission awaiting reassembly: the outer queue entry
/// (whose ticket the caller holds) plus the per-device shard tickets in
/// device order.
struct MergeJob {
    queued: QueuedWork,
    shards: Vec<Ticket>,
}

/// N devices behind one front door.
pub(crate) struct Fleet {
    pub devices: Vec<Device>,
    pub routing: RoutingPolicy,
    pub trace: Arc<TraceCollector>,
    /// The trace configuration every device started with (the merged
    /// fleet-wide snapshot re-uses its window geometry).
    pub trace_config: TraceConfig,
    /// The fleet-wide tile-VM op profiler; a no-op unless
    /// [`TraceConfig::profile`] is set.
    pub profiler: Arc<OpProfiler>,
    merges: Arc<MergeLedger>,
    merger_tx: Mutex<Option<Sender<MergeJob>>>,
    merger: Option<JoinHandle<()>>,
}

impl Fleet {
    /// Starts every device of `config` (already validated) plus the merger
    /// thread.
    pub fn start(config: &FleetConfig) -> Fleet {
        let trace = Arc::new(TraceCollector::new(config.runtime.trace));
        let profiler = Arc::new(OpProfiler::new(config.runtime.trace.profile));
        let devices: Vec<Device> = config
            .devices
            .iter()
            .enumerate()
            .map(|(id, arch)| {
                Device::start(
                    id,
                    arch,
                    &config.runtime,
                    Arc::clone(&trace),
                    Arc::clone(&profiler),
                )
            })
            .collect();
        let merges = Arc::new(MergeLedger::default());
        let (tx, rx) = std::sync::mpsc::channel();
        let merger = {
            let merges = Arc::clone(&merges);
            let trace = Arc::clone(&trace);
            std::thread::Builder::new()
                .name("rf-runtime-merger".into())
                .spawn(move || merge_loop(rx, &merges, &trace))
                .expect("spawning the shard merger failed")
        };
        Fleet {
            devices,
            routing: config.routing,
            trace,
            trace_config: config.runtime.trace,
            profiler,
            merges,
            merger_tx: Mutex::new(Some(tx)),
            merger: Some(merger),
        }
    }

    /// Per-device queue depths, in device order.
    pub fn depths(&self) -> Vec<usize> {
        self.devices
            .iter()
            .map(|d| d.shared.scheduler.depth())
            .collect()
    }

    /// Blocks until every device queue is empty and every pending merge has
    /// delivered its outer ticket.
    pub fn wait_drained(&self) {
        for device in &self.devices {
            device.shared.scheduler.wait_drained();
        }
        self.merges.wait_zero();
    }

    /// Fans `shards` out across the devices (shard `i` onto device `i`) and
    /// hands the shard tickets to the merger, which fulfils the outer ticket
    /// with the reassembled response.
    ///
    /// Admission is all-or-nothing from the caller's point of view: if any
    /// shard is shed, the outer submission fails with that error (shards
    /// already admitted still execute and are accounted on their devices —
    /// their results are discarded).
    pub fn submit_sharded(
        &self,
        outer_id: u64,
        next_id: &AtomicU64,
        submission: Submission,
        shards: Vec<Request>,
        priority: Priority,
    ) -> Result<Ticket, RuntimeError> {
        let shard_count = shards.len();
        let mut tickets = Vec::with_capacity(shard_count);
        for (device, shard) in self.devices.iter().zip(shards) {
            let shard_id = next_id.fetch_add(1, Ordering::Relaxed);
            let shard_submission = Submission::workload(shard).with_priority(priority);
            tickets.push(device.shared.enqueue(shard_id, shard_submission)?);
        }
        if self.trace.enabled() {
            self.trace.record(
                TraceEvent::instant("submit", self.trace.now_us(), Track::Request(outer_id))
                    .with_request(outer_id)
                    .with_lane(priority.name())
                    .with_arg("shards", ArgValue::U64(shard_count as u64)),
            );
        }
        let (queued, ticket) = QueuedWork::new(outer_id, submission);
        self.merges.start();
        let sent = {
            let tx = self.merger_tx.lock().expect("merger sender poisoned");
            match tx.as_ref() {
                Some(tx) => tx
                    .send(MergeJob {
                        queued,
                        shards: tickets,
                    })
                    .is_ok(),
                None => false,
            }
        };
        if !sent {
            // The merger is gone (shutdown race): the dropped `queued`
            // delivers an error to the ticket; balance the ledger here.
            self.merges.finish();
        }
        Ok(ticket)
    }

    /// Shuts the fleet down: closes the merge channel, fails every queued
    /// submission, joins the merger and then every device worker.
    pub fn shutdown(&mut self) {
        // Close the channel first so the merger exits after draining its
        // queue; shut the schedulers down before joining it so any shard
        // ticket it still waits on resolves (with `ShuttingDown`) instead of
        // blocking forever.
        drop(
            self.merger_tx
                .lock()
                .expect("merger sender poisoned")
                .take(),
        );
        for device in &self.devices {
            device.shared.scheduler.shutdown();
        }
        if let Some(merger) = self.merger.take() {
            let _ = merger.join();
        }
        for device in &mut self.devices {
            device.join_workers();
        }
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn merge_loop(rx: Receiver<MergeJob>, merges: &MergeLedger, trace: &TraceCollector) {
    while let Ok(job) = rx.recv() {
        merge_job(job, trace);
        merges.finish();
    }
}

/// Waits for every shard of one sharded submission and fulfils the outer
/// ticket with the row-concatenated response (or the first shard error).
fn merge_job(job: MergeJob, trace: &TraceCollector) {
    let MergeJob { queued, shards } = job;
    let outcome = shards
        .into_iter()
        .map(Ticket::wait)
        .collect::<Result<Vec<Response>, RuntimeError>>()
        .and_then(|responses| merge_responses(&queued, responses));
    if trace.enabled() {
        trace.record(
            TraceEvent::instant("merge", trace.now_us(), Track::Request(queued.id))
                .with_request(queued.id)
                .with_arg("ok", ArgValue::U64(outcome.is_ok() as u64)),
        );
    }
    queued.fulfil(outcome);
}

/// Concatenates per-device row-block partials (already in device order) into
/// the response the caller sees. The simulated latency is the slowest
/// shard's (devices run in parallel); the wall-clock stage times are
/// likewise element-wise maxima, except `total_us`, which is measured here —
/// submission to merged delivery.
fn merge_responses(
    queued: &QueuedWork,
    responses: Vec<Response>,
) -> Result<Response, RuntimeError> {
    let label = queued.submission.label();
    let mut rows = 0usize;
    let mut cols = 0usize;
    let mut data = Vec::new();
    let mut timing = RequestTiming::default();
    let mut simulated_us = 0.0f64;
    let mut batch_size = 1usize;
    let mut iteration = 0u64;
    let mut cache_hit = true;
    for response in &responses {
        let RequestOutput::Matrix(block) = &response.output else {
            return Err(RuntimeError::ExecutionFailed {
                workload: label.clone(),
            });
        };
        rows += block.rows();
        cols = block.cols();
        data.extend_from_slice(block.as_slice());
        simulated_us = simulated_us.max(response.simulated_us);
        batch_size = batch_size.max(response.batch_size);
        iteration = iteration.max(response.iteration);
        cache_hit &= response.cache_hit;
        timing.queue_us = timing.queue_us.max(response.timing.queue_us);
        timing.compile_us = timing.compile_us.max(response.timing.compile_us);
        timing.tune_us = timing.tune_us.max(response.timing.tune_us);
        timing.execute_us = timing.execute_us.max(response.timing.execute_us);
        timing.iterations_waited = timing
            .iterations_waited
            .max(response.timing.iterations_waited);
    }
    timing.total_us = duration_us(queued.submitted_at, Instant::now());
    Ok(Response {
        id: queued.id,
        workload: label,
        output: RequestOutput::Matrix(Matrix::from_vec(rows, cols, data)),
        simulated_us,
        batch_size,
        cache_hit,
        iteration,
        priority: queued.priority(),
        // The lowest participating device id; the shards ran on all of them.
        device: responses.first().map_or(0, |r| r.device),
        graph: None,
        timing,
    })
}
