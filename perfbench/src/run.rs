//! Engine set-up, the measured runs and the engine side of the load
//! generator.

use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

use rf_gpusim::GpuArch;
use rf_runtime::{Engine, Response, RuntimeConfig, RuntimeError, Submission, Ticket, TraceLevel};

use rand::Rng;

use crate::jobs::{self, Expected, Input, Kind};
use crate::loadgen::{self, Outcome, Record, Target};
use crate::meta::{self, StealLog};
use crate::stats;

/// Engine workers. The reference host (2-core KVM guest, Intel Xeon) has
/// two cores: one runs the engine's
/// worker, the other the load generator (see [`placement`]), so neither
/// waits for the other's time slice.
pub const WORKERS: usize = 1;
/// `serve_mixed` Poisson arrival rate, frozen on the seed commit at about
/// half the rate at which the mix's backlog starts to grow on the 2-core
/// reference host during its slow phases (about 8000 rps; near 17000 when the
/// shared host is quiet).
pub const SERVE_RATE_RPS: f64 = 4000.0;
/// Plan-cache capacity of `compile_cold`, below its number of distinct
/// shapes so every lookup misses and the LRU evicts.
pub const COLD_CACHE_CAPACITY: usize = 32;
/// Distinct shapes in the `compile_cold` pool. A run cycles through them
/// in order; with the plan cache at [`COLD_CACHE_CAPACITY`] entries and LRU
/// eviction, a shape is evicted long before it comes round again, so every
/// lookup misses. (Holding a fresh shape for every request of a run would
/// cost hundreds of MiB of inputs and references.)
pub const COLD_SHAPES: usize = 4096;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 9;
/// How long to wait for stragglers after the last send.
const DRAIN: Duration = Duration::from_secs(20);

/// The CPUs of the engine and of the load generator: the first two this
/// process may use, so the engine's worker and the client never compete
/// for a core. `None` (no pinning) with fewer than two.
pub fn placement() -> Option<(usize, usize)> {
    static PLACEMENT: OnceLock<Option<(usize, usize)>> = OnceLock::new();
    *PLACEMENT.get_or_init(|| match meta::allowed_cpus()[..] {
        [engine, client, ..] => Some((engine, client)),
        _ => None,
    })
}

/// The architecture the tuner targets (its cost model is the tuner's
/// objective; every time measured here is host wall-clock).
pub fn arch() -> GpuArch {
    GpuArch::h800()
}

/// The engine configuration of `kind` at tracing level `level`.
pub fn config(kind: Kind, level: TraceLevel) -> RuntimeConfig {
    let capacity = match kind {
        Kind::CompileCold => COLD_CACHE_CAPACITY,
        _ => 64,
    };
    RuntimeConfig::builder()
        .workers(WORKERS)
        .cache_capacity(capacity)
        .trace_level(level)
        .build()
        .expect("the benchmark's engine configuration is valid")
}

/// A request's latency limit for `slo_attain_frac`.
pub fn slo(kind: Kind) -> Duration {
    match kind {
        Kind::ServeMixed => Duration::from_millis(2),
        Kind::ExecLarge => Duration::from_millis(250),
        Kind::CompileCold => Duration::from_millis(100),
    }
}

/// The longest the observer goes without polling a pending request on
/// `kind` (it blocks on the oldest pending ticket, waking at once when that
/// one is delivered).
pub fn period(kind: Kind) -> Duration {
    match kind {
        Kind::ServeMixed => Duration::from_micros(50),
        Kind::ExecLarge | Kind::CompileCold => Duration::from_micros(200),
    }
}

/// The input pool of `kind`.
pub fn pool(kind: Kind, seed: u64) -> Vec<Input> {
    match kind {
        Kind::ServeMixed => jobs::serve_mixed(seed),
        Kind::ExecLarge => jobs::exec_large(seed),
        Kind::CompileCold => jobs::compile_cold(seed, COLD_SHAPES),
    }
}

/// The open-loop arrival schedule: Poisson arrivals at `rate` for `seconds`.
pub fn poisson_schedule(seed: u64, rate: f64, seconds: f64) -> Vec<Duration> {
    let mut rng = jobs::rng(seed, 4);
    let mut at = 0.0;
    let mut schedule = Vec::new();
    loop {
        at += -(1.0 - rng.gen_range(0.0..1.0)).ln() / rate;
        if at >= seconds {
            return schedule;
        }
        schedule.push(Duration::from_secs_f64(at));
    }
}

/// A ready engine and the references of the pool.
pub struct Ready {
    /// The warmed engine.
    pub engine: Engine,
    /// One reference per pool entry.
    pub expected: Vec<Expected>,
    /// Whether every warm-up output matched its reference.
    pub warmup_ok: bool,
}

/// Builds the engine, warms its plan cache with every distinct shape and
/// graph of the pool (not on `compile_cold`, whose point is the miss path)
/// and computes the pool's references.
pub fn setup(kind: Kind, pool: &[Input], level: TraceLevel) -> Ready {
    // Worker threads inherit the affinity of the thread that spawns them.
    let cpus = placement();
    if let Some((engine_cpu, _)) = cpus {
        meta::pin_to(engine_cpu);
    }
    let engine = Engine::with_config(arch(), config(kind, level));
    if let Some((_, client_cpu)) = cpus {
        meta::pin_to(client_cpu);
    }
    let expected: Vec<Expected> = pool.iter().map(Input::reference).collect();
    let mut warmup_ok = true;
    if kind != Kind::CompileCold {
        let tickets: Vec<_> = distinct(pool)
            .into_iter()
            .map(|i| {
                let ticket = engine
                    .submit(pool[i].submission())
                    .expect("warm-up fits the admission budget");
                (i, ticket)
            })
            .collect();
        for (i, ticket) in tickets {
            warmup_ok &= match ticket.wait() {
                Ok(response) => pool[i].check(&expected[i], &response.output),
                Err(_) => false,
            };
        }
    }
    Ready {
        engine,
        expected,
        warmup_ok,
    }
}

/// The first pool index of every distinct shape and graph, in a fixed
/// order that does not depend on the seed. Compiling in this order keeps the
/// tuner's warm starts, and so the chosen tuning points, the same for every
/// seed.
pub fn distinct(pool: &[Input]) -> Vec<usize> {
    let mut firsts = std::collections::BTreeMap::new();
    for (i, input) in pool.iter().enumerate() {
        let key = match input {
            Input::Single { request, .. } => format!("{:?}", request.workload),
            Input::Graph { kind, .. } => format!("{kind:?}"),
        };
        firsts.entry(key).or_insert(i);
    }
    firsts.into_values().collect()
}

/// Set-up repeated [`SETUP_REPEATS`] times; returns the last engine, whose
/// `warmup_ok` holds only if every set-up's warm-up matched the oracle, and
/// the median set-up time in seconds.
pub fn timed_setup(kind: Kind, pool: &[Input], level: TraceLevel) -> (Ready, f64) {
    let mut times = Vec::new();
    let mut all_ok = true;
    let mut ready: Option<Ready> = None;
    for _ in 0..SETUP_REPEATS {
        drop(ready.take());
        let started = Instant::now();
        let next = setup(kind, pool, level);
        times.push(started.elapsed().as_secs_f64());
        all_ok &= next.warmup_ok;
        ready = Some(next);
    }
    let mut ready = ready.expect("at least one set-up");
    ready.warmup_ok = all_ok;
    (ready, stats::median(&times))
}

/// One span recorded by the benchmark around a call into the program.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call name.
    pub name: &'static str,
    /// Request index the span belongs to.
    pub id: usize,
    /// Track (1 = sender, 2 = observer, 3 = replay).
    pub track: u32,
    /// Start, µs since the run's origin.
    pub start_us: f64,
    /// Duration in µs.
    pub dur_us: f64,
}

/// Most spans of each kind (driven, replayed) written to a span file.
pub const WRITTEN_SPANS: usize = 50_000;

/// Spans kept in memory until the run ends.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    list: Mutex<Vec<Span>>,
}

impl Spans {
    /// An empty log with room for `capacity` spans, whose times count from
    /// now. Reserving up front keeps a growing log from copying itself
    /// while the load generator waits on its lock.
    pub fn with_capacity(capacity: usize) -> Spans {
        Spans {
            origin: Instant::now(),
            list: Mutex::new(Vec::with_capacity(capacity)),
        }
    }

    /// Records `name` for request `id` on `track` over `[from, to]`.
    pub fn record(&self, name: &'static str, id: usize, track: u32, from: Instant, to: Instant) {
        let span = Span {
            name,
            id,
            track,
            start_us: (from.saturating_duration_since(self.origin)).as_secs_f64() * 1e6,
            dur_us: (to - from).as_secs_f64() * 1e6,
        };
        self.list.lock().expect("span log lock").push(span);
    }

    /// Durations (µs) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        let list = self.list.lock().expect("span log lock");
        list.iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_us)
            .collect()
    }

    /// The spans as Chrome trace-event JSON (loads in Perfetto), keeping
    /// the first [`WRITTEN_SPANS`] of the driven traffic and of the replay.
    /// Metrics use every span; the file is capped so a long traced run
    /// stays a few MiB on disk.
    pub fn chrome_json(&self) -> String {
        let list = self.list.lock().expect("span log lock");
        let driven = list.iter().filter(|s| s.track != 3).take(WRITTEN_SPANS);
        let replayed = list.iter().filter(|s| s.track == 3).take(WRITTEN_SPANS);
        let events: Vec<String> = driven
            .chain(replayed)
            .map(|s| {
                format!(
                    "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"request\":{}}}}}",
                    s.name, s.track, s.start_us, s.dur_us, s.id
                )
            })
            .collect();
        format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"))
    }
}

/// The engine as the load generator sees it.
pub struct EngineTarget<'a> {
    engine: &'a Engine,
    pool: &'a [Input],
    expected: &'a [Expected],
    spans: Option<&'a Spans>,
    depths: Mutex<Vec<usize>>,
    queue_us: Mutex<Vec<f64>>,
}

impl<'a> EngineTarget<'a> {
    /// Drives `engine` with `pool`, recording spans into `spans` if given.
    pub fn new(
        engine: &'a Engine,
        pool: &'a [Input],
        expected: &'a [Expected],
        spans: Option<&'a Spans>,
    ) -> Self {
        EngineTarget {
            engine,
            pool,
            expected,
            spans,
            depths: Mutex::new(Vec::new()),
            queue_us: Mutex::new(Vec::new()),
        }
    }

    /// Queue depths sampled by the observer (traced runs only).
    pub fn depths(&self) -> Vec<usize> {
        self.depths.lock().expect("depth samples lock").clone()
    }

    /// The engine's own report of each delivered request's queue wait
    /// (`RequestTiming::queue_us`), µs (traced runs only).
    pub fn queue_us(&self) -> Vec<f64> {
        self.queue_us.lock().expect("queue samples lock").clone()
    }
}

impl Target for EngineTarget<'_> {
    type Prepared = Submission;
    type Pending = (usize, Ticket);
    type Done = Result<Response, RuntimeError>;

    fn prepare(&self, index: usize) -> Submission {
        self.pool[index % self.pool.len()].submission()
    }

    fn send(&self, index: usize, request: Submission) -> Result<(usize, Ticket), Outcome> {
        let from = Instant::now();
        let result = self.engine.submit(request);
        if let Some(spans) = self.spans {
            spans.record("submit", index, 1, from, Instant::now());
        }
        result
            .map(|ticket| (index, ticket))
            .map_err(|err| match err {
                RuntimeError::Overloaded { .. } => Outcome::Shed,
                _ => Outcome::Failed,
            })
    }

    fn poll(&self, (index, ticket): &mut (usize, Ticket)) -> Option<Self::Done> {
        let from = self.spans.map(|_| Instant::now());
        let done = ticket.try_take();
        if let (Some(spans), Some(from), Some(_)) = (self.spans, from, &done) {
            spans.record("deliver", *index, 2, from, Instant::now());
        }
        done
    }

    fn wait(&self, (index, ticket): &mut (usize, Ticket), timeout: Duration) -> Option<Self::Done> {
        let from = self.spans.map(|_| Instant::now());
        let done = ticket.wait_timeout(timeout);
        if let (Some(spans), Some(from), Some(_)) = (self.spans, from, &done) {
            spans.record("deliver", *index, 2, from, Instant::now());
        }
        done
    }

    fn judge(&self, index: usize, done: Self::Done) -> Outcome {
        let i = index % self.pool.len();
        match done {
            Ok(response) => {
                if self.spans.is_some() {
                    let mut queue_us = self.queue_us.lock().expect("queue samples lock");
                    queue_us.push(response.timing.queue_us);
                }
                if self.pool[i].check(&self.expected[i], &response.output) {
                    Outcome::Ok
                } else {
                    Outcome::Wrong
                }
            }
            Err(_) => Outcome::Failed,
        }
    }

    fn tick(&self) {
        if self.spans.is_some() {
            let depth = self.engine.queue_depth();
            self.depths.lock().expect("depth samples lock").push(depth);
        }
    }
}

/// Unmeasured traffic before each measured run, so caches fill and lazy
/// set-up finishes before timing starts.
pub const WARMUP_SECONDS: f64 = 1.0;

/// Drives [`WARMUP_SECONDS`] of `kind`'s traffic through `engine` without
/// spans and returns how many outputs disagreed with the oracle.
pub fn warm(
    kind: Kind,
    engine: &Engine,
    pool: &[Input],
    expected: &[Expected],
    seed: u64,
) -> usize {
    let target = EngineTarget::new(engine, pool, expected, None);
    let warmup = drive(kind, &target, seed ^ 0x5741_524D, WARMUP_SECONDS);
    warmup
        .records
        .iter()
        .filter(|r| r.outcome == Outcome::Wrong)
        .count()
}

/// Drives `kind`'s traffic through `target` for `seconds`.
pub fn drive(kind: Kind, target: &EngineTarget<'_>, seed: u64, seconds: f64) -> loadgen::Run {
    let length = Duration::from_secs_f64(seconds);
    match kind {
        Kind::ServeMixed => loadgen::open_loop(
            target,
            &poisson_schedule(seed, SERVE_RATE_RPS, seconds),
            period(kind),
            DRAIN,
        ),
        Kind::ExecLarge => loadgen::closed_loop(target, WORKERS, length, period(kind), DRAIN),
        Kind::CompileCold => loadgen::closed_loop(target, 1, length, period(kind), DRAIN),
    }
}

/// End-to-end summary of one driven run.
#[derive(Debug, Clone)]
pub struct Summary {
    /// Requests sent (including refused ones).
    pub attempted: usize,
    /// Requests that succeeded with a correct output.
    pub ok: usize,
    /// Requests whose output disagreed with the oracle.
    pub wrong: usize,
    /// Requests refused at the door.
    pub shed: usize,
    /// Successful requests per second of sending.
    pub throughput_rps: f64,
    /// Latency percentiles of successful requests, µs.
    pub p50_us: f64,
    /// 90th percentile, µs.
    pub p90_us: f64,
    /// 99th percentile, µs.
    pub p99_us: f64,
    /// 99.9th percentile, µs.
    pub p999_us: f64,
    /// Share of requests sent that succeeded within the latency limit.
    pub slo_attain_frac: f64,
    /// Generator lateness percentiles, µs.
    pub lateness_p50_us: f64,
    /// Worst lateness, µs.
    pub lateness_max_us: f64,
    /// Share of sends more than 1 ms late.
    pub late_frac: f64,
    /// Delivery-stamp resolution percentiles, µs.
    pub resolution_p50_us: f64,
    /// 99th percentile of the stamp resolution, µs.
    pub resolution_p99_us: f64,
    /// Worst stamp resolution, µs.
    pub resolution_max_us: f64,
}

/// Width of the windows a run's sending phase is cut into, by due time.
pub const WINDOW: Duration = Duration::from_secs(1);
/// Most CPU time the host may steal in a window (as a share of the guest's
/// CPU time) for the window to count as quiet.
pub const QUIET_STEAL: f64 = 0.01;
/// Fewest windows the gated figures rest on: when fewer are quiet, the
/// least-stolen of the others make up the number. Five seconds still hold
/// more than a thousand requests on every workload, so even the p99 has
/// ten samples beyond it.
pub const MIN_WINDOWS: usize = 5;

/// The gated figures of a run: throughput and latency over the windows in
/// which the host stole (almost) no CPU time. On a shared virtual machine,
/// a second in which the hypervisor runs other guests on this guest's CPUs
/// raises the latency of every request due in it, by far more than any
/// bound could absorb, and such seconds come in bursts that cover part of
/// a run. Counting only quiet windows measures the program, not the
/// neighbours; the whole-run figures stay in [`Summary`].
#[derive(Debug, Clone)]
pub struct Gated {
    /// Windows in the sending phase.
    pub windows: usize,
    /// Windows with at most [`QUIET_STEAL`] stolen.
    pub quiet: usize,
    /// Windows the figures rest on.
    pub used: usize,
    /// Share of CPU time stolen over the windows used.
    pub used_steal_frac: f64,
    /// Successful requests due in the windows used, per second of them.
    pub throughput_rps: f64,
    /// Latency percentiles of those requests, µs.
    pub p50_us: f64,
    /// 90th percentile, µs.
    pub p90_us: f64,
    /// 99th percentile, µs.
    pub p99_us: f64,
    /// Share of the requests due in the windows used that succeeded within
    /// the latency limit.
    pub slo_attain_frac: f64,
}

impl Gated {
    /// Gates the `records` of a run that started at `start` and sent for
    /// `sending`, with the host's steal over it in `steal`, against latency
    /// limit `slo`.
    pub fn of(
        records: &[Record],
        sending: Duration,
        start: Instant,
        steal: &StealLog,
        slo: Duration,
    ) -> Gated {
        let windows = ((sending.as_secs_f64() / WINDOW.as_secs_f64()) as usize).max(1);
        let width = sending.as_secs_f64().max(1e-9) / windows as f64;
        let at = |w: usize| start + Duration::from_secs_f64(w as f64 * width);
        let stolen: Vec<f64> = (0..windows).map(|w| steal.frac(at(w), at(w + 1))).collect();
        let mut order: Vec<usize> = (0..windows).collect();
        order.sort_by(|&a, &b| stolen[a].total_cmp(&stolen[b]));
        let quiet = stolen.iter().filter(|&&f| f <= QUIET_STEAL).count();
        let used = quiet.max(MIN_WINDOWS).min(windows);
        let mut keep = vec![false; windows];
        for &w in &order[..used] {
            keep[w] = true;
        }
        let due: Vec<&Record> = records
            .iter()
            .filter(|r| keep[((r.due.as_secs_f64() / width) as usize).min(windows - 1)])
            .collect();
        let ok = || due.iter().filter(|r| r.outcome == Outcome::Ok);
        let within = ok().filter(|r| r.latency() <= slo).count();
        let latencies: Vec<f64> = ok().map(|r| r.latency().as_secs_f64() * 1e6).collect();
        let sorted = stats::sorted(&latencies);
        Gated {
            windows,
            quiet,
            used,
            used_steal_frac: order[..used].iter().map(|&w| stolen[w]).sum::<f64>() / used as f64,
            throughput_rps: sorted.len() as f64 / (used as f64 * width),
            p50_us: stats::quantile(&sorted, 0.5),
            p90_us: stats::quantile(&sorted, 0.9),
            p99_us: stats::quantile(&sorted, 0.99),
            slo_attain_frac: within as f64 / due.len().max(1) as f64,
        }
    }

    /// The gated tail percentile of `kind`: p99 on the closed loops, p90 on
    /// `serve_mixed`, whose p99 moves with the host's occasional
    /// millisecond stalls far more than any bound could absorb (its p99 and
    /// p99.9 stay in every result as diagnostics).
    pub fn tail_us(&self, kind: Kind) -> f64 {
        match kind {
            Kind::ServeMixed => self.p90_us,
            Kind::ExecLarge | Kind::CompileCold => self.p99_us,
        }
    }
}

impl Summary {
    /// Summarises `records` sent over `sending`, against latency limit `slo`.
    pub fn of(records: &[Record], sending: Duration, slo: Duration) -> Summary {
        let count = |o: Outcome| records.iter().filter(|r| r.outcome == o).count();
        let ok: Vec<&Record> = records
            .iter()
            .filter(|r| r.outcome == Outcome::Ok)
            .collect();
        let us = |d: Duration| d.as_secs_f64() * 1e6;
        let latency = stats::sorted(&ok.iter().map(|r| us(r.latency())).collect::<Vec<_>>());
        let lateness = stats::sorted(&records.iter().map(|r| us(r.lateness())).collect::<Vec<_>>());
        let resolution = stats::sorted(&ok.iter().map(|r| us(r.bound)).collect::<Vec<_>>());
        let within = ok.iter().filter(|r| r.latency() <= slo).count();
        let attempted = records.len().max(1);
        Summary {
            attempted: records.len(),
            ok: ok.len(),
            wrong: count(Outcome::Wrong),
            shed: count(Outcome::Shed),
            throughput_rps: ok.len() as f64 / sending.as_secs_f64().max(1e-9),
            p50_us: stats::quantile(&latency, 0.5),
            p90_us: stats::quantile(&latency, 0.9),
            p99_us: stats::quantile(&latency, 0.99),
            p999_us: stats::quantile(&latency, 0.999),
            slo_attain_frac: within as f64 / attempted as f64,
            lateness_p50_us: stats::quantile(&lateness, 0.5),
            lateness_max_us: lateness.last().copied().unwrap_or(0.0),
            late_frac: lateness.iter().filter(|&&l| l > 1000.0).count() as f64 / attempted as f64,
            resolution_p50_us: stats::quantile(&resolution, 0.5),
            resolution_p99_us: stats::quantile(&resolution, 0.99),
            resolution_max_us: resolution.last().copied().unwrap_or(0.0),
        }
    }

    /// Failed, shed and wrong requests over requests attempted.
    pub fn error_frac(&self) -> f64 {
        (self.attempted - self.ok) as f64 / self.attempted.max(1) as f64
    }

    /// Whether the generator fell behind its schedule: more than 1% of
    /// sends over 1 ms late. Only the open loop has a schedule; in a closed
    /// loop lateness is the time the next request took to prepare after a
    /// slot freed (a large input's clone), which the latency includes and
    /// the result records, but which is not falling behind.
    pub fn generator_behind(&self, kind: Kind) -> bool {
        kind == Kind::ServeMixed && self.late_frac > 0.01
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A run of `seconds` with a request due every 10 ms, whose latency is
    /// 1 ms except in the `stolen` seconds (50 ms), where the host took 10%
    /// of the CPU time.
    fn run_with_steal(seconds: u64, stolen: &[u64]) -> (Vec<Record>, Instant, StealLog) {
        let start = Instant::now();
        let mut ticks = (0, 0);
        let mut samples = vec![(start, ticks)];
        for s in 0..seconds {
            ticks.0 += if stolen.contains(&s) { 20 } else { 0 };
            ticks.1 += 200;
            samples.push((start + Duration::from_secs(s + 1), ticks));
        }
        let records = (0..seconds * 100)
            .map(|i| {
                let due = Duration::from_millis(10 * i);
                let slow = stolen.contains(&(i / 100));
                let latency = Duration::from_millis(if slow { 50 } else { 1 });
                Record {
                    index: i as usize,
                    due,
                    sent: due,
                    observed: due + latency,
                    bound: Duration::ZERO,
                    outcome: Outcome::Ok,
                }
            })
            .collect();
        (records, start, StealLog::from_samples(samples))
    }

    #[test]
    fn gated_figures_leave_out_the_seconds_the_host_stole() {
        let (records, start, steal) = run_with_steal(20, &[5, 6, 7, 8, 9]);
        let slo = Duration::from_millis(10);
        let g = Gated::of(&records, Duration::from_secs(20), start, &steal, slo);
        assert_eq!((g.windows, g.quiet, g.used), (20, 15, 15));
        assert_eq!(g.used_steal_frac, 0.0);
        assert!((g.throughput_rps - 100.0).abs() < 1e-6);
        assert!((g.p99_us - 1000.0).abs() < 1e-6);
        assert_eq!(g.slo_attain_frac, 1.0);
        // The whole run still shows the stolen seconds.
        let whole = Summary::of(&records, Duration::from_secs(20), slo);
        assert!(whole.p90_us > 40_000.0 && whole.slo_attain_frac < 0.8);
    }

    #[test]
    fn a_run_with_few_quiet_seconds_rests_on_its_least_stolen_ones() {
        let stolen: Vec<u64> = (3..20).collect();
        let (records, start, steal) = run_with_steal(20, &stolen);
        let slo = Duration::from_millis(10);
        let g = Gated::of(&records, Duration::from_secs(20), start, &steal, slo);
        assert_eq!((g.quiet, g.used), (3, MIN_WINDOWS));
        assert!((g.used_steal_frac - 0.04).abs() < 1e-9);
        assert!((g.slo_attain_frac - 0.6).abs() < 1e-9);
    }
}
