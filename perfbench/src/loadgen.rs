//! Open- and closed-loop load generation with order-independent delivery
//! observation.
//!
//! A request's latency runs from the time it was *due* to be sent to the
//! moment its delivery is *observed*:
//!
//! * open loop — `due` is the request's slot in a precomputed arrival
//!   schedule, so a generator that falls behind (a slow send, a late
//!   wake-up) charges the delay to every request scheduled during the stall;
//! * closed loop — `due` is the moment the window slot it fills was freed,
//!   i.e. when the previous occupant's delivery was observed.
//!
//! Deliveries are observed by sweeping every pending request with a
//! non-blocking poll, so completions are seen in the order they happen, not
//! the order requests were sent. Each record carries the resolution of its
//! own stamp: the time since the request was last seen undelivered (or was
//! sent). The true delivery lies in `[observed - bound, observed]`.

use std::collections::VecDeque;
use std::sync::mpsc::{self, Receiver, TryRecvError};
use std::thread;
use std::time::{Duration, Instant};

/// The fate of one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Delivered, and the output matched the oracle.
    Ok,
    /// Delivered an error, or never delivered before the drain deadline.
    Failed,
    /// Delivered an output that disagrees with the oracle.
    Wrong,
    /// Refused at the front door (admission control).
    Shed,
}

/// What the generator drives: the engine in a benchmark run, a fake with
/// known delays in the tests.
pub trait Target: Sync {
    /// A request built ahead of its send time (tensors cloned, submission
    /// assembled), so building it is not charged to its latency.
    type Prepared: Send;
    /// A sent request awaiting delivery.
    type Pending: Send;
    /// A delivered result, judged only after its delivery has been stamped.
    type Done;

    /// Builds request `index`.
    fn prepare(&self, index: usize) -> Self::Prepared;
    /// Sends a prepared request; `Err` carries the outcome of a refusal.
    fn send(&self, index: usize, request: Self::Prepared) -> Result<Self::Pending, Outcome>;
    /// Returns the result once delivered, without blocking.
    fn poll(&self, pending: &mut Self::Pending) -> Option<Self::Done>;
    /// Blocks up to `timeout` for the result, returning as soon as it is
    /// delivered.
    fn wait(&self, pending: &mut Self::Pending, timeout: Duration) -> Option<Self::Done>;
    /// Checks a delivered result.
    fn judge(&self, index: usize, done: Self::Done) -> Outcome;
    /// Called by the observer about once a millisecond (for sampling).
    fn tick(&self) {}
}

/// One request's timeline, as offsets from the start of the run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Record {
    /// Request index.
    pub index: usize,
    /// When it was due to be sent.
    pub due: Duration,
    /// When the send began.
    pub sent: Duration,
    /// When its delivery (or refusal) was observed.
    pub observed: Duration,
    /// Resolution of `observed`: the delivery happened at most this long
    /// before it was observed.
    pub bound: Duration,
    /// What happened to it.
    pub outcome: Outcome,
}

impl Record {
    /// Latency from the due time to the observed delivery.
    pub fn latency(&self) -> Duration {
        self.observed.saturating_sub(self.due)
    }

    /// How late the generator sent it.
    pub fn lateness(&self) -> Duration {
        self.sent.saturating_sub(self.due)
    }
}

/// The records of one run, with the instant all offsets are measured from.
#[derive(Debug)]
pub struct Run {
    /// Time zero of every record.
    pub start: Instant,
    /// One record per request sent, in observation order.
    pub records: Vec<Record>,
    /// Length of the sending phase (the measured interval).
    pub sending: Duration,
}

struct Inflight<P> {
    index: usize,
    due: Duration,
    sent: Duration,
    last_seen: Instant,
    pending: P,
}

/// A delivery stamped but not yet judged.
struct Delivered<P, D> {
    request: Inflight<P>,
    at: Instant,
    done: D,
}

impl<P, D> Delivered<P, D> {
    fn record<T: Target<Done = D>>(self, target: &T, start: Instant) -> Record {
        Record {
            index: self.request.index,
            due: self.request.due,
            sent: self.request.sent,
            observed: self.at - start,
            bound: self.at - self.request.last_seen,
            outcome: target.judge(self.request.index, self.done),
        }
    }
}

fn refused(index: usize, due: Duration, sent: Duration, outcome: Outcome) -> Record {
    Record {
        index,
        due,
        sent,
        observed: sent,
        bound: Duration::ZERO,
        outcome,
    }
}

/// Sends request `i` at `start + schedule[i]` from a sender thread while the
/// calling thread observes deliveries, never blind for longer than `period`.
/// Requests still pending `drain` after the last send are recorded as
/// [`Outcome::Failed`].
pub fn open_loop<T: Target>(
    target: &T,
    schedule: &[Duration],
    period: Duration,
    drain: Duration,
) -> Run {
    let start = Instant::now();
    let (tx, rx) = mpsc::channel();
    let (records, sending) = thread::scope(|scope| {
        scope.spawn(move || {
            tighten_timer_slack();
            let mut next = (!schedule.is_empty()).then(|| target.prepare(0));
            for (index, &due) in schedule.iter().enumerate() {
                let request = next
                    .take()
                    .expect("each request is prepared before its turn");
                let now = Instant::now();
                if start + due > now {
                    thread::sleep(start + due - now);
                }
                let sent = start.elapsed();
                let result = target.send(index, request);
                if tx.send((index, due, sent, result)).is_err() {
                    return;
                }
                if index + 1 < schedule.len() {
                    next = Some(target.prepare(index + 1));
                }
            }
        });
        observe_open(target, start, rx, period, drain)
    });
    Run {
        start,
        records,
        sending,
    }
}

type Sent<P> = (usize, Duration, Duration, Result<P, Outcome>);

fn observe_open<T: Target>(
    target: &T,
    start: Instant,
    rx: Receiver<Sent<T::Pending>>,
    period: Duration,
    drain: Duration,
) -> (Vec<Record>, Duration) {
    tighten_timer_slack();
    let mut inflight = Vec::new();
    let mut records = Vec::new();
    let mut done_sending: Option<Instant> = None;
    let mut last_tick = Instant::now();
    loop {
        // Intake. With nothing pending there is nothing to time, so block
        // until the next send.
        while done_sending.is_none() {
            let message = if inflight.is_empty() {
                rx.recv().map_err(|_| TryRecvError::Disconnected)
            } else {
                rx.try_recv()
            };
            match message {
                Ok((index, due, sent, Ok(pending))) => inflight.push(Inflight {
                    index,
                    due,
                    sent,
                    last_seen: start + sent,
                    pending,
                }),
                Ok((index, due, sent, Err(outcome))) => {
                    records.push(refused(index, due, sent, outcome))
                }
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => done_sending = Some(Instant::now()),
            }
        }
        for delivered in observe(target, &mut inflight, period) {
            records.push(delivered.record(target, start));
        }
        if last_tick.elapsed() >= Duration::from_millis(1) {
            target.tick();
            last_tick = Instant::now();
        }
        if let Some(ended) = done_sending {
            if inflight.is_empty() || ended.elapsed() > drain {
                expire(start, inflight, &mut records);
                return (records, ended - start);
            }
        }
    }
}

/// Requests the closed loop's preparer thread keeps ready.
pub const AHEAD: usize = 2;

/// Keeps `window` requests in flight for `duration` from the calling thread:
/// each delivery frees a slot, and the next request is due at that moment.
/// A preparer thread builds up to [`AHEAD`] requests ahead, so building a
/// large one neither blinds the observer nor delays the next send.
pub fn closed_loop<T: Target>(
    target: &T,
    window: usize,
    duration: Duration,
    period: Duration,
    drain: Duration,
) -> Run {
    let window = window.max(1);
    thread::scope(|scope| {
        let (tx, rx) = mpsc::sync_channel(AHEAD);
        scope.spawn(move || {
            run_only_when_idle();
            for index in 0.. {
                if tx.send((index, target.prepare(index))).is_err() {
                    return;
                }
            }
        });
        let ready = move || {
            rx.recv()
                .expect("the preparer runs until the receiver is dropped")
        };
        drive_closed(target, window, duration, period, drain, ready)
    })
}

fn drive_closed<T: Target>(
    target: &T,
    window: usize,
    duration: Duration,
    period: Duration,
    drain: Duration,
    mut ready: impl FnMut() -> (usize, T::Prepared),
) -> Run {
    tighten_timer_slack();
    let start = Instant::now();
    let mut inflight: Vec<Inflight<T::Pending>> = Vec::new();
    let mut records = Vec::new();
    let mut freed: VecDeque<Duration> = (0..window).map(|_| Duration::ZERO).collect();
    let mut last_tick = Instant::now();
    let mut sending = None;
    loop {
        let delivered = observe(target, &mut inflight, period);
        freed.extend(delivered.iter().map(|d| d.at - start));
        if sending.is_none() && start.elapsed() >= duration {
            sending = Some(start.elapsed());
        }
        if sending.is_none() {
            while let Some(due) = freed.pop_front() {
                let (index, request) = ready();
                let sent = start.elapsed();
                match target.send(index, request) {
                    Ok(pending) => inflight.push(Inflight {
                        index,
                        due,
                        sent,
                        last_seen: start + sent,
                        pending,
                    }),
                    Err(outcome) => {
                        records.push(refused(index, due, sent, outcome));
                        freed.push_back(sent);
                        break;
                    }
                }
            }
        }
        // Judge once the freed slots are refilled.
        for d in delivered {
            records.push(d.record(target, start));
        }
        if last_tick.elapsed() >= Duration::from_millis(1) {
            target.tick();
            last_tick = Instant::now();
        }
        if let Some(sent_for) = sending {
            if inflight.is_empty() || start.elapsed() > sent_for + drain {
                expire(start, inflight, &mut records);
                return Run {
                    start,
                    records,
                    sending: sent_for,
                };
            }
        }
    }
}

/// Polls every pending request once, stamping each delivery as it is seen.
/// When none was delivered, blocks up to `period` on the oldest, so the
/// observer wakes at once for it and within `period` for the rest.
fn observe<T: Target>(
    target: &T,
    inflight: &mut Vec<Inflight<T::Pending>>,
    period: Duration,
) -> Vec<Delivered<T::Pending, T::Done>> {
    let swept_at = Instant::now();
    let mut delivered = Vec::new();
    let mut i = 0;
    while i < inflight.len() {
        if let Some(done) = target.poll(&mut inflight[i].pending) {
            let at = Instant::now();
            let request = inflight.swap_remove(i);
            delivered.push(Delivered { request, at, done });
        } else {
            // The poll ran after `swept_at`, so the delivery is later still.
            inflight[i].last_seen = swept_at;
            i += 1;
        }
    }
    if delivered.is_empty() {
        let oldest = (0..inflight.len()).min_by_key(|&i| inflight[i].due);
        if let Some(i) = oldest {
            if let Some(done) = target.wait(&mut inflight[i].pending, period) {
                let at = Instant::now();
                let request = inflight.swap_remove(i);
                delivered.push(Delivered { request, at, done });
            }
        }
    }
    delivered
}

fn expire<P>(start: Instant, inflight: Vec<Inflight<P>>, records: &mut Vec<Record>) {
    let now = start.elapsed();
    records.extend(
        inflight
            .into_iter()
            .map(|r| refused(r.index, r.due, r.sent, Outcome::Failed))
            .map(|r| Record { observed: now, ..r }),
    );
}

/// Moves the calling thread to `SCHED_IDLE`, so it runs only when its CPU
/// has nothing else to do: the preparer then never delays the observer.
fn run_only_when_idle() {
    #[cfg(target_os = "linux")]
    {
        use std::os::raw::c_int;
        #[repr(C)]
        struct SchedParam {
            priority: c_int,
        }
        extern "C" {
            fn sched_setscheduler(pid: c_int, policy: c_int, param: *const SchedParam) -> c_int;
        }
        const SCHED_IDLE: c_int = 5;
        let param = SchedParam { priority: 0 };
        // SAFETY: `param` is a valid `struct sched_param` (one int, which
        // SCHED_IDLE requires to be 0) that outlives the call, and pid 0
        // names the calling thread. A failure leaves the default policy.
        unsafe {
            sched_setscheduler(0, SCHED_IDLE, &param);
        }
    }
}

/// Asks the kernel to end this thread's timed sleeps within a microsecond
/// of their deadline instead of the default 50 µs slack, which an open loop
/// would otherwise charge to every request as lateness.
fn tighten_timer_slack() {
    #[cfg(target_os = "linux")]
    {
        use std::os::raw::{c_int, c_ulong};
        extern "C" {
            fn prctl(option: c_int, ...) -> c_int;
        }
        const PR_SET_TIMERSLACK: c_int = 29;
        // SAFETY: PR_SET_TIMERSLACK reads one unsigned long by value and only
        // changes the calling thread's timer slack; no memory is shared with
        // the kernel. A failure leaves the default slack, which is harmless.
        unsafe {
            prctl(PR_SET_TIMERSLACK, 1_000 as c_ulong);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// A ticket source with known per-request delays: request `i` is
    /// delivered `delays[i]` after its send returns, and `send` itself
    /// stalls for `stall.1` on request `stall.0`.
    struct Fake {
        delays: Vec<Duration>,
        stall: Option<(usize, Duration)>,
        delivered_at: Mutex<Vec<Option<Instant>>>,
    }

    impl Fake {
        fn new(delays: Vec<Duration>, stall: Option<(usize, Duration)>) -> Self {
            let n = delays.len();
            Fake {
                delays,
                stall,
                delivered_at: Mutex::new(vec![None; n]),
            }
        }

        fn truth(&self, index: usize) -> Instant {
            self.delivered_at.lock().expect("fake lock")[index].expect("delivered")
        }
    }

    impl Target for Fake {
        type Prepared = ();
        type Pending = Instant;
        type Done = Instant;

        fn prepare(&self, _index: usize) {}

        fn send(&self, index: usize, _request: ()) -> Result<Instant, Outcome> {
            if let Some((at, stall)) = self.stall {
                if at == index {
                    thread::sleep(stall);
                }
            }
            Ok(Instant::now() + self.delays[index])
        }

        fn poll(&self, ready_at: &mut Instant) -> Option<Instant> {
            (Instant::now() >= *ready_at).then_some(*ready_at)
        }

        fn wait(&self, ready_at: &mut Instant, timeout: Duration) -> Option<Instant> {
            let now = Instant::now();
            thread::sleep(
                (*ready_at)
                    .min(now + timeout)
                    .saturating_duration_since(now),
            );
            self.poll(ready_at)
        }

        fn judge(&self, index: usize, done: Instant) -> Outcome {
            self.delivered_at.lock().expect("fake lock")[index] = Some(done);
            Outcome::Ok
        }
    }

    const PERIOD: Duration = Duration::from_micros(200);

    fn every(period: Duration, n: usize) -> Vec<Duration> {
        (0..n).map(|i| period * i as u32).collect()
    }

    #[test]
    fn out_of_order_deliveries_are_stamped_within_the_stated_resolution() {
        // Within each group of ten, later requests finish first: request
        // 10g + j is delivered (9 - j) * 2 ms after it is sent.
        let n = 60;
        let delays = (0..n)
            .map(|i| Duration::from_millis(2 * (9 - i as u64 % 10)))
            .collect();
        let fake = Fake::new(delays, None);
        let run = open_loop(
            &fake,
            &every(Duration::from_millis(1), n),
            PERIOD,
            Duration::from_secs(5),
        );
        assert_eq!(run.records.len(), n);
        let mut order = Vec::new();
        for record in &run.records {
            assert_eq!(record.outcome, Outcome::Ok);
            let truth = fake.truth(record.index) - run.start;
            assert!(
                truth <= record.observed && record.observed - truth <= record.bound,
                "request {}: delivered at {truth:?}, observed at {:?} (bound {:?})",
                record.index,
                record.observed,
                record.bound
            );
            order.push(record.index);
        }
        assert!(
            order.windows(2).any(|w| w[0] > w[1]),
            "completions must be observed out of submission order"
        );
        // The last of each group is not held behind the first's 18 ms.
        for record in run.records.iter().filter(|r| r.index % 10 == 9) {
            let lag = record.latency() - record.lateness();
            assert!(lag <= record.bound, "request {} lag {lag:?}", record.index);
        }
    }

    #[test]
    fn a_generator_stall_is_charged_to_the_requests_scheduled_after_it() {
        let n = 60;
        let stall = Duration::from_millis(15);
        let fake = Fake::new(vec![Duration::from_micros(200); n], Some((20, stall)));
        let run = open_loop(
            &fake,
            &every(Duration::from_millis(1), n),
            PERIOD,
            Duration::from_secs(5),
        );
        let mut by_index = run.records.clone();
        by_index.sort_by_key(|r| r.index);
        let stall_end = by_index[20].sent + stall;
        let mut charged = 0;
        for record in &by_index[21..] {
            if record.due < stall_end {
                charged += 1;
                assert!(
                    record.latency() >= stall_end - record.due,
                    "request {} due at {:?} must wait out the stall ending at {stall_end:?}",
                    record.index,
                    record.due
                );
                assert!(record.lateness() + Duration::from_millis(1) >= stall_end - record.due);
            }
        }
        assert!(
            charged >= 10,
            "the stall spans ~14 later slots, saw {charged}"
        );
    }

    #[test]
    fn closed_loop_keeps_the_window_full_and_dates_each_request_from_its_freed_slot() {
        let n = 400;
        let fake = Fake::new(vec![Duration::from_millis(2); n], None);
        let run = closed_loop(
            &fake,
            2,
            Duration::from_millis(60),
            PERIOD,
            Duration::from_secs(5),
        );
        let count = run.records.len();
        // Two in flight, ~2 ms each, for 60 ms: about 60 requests.
        assert!((40..=70).contains(&count), "{count} requests");
        for record in &run.records {
            assert_eq!(record.outcome, Outcome::Ok);
            let truth = fake.truth(record.index) - run.start;
            assert!(truth <= record.observed && record.observed - truth <= record.bound);
            assert!(record.latency() >= Duration::from_millis(2));
        }
    }
}
