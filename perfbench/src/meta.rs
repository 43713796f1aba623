//! Run metadata: the host, the commit and process memory.

use std::fs;
use std::path::Path;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Cores available to this process, counted on the first call: the
/// benchmark makes it before pinning any thread to a single CPU, which would
/// otherwise make the count 1.
pub fn nproc() -> usize {
    static NPROC: OnceLock<usize> = OnceLock::new();
    *NPROC.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// The CPU model name from `/proc/cpuinfo`, or `unknown`.
pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|s| s.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Size of the unified cache at `level` (2 = L2, 3 = LLC) as sysfs
/// reports it for cpu0, e.g. `4096K`; `unknown` when unavailable.
pub fn cache_size(level: u32) -> String {
    let base = Path::new("/sys/devices/system/cpu/cpu0/cache");
    let Ok(entries) = fs::read_dir(base) else {
        return "unknown".into();
    };
    for entry in entries.flatten() {
        let dir = entry.path();
        let read = |f: &str| fs::read_to_string(dir.join(f)).map(|s| s.trim().to_string());
        if read("level").ok() == Some(level.to_string())
            && read("type").is_ok_and(|t| t == "Unified")
        {
            return read("size").unwrap_or_else(|_| "unknown".into());
        }
    }
    "unknown".into()
}

/// The commit checked out in the working directory, read from `.git`
/// without running git; `unknown` outside a repository.
pub fn commit() -> String {
    let git = Path::new(".git");
    let Ok(head) = fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(id) = fs::read_to_string(git.join(reference)) {
        return id.trim().to_string();
    }
    fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kib| kib.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Steal share above which a run is flagged: its figures may have been set
/// by the host rather than by the program.
pub const STEAL_LIMIT: f64 = 0.10;

/// The guest's CPU time so far, summed over its CPUs, as (stolen, total)
/// ticks from the `cpu` line of `/proc/stat`. Stolen time is time the
/// hypervisor gave to other guests while this guest's CPUs wanted to run.
/// (0, 0) where unknown.
pub fn cpu_ticks() -> (u64, u64) {
    let line = fs::read_to_string("/proc/stat").ok().and_then(|stat| {
        stat.lines()
            .find(|l| l.starts_with("cpu "))
            .map(str::to_string)
    });
    let ticks: Vec<u64> = line
        .iter()
        .flat_map(|l| l.split_whitespace().skip(1).take(8))
        .filter_map(|t| t.parse().ok())
        .collect();
    if ticks.len() == 8 {
        (ticks[7], ticks.iter().sum())
    } else {
        (0, 0)
    }
}

/// Share of the guest's CPU time stolen between two [`cpu_ticks`] readings.
pub fn steal_between(from: (u64, u64), to: (u64, u64)) -> f64 {
    let total = to.1.saturating_sub(from.1);
    if total == 0 {
        return 0.0;
    }
    to.0.saturating_sub(from.0) as f64 / total as f64
}

/// [`cpu_ticks`] readings taken through a stretch of a run.
#[derive(Debug, Default)]
pub struct StealLog {
    samples: Vec<(Instant, (u64, u64))>,
}

/// How often [`sampling_steal`] reads `/proc/stat`.
const STEAL_SAMPLE: Duration = Duration::from_millis(100);

impl StealLog {
    /// A log of the given readings, oldest first.
    #[cfg(test)]
    pub fn from_samples(samples: Vec<(Instant, (u64, u64))>) -> StealLog {
        StealLog { samples }
    }

    /// Share of CPU time stolen over `[from, to]`, from the last reading at
    /// or before `from` to the first at or after `to`; 0 when the log does
    /// not cover the interval.
    pub fn frac(&self, from: Instant, to: Instant) -> f64 {
        let before = self.samples.iter().rev().find(|(at, _)| *at <= from);
        let after = self.samples.iter().find(|(at, _)| *at >= to);
        match (before, after) {
            (Some((_, a)), Some((_, b))) => steal_between(*a, *b),
            _ => 0.0,
        }
    }
}

/// Runs `work` while another thread reads the guest's CPU time every
/// 100 ms, and returns the readings with the result.
pub fn sampling_steal<R>(work: impl FnOnce() -> R) -> (R, StealLog) {
    std::thread::scope(|scope| {
        let (stop, stopped) = mpsc::channel::<()>();
        // The first reading is taken here, so it precedes all of `work`.
        let mut log = StealLog {
            samples: vec![(Instant::now(), cpu_ticks())],
        };
        let sampler = scope.spawn(move || loop {
            let timed_out = matches!(
                stopped.recv_timeout(STEAL_SAMPLE),
                Err(RecvTimeoutError::Timeout)
            );
            log.samples.push((Instant::now(), cpu_ticks()));
            if !timed_out {
                return log;
            }
        });
        let result = work();
        drop(stop);
        (
            result,
            sampler.join().expect("the steal sampler does not panic"),
        )
    })
}

/// CPUs this thread may run on, lowest first (empty when unknown).
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = CpuMask::default();
    // SAFETY: `mask` is a writable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuMask>(), &mut mask) };
    if rc != 0 {
        return Vec::new();
    }
    (0..CPU_BITS)
        .filter(|&cpu| mask.0[cpu / 64] & (1u64 << (cpu % 64)) != 0)
        .collect()
}

/// Restricts the calling thread (and the threads it spawns afterwards) to
/// `cpu`. Returns whether the kernel accepted it.
pub fn pin_to(cpu: usize) -> bool {
    if cpu >= CPU_BITS {
        return false;
    }
    let mut mask = CpuMask::default();
    mask.0[cpu / 64] |= 1u64 << (cpu % 64);
    // SAFETY: `mask` is a readable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuMask>(), &mask) == 0 }
}

const CPU_BITS: usize = 1024;

/// A `cpu_set_t`: one bit per CPU.
#[repr(C)]
#[derive(Default)]
struct CpuMask([u64; CPU_BITS / 64]);

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuMask) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuMask) -> i32;
}
