//! Cost-model calibration ledger: predicted vs. measured latency, reconciled.
//!
//! The serving engine accounts each batch's *modelled* latency on the
//! analytical GPU cost model while the tile VM's *measured* wall time goes
//! unchecked. The [`CalibrationLedger`] closes that loop: every executed
//! batch records the pair `(predicted µs, measured µs)` under
//! `(workload class, arch, arch fingerprint)`, and the snapshot surfaces
//! MAPE plus p50/p95 relative error so estimate drift is auditable per class
//! and architecture.
//!
//! A **drift flag** raises when the measured/predicted ratio leaves a
//! configurable band (default [`DEFAULT_DRIFT_BAND`]): the cost model is
//! simulating a GPU while the VM runs on a host CPU, so the interesting
//! signal is the ratio *moving*, not its absolute value.

use std::collections::BTreeMap;
use std::sync::Mutex;

/// Default measured/predicted ratio band outside which an entry is flagged
/// as drifting. Wide on purpose: predicted latency simulates the target GPU
/// while measured latency is host CPU interpretation, so only large shifts
/// are meaningful.
pub const DEFAULT_DRIFT_BAND: (f64, f64) = (0.02, 50.0);

/// Bounded number of recent relative-error samples kept per entry for the
/// p50/p95 estimates (MAPE and the mean ratio use lifetime sums).
const REL_ERR_WINDOW: usize = 2048;

#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct CalibKey {
    class: String,
    arch: String,
    fingerprint: u64,
}

#[derive(Debug, Default)]
struct CalibTrack {
    samples: u64,
    predicted_sum: f64,
    measured_sum: f64,
    abs_pct_err_sum: f64,
    ratio_sum: f64,
    rel_errs: Vec<f64>,
    last_ratio: f64,
    drift_count: u64,
}

impl CalibTrack {
    fn record(&mut self, predicted_us: f64, measured_us: f64, band: (f64, f64)) {
        let ratio = measured_us / predicted_us;
        let rel_err = (measured_us - predicted_us).abs() / predicted_us;
        self.samples += 1;
        self.predicted_sum += predicted_us;
        self.measured_sum += measured_us;
        self.abs_pct_err_sum += rel_err * 100.0;
        self.ratio_sum += ratio;
        if self.rel_errs.len() < REL_ERR_WINDOW {
            self.rel_errs.push(rel_err);
        }
        self.last_ratio = ratio;
        if ratio < band.0 || ratio > band.1 {
            self.drift_count += 1;
        }
    }

    fn merge_from(&mut self, other: &CalibTrack) {
        self.samples += other.samples;
        self.predicted_sum += other.predicted_sum;
        self.measured_sum += other.measured_sum;
        self.abs_pct_err_sum += other.abs_pct_err_sum;
        self.ratio_sum += other.ratio_sum;
        let room = REL_ERR_WINDOW.saturating_sub(self.rel_errs.len());
        self.rel_errs
            .extend(other.rel_errs.iter().take(room).copied());
        if other.samples > 0 {
            self.last_ratio = other.last_ratio;
        }
        self.drift_count += other.drift_count;
    }
}

/// Concurrent predicted-vs-measured latency ledger, keyed by
/// `(workload class, arch, arch fingerprint)`.
#[derive(Debug)]
pub struct CalibrationLedger {
    band: (f64, f64),
    entries: Mutex<BTreeMap<CalibKey, CalibTrack>>,
}

impl Default for CalibrationLedger {
    fn default() -> CalibrationLedger {
        CalibrationLedger::new()
    }
}

impl CalibrationLedger {
    /// A ledger with the default drift band.
    pub fn new() -> CalibrationLedger {
        CalibrationLedger::with_band(DEFAULT_DRIFT_BAND.0, DEFAULT_DRIFT_BAND.1)
    }

    /// A ledger flagging drift when measured/predicted leaves `[lo, hi]`.
    /// An inverted or non-positive band falls back to the default.
    pub fn with_band(lo: f64, hi: f64) -> CalibrationLedger {
        let band = if lo > 0.0 && hi > lo {
            (lo, hi)
        } else {
            DEFAULT_DRIFT_BAND
        };
        CalibrationLedger {
            band,
            entries: Mutex::new(BTreeMap::new()),
        }
    }

    /// The configured drift band.
    pub fn band(&self) -> (f64, f64) {
        self.band
    }

    /// Records one executed batch: the cost model's predicted latency and
    /// the measured wall time, both in microseconds. Non-finite or
    /// non-positive pairs are discarded (a prediction of zero cannot be
    /// expressed as a ratio).
    pub fn record(
        &self,
        class: &str,
        arch: &str,
        fingerprint: u64,
        predicted_us: f64,
        measured_us: f64,
    ) {
        if !predicted_us.is_finite() || !measured_us.is_finite() {
            return;
        }
        if predicted_us <= 0.0 || measured_us <= 0.0 {
            return;
        }
        let key = CalibKey {
            class: class.to_string(),
            arch: arch.to_string(),
            fingerprint,
        };
        let mut entries = self.entries.lock().expect("calibration ledger poisoned");
        entries
            .entry(key)
            .or_default()
            .record(predicted_us, measured_us, self.band);
    }

    /// Folds another ledger's entries into this one (fleet-level merge).
    pub fn merge_from(&self, other: &CalibrationLedger) {
        let theirs = other.entries.lock().expect("calibration ledger poisoned");
        let mut ours = self.entries.lock().expect("calibration ledger poisoned");
        for (key, track) in theirs.iter() {
            ours.entry(key.clone()).or_default().merge_from(track);
        }
    }

    /// A point-in-time summary of every entry, sorted by key.
    pub fn snapshot(&self) -> Vec<CalibrationSnapshot> {
        let entries = self.entries.lock().expect("calibration ledger poisoned");
        entries
            .iter()
            .map(|(key, track)| {
                let mut sorted = track.rel_errs.clone();
                sorted.sort_by(|a, b| a.total_cmp(b));
                let n = track.samples as f64;
                let mean_ratio = track.ratio_sum / n.max(1.0);
                CalibrationSnapshot {
                    class: key.class.clone(),
                    arch: key.arch.clone(),
                    fingerprint: key.fingerprint,
                    samples: track.samples,
                    predicted_mean_us: track.predicted_sum / n.max(1.0),
                    measured_mean_us: track.measured_sum / n.max(1.0),
                    mape_pct: track.abs_pct_err_sum / n.max(1.0),
                    rel_err_p50: percentile_sorted(&sorted, 50.0),
                    rel_err_p95: percentile_sorted(&sorted, 95.0),
                    mean_ratio,
                    last_ratio: track.last_ratio,
                    drift_count: track.drift_count,
                    drifting: mean_ratio < self.band.0 || mean_ratio > self.band.1,
                }
            })
            .collect()
    }
}

/// Nearest-rank percentile of an ascending-sorted slice (`p` in 0..=100).
fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Calibration summary of one `(class, arch)` entry.
#[derive(Debug, Clone, PartialEq)]
pub struct CalibrationSnapshot {
    /// Workload class (e.g. `softmax`, `mha`, `graph`).
    pub class: String,
    /// Architecture display name (e.g. `NVIDIA A10`).
    pub arch: String,
    /// The architecture's latency-relevant fingerprint.
    pub fingerprint: u64,
    /// Recorded (predicted, measured) pairs.
    pub samples: u64,
    /// Mean predicted latency, µs.
    pub predicted_mean_us: f64,
    /// Mean measured wall latency, µs.
    pub measured_mean_us: f64,
    /// Mean absolute percentage error of the predictions.
    pub mape_pct: f64,
    /// Median relative error (windowed).
    pub rel_err_p50: f64,
    /// 95th-percentile relative error (windowed).
    pub rel_err_p95: f64,
    /// Lifetime mean measured/predicted ratio.
    pub mean_ratio: f64,
    /// Ratio of the most recent sample.
    pub last_ratio: f64,
    /// Samples whose ratio left the drift band.
    pub drift_count: u64,
    /// True when the mean ratio itself sits outside the band — the estimate
    /// for this entry can no longer be trusted without recalibration.
    pub drifting: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_reports_mape_and_percentiles_per_key() {
        let ledger = CalibrationLedger::new();
        // 10% over-prediction on every sample: MAPE 10, all ratios 0.9.
        for _ in 0..8 {
            ledger.record("softmax", "NVIDIA A10", 42, 100.0, 90.0);
        }
        ledger.record("mha", "NVIDIA A10", 42, 50.0, 100.0);
        let snapshot = ledger.snapshot();
        assert_eq!(snapshot.len(), 2);
        let mha = &snapshot[0];
        assert_eq!((mha.class.as_str(), mha.samples), ("mha", 1));
        assert!((mha.mape_pct - 100.0).abs() < 1e-9);
        let softmax = &snapshot[1];
        assert!((softmax.mape_pct - 10.0).abs() < 1e-9);
        assert!((softmax.rel_err_p50 - 0.1).abs() < 1e-12);
        assert!((softmax.rel_err_p95 - 0.1).abs() < 1e-12);
        assert!((softmax.mean_ratio - 0.9).abs() < 1e-12);
        assert!(!softmax.drifting);
        assert_eq!(softmax.drift_count, 0);
    }

    #[test]
    fn ratios_outside_the_band_raise_the_drift_flag() {
        let ledger = CalibrationLedger::with_band(0.5, 2.0);
        ledger.record("softmax", "a", 1, 100.0, 450.0);
        ledger.record("softmax", "a", 1, 100.0, 420.0);
        let entry = &ledger.snapshot()[0];
        assert_eq!(entry.drift_count, 2);
        assert!(entry.drifting);
        assert!(entry.mean_ratio > 4.0);
    }

    #[test]
    fn degenerate_pairs_are_discarded() {
        let ledger = CalibrationLedger::new();
        ledger.record("softmax", "a", 1, 0.0, 10.0);
        ledger.record("softmax", "a", 1, 10.0, f64::NAN);
        ledger.record("softmax", "a", 1, -5.0, 10.0);
        assert!(ledger.snapshot().is_empty());
    }

    #[test]
    fn merge_and_calibrated_estimates_pool_across_arches() {
        let a = CalibrationLedger::new();
        let b = CalibrationLedger::new();
        a.record("softmax", "a10", 1, 100.0, 80.0);
        b.record("softmax", "h800", 2, 100.0, 120.0);
        b.record("mha", "h800", 2, 10.0, 10.0);
        a.merge_from(&b);
        let merged = a.snapshot();
        assert_eq!(merged.len(), 3);
        // Each arch keeps its own calibrated measured mean after the merge.
        let measured: Vec<(&str, &str, f64)> = merged
            .iter()
            .map(|e| (e.class.as_str(), e.arch.as_str(), e.measured_mean_us))
            .collect();
        assert_eq!(
            measured,
            [
                ("mha", "h800", 10.0),
                ("softmax", "a10", 80.0),
                ("softmax", "h800", 120.0)
            ]
        );
    }
}
