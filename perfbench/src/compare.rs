//! Verdicts for comparing two result sets, by the rule of the
//! choosing-metrics guide (section 8): a change is better or worse only
//! when it wins (or loses) at least nine pairs in ten over at least ten
//! pairs, and its median differs from the parent's by more than the
//! parent's own interquartile range.

use crate::stats;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

impl Better {
    /// Parses `"higher"` / `"lower"`.
    pub fn parse(text: &str) -> Option<Better> {
        match text {
            "higher" => Some(Better::Higher),
            "lower" => Some(Better::Lower),
            _ => None,
        }
    }

    /// Whether `candidate` is strictly better than `base`.
    fn beats(self, candidate: f64, base: f64) -> bool {
        match self {
            Better::Higher => candidate > base,
            Better::Lower => candidate < base,
        }
    }
}

/// The outcome for one (workload, metric) row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The change wins by the rule.
    Better,
    /// The change loses by the rule, or its median is worse than the
    /// parent's by more than the metric's bound.
    Worse,
    /// Within the bound (or, without one, within the parent's spread), and
    /// the parent's own spread is within the bound.
    Unchanged,
    /// Too few pairs, or a spread too wide to tell.
    Unresolved,
}

impl Verdict {
    /// The verdict as printed.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Fewest pairs on which a verdict other than unresolved is given.
pub const MIN_PAIRS: usize = 10;

/// Judges `pairs` of (parent, change) values of one metric. `bound` is
/// the share of the parent's median by which the metric may worsen (end-to-
/// end metrics); `None` for per-layer metrics, which have no bound.
pub fn verdict(pairs: &[(f64, f64)], better: Better, bound: Option<f64>) -> Verdict {
    let n = pairs.len();
    if n < MIN_PAIRS {
        return Verdict::Unresolved;
    }
    let parent: Vec<f64> = pairs.iter().map(|p| p.0).collect();
    let change: Vec<f64> = pairs.iter().map(|p| p.1).collect();
    let (m_parent, m_change) = (stats::median(&parent), stats::median(&change));
    let (q1, q3) = stats::quartiles(&parent);
    let iqr = q3 - q1;
    let gap = (m_change - m_parent).abs();
    let wins = pairs.iter().filter(|(p, c)| better.beats(*c, *p)).count();
    let losses = pairs.iter().filter(|(p, c)| better.beats(*p, *c)).count();
    if 10 * wins >= 9 * n && gap > iqr {
        return Verdict::Better;
    }
    if 10 * losses >= 9 * n && gap > iqr {
        return Verdict::Worse;
    }
    let Some(bound) = bound else {
        return if gap <= iqr {
            Verdict::Unchanged
        } else {
            Verdict::Unresolved
        };
    };
    let scale = m_parent.abs().max(f64::MIN_POSITIVE);
    let worse_by = if better.beats(m_parent, m_change) {
        gap / scale
    } else {
        0.0
    };
    if iqr / scale > bound {
        // Spread wider than the bound: only total separation decides.
        let all =
            |f: &dyn Fn(f64, f64) -> bool| change.iter().all(|&c| parent.iter().all(|&p| f(c, p)));
        if all(&|c, p| better.beats(c, p)) {
            Verdict::Better
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Unchanged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pairs(parent: &[f64], change: &[f64]) -> Vec<(f64, f64)> {
        parent.iter().copied().zip(change.iter().copied()).collect()
    }

    const BASE: [f64; 10] = [
        100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0,
    ];

    #[test]
    fn a_consistent_win_beyond_the_parent_spread_is_better() {
        let faster: Vec<f64> = BASE.iter().map(|v| v - 10.0).collect();
        assert_eq!(
            verdict(&pairs(&BASE, &faster), Better::Lower, Some(0.1)),
            Verdict::Better
        );
        assert_eq!(
            verdict(&pairs(&BASE, &faster), Better::Higher, Some(0.1)),
            Verdict::Worse
        );
    }

    #[test]
    fn fewer_than_ten_pairs_is_unresolved() {
        let faster: Vec<f64> = BASE.iter().map(|v| v - 10.0).collect();
        let p = pairs(&BASE[..9], &faster[..9]);
        assert_eq!(verdict(&p, Better::Lower, Some(0.1)), Verdict::Unresolved);
    }

    #[test]
    fn a_small_shift_within_the_bound_is_unchanged() {
        let same: Vec<f64> = BASE.iter().rev().copied().collect();
        assert_eq!(
            verdict(&pairs(&BASE, &same), Better::Lower, Some(0.1)),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(&pairs(&BASE, &same), Better::Lower, None),
            Verdict::Unchanged
        );
    }

    #[test]
    fn a_median_worse_than_the_bound_without_nine_in_ten_losses_is_worse() {
        // Seven of ten pairs lose by 30%: no rule win, but past the bound.
        let mut slower: Vec<f64> = BASE.iter().map(|v| v * 1.3).collect();
        for v in slower.iter_mut().take(3) {
            *v = 90.0;
        }
        assert_eq!(
            verdict(&pairs(&BASE, &slower), Better::Lower, Some(0.1)),
            Verdict::Worse
        );
    }

    #[test]
    fn a_parent_spread_wider_than_the_bound_is_unresolved() {
        let noisy = [
            50.0, 150.0, 60.0, 140.0, 70.0, 130.0, 80.0, 120.0, 90.0, 110.0,
        ];
        let other: Vec<f64> = noisy.iter().rev().copied().collect();
        assert_eq!(
            verdict(&pairs(&noisy, &other), Better::Lower, Some(0.1)),
            Verdict::Unresolved
        );
    }
}
