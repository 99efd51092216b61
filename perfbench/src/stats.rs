//! The benchmark's own arithmetic: percentiles under the sample-count
//! rule, medians, and the open-loop ladder pick.

/// Fewest samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// A percentile together with the sample count it came from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pct {
    /// The value at the percentile (nearest rank).
    pub value: f64,
    /// How many samples the percentile was taken over.
    pub samples: usize,
}

/// Nearest-rank percentile `p` (0 < p < 100) of `samples`, reported
/// only when at least [`MIN_BEYOND`] samples lie beyond its rank;
/// `None` otherwise. The nearest rank of `p` over `n` sorted samples
/// is `ceil(p·n/100)` (1-based), so `n − rank` samples lie beyond it.
pub fn percentile(samples: &[f64], p: f64) -> Option<Pct> {
    let n = samples.len();
    if n == 0 || !(p > 0.0 && p < 100.0) {
        return None;
    }
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    if n - rank < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(Pct { value: sorted[rank - 1], samples: n })
}

/// Median of `samples` (mean of the two middle values for even counts);
/// `None` for no samples. Used for the repeated set-up timings, where
/// no tail percentile is claimed.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Some(if n % 2 == 1 { sorted[n / 2] } else { (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0 })
}

/// One rung of the open-loop rate ladder, as measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Step {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// The step's p90 latency, when the step had enough samples.
    pub p90: Option<f64>,
    /// Requests still outstanding when the step's last request was due.
    pub backlog_start: usize,
    /// Requests still outstanding when the step's schedule ended.
    pub backlog_end: usize,
    /// Whether every request of the step succeeded.
    pub all_ok: bool,
}

impl Step {
    /// Whether the step meets the latency `limit` at its p90, with every
    /// request successful and no backlog growth across the step.
    pub fn meets(&self, limit: f64) -> bool {
        self.all_ok
            && self.p90.is_some_and(|p| p <= limit)
            && self.backlog_end <= self.backlog_start + SLACK_BACKLOG
    }
}

/// How far the outstanding count may rise across a rung and still count
/// as keeping up: one slow job holds up a few quick ones behind it, but
/// a rung the server cannot sustain grows its backlog by its whole
/// excess rate times its length.
pub const SLACK_BACKLOG: usize = 10;

/// The highest rate of the ascending ladder prefix whose every step
/// meets `limit` (0 when the lowest step already fails). A step that
/// passes above a failing one does not count: once the server falls
/// behind, later steps inherit its backlog.
pub fn slo_rate(steps: &[Step], limit: f64) -> f64 {
    let mut best = 0.0;
    for s in steps {
        if !s.meets(limit) {
            break;
        }
        best = s.rate;
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        // p50 of 19 samples: rank 10, 9 beyond -> refused.
        assert_eq!(percentile(&ramp(19), 50.0), None);
        // p50 of 20 samples: rank 10, 10 beyond -> value 10.
        assert_eq!(percentile(&ramp(20), 50.0), Some(Pct { value: 10.0, samples: 20 }));
        // p90 needs 100 samples: rank 90, 10 beyond.
        assert_eq!(percentile(&ramp(99), 90.0), None);
        assert_eq!(percentile(&ramp(100), 90.0).map(|p| p.value), Some(90.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut v = ramp(40);
        v.reverse();
        assert_eq!(percentile(&v, 50.0).map(|p| p.value), Some(20.0));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    fn step(rate: f64, p90: Option<f64>, start: usize, end: usize) -> Step {
        Step { rate, p90, backlog_start: start, backlog_end: end, all_ok: true }
    }

    #[test]
    fn slo_picks_the_highest_passing_prefix() {
        let steps = [
            step(4.0, Some(0.3), 0, 0),
            step(8.0, Some(0.5), 0, 6),
            step(12.0, Some(2.5), 1, 30),
            step(16.0, Some(0.9), 0, 0),
        ];
        // 12/s misses the limit; 16/s passing afterwards does not count.
        assert_eq!(slo_rate(&steps, 1.0), 8.0);
        assert_eq!(slo_rate(&steps, 3.0), 8.0, "12/s grows its backlog past the slack");
        assert!(step(8.0, Some(0.5), 3, 13).meets(1.0));
        assert!(!step(8.0, Some(0.5), 3, 14).meets(1.0));
        assert_eq!(slo_rate(&steps[..1], 0.1), 0.0);
    }

    #[test]
    fn slo_step_without_enough_samples_or_with_failures_fails() {
        assert!(!step(4.0, None, 0, 0).meets(10.0));
        let failed = Step { all_ok: false, ..step(4.0, Some(0.1), 0, 0) };
        assert!(!failed.meets(10.0));
    }
}
