//! Sample statistics shared by every workload: percentile selection,
//! latency-limit (goodput) accounting and open-loop timing.

use std::time::{Duration, Instant};

/// A percentile needs at least this many samples beyond it before the
/// benchmark reports it; below that a tail figure rests on a handful of
/// points and moves with noise rather than with the code.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of `samples` (`q` in `(0, 1]`), or `None`
/// when the set is empty. The input need not be sorted.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(sorted.len(), q) - 1])
}

/// 1-based nearest rank of the `q` percentile in `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples strictly above the nearest-rank `q` percentile of `n`.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q)
    }
}

/// True when the `q` percentile of `n` samples has at least
/// [`MIN_BEYOND`] samples beyond it.
pub fn tail_supported(n: usize, q: f64) -> bool {
    beyond(n, q) >= MIN_BEYOND
}

/// Median (nearest-rank p50); `0.0` for an empty set.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5).unwrap_or(0.0)
}

/// Arithmetic mean; `0.0` for an empty set.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Mean of `samples` after dropping the `trim` share (in `[0, 0.5)`)
/// of them at each end; `0.0` for an empty set.
pub fn trimmed_mean(samples: &[f64], trim: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = (trim * sorted.len() as f64).floor() as usize;
    mean(&sorted[cut..sorted.len() - cut])
}

/// The outcome of one measured operation as the caller saw it.
#[derive(Debug, Clone, Copy)]
pub struct OpRecord {
    /// Caller-visible latency, seconds (open loop: from the due time).
    pub latency_s: f64,
    /// The op completed and its values matched the oracle.
    pub ok: bool,
    /// The op ran an artifact that was already compiled.
    pub warm: bool,
}

/// Share of `records` that completed correctly within `limit_s`. A
/// failed, refused or wrong op is a miss whatever its latency.
pub fn goodput(records: &[OpRecord], limit_s: f64) -> f64 {
    if records.is_empty() {
        return 0.0;
    }
    let good = records
        .iter()
        .filter(|r| r.ok && r.latency_s <= limit_s)
        .count();
    good as f64 / records.len() as f64
}

/// Latencies (seconds) of the ops that completed correctly, optionally
/// only the warm ones.
pub fn ok_latencies(records: &[OpRecord], warm_only: bool) -> Vec<f64> {
    records
        .iter()
        .filter(|r| r.ok && (r.warm || !warm_only))
        .map(|r| r.latency_s)
        .collect()
}

/// A fixed-rate open-loop send schedule: request `i` is due at
/// `start + i / rate`, whether or not earlier requests have finished.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    pub start: Instant,
    pub rate_per_s: f64,
}

impl Schedule {
    /// When request `i` is due to be sent.
    pub fn due(&self, i: usize) -> Instant {
        self.start + Duration::from_secs_f64(i as f64 / self.rate_per_s)
    }
}

/// Timestamps of one open-loop request.
#[derive(Debug, Clone, Copy)]
pub struct RequestTiming {
    pub due: Instant,
    pub sent: Instant,
    pub done: Instant,
}

impl RequestTiming {
    /// Latency charged to the system: from when the request was due, so
    /// a stall that delays later sends is counted against them too.
    pub fn latency_s(&self) -> f64 {
        self.done.saturating_duration_since(self.due).as_secs_f64()
    }

    /// How late the generator sent the request (zero when on time).
    pub fn late_s(&self) -> f64 {
        self.sent.saturating_duration_since(self.due).as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.9), Some(90.0));
        assert_eq!(beyond(100, 0.9), 10);
        assert!(tail_supported(100, 0.9));
        assert!(!tail_supported(99, 0.9));
        // p99 needs a thousand samples for ten beyond.
        assert!(!tail_supported(999, 0.99));
        assert!(tail_supported(1000, 0.99));
        assert_eq!(percentile(&xs, 0.5), Some(50.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn trimmed_mean_drops_both_ends() {
        let mut xs: Vec<f64> = vec![1.0; 8];
        xs.extend([100.0, -100.0]);
        assert_eq!(trimmed_mean(&xs, 0.1), 1.0);
        assert_eq!(trimmed_mean(&[2.0, 4.0], 0.1), 3.0);
        assert_eq!(trimmed_mean(&[], 0.1), 0.0);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let xs = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&xs, 0.5), Some(3.0));
        assert_eq!(percentile(&xs, 1.0), Some(5.0));
        assert_eq!(median(&xs), 3.0);
    }

    #[test]
    fn failures_are_slo_misses() {
        let fast_fail = OpRecord {
            latency_s: 0.001,
            ok: false,
            warm: true,
        };
        let fast_ok = OpRecord {
            latency_s: 0.001,
            ok: true,
            warm: true,
        };
        let slow_ok = OpRecord {
            latency_s: 2.0,
            ok: true,
            warm: false,
        };
        let records = [fast_fail, fast_ok, slow_ok, fast_ok];
        assert_eq!(goodput(&records, 1.0), 0.5);
        // A failed op contributes no latency sample either.
        assert_eq!(ok_latencies(&records, false), vec![0.001, 2.0, 0.001]);
        assert_eq!(ok_latencies(&records, true), vec![0.001, 0.001]);
    }

    #[test]
    fn open_loop_latency_runs_from_the_due_time() {
        let start = Instant::now();
        let schedule = Schedule {
            start,
            rate_per_s: 10.0,
        };
        let due = schedule.due(3);
        assert_eq!(due - start, Duration::from_millis(300));
        // Sent 50 ms late behind a stall, served in 20 ms: the caller
        // waited 70 ms, not 20.
        let t = RequestTiming {
            due,
            sent: due + Duration::from_millis(50),
            done: due + Duration::from_millis(70),
        };
        assert!((t.latency_s() - 0.070).abs() < 1e-9);
        assert!((t.late_s() - 0.050).abs() < 1e-9);
    }

    #[test]
    fn early_sends_are_not_negative_lateness() {
        let due = Instant::now() + Duration::from_millis(5);
        let t = RequestTiming {
            due,
            sent: due - Duration::from_millis(1),
            done: due + Duration::from_millis(4),
        };
        assert_eq!(t.late_s(), 0.0);
        assert!((t.latency_s() - 0.004).abs() < 1e-9);
    }
}
