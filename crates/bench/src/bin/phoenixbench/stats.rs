//! Order statistics, averaging rules and the open-loop arrival schedule.
//!
//! Percentiles are nearest-rank: the reported value is always one of the
//! samples, so a percentile never invents a latency nobody saw. Quartiles
//! for run-to-run spread use the exclusive method of Python's
//! `statistics.quantiles(values, n=4)`, so the spreads this tool reports
//! match the ones a reader recomputes from the raw run records.

use std::time::{Duration, Instant};

/// The fewest samples that must lie strictly above a reported percentile.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Nearest-rank percentile of `sorted` (ascending): the smallest sample
/// with at least `p` percent of the samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice or `p` outside `(0, 100]`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!(p > 0.0 && p <= 100.0, "percentile {p} out of range");
    sorted[rank(sorted.len(), p) - 1]
}

/// The 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// How many samples lie strictly beyond the nearest-rank percentile `p`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// Nearest-rank percentile `p`, refused unless at least
/// [`MIN_TAIL_SAMPLES`] samples lie beyond it — a tail percentile resting
/// on a handful of samples is noise, not a measurement.
///
/// # Errors
///
/// Returns a message naming the sample count when the tail is too thin.
pub fn tail_percentile(sorted: &[f64], p: f64) -> Result<f64, String> {
    let beyond = if sorted.is_empty() {
        0
    } else {
        samples_beyond(sorted.len(), p)
    };
    if beyond < MIN_TAIL_SAMPLES {
        return Err(format!(
            "p{p} of {} samples has {beyond} beyond it; at least {MIN_TAIL_SAMPLES} are needed",
            sorted.len()
        ));
    }
    Ok(percentile(sorted, p))
}

/// The nearest-rank median.
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 50.0)
}

/// A sorted copy of `values` (total order; NaN sorts last).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// First, second and third quartile by the exclusive method of Python's
/// `statistics.quantiles(values, n=4)`. One sample yields that sample
/// three times.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let data = sorted(values);
    let n = data.len();
    assert!(n > 0, "quartiles of no samples");
    if n == 1 {
        return [data[0]; 3];
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *q = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    out
}

/// Interquartile range of `values` (see [`quartiles`]).
pub fn iqr(values: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(values);
    q3 - q1
}

/// Geometric mean of strictly positive values — the averaging rule for
/// per-program times, so no single large program dominates.
///
/// # Panics
///
/// Panics on an empty slice or a non-positive value.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of no values");
    assert!(
        values.iter().all(|v| *v > 0.0),
        "geomean needs positive values"
    );
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// A fixed-rate arrival schedule: request `i` is due at `start + i/rate`.
///
/// Latency is measured from when a request was *due*, not from when the
/// sender got around to it, so a stalled sender is charged to every
/// request queued behind the stall.
#[derive(Debug, Clone, Copy)]
pub struct OpenLoop {
    start: Instant,
    period: Duration,
}

impl OpenLoop {
    /// A schedule of `rate` requests per second starting at `start`.
    pub fn new(start: Instant, rate: f64) -> Self {
        OpenLoop {
            start,
            period: Duration::from_secs_f64(1.0 / rate),
        }
    }

    /// When request `i` is due.
    pub fn due(&self, i: usize) -> Instant {
        self.start + self.period * i as u32
    }

    /// Milliseconds from request `i`'s due time to `at` (its reply, or its
    /// actual send for lateness); zero if `at` precedes the due time.
    pub fn since_due_ms(&self, i: usize, at: Instant) -> f64 {
        at.saturating_duration_since(self.due(i)).as_secs_f64() * 1e3
    }

    /// How many requests of this schedule fit in `window`.
    pub fn count_in(&self, window: Duration) -> usize {
        (window.as_secs_f64() / self.period.as_secs_f64()).floor() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn nearest_rank_percentiles_are_samples() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.5), 1.0);
        // Five samples: the 50th percentile is the third, never an average.
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0, 5.0], 50.0), 3.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 50.0), 2.0);
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
    }

    #[test]
    fn tail_guard_needs_ten_samples_beyond() {
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(samples_beyond(999, 99.0), 9);
        let enough: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&enough, 99.0), Ok(989.0));
        let thin: Vec<f64> = (0..999).map(f64::from).collect();
        let err = tail_percentile(&thin, 99.0).unwrap_err();
        assert!(err.contains("999 samples"), "{err}");
        assert!(tail_percentile(&[], 99.0).is_err());
        // A median needs only 10 samples above it.
        let twenty: Vec<f64> = (0..20).map(f64::from).collect();
        assert!(tail_percentile(&twenty, 50.0).is_ok());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let [q1, q2, q3] = quartiles(&v);
        assert!(close(q1, 2.75) && close(q2, 5.5) && close(q3, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let [a, b, c] = quartiles(&[1.0, 2.0]);
        assert!(close(a, 0.75) && close(b, 1.5) && close(c, 2.25));
        assert!(close(iqr(&v), 5.5));
        assert_eq!(quartiles(&[4.0]), [4.0; 3]);
    }

    #[test]
    fn geomean_averages_ratios_not_magnitudes() {
        assert!(close(geomean(&[1.0, 100.0]), 10.0));
        assert!(close(geomean(&[2.0, 8.0]), 4.0));
        assert!(close(geomean(&[7.0]), 7.0));
    }

    #[test]
    fn schedule_is_fixed_rate() {
        let t0 = Instant::now();
        let s = OpenLoop::new(t0, 50.0);
        assert_eq!(s.due(0), t0);
        assert_eq!(s.due(50) - t0, Duration::from_secs(1));
        assert_eq!(s.count_in(Duration::from_secs(20)), 1000);
        // Early arrivals never count as negative latency.
        assert_eq!(s.since_due_ms(10, t0), 0.0);
    }

    #[test]
    fn a_stalled_send_is_charged_to_every_later_request() {
        // 100 requests/s; the server answers 1 ms after each send, so timed
        // from its send every request takes 1 ms. The sender stalls for
        // 50 ms when request 3 falls due, then sends the backlog back to
        // back, 0.1 ms apart.
        let t0 = Instant::now();
        let s = OpenLoop::new(t0, 100.0);
        let service = Duration::from_millis(1);
        let mut sent = Vec::new();
        let mut free_at = t0;
        for i in 0..10 {
            if i == 3 {
                free_at = s.due(3) + Duration::from_millis(50);
            }
            let at = free_at.max(s.due(i));
            sent.push(at);
            free_at = at + Duration::from_micros(100);
        }
        let latency: Vec<f64> = (0..10)
            .map(|i| s.since_due_ms(i, sent[i] + service))
            .collect();
        assert!(close(latency[0], 1.0) && close(latency[2], 1.0));
        // Request 3 and every request due during the stall carry the part
        // of the stall still left when they fell due.
        for (i, ms) in latency.iter().enumerate().take(8).skip(3) {
            let left = 50.0 - (i as f64 - 3.0) * 10.0;
            assert!(*ms > left, "request {i}: {ms} ms");
        }
        // Request 8 falls due after the backlog drained.
        assert!(latency[8] < 2.0, "{}", latency[8]);
        // The sender's own lateness shows the stall too.
        assert!(s.since_due_ms(3, sent[3]) >= 50.0);
    }
}
