//! Order statistics the benchmark reports, and the failure accounting
//! every run shares.

/// Nearest-rank percentile of `samples` (`p` in `[0, 1]`): the smallest
/// sample with at least `p` of all samples at or below it. `NaN` for an
/// empty slice.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s[nearest_rank(s.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn nearest_rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// How many of `n` samples lie strictly above the nearest-rank `p`
/// percentile (ties at the percentile value aside).
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - nearest_rank(n, p)
    }
}

/// Smallest sample count for which the `p` percentile has at least
/// `beyond` samples above it — how runs are sized for `latency_p90_ms`.
pub fn min_samples_for(p: f64, beyond: usize) -> usize {
    (1..).find(|&n| samples_beyond(n, p) >= beyond).unwrap_or(usize::MAX)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Quartiles exactly as Python's `statistics.quantiles(values, n=4)`
/// computes them (the default "exclusive" method), so the spreads this
/// benchmark prints match what a reader recomputes from the raw values.
/// Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let ld = values.len();
    if ld < 2 {
        return None;
    }
    let mut d = values.to_vec();
    d.sort_by(f64::total_cmp);
    let (n, m) = (4usize, ld + 1);
    let mut q = [0.0; 3];
    for (slot, i) in q.iter_mut().zip(1..n) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *slot = (d[j - 1] * (n as f64 - delta) + d[j] * delta) / n as f64;
    }
    Some((q[0], q[1], q[2]))
}

/// Interquartile distance as a share of the median (`(q3 - q1) / q2`).
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q2, q3) = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// Ops attempted and ops that failed a check or returned an error.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts one op; returns its value when it passed.
    pub fn record<T>(&mut self, r: Result<T, String>, what: &str) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                eprintln!("pipebench: {what} failed: {e}");
                None
            }
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Share of attempted ops that passed every check; 0 when nothing was
    /// attempted (a run that did no work is no success).
    pub fn ok_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            (self.attempted - self.failed) as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_needs_a_hundred_samples_for_ten_beyond() {
        assert_eq!(min_samples_for(0.9, 10), 100);
        assert_eq!(samples_beyond(100, 0.9), 10);
        assert_eq!(samples_beyond(99, 0.9), 9);
        assert_eq!(samples_beyond(130, 0.9), 13);
        assert_eq!(samples_beyond(0, 0.9), 0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        // Order of the input does not matter.
        let rev: Vec<f64> = v.iter().rev().copied().collect();
        assert_eq!(percentile(&rev, 0.9), 90.0);
        assert!(percentile(&[], 0.5).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 2.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 1.5, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        let s = spread(&v).unwrap();
        assert!((s - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn failures_are_counted_against_attempts() {
        let mut t = Tally::default();
        assert_eq!(t.ok_ratio(), 0.0);
        assert_eq!(t.record(Ok::<u32, String>(3), "op"), Some(3));
        assert_eq!(t.record(Err::<u32, String>("bad".into()), "op"), None);
        assert_eq!(t.record(Ok::<u32, String>(4), "op"), Some(4));
        assert_eq!(t.record(Ok::<u32, String>(5), "op"), Some(5));
        assert_eq!(t, Tally { attempted: 4, failed: 1 });
        assert_eq!(t.ok_ratio(), 0.75);
        let mut u = Tally { attempted: 1, failed: 1 };
        u.merge(t);
        assert_eq!(u, Tally { attempted: 5, failed: 2 });
    }
}
