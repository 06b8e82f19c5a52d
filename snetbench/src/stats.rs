//! Order statistics and the rate ladder.

/// Nearest-rank quantile of `sorted` (ascending): the smallest sample
/// with at least `q` of the samples at or below it. 0 when empty.
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// [`quantile`] of unsorted samples.
pub fn quantile_of(samples: &[u64], q: f64) -> u64 {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    quantile(&sorted, q)
}

/// Median of `xs`, the mean of the two middle values for an even
/// count. 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// What one open-loop run at a fixed offered rate measured.
#[derive(Clone, Copy, Debug)]
pub struct Rung {
    /// Offered rate, requests/s.
    pub rate: f64,
    pub p50_ms: f64,
    pub p99_ms: f64,
    /// Completions per second over the measured window.
    pub sustained_rps: f64,
    /// Requests failed, refused, lost or answered wrongly.
    pub failed: u64,
}

/// Share of the offered rate a rung must complete to count as keeping
/// up; below it a backlog is growing.
pub const KEEP_UP: f64 = 0.97;

impl Rung {
    /// Whether this rung meets the latency limit, keeps up with its
    /// offered rate and fails nothing.
    pub fn passes(&self, p99_limit_ms: f64) -> bool {
        self.failed == 0 && self.p99_ms <= p99_limit_ms && self.sustained_rps >= KEEP_UP * self.rate
    }
}

/// The completion rate sustained at the highest offered rate at which
/// that rung and every lower one pass; 0 when the lowest rung fails.
/// `rungs` may come in any order, and rates above the first failing
/// rung never count.
pub fn max_rps(rungs: &[Rung], p99_limit_ms: f64) -> f64 {
    let mut sorted = rungs.to_vec();
    sorted.sort_by(|a, b| a.rate.total_cmp(&b.rate));
    sorted
        .iter()
        .take_while(|r| r.passes(p99_limit_ms))
        .last()
        .map_or(0.0, |r| r.sustained_rps)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&v, 0.5), 50);
        assert_eq!(quantile(&v, 0.99), 99);
        assert_eq!(quantile(&v, 1.0), 100);
        assert_eq!(quantile(&v, 0.0), 1);
        assert_eq!(quantile(&[7], 0.99), 7);
        assert_eq!(quantile(&[], 0.5), 0);
        assert_eq!(quantile(&[1, 2, 3], 0.5), 2);
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    fn rung(rate: f64, p99_ms: f64, sustained: f64, failed: u64) -> Rung {
        Rung {
            rate,
            p50_ms: p99_ms / 3.0,
            p99_ms,
            sustained_rps: sustained,
            failed,
        }
    }

    #[test]
    fn ladder_stops_at_the_first_failing_rung() {
        let rungs = [
            rung(2000.0, 0.4, 2000.0, 0),
            rung(3000.0, 0.6, 2995.0, 0),
            rung(4000.0, 5.0, 3990.0, 0), // over the p99 limit
            rung(5000.0, 0.8, 5000.0, 0), // passes, but above a failure
        ];
        assert_eq!(max_rps(&rungs, 2.0), 2995.0);
        // Order of the input does not matter.
        let mut rev = rungs;
        rev.reverse();
        assert_eq!(max_rps(&rev, 2.0), 2995.0);
    }

    #[test]
    fn ladder_counts_backlog_and_failures() {
        // Falling behind the offered rate fails a rung.
        let behind = [rung(2000.0, 0.4, 1999.0, 0), rung(3000.0, 0.5, 2500.0, 0)];
        assert_eq!(max_rps(&behind, 2.0), 1999.0);
        // One failed request fails a rung.
        let failed = [rung(2000.0, 0.4, 2000.0, 1), rung(3000.0, 0.5, 3000.0, 0)];
        assert_eq!(max_rps(&failed, 2.0), 0.0);
        // Every rung passing gives the top rate.
        let all = [rung(2000.0, 0.4, 2000.0, 0), rung(3000.0, 0.5, 2991.0, 0)];
        assert_eq!(max_rps(&all, 2.0), 2991.0);
        assert_eq!(max_rps(&[], 2.0), 0.0);
    }
}
