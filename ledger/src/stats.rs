//! Order statistics for timing samples.
//!
//! A timing is reported as its median plus the highest percentile that
//! still has at least [`MIN_TAIL`] samples beyond it, together with the
//! sample count — so a p99 is only ever quoted from a thousand samples or
//! more, and a handful of passes yields a median alone.

/// Samples that must lie strictly beyond a quoted tail percentile.
pub const MIN_TAIL: usize = 10;

/// Tail percentiles considered, highest first, in tenths of a percent
/// (integer ranks avoid floating-point rounding at exact boundaries).
const TAILS_PERMILLE: [usize; 4] = [999, 990, 900, 750];

/// Median, best-supported tail percentile and sample count of a sample.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median (mean of the two middle samples for an even count).
    pub median: f64,
    /// `(percentile, value)` for the highest percentile in [`TAILS_PERMILLE`] with
    /// at least [`MIN_TAIL`] samples beyond it, if any.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarizes `samples`; `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let median =
            if n % 2 == 1 { sorted[n / 2] } else { (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0 };
        let tail = TAILS_PERMILLE.iter().find_map(|&pm| {
            let rank = nearest_rank(n, pm);
            (n - rank >= MIN_TAIL).then(|| (pm as f64 / 10.0, sorted[rank - 1]))
        });
        Some(Summary { n, median, tail })
    }

    /// `p<pct>=<value>` for the tail, or `-` when no percentile qualifies.
    pub fn tail_label(&self) -> String {
        match self.tail {
            Some((p, v)) => format!("p{p}={v:.4}"),
            None => "-".to_string(),
        }
    }
}

/// Nearest-rank position (1-based) of the `permille`/1000 quantile of `n`
/// samples: rank ceil(permille/1000 * n), at least 1.
fn nearest_rank(n: usize, permille: usize) -> usize {
    (permille * n).div_ceil(1000).max(1)
}

/// Nearest-rank percentile of `samples`, `permille` in tenths of a
/// percent (0 for an empty slice).
pub fn percentile(samples: &[f64], permille: usize) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[nearest_rank(sorted.len(), permille) - 1]
}

/// The median of `samples` (0 for an empty slice).
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).map_or(0.0, |s| s.median)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled on purpose: the summary must not depend on order.
        let mut v: Vec<f64> = (1..=n).map(|i| i as f64).collect();
        v.reverse();
        v
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(Summary::of(&ramp(5)).unwrap().median, 3.0);
        assert_eq!(Summary::of(&ramp(4)).unwrap().median, 2.5);
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn no_tail_without_ten_samples_beyond_it() {
        // 19 samples: p75 is rank 15, leaving only 4 beyond it.
        let s = Summary::of(&ramp(19)).unwrap();
        assert_eq!(s.n, 19);
        assert_eq!(s.tail, None);
        assert_eq!(s.tail_label(), "-");
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_beyond() {
        // 40 samples: p75 (rank 30) has exactly 10 beyond; p90 only 4.
        assert_eq!(Summary::of(&ramp(40)).unwrap().tail, Some((75.0, 30.0)));
        // 100 samples: p90 (rank 90) has 10 beyond; p99 only 1.
        assert_eq!(Summary::of(&ramp(100)).unwrap().tail, Some((90.0, 90.0)));
        // 999 samples: p99 is rank 990 with 9 beyond, so p90 it is.
        assert_eq!(Summary::of(&ramp(999)).unwrap().tail, Some((90.0, 900.0)));
        // 1000 samples: p99 is rank 990 with exactly 10 beyond.
        let s = Summary::of(&ramp(1000)).unwrap();
        assert_eq!(s.tail, Some((99.0, 990.0)));
        assert_eq!(s.n, 1000);
        assert_eq!(s.tail_label(), "p99=990.0000");
        assert_eq!(percentile(&ramp(1000), 900), 900.0);
        assert_eq!(percentile(&ramp(10), 500), 5.0);
    }
}
