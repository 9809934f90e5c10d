//! Order statistics shared by every workload: nearest-rank
//! percentiles, quartiles, and the tail percentile a sample count can
//! support.

/// The conventional percentiles a tail is reported at, highest first.
/// It stops at p90: on a shared 2-vCPU host p99 of the serving
/// workloads varied by more than 100% between identical runs, so it is
/// recorded as a per-layer figure rather than gated end to end.
const TAIL_LADDER: [f64; 3] = [0.9, 0.75, 0.5];

/// Samples that must lie beyond a percentile before it is reported.
pub const TAIL_BEYOND: usize = 10;

/// Nearest-rank percentile of `sorted` (ascending): the smallest
/// sample with at least `q·n` samples at or below it. `q` is clamped
/// to `[0, 1]`; `None` for an empty slice.
pub fn nearest_rank(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    let rank = (q.clamp(0.0, 1.0) * n as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, n) - 1])
}

/// The highest percentile of [`TAIL_LADDER`] that has at least
/// [`TAIL_BEYOND`] of `n` samples strictly beyond its nearest rank, or
/// `None` when even the median lacks them.
pub fn tail_quantile(n: usize) -> Option<f64> {
    TAIL_LADDER.into_iter().find(|&q| {
        let rank = (q * n as f64).ceil() as usize;
        n.saturating_sub(rank) >= TAIL_BEYOND
    })
}

/// Median, quartiles and count of one metric's samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Nearest-rank median.
    pub median: f64,
    /// Nearest-rank first quartile.
    pub q1: f64,
    /// Nearest-rank third quartile.
    pub q3: f64,
    /// Number of samples.
    pub n: usize,
}

impl Summary {
    /// Summarizes `samples` (any order); `None` when empty.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        let sorted = sorted(samples);
        Some(Summary {
            median: nearest_rank(&sorted, 0.5)?,
            q1: nearest_rank(&sorted, 0.25)?,
            q3: nearest_rank(&sorted, 0.75)?,
            n: sorted.len(),
        })
    }
}

/// An ascending copy of `samples` (NaNs sort last).
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut out = samples.to_vec();
    out.sort_by(|a, b| a.total_cmp(b));
    out
}

/// Median of `samples`, or 0 when there are none.
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).map_or(0.0, |s| s.median)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_definition() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&xs, 0.5), Some(5.0));
        assert_eq!(nearest_rank(&xs, 0.9), Some(9.0));
        assert_eq!(nearest_rank(&xs, 0.91), Some(10.0));
        assert_eq!(nearest_rank(&xs, 0.0), Some(1.0));
        assert_eq!(nearest_rank(&xs, 1.0), Some(10.0));
        assert_eq!(nearest_rank(&[7.0], 0.99), Some(7.0));
        assert_eq!(nearest_rank(&[], 0.5), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_quantile(19), None);
        assert_eq!(tail_quantile(20), Some(0.5));
        assert_eq!(tail_quantile(39), Some(0.5));
        assert_eq!(tail_quantile(40), Some(0.75));
        assert_eq!(tail_quantile(99), Some(0.75));
        assert_eq!(tail_quantile(100), Some(0.9));
        assert_eq!(tail_quantile(10_000), Some(0.9));
        for n in 20..3000 {
            let q = tail_quantile(n).expect("n >= 20 supports the median");
            let rank = (q * n as f64).ceil() as usize;
            assert!(n - rank >= TAIL_BEYOND, "n={n} q={q}");
        }
    }

    #[test]
    fn summary_reports_quartiles_and_count() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        let s = Summary::of(&xs).unwrap();
        assert_eq!((s.q1, s.median, s.q3, s.n), (1.0, 2.0, 3.0, 4));
        assert!(Summary::of(&[]).is_none());
    }
}
