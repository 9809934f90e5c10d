//! Cached pairwise-distance matrix.

use crate::Metric;

/// A symmetric pairwise-distance matrix over a point set, stored as a
/// packed lower triangle.
///
/// Objective evaluation (`div(S')` for the six diversity measures) and
/// the matching/GMM sequential algorithms repeatedly query the same
/// `O(k²)` distances on the final core-set; precomputing them trades
/// `O(k²)` memory for avoiding recomputation of potentially expensive
/// distances (e.g. sparse cosine).
#[derive(Clone, Debug)]
pub struct DistanceMatrix {
    n: usize,
    /// Row-major lower triangle, excluding the diagonal:
    /// `data[i*(i-1)/2 + j]` holds `d(i, j)` for `j < i`.
    data: Vec<f64>,
}

impl DistanceMatrix {
    /// Computes all pairwise distances among `points` under `metric`.
    /// `O(n²)` distance evaluations, parallelized over contiguous row
    /// blocks when the pair count clears [`crate::par::PAR_MIN_WORK`]
    /// (each block fills a disjoint span of the packed triangle, so the
    /// result is identical to the sequential fill regardless of thread
    /// count).
    pub fn build<P: Sync, M: Metric<P>>(points: &[P], metric: &M) -> Self {
        let pairs = points.len() * points.len().saturating_sub(1) / 2;
        Self::build_with_threads(points, metric, crate::par::auto_threads(pairs))
    }

    /// [`DistanceMatrix::build`] with an explicit thread count
    /// (`threads <= 1` runs sequentially). Output is identical for
    /// every thread count; exposed for the determinism tests and the
    /// kernel benches.
    pub fn build_with_threads<P: Sync, M: Metric<P>>(
        points: &[P],
        metric: &M,
        threads: usize,
    ) -> Self {
        let n = points.len();
        let pairs = n * n.saturating_sub(1) / 2;
        let mut data = vec![0.0f64; pairs];
        if threads <= 1 {
            Self::fill_rows(points, metric, 1, &mut data);
        } else {
            // Row i holds i entries: balance blocks by entry count, not
            // row count, then hand each block its span of `data`.
            let blocks = Self::balanced_row_blocks(n, threads);
            let mut tasks = Vec::with_capacity(blocks.len());
            let mut rest: &mut [f64] = &mut data;
            for rows in blocks {
                let span = span_len(&rows);
                let (chunk, tail) = rest.split_at_mut(span);
                rest = tail;
                tasks.push(move || Self::fill_rows(&points[..rows.end], metric, rows.start, chunk));
            }
            crate::par::run_tasks(tasks);
        }
        Self { n, data }
    }

    /// Fills `out` with the packed-triangle entries of rows
    /// `first_row..` of `points` (row `i` contributes `d(i, j)` for all
    /// `j < i`); `out` holds exactly those entries. Each row is one
    /// [`Metric::distance_many`] call, so the metric's batch kernel
    /// serves the matrix, bit for bit equal to the scalar loop.
    fn fill_rows<P, M: Metric<P>>(points: &[P], metric: &M, first_row: usize, out: &mut [f64]) {
        let mut rest = out;
        for i in first_row..points.len() {
            let (row, tail) = rest.split_at_mut(i);
            metric.distance_many(&points[i], &points[..i], row);
            rest = tail;
        }
        debug_assert!(rest.is_empty(), "row block under-filled");
    }

    /// Partitions rows `1..n` into at most `parts` contiguous blocks of
    /// near-equal total entry count (row `i` costs `i` entries).
    fn balanced_row_blocks(n: usize, parts: usize) -> Vec<std::ops::Range<usize>> {
        let total = n * n.saturating_sub(1) / 2;
        if total == 0 {
            return Vec::new();
        }
        let target = total.div_ceil(parts);
        let mut out = Vec::with_capacity(parts);
        let mut start = 1usize;
        let mut acc = 0usize;
        for i in 1..n {
            acc += i;
            if acc >= target || i == n - 1 {
                out.push(start..i + 1);
                start = i + 1;
                acc = 0;
            }
        }
        out
    }

    /// Builds a matrix from an explicit symmetric closure: `dist(i, j)`
    /// is called once per unordered pair with `j < i`.
    pub fn from_fn(n: usize, mut dist: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(n * n.saturating_sub(1) / 2);
        for i in 1..n {
            for j in 0..i {
                data.push(dist(i, j));
            }
        }
        Self { n, data }
    }

    /// Number of points.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` if the matrix covers no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The distance between points `i` and `j` (0 when `i == j`).
    ///
    /// # Panics
    /// Panics if `i >= len()` or `j >= len()`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.n && j < self.n, "index out of bounds");
        match i.cmp(&j) {
            std::cmp::Ordering::Equal => 0.0,
            std::cmp::Ordering::Greater => self.data[i * (i - 1) / 2 + j],
            std::cmp::Ordering::Less => self.data[j * (j - 1) / 2 + i],
        }
    }

    /// The largest pairwise distance (0 for < 2 points).
    pub fn diameter(&self) -> f64 {
        self.data.iter().copied().fold(0.0, f64::max)
    }

    /// The smallest pairwise distance (`INFINITY` for < 2 points).
    pub fn min_pairwise(&self) -> f64 {
        self.data.iter().copied().fold(f64::INFINITY, f64::min)
    }
}

/// Number of packed-triangle entries contributed by rows `r.start..r.end`
/// (row `i` contributes `i` entries).
fn span_len(r: &std::ops::Range<usize>) -> usize {
    let tri = |x: usize| x * x.saturating_sub(1) / 2;
    tri(r.end) - tri(r.start)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Euclidean, VecPoint};

    fn pts(xs: &[f64]) -> Vec<VecPoint> {
        xs.iter().map(|&x| VecPoint::from([x])).collect()
    }

    #[test]
    fn symmetric_lookup() {
        let m = DistanceMatrix::build(&pts(&[0.0, 1.0, 3.0]), &Euclidean);
        assert_eq!(m.get(0, 1), 1.0);
        assert_eq!(m.get(1, 0), 1.0);
        assert_eq!(m.get(0, 2), 3.0);
        assert_eq!(m.get(2, 1), 2.0);
    }

    #[test]
    fn diagonal_is_zero() {
        let m = DistanceMatrix::build(&pts(&[5.0, 9.0]), &Euclidean);
        assert_eq!(m.get(0, 0), 0.0);
        assert_eq!(m.get(1, 1), 0.0);
    }

    #[test]
    fn diameter_and_min() {
        let m = DistanceMatrix::build(&pts(&[0.0, 1.0, 10.0]), &Euclidean);
        assert_eq!(m.diameter(), 10.0);
        assert_eq!(m.min_pairwise(), 1.0);
    }

    #[test]
    fn empty_and_singleton() {
        let m0 = DistanceMatrix::build(&pts(&[]), &Euclidean);
        assert!(m0.is_empty());
        assert_eq!(m0.diameter(), 0.0);
        let m1 = DistanceMatrix::build(&pts(&[1.0]), &Euclidean);
        assert_eq!(m1.len(), 1);
        assert_eq!(m1.min_pairwise(), f64::INFINITY);
    }

    #[test]
    fn parallel_build_identical_to_sequential() {
        let points: Vec<VecPoint> = (0..97)
            .map(|i| VecPoint::from([(i as f64) * 0.37 % 5.0, (i as f64) * 0.61 % 3.0]))
            .collect();
        let seq = DistanceMatrix::build_with_threads(&points, &Euclidean, 1);
        for threads in [2usize, 3, 8, 200] {
            let par = DistanceMatrix::build_with_threads(&points, &Euclidean, threads);
            assert_eq!(seq.data.len(), par.data.len());
            for (a, b) in seq.data.iter().zip(par.data.iter()) {
                assert_eq!(a.to_bits(), b.to_bits(), "threads={threads}");
            }
        }
    }

    #[test]
    fn from_fn_matches_build() {
        let points = pts(&[0.0, 2.0, 5.0, 6.0]);
        let a = DistanceMatrix::build(&points, &Euclidean);
        let b = DistanceMatrix::from_fn(points.len(), |i, j| {
            Euclidean.distance(&points[i], &points[j])
        });
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(a.get(i, j), b.get(i, j));
            }
        }
    }
}
