//! The Manhattan (`L1`, rectilinear) metric.

use crate::kernels;
use crate::{DenseRow, Metric, VecPoint};

/// Manhattan distance `d(u, v) = Σ |uᵢ − vᵢ|`.
///
/// The paper cites Fekete–Meijer's `(1+ε)`-approximation for
/// remote-clique under *rectilinear* distances; this metric lets the
/// examples exercise that setting. `(R^d, L1)` has doubling dimension
/// `O(d)` like its Euclidean sibling.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Manhattan;

/// Batch hooks use the dimension-specialized `kernels::manhattan_*`
/// loops (no root to elide — the win is the unrolled inner loop and
/// cache-linear scans over [`crate::DenseStore`] rows); bitwise
/// equality with the scalar loop is enforced by
/// `tests/batch_equivalence.rs`.
impl Metric<VecPoint> for Manhattan {
    #[inline]
    fn distance(&self, a: &VecPoint, b: &VecPoint) -> f64 {
        self.distance(a.coords(), b.coords())
    }

    fn distance_many(&self, p: &VecPoint, others: &[VecPoint], out: &mut [f64]) {
        kernels::manhattan_many(p.coords(), others.iter().map(VecPoint::coords), out);
    }

    fn relax(
        &self,
        center: &VecPoint,
        points: &[VecPoint],
        dists: &mut [f64],
        assignment: &mut [usize],
        cj: usize,
    ) -> Option<(usize, f64)> {
        kernels::manhattan_relax(
            center.coords(),
            points.iter().map(VecPoint::coords),
            dists,
            assignment,
            cj,
        )
    }

    fn pack(&self, points: &[VecPoint], max_dim: usize) -> Option<(Vec<f64>, usize)> {
        kernels::pack_rows(points.iter().map(VecPoint::coords), max_dim)
    }

    fn relax_packed(
        &self,
        center: &[f64],
        flat: &[f64],
        dim: usize,
        dists: &mut [f64],
        assignment: &mut [usize],
        cj: usize,
    ) -> Option<(usize, f64)> {
        kernels::manhattan_relax_flat(center, flat, dim, dists, assignment, cj)
    }
}

impl Metric<DenseRow<'_>> for Manhattan {
    #[inline]
    fn distance(&self, a: &DenseRow<'_>, b: &DenseRow<'_>) -> f64 {
        self.distance(a.coords(), b.coords())
    }

    fn distance_many(&self, p: &DenseRow<'_>, others: &[DenseRow<'_>], out: &mut [f64]) {
        assert_eq!(out.len(), others.len(), "output length mismatch");
        match DenseRow::contiguous_run(others) {
            Some((flat, dim)) => kernels::manhattan_many_flat(p.coords(), flat, dim, out),
            None => kernels::manhattan_many(p.coords(), others.iter().map(DenseRow::coords), out),
        }
    }

    fn relax(
        &self,
        center: &DenseRow<'_>,
        points: &[DenseRow<'_>],
        dists: &mut [f64],
        assignment: &mut [usize],
        cj: usize,
    ) -> Option<(usize, f64)> {
        assert_eq!(dists.len(), points.len(), "dists length mismatch");
        match DenseRow::contiguous_run(points) {
            Some((flat, dim)) => {
                kernels::manhattan_relax_flat(center.coords(), flat, dim, dists, assignment, cj)
            }
            None => kernels::manhattan_relax(
                center.coords(),
                points.iter().map(DenseRow::coords),
                dists,
                assignment,
                cj,
            ),
        }
    }
}

impl Metric<[f64]> for Manhattan {
    #[inline]
    fn distance(&self, a: &[f64], b: &[f64]) -> f64 {
        debug_assert_eq!(a.len(), b.len(), "dimension mismatch");
        kernels::l1(a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn taxicab_distance() {
        let a = VecPoint::from([0.0, 0.0]);
        let b = VecPoint::from([3.0, 4.0]);
        assert_eq!(Manhattan.distance(&a, &b), 7.0);
    }

    #[test]
    fn dominates_euclidean() {
        use crate::Euclidean;
        let a = VecPoint::from([1.0, -2.0, 0.5]);
        let b = VecPoint::from([-1.0, 3.0, 2.0]);
        assert!(Manhattan.distance(&a, &b) >= Euclidean.distance(&a, &b));
    }

    #[test]
    fn identity() {
        let a = VecPoint::from([9.0, 9.0]);
        assert_eq!(Manhattan.distance(&a, &a), 0.0);
    }
}
