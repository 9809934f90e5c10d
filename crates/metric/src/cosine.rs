//! Angular (cosine) distance.
//!
//! On [`SparseVector`]s a single distance is a sorted-list merge of the
//! two supports ([`SparseVector::dot`]). The batch hook
//! [`Metric::distance_many`] instead scatters the probe once into a
//! per-thread dense buffer indexed by dimension, then gathers each
//! target's dot product from it in one pass over the target's entries:
//! no merge, no data-dependent three-way branch. Products are the same
//! and are added in the same ascending-dimension order as the merge;
//! the only extra terms are `±0.0` (target dimensions the probe lacks),
//! which leave a sum that starts at `+0.0` unchanged, so the kernel is
//! bitwise-identical to the scalar loop.

use std::cell::RefCell;

use crate::{Metric, SparseVector, VecPoint};

thread_local! {
    /// The scatter–gather kernel's dense probe buffer. All-zero between
    /// calls: [`Scattered`] clears what it wrote when dropped.
    static SCATTER: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// A probe scattered into the dense buffer; zeroes its entries again on
/// drop (unwinding included), so the buffer is clean for the next call.
struct Scattered<'a> {
    dense: &'a mut [f64],
    probe: &'a SparseVector,
}

impl<'a> Scattered<'a> {
    /// Grows `buf` to cover `probe`'s dimensions and writes its values.
    fn new(buf: &'a mut Vec<f64>, probe: &'a SparseVector, top: usize) -> Self {
        if buf.len() <= top {
            buf.resize(top + 1, 0.0);
        }
        let dense = &mut buf[..=top];
        for &(d, v) in probe.entries() {
            dense[d as usize] = v;
        }
        Self { dense, probe }
    }

    /// `probe · q`, summed over `q`'s entries in ascending dimension.
    #[inline]
    fn dot(&self, q: &SparseVector) -> f64 {
        let mut sum = 0.0;
        for &(d, v) in q.entries() {
            // Entries are sorted: once past the probe's largest
            // dimension, every remaining product is zero.
            let Some(&x) = self.dense.get(d as usize) else {
                break;
            };
            sum += x * v;
        }
        sum
    }
}

impl Drop for Scattered<'_> {
    fn drop(&mut self) {
        for &(d, _) in self.probe.entries() {
            self.dense[d as usize] = 0.0;
        }
    }
}

/// The angular distance `d(u, v) = arccos(u·v / (‖u‖‖v‖))`.
///
/// This is exactly the distance the paper uses on the musiXmatch dataset
/// (Section 7): unlike the popular `1 − cos` "cosine dissimilarity", the
/// arccos form is a true metric (it is the geodesic distance on the unit
/// sphere after normalizing), so the core-set guarantees apply.
///
/// Distances lie in `[0, π]`. Zero vectors are treated as orthogonal to
/// every other vector (distance `π/2`) and at distance 0 from themselves;
/// the dataset generators filter zero vectors out, matching the paper's
/// own filtering of songs with fewer than 10 frequent words.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CosineDistance;

impl CosineDistance {
    /// Probes whose largest dimension is at or above this cap skip the
    /// scatter–gather kernel (its dense buffer would hold `cap` f64s,
    /// 8 MB per thread) and take the scalar loop.
    pub const SCATTER_DIM_CAP: u32 = 1 << 20;
}

impl Metric<SparseVector> for CosineDistance {
    #[inline]
    fn distance(&self, a: &SparseVector, b: &SparseVector) -> f64 {
        a.cosine_similarity(b).acos()
    }

    fn distance_many(&self, p: &SparseVector, others: &[SparseVector], out: &mut [f64]) {
        assert_eq!(out.len(), others.len(), "output length mismatch");
        let top = match p.entries().last() {
            Some(&(d, _)) if d < Self::SCATTER_DIM_CAP => d as usize,
            // The zero probe and probes past the cap: scalar loop.
            _ => {
                for (o, q) in out.iter_mut().zip(others) {
                    *o = self.distance(p, q);
                }
                return;
            }
        };
        SCATTER.with(|cell| {
            let mut buf = cell.borrow_mut();
            let scattered = Scattered::new(&mut buf, p, top);
            for (o, q) in out.iter_mut().zip(others) {
                *o = if q.is_zero() {
                    self.distance(p, q)
                } else {
                    (scattered.dot(q) / (p.norm() * q.norm()))
                        .clamp(-1.0, 1.0)
                        .acos()
                };
            }
        });
    }
}

impl Metric<VecPoint> for CosineDistance {
    fn distance(&self, a: &VecPoint, b: &VecPoint) -> f64 {
        let (na, nb) = (a.norm(), b.norm());
        if na == 0.0 && nb == 0.0 {
            return 0.0;
        }
        if na == 0.0 || nb == 0.0 {
            return std::f64::consts::FRAC_PI_2;
        }
        let dot: f64 = a
            .coords()
            .iter()
            .zip(b.coords().iter())
            .map(|(x, y)| x * y)
            .sum();
        (dot / (na * nb)).clamp(-1.0, 1.0).acos()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_2, PI};

    #[test]
    fn identical_direction_is_zero() {
        let a = SparseVector::new(vec![(0, 1.0), (4, 2.0)]);
        let b = SparseVector::new(vec![(0, 3.0), (4, 6.0)]);
        assert!(CosineDistance.distance(&a, &b) < 1e-7);
    }

    #[test]
    fn orthogonal_is_half_pi() {
        let a = SparseVector::new(vec![(0, 1.0)]);
        let b = SparseVector::new(vec![(1, 1.0)]);
        assert!((CosineDistance.distance(&a, &b) - FRAC_PI_2).abs() < 1e-12);
    }

    #[test]
    fn opposite_is_pi() {
        let a = VecPoint::from([1.0, 0.0]);
        let b = VecPoint::from([-1.0, 0.0]);
        assert!((CosineDistance.distance(&a, &b) - PI).abs() < 1e-12);
    }

    #[test]
    fn dense_and_sparse_agree() {
        let ds = CosineDistance.distance(
            &SparseVector::new(vec![(0, 1.0), (1, 2.0)]),
            &SparseVector::new(vec![(0, 2.0), (1, 1.0)]),
        );
        let dd = CosineDistance.distance(&VecPoint::from([1.0, 2.0]), &VecPoint::from([2.0, 1.0]));
        assert!((ds - dd).abs() < 1e-12);
    }

    #[test]
    fn zero_vector_conventions() {
        let z = SparseVector::empty();
        let v = SparseVector::new(vec![(0, 1.0)]);
        assert_eq!(CosineDistance.distance(&z, &z), 0.0);
        assert!((CosineDistance.distance(&z, &v) - FRAC_PI_2).abs() < 1e-12);
    }
}
