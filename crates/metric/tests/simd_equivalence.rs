//! Bitwise SIMD-vs-scalar equivalence, proptest-pinned.
//!
//! The batch-kernel contract is bitwise *identity*, not approximate
//! agreement: the SIMD paths vectorize across points while keeping
//! each lane's accumulation in exact scalar dimension order (sub, mul,
//! add — never FMA), so every distance, every relax update, and every
//! threshold decision must come out bit-for-bit equal to the scalar
//! fallback. These tests force the dispatcher both ways through
//! [`metric::simd::force_mode`] and compare `to_bits()` across both
//! batch layouts (`VecPoint` pointer rows, `DenseStore` flat runs).
//!
//! On hosts without AVX2/NEON both forced modes run the scalar path
//! and the comparison is trivially true — the suite is also part of
//! the `DIVMAX_SIMD=off` CI leg, where `force_mode` deliberately
//! overrides the env knob so the SIMD path is still exercised.

use metric::simd::{self, SimdMode};
use metric::{DenseStore, Euclidean, Metric, VecPoint};
use proptest::prelude::*;
use std::sync::Mutex;

/// `force_mode` is process-global; every test toggling it serializes
/// through this lock and restores the env-driven default on exit.
static MODE_LOCK: Mutex<()> = Mutex::new(());

/// Small dims take the fixed-D scalar kernels on both modes; dims > 4
/// hit the SIMD dispatch, including non-multiples of the 8-point block
/// and dims far beyond one cache line.
const DIMS: &[usize] = &[1, 2, 3, 4, 5, 6, 7, 8, 11, 16, 20, 64, 128, 257];

/// Deterministic NaN-free coordinate stream in `[-100, 100]`
/// (splitmix64; subnormals are not representable at this scale).
fn fill(seed: u64, len: usize) -> Vec<f64> {
    let mut state = seed;
    (0..len)
        .map(|_| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            ((z >> 11) as f64 / (1u64 << 53) as f64) * 200.0 - 100.0
        })
        .collect()
}

struct Case {
    store: DenseStore,
    points: Vec<VecPoint>,
    center: VecPoint,
    center_store: DenseStore,
}

fn build(dim: usize, n: usize, seed: u64) -> Case {
    let store = DenseStore::from_flat(fill(seed, n * dim), dim);
    let points = store.to_points();
    let center_coords = fill(seed ^ 0xD1CE_F00D, dim);
    Case {
        store,
        points,
        center: VecPoint::new(center_coords.clone()),
        center_store: DenseStore::from_flat(center_coords, dim),
    }
}

/// Initial nearest-center distances with all three relax regimes
/// represented: untouched (`∞`), certain update (0), and data-scaled
/// values that may or may not beat the new distance.
fn seed_dists(seed: u64, n: usize) -> Vec<f64> {
    fill(seed ^ 0x5EED, n)
        .into_iter()
        .enumerate()
        .map(|(i, v)| match i % 3 {
            0 => f64::INFINITY,
            1 => v.abs(),
            _ => v.abs() * 4.0,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn distance_many_is_bitwise_identical(
        di in 0usize..DIMS.len(),
        n in 1usize..40,
        seed in 0u64..(1 << 48),
    ) {
        let dim = DIMS[di];
        let case = build(dim, n, seed);
        let rows = case.store.rows();
        let crow = metric::DenseRow::new(case.center_store.row(0));

        let _g = MODE_LOCK.lock().unwrap();
        let run = |mode| {
            simd::force_mode(Some(mode));
            let mut vp = vec![0.0; n];
            Euclidean.distance_many(&case.center, &case.points, &mut vp);
            let mut dr = vec![0.0; n];
            Euclidean.distance_many(&crow, &rows, &mut dr);
            (vp, dr)
        };
        let off = run(SimdMode::Off);
        let on = run(SimdMode::On);
        simd::force_mode(None);

        let bits = |v: &[f64]| v.iter().map(|d| d.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&off.0), bits(&on.0), "VecPoint lanes");
        prop_assert_eq!(bits(&off.1), bits(&on.1), "DenseRow lanes");
        // Both layouts hold identical coordinates, so the scalar
        // results must agree across layouts too.
        prop_assert_eq!(bits(&off.0), bits(&off.1), "layout drift");
    }

    #[test]
    fn relax_is_bitwise_identical(
        di in 0usize..DIMS.len(),
        n in 1usize..40,
        seed in 0u64..(1 << 48),
        cj in 0usize..9,
    ) {
        let dim = DIMS[di];
        let case = build(dim, n, seed);
        let rows = case.store.rows();
        let crow = metric::DenseRow::new(case.center_store.row(0));

        let _g = MODE_LOCK.lock().unwrap();
        let run = |mode| {
            simd::force_mode(Some(mode));
            let mut out = Vec::new();
            {
                let mut d = seed_dists(seed, n);
                let mut a: Vec<usize> = (0..n).map(|i| i % 5).collect();
                let far = Euclidean.relax(&case.center, &case.points, &mut d, &mut a, cj);
                out.push((d, a, far));
            }
            {
                let mut d = seed_dists(seed, n);
                let mut a: Vec<usize> = (0..n).map(|i| i % 5).collect();
                let far = Euclidean.relax(&crow, &rows, &mut d, &mut a, cj);
                out.push((d, a, far));
            }
            out
        };
        let off = run(SimdMode::Off);
        let on = run(SimdMode::On);
        simd::force_mode(None);

        for (label, (o, f)) in ["VecPoint", "DenseRow"]
            .iter()
            .zip(off.iter().zip(on.iter()))
        {
            let bits = |v: &[f64]| v.iter().map(|d| d.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&o.0), bits(&f.0), "{} dists", label);
            prop_assert_eq!(&o.1, &f.1, "{} assignment", label);
            prop_assert_eq!(
                o.2.map(|(i, d)| (i, d.to_bits())),
                f.2.map(|(i, d)| (i, d.to_bits())),
                "{} farthest",
                label
            );
        }
    }

    #[test]
    fn within_is_decision_identical(
        di in 0usize..DIMS.len(),
        n in 1usize..40,
        seed in 0u64..(1 << 48),
    ) {
        let dim = DIMS[di];
        let case = build(dim, n, seed);
        let rows = case.store.rows();
        let crow = metric::DenseRow::new(case.center_store.row(0));

        // Thresholds straddling every true distance, including the
        // exact values themselves (the boundary the root-elision
        // squared compare must get right).
        let mut exact = vec![0.0; n];
        Euclidean.distance_many(&case.center, &case.points, &mut exact);
        let mut thresholds: Vec<f64> = exact
            .iter()
            .flat_map(|&d| [d, d * (1.0 - 1e-12), d * (1.0 + 1e-12)])
            .collect();
        thresholds.push(0.0);

        let _g = MODE_LOCK.lock().unwrap();
        let run = |mode| {
            simd::force_mode(Some(mode));
            thresholds
                .iter()
                .map(|&t| Euclidean.distance_to_set_within(&crow, &rows, t))
                .collect::<Vec<_>>()
        };
        let off = run(SimdMode::Off);
        let on = run(SimdMode::On);
        simd::force_mode(None);
        prop_assert_eq!(&off, &on);
        // Every decision must match the definitional scalar answer.
        for (t, dr) in thresholds.iter().zip(off.iter()) {
            let want = exact.iter().any(|&d| d <= *t);
            prop_assert_eq!(*dr, want, "threshold {}", t);
        }
    }
}
