//! Packed-traversal laws. At `d ≤ 4` and `k ≥ 2` the GMM traversal
//! copies its points once into a row-major buffer ([`Metric::pack`])
//! and runs every round on the flat kernels ([`Metric::relax_packed`]).
//! That must change nothing observable:
//!
//! * the [`GmmOutcome`] equals the one of the default per-point relax
//!   loop, bit for bit, on every field, sequential and parallel;
//! * the work counters (`kernel.distances`, `gmm.relaxations`) equal
//!   those of the per-row kernels the traversal used before packing.

use diversity_core::gmm::{gmm_with_threads, GmmOutcome};
use metric::par::PAR_MIN_WORK;
use metric::{Euclidean, Manhattan, Metric, VecPoint};
use proptest::prelude::*;
use std::sync::{Arc, Mutex};

/// The counter law reads the process-global recorder, so no other
/// traversal in this binary may run while it does.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Implements only `distance`: the traversal takes the default relax
/// loop, the reference every batch hook must match.
struct DistanceOnly<M>(M);

impl<M: Metric<VecPoint>> Metric<VecPoint> for DistanceOnly<M> {
    fn distance(&self, a: &VecPoint, b: &VecPoint) -> f64 {
        self.0.distance(a, b)
    }
}

/// Forwards `relax` but not `pack`: the per-row kernels, unpacked.
struct PerRow<M>(M);

impl<M: Metric<VecPoint>> Metric<VecPoint> for PerRow<M> {
    fn distance(&self, a: &VecPoint, b: &VecPoint) -> f64 {
        self.0.distance(a, b)
    }

    fn relax(
        &self,
        center: &VecPoint,
        points: &[VecPoint],
        dists: &mut [f64],
        assignment: &mut [usize],
        cj: usize,
    ) -> Option<(usize, f64)> {
        self.0.relax(center, points, dists, assignment, cj)
    }
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn assert_identical(reference: &GmmOutcome, got: &GmmOutcome, case: &str) {
    assert_eq!(reference.selected, got.selected, "selected ({case})");
    assert_eq!(
        bits(&reference.insertion_dist),
        bits(&got.insertion_dist),
        "insertion_dist ({case})"
    );
    assert_eq!(reference.assignment, got.assignment, "assignment ({case})");
    assert_eq!(
        bits(&reference.dist_to_centers),
        bits(&got.dist_to_centers),
        "dist_to_centers ({case})"
    );
}

/// The metric's traversal at 1, 2 and 3 threads against the default
/// loop's sequential one.
fn check<M: Metric<VecPoint> + Copy + std::fmt::Debug>(
    points: &[VecPoint],
    metric: M,
    k: usize,
    start: usize,
) {
    let reference = gmm_with_threads(points, &DistanceOnly(metric), k, start, 1);
    for threads in [1usize, 2, 3] {
        let got = gmm_with_threads(points, &metric, k, start, threads);
        let case = format!(
            "{metric:?} n={} dim={} k={k} start={start} threads={threads}",
            points.len(),
            points[0].dim()
        );
        assert_identical(&reference, &got, &case);
    }
}

fn check_both(points: &[VecPoint], k: usize, start: usize) {
    check(points, Euclidean, k, start);
    check(points, Manhattan, k, start);
}

/// Deterministic scattered points; `levels` coordinate values per axis,
/// so a small `levels` forces duplicates and tied distances.
fn cloud(n: usize, dim: usize, levels: u64, seed: u64) -> Vec<VecPoint> {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    (0..n)
        .map(|_| {
            let coords = (0..dim)
                .map(|_| {
                    z = z
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1_442_695_040_888_963_407);
                    ((z >> 33) % levels) as f64 * 0.37 - 3.0
                })
                .collect();
            VecPoint::new(coords)
        })
        .collect()
}

/// Clouds at `dim` 1..=5 (5 takes the unpacked path, the control)
/// with `k` from 1 past `n`, coordinates snapped to a lattice so
/// duplicates and ties occur constantly.
fn lattice_cloud() -> impl Strategy<Value = (Vec<VecPoint>, usize, usize)> {
    (
        1usize..6,
        prop::collection::vec(prop::collection::vec(-6.0..6.0f64, 5), 1..150),
        1usize..160,
        0usize..1000,
    )
        .prop_map(|(dim, rows, k, start_sel)| {
            let points: Vec<VecPoint> = rows
                .into_iter()
                .map(|r| VecPoint::new(r[..dim].iter().map(|c| c.round()).collect()))
                .collect();
            let start = start_sel % points.len();
            (points, k, start)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn packed_gmm_equals_the_default_loop_on_lattices((points, k, start) in lattice_cloud()) {
        let _serial = serial();
        check_both(&points, k, start);
    }

    #[test]
    fn packed_gmm_equals_the_default_loop_on_smooth_clouds(
        rows in prop::collection::vec(prop::collection::vec(-1e3..1e3f64, 5), 2..200),
        dim in 1usize..6,
        k in 2usize..40,
        start_sel in 0usize..1000,
    ) {
        let _serial = serial();
        let points: Vec<VecPoint> = rows.into_iter().map(|r| VecPoint::new(r[..dim].to_vec())).collect();
        check_both(&points, k, start_sel % points.len());
    }
}

#[test]
fn packed_gmm_equals_the_default_loop_above_the_parallel_threshold() {
    let _serial = serial();
    let n = PAR_MIN_WORK + 617;
    for dim in 1..=5 {
        check_both(&cloud(n, dim, 40, dim as u64), 12, 5);
    }
}

#[test]
fn packed_gmm_edge_cases() {
    let _serial = serial();
    for dim in 1..=5 {
        let points = cloud(40, dim, 3, 7);
        // k = 1: one round, never packed.
        check_both(&points, 1, 3);
        // k ≥ n: every point selected, the tail at distance zero.
        check_both(&points, 40, 0);
        check_both(&points, 100, 39);
        // All points identical: every distance ties at zero.
        check_both(&vec![VecPoint::new(vec![1.5; dim]); 33], 8, 4);
        // A single point.
        check_both(&points[..1], 3, 0);
    }
}

#[test]
fn pack_copies_rows_and_declines_what_it_cannot_pack() {
    let points = vec![VecPoint::from([1.0, 2.0]), VecPoint::from([3.0, 4.0])];
    let expected = Some((vec![1.0, 2.0, 3.0, 4.0], 2));
    assert_eq!(Euclidean.pack(&points, 4), expected);
    assert_eq!(Manhattan.pack(&points, 2), expected);
    // Wider than the limit, ragged, empty, or zero-dimensional.
    assert_eq!(Euclidean.pack(&points, 1), None);
    let ragged = vec![VecPoint::from([1.0, 2.0]), VecPoint::from([3.0])];
    assert_eq!(Manhattan.pack(&ragged, 4), None);
    assert_eq!(Euclidean.pack(&[] as &[VecPoint], 4), None);
    assert_eq!(Euclidean.pack(&[VecPoint::new(vec![])], 4), None);
    // Metrics without a packed kernel keep the per-point path.
    assert_eq!(DistanceOnly(Euclidean).pack(&points, 4), None);
    // The blanket `&M` impl forwards the hook.
    assert_eq!(
        <&Euclidean as Metric<VecPoint>>::pack(&&Euclidean, &points, 4),
        expected
    );
}

/// The counters one traversal leaves in a fresh recorder.
fn counters<M: Metric<VecPoint>>(
    points: &[VecPoint],
    metric: &M,
    k: usize,
    threads: usize,
) -> [u64; 3] {
    let registry = Arc::new(diversity_obs::Registry::new());
    diversity_obs::install(registry.clone());
    let _ = gmm_with_threads(points, metric, k, 0, threads);
    diversity_obs::uninstall();
    let snap = registry.snapshot_now();
    ["kernel.distances", "gmm.relaxations", "kernel.blocks.total"]
        .map(|name| snap.counter(name).unwrap_or(0))
}

/// Packing changes where the rows live, not how much work the
/// traversal does: `kernel.distances` and `gmm.relaxations` (the
/// benchmark's `metric.distances` and `core.gmm_relaxations`) are the
/// per-row kernels' figures exactly.
#[test]
fn packing_leaves_the_work_counters_unchanged() {
    let _serial = serial();
    let (n, k) = (PAR_MIN_WORK + 100, 16);
    let points = cloud(n, 3, 1000, 11);
    let expected = (n * k) as u64;
    for threads in [1usize, 3] {
        let [d_packed, r_packed, blocks] = counters(&points, &Euclidean, k, threads);
        let [d_rows, r_rows, no_blocks] = counters(&points, &PerRow(Euclidean), k, threads);
        assert_eq!((d_packed, r_packed), (d_rows, r_rows), "{threads} threads");
        assert_eq!((d_packed, r_packed), (expected, expected));
        // Only the flat kernel streams blocks: proof the packed path ran.
        assert!(blocks > 0 && no_blocks == 0, "{blocks} / {no_blocks}");

        let [d_packed, r_packed, _] = counters(&points, &Manhattan, k, threads);
        let [d_rows, r_rows, _] = counters(&points, &PerRow(Manhattan), k, threads);
        assert_eq!((d_packed, r_packed), (d_rows, r_rows), "{threads} threads");
        assert_eq!((d_packed, r_packed), (expected, expected));
    }
}
