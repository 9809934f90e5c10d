//! GMM: the Gonzalez farthest-point traversal.
//!
//! `GMM(S, k)` greedily grows a set `T`, starting from an arbitrary
//! point and repeatedly adding the point of `S \ T` farthest from `T`.
//! Classical facts the paper builds on (Section 3):
//!
//! * `r_T ≤ 2 r*_k` — 2-approximation for k-center (Gonzalez'85);
//! * the *anticover* property `r_T ≤ ρ_T`: every prefix's range is at
//!   most its farness, because each added point was at distance ≥ the
//!   current radius from all previous ones;
//! * hence `r*_k ≤ ρ*_k` (Fact 1), tying the k-center range to the
//!   remote-edge optimum;
//! * the k-prefix of a GMM run is a 2-approximation for remote-edge, and
//!   (Halldórsson et al.'99) a 4- and 3-approximation for remote-tree
//!   and remote-cycle respectively.
//!
//! The implementation is the standard `O(n·k)` one: maintain each
//! point's distance to the nearest selected center and scan for the
//! maximum. Three layers make that hot loop run at hardware speed:
//!
//! * the relax step goes through the [`Metric::relax`] batch hook, so
//!   coordinate metrics use their vectorized, root-eliding kernels;
//! * when `k ≥ 2` and the points have at most four coordinates, the
//!   traversal first copies them, once, into one row-major buffer
//!   ([`Metric::pack`]) and runs all `k` rounds on it with the flat
//!   kernels ([`Metric::relax_packed`]); metrics and point types
//!   without a packed kernel keep the per-point hook. Per-point heap
//!   rows cost one pointer chase per point per round: on the
//!   benchmark's `mapreduce` workload (12.5k-point `VecPoint`
//!   partitions of R³, `k = 128`) packing cut the round-1 core-set
//!   time from 0.175 s to 0.086 s per run (`BENCH_perfbench.jsonl`);
//! * above [`metric::par::PAR_MIN_WORK`] points the relax+argmax pass
//!   is chunked across scoped threads ([`gmm_with_threads`]), with the
//!   per-chunk argmaxes combined in chunk order so the result is
//!   **bit-identical** to the sequential traversal — same selection
//!   order, same tie-breaks, same assignments, same distances
//!   (enforced by `tests/parallel_gmm.rs`). Packed or not, each
//!   worker relaxes its own chunk of the one input, and the packed
//!   traversal is bit-identical to the per-point one
//!   (`tests/packed_gmm.rs`).

use metric::{par, Metric};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};

/// The result of a farthest-point traversal.
#[derive(Clone, Debug)]
pub struct GmmOutcome {
    /// Selected point indices, in insertion order. `selected[0]` is the
    /// starting point.
    pub selected: Vec<usize>,
    /// `insertion_dist[j]` = distance from `selected[j]` to
    /// `{selected[0..j]}` at the moment of insertion (`d_j` in Lemma 5's
    /// notation). `insertion_dist[0] = f64::INFINITY`. This sequence is
    /// non-increasing, and for every prefix `T(j)`:
    /// `r_T(j) ≤ insertion_dist[j] ≤ ρ_T(j)`.
    pub insertion_dist: Vec<f64>,
    /// For every input point, the index *into `selected`* of its nearest
    /// selected center (ties to the earliest-inserted center, matching
    /// Algorithm 1's cluster definition `C_j`).
    pub assignment: Vec<usize>,
    /// For every input point, its distance to the nearest selected
    /// center. `max(dist_to_centers)` is the range `r_T` of the final
    /// selection.
    pub dist_to_centers: Vec<f64>,
}

impl GmmOutcome {
    /// The range `r_T = max_{p∈S} d(p, T)` of the final selection.
    pub fn radius(&self) -> f64 {
        self.dist_to_centers.iter().copied().fold(0.0, f64::max)
    }
}

/// Runs the farthest-point traversal from `points[start]`, selecting
/// `min(k, n)` points. `O(n·k)` distance evaluations, `O(n)` memory.
/// Parallelizes across [`metric::par::auto_threads`] threads on large
/// inputs; the outcome is identical for every thread count.
///
/// # Panics
/// Panics if `points` is empty, `k == 0`, or `start >= points.len()`.
pub fn gmm<P: Sync, M: Metric<P>>(points: &[P], metric: &M, k: usize, start: usize) -> GmmOutcome {
    gmm_with_threads(points, metric, k, start, par::auto_threads(points.len()))
}

/// [`gmm`] with an explicit thread count (`threads <= 1` runs the
/// sequential loop). Exposed for the bit-identity property tests and
/// the kernel benches; library callers should prefer [`gmm`], which
/// applies the sequential fallback below the parallel threshold.
pub fn gmm_with_threads<P: Sync, M: Metric<P>>(
    points: &[P],
    metric: &M,
    k: usize,
    start: usize,
    threads: usize,
) -> GmmOutcome {
    let n = points.len();
    assert!(n > 0, "GMM requires a non-empty input");
    assert!(k > 0, "GMM requires k > 0");
    assert!(start < n, "start index out of range");
    let k = k.min(n);
    let span = diversity_obs::span("gmm.run_ns");
    // A single round sweeps the points once: nothing would reuse a copy.
    let packed = if k >= 2 {
        metric.pack(points, PACK_MAX_DIM)
    } else {
        None
    };
    let rows = match &packed {
        Some((flat, dim)) => Rows::Packed { flat, dim: *dim },
        None => Rows::Points(points),
    };
    let out = if threads > 1 {
        gmm_parallel(rows, n, metric, k, start, threads)
    } else {
        gmm_sequential(rows, n, metric, k, start)
    };
    drop(span);
    if diversity_obs::enabled() {
        diversity_obs::count("gmm.runs", 1);
        diversity_obs::count("gmm.rounds", k as u64);
        diversity_obs::count("gmm.relaxations", (k as u64).saturating_mul(n as u64));
    }
    out
}

/// Widest rows the traversal packs (see [`Metric::pack`]). At
/// `d ≤ 4` the copy costs at most 32 B per point — less than a
/// `VecPoint`'s own heap allocation — and turns every one of the `k`
/// rounds into a cache-linear sweep of the monomorphized flat kernels.
/// Wider rows keep the per-point path, where the SIMD kernels already
/// amortize their pointer gathers over `O(d)` work per point.
const PACK_MAX_DIM: usize = 4;

/// The traversal's input: the caller's points, or one row-major copy
/// of their coordinates made by [`Metric::pack`].
enum Rows<'a, P> {
    Points(&'a [P]),
    Packed { flat: &'a [f64], dim: usize },
}

// Derived impls would demand `P: Copy`; the variants are borrows.
impl<P> Clone for Rows<'_, P> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<P> Copy for Rows<'_, P> {}

impl<P> Rows<'_, P> {
    /// Relaxes the points `range` against the point `center` (both
    /// indices into the whole input) — bitwise-identical on either
    /// layout, by the [`Metric::relax_packed`] contract.
    fn relax<M: Metric<P>>(
        self,
        metric: &M,
        center: usize,
        range: std::ops::Range<usize>,
        dists: &mut [f64],
        assignment: &mut [usize],
        cj: usize,
    ) -> Option<(usize, f64)> {
        match self {
            Rows::Points(points) => {
                metric.relax(&points[center], &points[range], dists, assignment, cj)
            }
            Rows::Packed { flat, dim } => metric.relax_packed(
                &flat[center * dim..(center + 1) * dim],
                &flat[range.start * dim..range.end * dim],
                dim,
                dists,
                assignment,
                cj,
            ),
        }
    }
}

fn gmm_sequential<P, M: Metric<P>>(
    rows: Rows<'_, P>,
    n: usize,
    metric: &M,
    k: usize,
    start: usize,
) -> GmmOutcome {
    let mut selected = Vec::with_capacity(k);
    let mut insertion_dist = Vec::with_capacity(k);
    let mut assignment = vec![0usize; n];
    let mut dist_to_centers = vec![f64::INFINITY; n];

    let mut next = start;
    let mut next_dist = f64::INFINITY;
    for _ in 0..k {
        let c = next;
        selected.push(c);
        insertion_dist.push(next_dist);
        let cj = selected.len() - 1;
        // Relax distances against the new center via the batch hook
        // (bitwise-identical to the scalar loop; strict `<` keeps ties
        // assigned to the earliest center, as Algorithm 1 requires).
        // The hook returns the farthest survivor — the next candidate —
        // saving the separate argmax sweep over `dist_to_centers`.
        let (far, far_dist) = rows
            .relax(metric, c, 0..n, &mut dist_to_centers, &mut assignment, cj)
            .expect("non-empty input");
        next = far;
        next_dist = far_dist;
    }

    GmmOutcome {
        selected,
        insertion_dist,
        assignment,
        dist_to_centers,
    }
}

/// The parallel traversal: one scoped worker per contiguous chunk,
/// kept alive across all `k` rounds (spawning per round would pay the
/// fork cost `k` times). Each round the coordinator publishes the new
/// center, a barrier releases the workers to relax their chunk and
/// compute its local `(argmax, max)`, a second barrier hands control
/// back, and the coordinator folds the chunk results *in chunk order*
/// with a strict `>` — which reproduces the sequential global argmax's
/// first-max-wins tie-break exactly. Relaxation is element-wise (the
/// [`Metric::relax`] contract), so chunking cannot change any value.
fn gmm_parallel<P: Sync, M: Metric<P>>(
    rows: Rows<'_, P>,
    n: usize,
    metric: &M,
    k: usize,
    start: usize,
    threads: usize,
) -> GmmOutcome {
    let ranges = par::split_ranges(n, threads);
    let workers = ranges.len();

    let mut assignment = vec![0usize; n];
    let mut dist_to_centers = vec![f64::INFINITY; n];
    let mut selected = Vec::with_capacity(k);
    let mut insertion_dist = Vec::with_capacity(k);

    // Round state: the current center, published before the start
    // barrier; per-worker (argmax, max) slots, read after the finish
    // barrier. Barriers provide the happens-before edges. `aborted` is
    // the panic escape hatch: a worker whose relax panics would
    // otherwise skip its barrier waits and deadlock every other party,
    // so panics are caught, flagged before the finish barrier, and
    // every participant breaks at the same round boundary — the scope
    // then re-raises the original payload at join, matching the
    // sequential path's clean panic.
    let center = AtomicUsize::new(start);
    let aborted = std::sync::atomic::AtomicBool::new(false);
    let start_barrier = Barrier::new(workers + 1);
    let finish_barrier = Barrier::new(workers + 1);
    let locals: Vec<Mutex<(usize, f64)>> = (0..workers).map(|_| Mutex::new((0, 0.0))).collect();

    std::thread::scope(|s| {
        let mut dist_rest: &mut [f64] = &mut dist_to_centers;
        let mut assign_rest: &mut [usize] = &mut assignment;
        for (w, range) in ranges.iter().enumerate() {
            let (dist_chunk, dist_tail) = dist_rest.split_at_mut(range.len());
            let (assign_chunk, assign_tail) = assign_rest.split_at_mut(range.len());
            dist_rest = dist_tail;
            assign_rest = assign_tail;
            let lo = range.start;
            let (center, locals, aborted) = (&center, &locals, &aborted);
            let (start_barrier, finish_barrier) = (&start_barrier, &finish_barrier);
            s.spawn(move || {
                let dist_chunk = dist_chunk;
                let assign_chunk = assign_chunk;
                for cj in 0..k {
                    start_barrier.wait();
                    let round = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        let c = center.load(Ordering::SeqCst);
                        let (local_far, local_dist) = rows
                            .relax(metric, c, range.clone(), dist_chunk, assign_chunk, cj)
                            .expect("chunks are non-empty");
                        *locals[w].lock().expect("no poisoning") = (lo + local_far, local_dist);
                    }));
                    if round.is_err() {
                        aborted.store(true, Ordering::SeqCst);
                    }
                    finish_barrier.wait();
                    if aborted.load(Ordering::SeqCst) {
                        if let Err(payload) = round {
                            std::panic::resume_unwind(payload);
                        }
                        return;
                    }
                }
            });
        }

        // Coordinator.
        let mut next = start;
        let mut next_dist = f64::INFINITY;
        for _ in 0..k {
            selected.push(next);
            insertion_dist.push(next_dist);
            center.store(next, Ordering::SeqCst);
            start_barrier.wait();
            finish_barrier.wait();
            if aborted.load(Ordering::SeqCst) {
                // A worker panicked this round; every party breaks at
                // this barrier boundary and the scope re-raises the
                // worker's panic after joining.
                break;
            }
            // Fold chunk results in order; replace only on strict `>`
            // so the earliest chunk (and within it the earliest index)
            // wins ties — and a NaN chunk value never wins — exactly
            // matching the sequential argmax rule.
            let mut best: Option<(usize, f64)> = None;
            for slot in locals.iter() {
                let (i, v) = *slot.lock().expect("no poisoning");
                match best {
                    Some((_, bv)) => {
                        if v > bv {
                            best = Some((i, v));
                        }
                    }
                    None => best = Some((i, v)),
                }
            }
            let (far, far_dist) = best.expect("at least one worker");
            next = far;
            next_dist = far_dist;
        }
    });

    GmmOutcome {
        selected,
        insertion_dist,
        assignment,
        dist_to_centers,
    }
}

/// Convenience wrapper: GMM started from index 0 (the paper lets the
/// initial point be arbitrary; a fixed start keeps runs deterministic).
pub fn gmm_default<P: Sync, M: Metric<P>>(points: &[P], metric: &M, k: usize) -> GmmOutcome {
    gmm(points, metric, k, 0)
}

/// Relative slack on the triangle-inequality skip test, absorbing the
/// rounding error of the two distance evaluations it compares. The
/// relative error of a d-dimensional Euclidean distance is ≤ ~(d+2)·ε
/// (d products, d−1 adds, one square root, each correctly rounded);
/// the derivation in [`gmm_pruned`] needs margin ≳ 3·(d+2)·ε, so 1e-9
/// covers every dimension up to ~10⁶ with three orders of magnitude to
/// spare — while pruning distances differing by less than a part in
/// 10⁹ saves nothing anyway.
const PRUNE_MARGIN: f64 = 1e-9;

/// [`gmm`] with Elkan-style triangle-inequality pruning: provably
/// outcome-identical, and skips the bulk of the relax work once
/// clusters separate.
///
/// When center `c` is added, a point `i` currently assigned to center
/// `a` at distance `u = d(i, a)` can only improve if
/// `d(c, a) < 2·d(i, c)`... more precisely, by the triangle inequality
/// `d(i, c) ≥ d(c, a) − d(i, a)`, so whenever `d(c, a) ≥ 2u` the new
/// center is at least `u` away and the relax update is a no-op
/// (Elkan, ICML'03, lemma 1 adapted to k-center). Each round therefore
/// computes the `O(k)` center-to-center distances and relaxes only the
/// points whose skip test fails, in contiguous segments so the dense
/// flat/SIMD kernels still stream.
///
/// **Why the outcome is bit-identical to [`gmm`]** (enforced by
/// `prune_matches_plain_gmm` below and the property tests): the skip
/// test uses a relative margin (`PRUNE_MARGIN`, 1e-9) ≫ the rounding error
/// of the compared distances. Writing `δ` for that error and `d̂` for
/// computed values, `d̂(c,a) ≥ 2u·(1+margin)` implies the *computed*
/// `d̂(i,c) ≥ (d(c,a) − d(i,a))·(1−δ) ≥ u·(1+margin−3δ) > u`, so the
/// scalar relax would have rejected the candidate too — skipped points
/// keep identical `dists`/`assignment`, un-skipped points run the very
/// same kernels, and the next center comes from the same global
/// first-max argmax ([`metric::argmax`]) over identical distances.
/// An infinite incumbent (`u = ∞`, first round) never satisfies the
/// test, so uncovered points are never skipped.
///
/// Skipped relaxations are counted as `kernel.pruned_relaxations`.
///
/// # Panics
/// Panics if `points` is empty, `k == 0`, or `start >= points.len()`.
pub fn gmm_pruned<P: Sync, M: Metric<P>>(
    points: &[P],
    metric: &M,
    k: usize,
    start: usize,
) -> GmmOutcome {
    let n = points.len();
    assert!(n > 0, "GMM requires a non-empty input");
    assert!(k > 0, "GMM requires k > 0");
    assert!(start < n, "start index out of range");
    let k = k.min(n);
    let span = diversity_obs::span("gmm.run_ns");

    let mut selected = Vec::with_capacity(k);
    let mut insertion_dist = Vec::with_capacity(k);
    let mut assignment = vec![0usize; n];
    let mut dist_to_centers = vec![f64::INFINITY; n];
    let mut center_dist = Vec::with_capacity(k);
    let mut pruned = 0u64;

    let mut next = start;
    let mut next_dist = f64::INFINITY;
    for _ in 0..k {
        let c = next;
        selected.push(c);
        insertion_dist.push(next_dist);
        let cj = selected.len() - 1;

        // O(cj) center-to-center distances — the price of admission,
        // O(k²) total against the O(n·k) relaxations it avoids.
        center_dist.clear();
        center_dist.extend(
            selected[..cj]
                .iter()
                .map(|&m| metric.distance(&points[c], &points[m])),
        );

        // Relax the survivors in contiguous segments, so a dense batch
        // keeps its flat/SIMD streaming; the returned per-segment
        // argmaxes are discarded in favour of one global scan below.
        let mut seg_start = 0usize;
        let mut i = 0usize;
        while i <= n {
            let skip = i < n
                && center_dist
                    .get(assignment[i])
                    .is_some_and(|&dcc| dcc >= 2.0 * dist_to_centers[i] * (1.0 + PRUNE_MARGIN));
            if skip || i == n {
                if seg_start < i {
                    metric.relax(
                        &points[c],
                        &points[seg_start..i],
                        &mut dist_to_centers[seg_start..i],
                        &mut assignment[seg_start..i],
                        cj,
                    );
                }
                if skip {
                    pruned += 1;
                }
                seg_start = i + 1;
            }
            i += 1;
        }

        // `Metric::relax`'s fused argmax uses the same first-max rule,
        // so this global scan selects exactly the center the unpruned
        // traversal would.
        let far = metric::argmax(&dist_to_centers).expect("non-empty input");
        next = far;
        next_dist = dist_to_centers[far];
    }

    drop(span);
    if diversity_obs::enabled() {
        diversity_obs::count("gmm.runs", 1);
        diversity_obs::count("gmm.rounds", k as u64);
        diversity_obs::count(
            "gmm.relaxations",
            (k as u64).saturating_mul(n as u64).saturating_sub(pruned),
        );
        diversity_obs::count("kernel.pruned_relaxations", pruned);
    }

    GmmOutcome {
        selected,
        insertion_dist,
        assignment,
        dist_to_centers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metric::{Euclidean, VecPoint};

    fn line(xs: &[f64]) -> Vec<VecPoint> {
        xs.iter().map(|&x| VecPoint::from([x])).collect()
    }

    #[test]
    fn selects_extremes_first() {
        let pts = line(&[0.0, 1.0, 2.0, 3.0, 10.0]);
        let out = gmm(&pts, &Euclidean, 3, 0);
        assert_eq!(out.selected[0], 0);
        assert_eq!(out.selected[1], 4, "farthest from 0 is 10.0");
        // Next farthest from {0, 10} is 3.0 (index 3) at distance 3... no:
        // distances to {0,10}: 1->1, 2->2, 3->3; point 3 wins.
        assert_eq!(out.selected[2], 3);
    }

    #[test]
    fn insertion_distances_non_increasing() {
        let pts = line(&[0.0, 5.0, 9.0, 12.0, 13.0, 20.0]);
        let out = gmm(&pts, &Euclidean, 6, 0);
        for w in out.insertion_dist.windows(2) {
            assert!(w[0] >= w[1], "insertion distances must not increase");
        }
    }

    #[test]
    fn anticover_property_on_every_prefix() {
        // r_T(j) <= d_j <= rho_T(j) for every prefix T(j), j >= 2.
        let pts = line(&[0.0, 2.0, 3.0, 7.0, 8.5, 11.0, 20.0, 21.5]);
        let out = gmm(&pts, &Euclidean, 8, 0);
        for j in 2..=out.selected.len() {
            let prefix: Vec<VecPoint> = out.selected[..j].iter().map(|&i| pts[i].clone()).collect();
            let d_j = out.insertion_dist[j - 1];
            // range of the prefix
            let r = pts
                .iter()
                .map(|p| Euclidean.distance_to_set(p, &prefix))
                .fold(0.0, f64::max);
            // farness of the prefix
            let mut rho = f64::INFINITY;
            for a in 0..j {
                for b in 0..j {
                    if a != b {
                        rho = rho.min(Euclidean.distance(&prefix[a], &prefix[b]));
                    }
                }
            }
            assert!(r <= d_j + 1e-12, "range {r} > d_j {d_j} at prefix {j}");
            assert!(
                d_j <= rho + 1e-12,
                "d_j {d_j} > farness {rho} at prefix {j}"
            );
        }
    }

    #[test]
    fn two_approximation_for_k_center() {
        // Optimal 2-center range for {0, 1, 10, 11} is 0.5; GMM must be
        // within factor 2.
        let pts = line(&[0.0, 1.0, 10.0, 11.0]);
        let out = gmm(&pts, &Euclidean, 2, 0);
        assert!(out.radius() <= 2.0 * 0.5 + 1e-12);
    }

    #[test]
    fn k_geq_n_selects_everything() {
        let pts = line(&[0.0, 1.0, 2.0]);
        let out = gmm(&pts, &Euclidean, 10, 0);
        assert_eq!(out.selected.len(), 3);
        assert_eq!(out.radius(), 0.0);
    }

    #[test]
    fn assignment_points_to_nearest_center() {
        let pts = line(&[0.0, 1.0, 9.0, 10.0]);
        let out = gmm(&pts, &Euclidean, 2, 0);
        // Centers are 0.0 and 10.0; 1.0 -> center 0, 9.0 -> center 1.
        let c0 = out.selected[0];
        let c1 = out.selected[1];
        assert_eq!((c0, c1), (0, 3));
        assert_eq!(out.assignment[1], 0);
        assert_eq!(out.assignment[2], 1);
        assert_eq!(out.dist_to_centers[1], 1.0);
    }

    #[test]
    fn duplicate_points_are_fine() {
        let pts = line(&[1.0, 1.0, 1.0, 5.0]);
        let out = gmm(&pts, &Euclidean, 4, 0);
        assert_eq!(out.selected.len(), 4);
        // After the two distinct locations are taken, remaining
        // insertions happen at distance 0.
        assert_eq!(out.insertion_dist[2], 0.0);
    }

    #[test]
    #[should_panic]
    fn rejects_empty_input() {
        let _ = gmm::<VecPoint, _>(&[], &Euclidean, 1, 0);
    }

    #[test]
    fn deterministic_given_start() {
        let pts = line(&[3.0, 1.0, 4.0, 1.5, 9.0, 2.6]);
        let a = gmm(&pts, &Euclidean, 4, 2);
        let b = gmm(&pts, &Euclidean, 4, 2);
        assert_eq!(a.selected, b.selected);
    }

    #[test]
    fn prune_matches_plain_gmm() {
        // Clustered data is where the skip test actually fires; verify
        // the pruned traversal is bit-identical anyway.
        let mut pts = Vec::new();
        for c in 0..6 {
            let base = (c as f64) * 50.0;
            for i in 0..40 {
                let x = base + ((i * 7 + c) % 11) as f64 * 0.3;
                let y = ((i * 13 + c * 5) % 17) as f64 * 0.25;
                pts.push(VecPoint::from([x, y]));
            }
        }
        for k in [1usize, 2, 5, 12] {
            for start in [0usize, 3, 99] {
                let plain = gmm_with_threads(&pts, &Euclidean, k, start, 1);
                let pruned = gmm_pruned(&pts, &Euclidean, k, start);
                assert_eq!(plain.selected, pruned.selected, "k={k} start={start}");
                assert_eq!(plain.assignment, pruned.assignment);
                let plain_bits: Vec<u64> =
                    plain.dist_to_centers.iter().map(|d| d.to_bits()).collect();
                let pruned_bits: Vec<u64> =
                    pruned.dist_to_centers.iter().map(|d| d.to_bits()).collect();
                assert_eq!(plain_bits, pruned_bits);
                let ins_a: Vec<u64> = plain.insertion_dist.iter().map(|d| d.to_bits()).collect();
                let ins_b: Vec<u64> = pruned.insertion_dist.iter().map(|d| d.to_bits()).collect();
                assert_eq!(ins_a, ins_b);
            }
        }
    }

    #[test]
    fn prune_actually_prunes_on_separated_clusters() {
        let registry = std::sync::Arc::new(diversity_obs::Registry::new());
        diversity_obs::install(registry.clone());
        let mut pts = Vec::new();
        for c in 0..4 {
            for i in 0..100 {
                pts.push(VecPoint::from([
                    (c as f64) * 1000.0 + (i % 10) as f64 * 0.1,
                    (i / 10) as f64 * 0.1,
                ]));
            }
        }
        let out = gmm_pruned(&pts, &Euclidean, 8, 0);
        let snap = registry.snapshot_now();
        diversity_obs::uninstall();
        assert_eq!(out.selected.len(), 8);
        let pruned = snap.counter("kernel.pruned_relaxations").unwrap_or(0);
        assert!(
            pruned > 0,
            "well-separated clusters must trigger the skip test"
        );
    }
}
