//! Property tests: the batch hooks (`distance_many`, `relax`,
//! `distance_to_set_within`) are **bitwise-equal** to the scalar
//! `distance` loops for every shipped metric, on both point layouts
//! (`VecPoint` and `DenseStore` rows) and on sparse cosine vectors, and
//! the `DistanceMatrix` built through them equals the scalar one.
//!
//! This is the contract that lets the parallel GMM, the streaming
//! update step, and the SoA store swap freely between scalar, batched,
//! and chunked execution without ever changing a result. The Euclidean
//! kernel's root-elision (`d_sq > fl(incumbent²)` ⇒ skip the sqrt) and
//! the `next_up` guard in the membership check are exactly the sort of
//! optimization these tests exist to police.

use metric::{
    BitSetPoint, Chebyshev, CosineDistance, DenseStore, DistanceMatrix, Euclidean, Hamming,
    Jaccard, Levenshtein, Lp, Manhattan, Metric, SparseVector, VecPoint,
};
use proptest::prelude::*;

/// A random point cloud: `n` points of the same dimension plus a probe
/// index, so relax centers and queries come from the cloud itself
/// (exact ties and zero distances included). (The vendored proptest
/// stand-in has no `prop_flat_map`, so a max-shape sample is sliced
/// down to the drawn `(dim, n)`.)
fn cloud() -> impl Strategy<Value = (Vec<VecPoint>, usize)> {
    (
        1usize..8,
        2usize..40,
        prop::collection::vec(prop::collection::vec(-1e3..1e3f64, 8), 40),
        0usize..1000,
    )
        .prop_map(|(dim, n, rows, probe_sel)| {
            let points: Vec<VecPoint> = rows
                .into_iter()
                .take(n)
                .map(|r| VecPoint::new(r[..dim].to_vec()))
                .collect();
            let probe = probe_sel % points.len();
            (points, probe)
        })
}

/// The scalar reference loops, written against `Metric::distance` only.
fn reference_many<P, M: Metric<P>>(m: &M, p: &P, others: &[P]) -> Vec<f64> {
    others.iter().map(|q| m.distance(p, q)).collect()
}

fn reference_relax<P, M: Metric<P>>(
    m: &M,
    center: &P,
    points: &[P],
    dists: &mut [f64],
    assignment: &mut [usize],
    cj: usize,
) {
    for (i, p) in points.iter().enumerate() {
        let d = m.distance(center, p);
        if d < dists[i] {
            dists[i] = d;
            assignment[i] = cj;
        }
    }
}

fn reference_within<P, M: Metric<P>>(m: &M, p: &P, set: &[P], threshold: f64) -> bool {
    set.iter().any(|q| m.distance(p, q) <= threshold)
}

/// Runs all three equivalence checks for one metric over one cloud.
/// The relax state is seeded by two real relax rounds (centers 0 and
/// the probe), so incumbents are genuine distances — the adversarial
/// regime for root elision, where squared comparisons sit on rounding
/// boundaries.
fn check_batch_hooks<P: Clone, M: Metric<P>>(m: &M, points: &[P], probe: usize) {
    let n = points.len();
    let p = &points[probe];

    // distance_many ≡ scalar loop, bit for bit.
    let mut out = vec![0.0f64; n];
    m.distance_many(p, points, &mut out);
    let expect = reference_many(m, p, points);
    for i in 0..n {
        assert_eq!(
            out[i].to_bits(),
            expect[i].to_bits(),
            "distance_many[{i}] {} != scalar {}",
            out[i],
            expect[i]
        );
    }

    // relax ≡ scalar loop after two rounds (fresh INFINITY incumbents,
    // then real-distance incumbents).
    let mut dists = vec![f64::INFINITY; n];
    let mut assign = vec![0usize; n];
    let mut ref_dists = dists.clone();
    let mut ref_assign = assign.clone();
    for (cj, center) in [&points[0], p].into_iter().enumerate() {
        m.relax(center, points, &mut dists, &mut assign, cj);
        reference_relax(m, center, points, &mut ref_dists, &mut ref_assign, cj);
        for i in 0..n {
            assert_eq!(
                dists[i].to_bits(),
                ref_dists[i].to_bits(),
                "relax dists[{i}] diverged at round {cj}"
            );
            assert_eq!(assign[i], ref_assign[i], "relax assignment[{i}] diverged");
        }
    }

    // distance_to_set_within ≡ scalar scan, probed at exact distances
    // (the boundary the non-strict `<=` makes treacherous) and one ulp
    // to either side.
    for q in points.iter().take(8) {
        let d = m.distance(p, q);
        for threshold in [d, d.next_down(), d.next_up(), 0.0, d * 0.5] {
            assert_eq!(
                m.distance_to_set_within(p, points, threshold),
                reference_within(m, p, points, threshold),
                "within({threshold}) diverged (pivot distance {d})"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn vec_point_metrics_bitwise_equal((points, probe) in cloud()) {
        check_batch_hooks(&Euclidean, &points, probe);
        check_batch_hooks(&Manhattan, &points, probe);
        check_batch_hooks(&Chebyshev, &points, probe);
        check_batch_hooks(&Lp::new(1.5), &points, probe);
        check_batch_hooks(&Lp::new(3.0), &points, probe);
        check_batch_hooks(&CosineDistance, &points, probe);
    }

    /// The same checks through `&M` (the blanket reference impl must
    /// forward the overridden hooks, not fall back to the defaults —
    /// defaults and overrides agree bitwise, so this guards forwarding
    /// by construction on every metric at once).
    #[test]
    fn reference_metric_forwards_hooks((points, probe) in cloud()) {
        check_batch_hooks(&&Euclidean, &points, probe);
        check_batch_hooks(&&Manhattan, &points, probe);
    }

    /// DenseStore row views produce bitwise-identical results to the
    /// equivalent VecPoints: same kernels, contiguous layout.
    #[test]
    fn dense_rows_match_vec_points((points, probe) in cloud()) {
        let store = DenseStore::from_points(&points);
        let rows = store.rows();
        check_batch_hooks(&Euclidean, &rows, probe);
        check_batch_hooks(&Manhattan, &rows, probe);
        check_batch_hooks(&Chebyshev, &rows, probe);
        check_batch_hooks(&Lp::new(2.5), &rows, probe);

        let n = points.len();
        let mut via_vec = vec![0.0f64; n];
        let mut via_rows = vec![0.0f64; n];
        Euclidean.distance_many(&points[probe], &points, &mut via_vec);
        Euclidean.distance_many(&rows[probe], &rows, &mut via_rows);
        for i in 0..n {
            prop_assert_eq!(via_vec[i].to_bits(), via_rows[i].to_bits());
        }
    }

    /// Non-coordinate metrics ride the default hooks; the contract
    /// still holds (trivially, but a future override must keep it).
    #[test]
    fn discrete_point_metrics_bitwise_equal(
        sets in prop::collection::vec(prop::collection::vec(0usize..64, 0..16), 2..20),
        words in prop::collection::vec("[ab]{0,8}", 2..20),
        probe_sel in 0usize..1000,
    ) {
        let bits: Vec<BitSetPoint> = sets
            .iter()
            .map(|els| BitSetPoint::from_elements(64, els))
            .collect();
        check_batch_hooks(&Hamming, &bits, probe_sel % bits.len());
        check_batch_hooks(&Jaccard, &bits, probe_sel % bits.len());
        check_batch_hooks(&Levenshtein, &words, probe_sel % words.len());
    }
}

/// A random sparse corpus with the scatter–gather kernel's edge cases
/// mixed in: negative values, duplicate documents, the empty vector,
/// dimensions far past most probes' largest, and probes just below,
/// at, and far above the scatter cap (the last two take the scalar
/// fallback). Shares a low dimension with the random documents so the
/// large-dimension probes still have nonzero dot products.
fn sparse_corpus() -> impl Strategy<Value = Vec<SparseVector>> {
    (
        prop::collection::vec(
            prop::collection::vec((0u32..48, -10.0..10.0f64), 0..14),
            2..24,
        ),
        0usize..1000,
        -10.0..10.0f64,
    )
        .prop_map(|(raw, dup_sel, x)| {
            let mut docs: Vec<SparseVector> = raw.into_iter().map(SparseVector::new).collect();
            docs.push(docs[dup_sel % docs.len()].clone());
            docs.push(SparseVector::empty());
            let cap = CosineDistance::SCATTER_DIM_CAP;
            docs.push(SparseVector::new(vec![(3, x), (40, 1.0), (700, -x)]));
            docs.push(SparseVector::new(vec![(3, 1.0), (cap - 1, x)]));
            docs.push(SparseVector::new(vec![(3, -x), (cap, 2.0)]));
            docs.push(SparseVector::new(vec![(5, x), (u32::MAX, 1.0)]));
            docs.insert(dup_sel % docs.len(), docs[0].clone());
            docs
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Sparse cosine's scatter–gather `distance_many` is bit-for-bit
    /// the scalar loop, for every probe of the corpus in turn. The
    /// probes run back to back on one thread, so a scratch buffer left
    /// dirty by one probe would corrupt the next one's distances; the
    /// first probe is re-run at the end for the same reason.
    #[test]
    fn sparse_cosine_kernel_bitwise_equal(docs in sparse_corpus()) {
        let n = docs.len();
        let mut out = vec![0.0f64; n];
        for probe in (0..n).chain([0]) {
            CosineDistance.distance_many(&docs[probe], &docs, &mut out);
            let expect = reference_many(&CosineDistance, &docs[probe], &docs);
            for i in 0..n {
                prop_assert_eq!(out[i].to_bits(), expect[i].to_bits());
            }
        }
        check_batch_hooks(&CosineDistance, &docs, n - 1);
        check_batch_hooks(&&CosineDistance, &docs, 0);
    }
}

/// Every cell of `m` equals scalar `distance` on its pair, bit for bit.
fn assert_matrix_is_scalar<P, M: Metric<P>>(m: &M, points: &[P], dm: &DistanceMatrix) {
    let reference =
        DistanceMatrix::from_fn(points.len(), |i, j| m.distance(&points[i], &points[j]));
    assert_eq!(dm.len(), points.len());
    for i in 0..points.len() {
        for j in 0..points.len() {
            assert_eq!(
                dm.get(i, j).to_bits(),
                reference.get(i, j).to_bits(),
                "matrix cell ({i}, {j})"
            );
        }
    }
}

/// `DistanceMatrix` rows go through `distance_many`; sequential and
/// parallel builds still equal the scalar `from_fn` matrix bit for bit.
/// 240 points make 28,680 pairs, above `PAR_MIN_WORK`, so `build` takes
/// the parallel row blocks too when more than one thread is available.
#[test]
fn distance_matrix_rows_match_scalar_distances() {
    let n = 240;
    assert!(n * (n - 1) / 2 >= metric::par::PAR_MIN_WORK);
    let docs: Vec<SparseVector> = (0..n)
        .map(|i| {
            if i % 37 == 0 {
                return SparseVector::empty();
            }
            SparseVector::new(
                (0..1 + i % 9)
                    .map(|j| {
                        let d = ((i * 7 + j * 13) % 60) as u32;
                        (d, ((i * 31 + j * 17) % 23) as f64 - 11.0)
                    })
                    .collect(),
            )
        })
        .collect();
    let points: Vec<VecPoint> = (0..n)
        .map(|i| {
            let t = i as f64;
            VecPoint::new(vec![
                (t * 0.37).sin() * 50.0,
                (t * 0.61) % 7.0,
                -(t * 1.3) % 11.0,
            ])
        })
        .collect();
    for threads in [1usize, 3] {
        let dm = DistanceMatrix::build_with_threads(&docs, &CosineDistance, threads);
        assert_matrix_is_scalar(&CosineDistance, &docs, &dm);
        let dm = DistanceMatrix::build_with_threads(&points, &Euclidean, threads);
        assert_matrix_is_scalar(&Euclidean, &points, &dm);
    }
    assert_matrix_is_scalar(
        &CosineDistance,
        &docs,
        &DistanceMatrix::build(&docs, &CosineDistance),
    );
    assert_matrix_is_scalar(
        &Euclidean,
        &points,
        &DistanceMatrix::build(&points, &Euclidean),
    );
}
