//! Micro-benchmarks of the batched distance-kernel layer and the
//! parallel GMM — the first recorded point of the perf trajectory.
//!
//! Measures, at n = 100k (scale with `DIVMAX_SCALE`), d = 3 Euclidean:
//!
//! * the scalar per-pair `Metric::distance` loop vs the
//!   `distance_many` batch hook (heap-hopping `Vec<VecPoint>` and
//!   cache-linear `DenseStore` layouts);
//! * the scalar GMM relax loop vs the threshold-aware `relax` hook
//!   (steady-state: incumbents already tight, the regime that
//!   dominates a real traversal);
//! * sequential vs parallel GMM at k = 128, and sequential vs parallel
//!   `DistanceMatrix::build`;
//!
//! and writes the numbers to `BENCH_kernels.json` at
//! `diversity_bench::record_path` (machine-readable trajectory; the
//! table below is for humans).
//! `DIVMAX_THREADS` caps the parallel runs.

use diversity_bench::{fmt_secs, scaled, timed, trials, Table};
use diversity_core::gmm::gmm_with_threads;
use diversity_datasets::sphere_shell_dense;
use metric::{par, DenseRow, DistanceMatrix, Euclidean, Metric, VecPoint};

/// Times `reps` steady-state relax+argmax rounds (what one GMM
/// iteration does per point), returning ns/point.
fn time_relax<P, M: Metric<P>>(
    metric: &M,
    center: &P,
    points: &[P],
    dists: &mut [f64],
    assignment: &mut [usize],
    reps: usize,
    batched: bool,
) -> f64 {
    let (_, secs) = timed(|| {
        for _ in 0..reps {
            if batched {
                // The hook fuses the argmax into the sweep.
                std::hint::black_box(metric.relax(center, points, dists, assignment, 1));
            } else {
                // The seed state's per-round work, verbatim: scalar
                // relax loop plus a separate argmax sweep.
                for (i, p) in points.iter().enumerate() {
                    let d = metric.distance(center, p);
                    if d < dists[i] {
                        dists[i] = d;
                        assignment[i] = 1;
                    }
                }
                std::hint::black_box(metric::argmax(dists));
            }
        }
    });
    secs * 1e9 / (reps * points.len()) as f64
}

/// Times `reps` full distance sweeps, returning ns/pair.
fn time_many<P, M: Metric<P>>(
    metric: &M,
    probe: &P,
    points: &[P],
    out: &mut [f64],
    reps: usize,
    batched: bool,
) -> f64 {
    let (_, secs) = timed(|| {
        for _ in 0..reps {
            if batched {
                metric.distance_many(probe, points, out);
            } else {
                for (o, q) in out.iter_mut().zip(points.iter()) {
                    *o = metric.distance(probe, q);
                }
            }
        }
    });
    secs * 1e9 / (reps * points.len()) as f64
}

fn main() {
    let n = scaled(100_000);
    let k = 128usize;
    let dim = 3usize;
    let threads = par::num_threads();
    let reps = (20_000_000 / n).max(3);
    let trials = trials();
    println!("kernels: n={n}, d={dim}, k={k}, threads={threads}, reps={reps}, trials={trials}");
    // The minimum over trials is the noise-robust estimator for
    // microbenches: external interference only ever inflates a sample.
    // Cells being compared are interleaved within each trial round —
    // measuring one cell's trials back-to-back hands the later cells
    // the sustained-load clock decay as a systematic handicap.
    let min_of = |mut f: Box<dyn FnMut() -> f64>| -> f64 {
        (0..trials).map(|_| f()).fold(f64::INFINITY, f64::min)
    };

    let (store, _) = sphere_shell_dense(n, k, dim, 7);
    let vec_points: Vec<VecPoint> = store.to_points();
    let rows: Vec<DenseRow<'_>> = store.rows();

    // ---- distance_many: scalar loop vs batch hook, both layouts ----
    let out = vec![0.0f64; n];
    let (mut o1, mut o2, mut o3) = (out.clone(), out.clone(), out);
    let (mut many_scalar, mut many_vec, mut many_dense) =
        (f64::INFINITY, f64::INFINITY, f64::INFINITY);
    for _ in 0..trials {
        many_scalar = many_scalar.min(time_many(
            &Euclidean,
            &vec_points[0],
            &vec_points,
            &mut o1,
            reps,
            false,
        ));
        many_vec = many_vec.min(time_many(
            &Euclidean,
            &vec_points[0],
            &vec_points,
            &mut o2,
            reps,
            true,
        ));
        many_dense = many_dense.min(time_many(&Euclidean, &rows[0], &rows, &mut o3, reps, true));
    }

    // ---- relax: steady state after 8 real GMM rounds ----
    let warm = gmm_with_threads(&vec_points, &Euclidean, 8, 0, 1);
    let center = vec_points[warm.selected[7]].clone();
    let mut dists = warm.dist_to_centers.clone();
    let mut assignment = warm.assignment.clone();
    let mut dists2 = warm.dist_to_centers.clone();
    let mut assignment2 = warm.assignment.clone();
    let mut dists3 = warm.dist_to_centers.clone();
    let mut assignment3 = warm.assignment.clone();
    let center_row = DenseRow::new(store.row(warm.selected[7]));
    let (mut relax_scalar, mut relax_vec, mut relax_dense) =
        (f64::INFINITY, f64::INFINITY, f64::INFINITY);
    for _ in 0..trials {
        relax_scalar = relax_scalar.min(time_relax(
            &Euclidean,
            &center,
            &vec_points,
            &mut dists,
            &mut assignment,
            reps,
            false,
        ));
        relax_vec = relax_vec.min(time_relax(
            &Euclidean,
            &center,
            &vec_points,
            &mut dists2,
            &mut assignment2,
            reps,
            true,
        ));
        relax_dense = relax_dense.min(time_relax(
            &Euclidean,
            &center_row,
            &rows,
            &mut dists3,
            &mut assignment3,
            reps,
            true,
        ));
    }

    // ---- GMM end-to-end: sequential vs parallel ----
    let seq_out = gmm_with_threads(&rows, &Euclidean, k, 0, 1);
    let par_out = gmm_with_threads(&rows, &Euclidean, k, 0, threads);
    assert_eq!(seq_out.selected, par_out.selected, "parallel GMM diverged");
    let (mut gmm_seq, mut gmm_par, mut gmm_vec_seq) = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
    for _ in 0..trials {
        gmm_seq = gmm_seq.min(timed(|| gmm_with_threads(&rows, &Euclidean, k, 0, 1)).1);
        gmm_par = gmm_par.min(timed(|| gmm_with_threads(&rows, &Euclidean, k, 0, threads)).1);
        gmm_vec_seq =
            gmm_vec_seq.min(timed(|| gmm_with_threads(&vec_points, &Euclidean, k, 0, 1)).1);
    }

    // ---- DistanceMatrix::build: sequential vs parallel ----
    let m = 2_000.min(n);
    let dm_a = DistanceMatrix::build_with_threads(&rows[..m], &Euclidean, 1);
    let dm_b = DistanceMatrix::build_with_threads(&rows[..m], &Euclidean, threads);
    assert_eq!(dm_a.diameter(), dm_b.diameter(), "parallel build diverged");
    let dm_seq = min_of(Box::new(|| {
        timed(|| DistanceMatrix::build_with_threads(&rows[..m], &Euclidean, 1)).1
    }));
    let dm_par = min_of(Box::new(|| {
        timed(|| DistanceMatrix::build_with_threads(&rows[..m], &Euclidean, threads)).1
    }));

    // ---- Report ----
    let mut table = Table::new(
        "batched kernels vs scalar loops (Euclidean, d=3)",
        &["kernel", "ns/pair", "speedup vs scalar"],
    );
    let speedup = |base: f64, x: f64| format!("{:.2}x", base / x);
    table.row(vec![
        "distance scalar/VecPoint".into(),
        format!("{many_scalar:.2}"),
        "1.00x".into(),
    ]);
    table.row(vec![
        "distance_many/VecPoint".into(),
        format!("{many_vec:.2}"),
        speedup(many_scalar, many_vec),
    ]);
    table.row(vec![
        "distance_many/DenseStore".into(),
        format!("{many_dense:.2}"),
        speedup(many_scalar, many_dense),
    ]);
    table.row(vec![
        "relax scalar/VecPoint".into(),
        format!("{relax_scalar:.2}"),
        "1.00x".into(),
    ]);
    table.row(vec![
        "relax batched/VecPoint".into(),
        format!("{relax_vec:.2}"),
        speedup(relax_scalar, relax_vec),
    ]);
    table.row(vec![
        "relax batched/DenseStore".into(),
        format!("{relax_dense:.2}"),
        speedup(relax_scalar, relax_dense),
    ]);
    table.print();

    let mut t2 = Table::new(
        "parallel vs sequential (bit-identical outputs)",
        &["stage", "sequential", "parallel", "speedup"],
    );
    t2.row(vec![
        format!("gmm n={n} k={k} (dense)"),
        fmt_secs(gmm_seq),
        fmt_secs(gmm_par),
        speedup(gmm_seq, gmm_par),
    ]);
    t2.row(vec![
        format!("matrix build n={m}"),
        fmt_secs(dm_seq),
        fmt_secs(dm_par),
        speedup(dm_seq, dm_par),
    ]);
    t2.row(vec![
        format!("gmm layout: VecPoint vs DenseStore (1 thread)"),
        fmt_secs(gmm_vec_seq),
        fmt_secs(gmm_seq),
        speedup(gmm_vec_seq, gmm_seq),
    ]);
    t2.print();

    // ---- Kernel telemetry through the obs layer ----
    // One instrumented GMM run (timings above stay recorder-free): the
    // batch kernels report distances computed, contiguous-block
    // fast-path coverage, and threshold root elisions — the counters
    // that used to require hand-instrumented one-off builds.
    let registry = std::sync::Arc::new(diversity_obs::Registry::new());
    diversity_obs::install(registry.clone());
    let _ = gmm_with_threads(&rows, &Euclidean, k, 0, 1);
    diversity_obs::uninstall();
    let snap = registry.snapshot_now();
    let counter = |name: &str| snap.counter(name).unwrap_or(0);
    let distances = counter("kernel.distances");
    let elided_ratio = counter("kernel.roots_elided") as f64 / distances.max(1) as f64;
    println!(
        "
obs: gmm run computed {distances} distances; {:.1}% of roots elided by the incumbent threshold",
        elided_ratio * 100.0
    );

    // ---- Machine-readable trajectory point ----
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"kernels\",\n",
            "  \"n\": {n},\n  \"dim\": {dim},\n  \"k\": {k},\n  \"threads\": {threads},\n",
            "  \"ns_per_pair\": {{\n",
            "    \"distance_scalar_vecpoint\": {many_scalar:.3},\n",
            "    \"distance_many_vecpoint\": {many_vec:.3},\n",
            "    \"distance_many_dense\": {many_dense:.3},\n",
            "    \"relax_scalar_vecpoint\": {relax_scalar:.3},\n",
            "    \"relax_batched_vecpoint\": {relax_vec:.3},\n",
            "    \"relax_batched_dense\": {relax_dense:.3}\n",
            "  }},\n",
            "  \"kernel_speedup_relax_dense_vs_scalar\": {relax_speedup:.3},\n",
            "  \"kernel_speedup_distance_many_dense_vs_scalar\": {many_speedup:.3},\n",
            "  \"gmm_seconds\": {{ \"sequential\": {gmm_seq:.6}, \"parallel\": {gmm_par:.6} }},\n",
            "  \"gmm_parallel_speedup\": {gmm_speedup:.3},\n",
            "  \"matrix_build_seconds\": {{ \"n\": {m}, \"sequential\": {dm_seq:.6}, \"parallel\": {dm_par:.6} }},\n",
            "  \"obs_gmm_run\": {{\n",
            "    \"kernel_distances\": {distances},\n",
            "    \"elided_root_ratio\": {elided_ratio:.4}\n",
            "  }}\n",
            "}}\n"
        ),
        n = n,
        dim = dim,
        k = k,
        threads = threads,
        many_scalar = many_scalar,
        many_vec = many_vec,
        many_dense = many_dense,
        relax_scalar = relax_scalar,
        relax_vec = relax_vec,
        relax_dense = relax_dense,
        relax_speedup = relax_scalar / relax_dense,
        many_speedup = many_scalar / many_dense,
        gmm_seq = gmm_seq,
        gmm_par = gmm_par,
        gmm_speedup = gmm_seq / gmm_par,
        m = m,
        dm_seq = dm_seq,
        dm_par = dm_par,
        distances = distances,
        elided_ratio = elided_ratio,
    );
    let path = diversity_bench::record_path("kernels");
    std::fs::write(&path, json).expect("write BENCH_kernels.json");
    println!("\nwrote {}", path.display());
}
