//! The batch workloads, each operation a `Task` run over each of
//! several seeded inputs:
//!
//! * `stream` — passes of `Task::run_stream` for remote-clique
//!   (SMM-EXT) over pre-materialized musiXmatch-like documents under
//!   cosine distance (paper Figs. 1/3);
//! * `mapreduce` — `Task::run_mapreduce` two-round remote-edge over ℓ
//!   random partitions of R³ sphere shells with the aggregate budget
//!   ℓ·k' fixed (paper Figs. 4/5).
//!
//! Both repeat their operation for the measuring phase and report the
//! median; the traced phase adds timed calls into the layers beneath.

use super::{
    check_report, counter_delta, cpu_metrics, install_recorder, latency_metrics, ns_per_distance,
    peak_rss_mb, repeated_setup, stage_secs, us, Ctx, Measured,
};
use crate::calib::{cpu_time, Calibration};
use crate::record::Metric;
use crate::stats::median;
use diversity::core::{coreset, seq, Problem};
use diversity::datasets::{musixmatch_like, sphere_shell, BagOfWordsConfig};
use diversity::mapreduce::{partition::split_random, MapReduceRuntime};
use diversity::metric::{CosineDistance, Euclidean, Metric as Distance};
use diversity::obs::Registry;
use diversity::streaming::SmmExt;
use diversity::{Budget, DivError, Report, Strategy, Task};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// Fewest operations a measuring phase runs, however long they take.
const MIN_OPS: usize = 3;

/// Wall and CPU time of each operation a phase ran, in µs.
#[derive(Default)]
struct Timed {
    wall_us: Vec<f64>,
    cpu_us: Vec<f64>,
}

/// Repeats an operation until `phase` has passed (and at least
/// [`MIN_OPS`] times), numbering operations from `first`. `prepare`
/// builds operation `i`'s input outside the timing, `op` is timed, and
/// every answer it gives is checked before `each` sees them. The
/// reference computation is timed once before each operation.
#[allow(clippy::too_many_arguments)]
fn repeat_op<I, P, M: Distance<P>>(
    m: &mut Measured,
    calib: &Calibration,
    phase: Duration,
    first: usize,
    (problem, k, metric): (Problem, usize, &M),
    mut prepare: impl FnMut(usize) -> I,
    mut op: impl FnMut(&I) -> Result<Vec<Report<P>>, DivError>,
    mut each: impl FnMut(&I, &[Report<P>], Instant, Instant),
) -> Timed {
    let mut timed = Timed::default();
    let phase_start = Instant::now();
    while timed.wall_us.len() < MIN_OPS || phase_start.elapsed() < phase {
        let input = prepare(first + timed.wall_us.len());
        calib.sample();
        let c0 = cpu_time();
        let t0 = Instant::now();
        let result = op(&input);
        let t1 = Instant::now();
        let c1 = cpu_time();
        m.count_op(result.is_ok());
        // A failed operation still took the time until it failed.
        timed.wall_us.push(us(t1 - t0));
        timed.cpu_us.push(us(c1 - c0));
        match result {
            Ok(reports) => {
                for report in &reports {
                    if let Err(e) = check_report(report, problem, k, metric) {
                        m.failures.push(e);
                    }
                }
                each(&input, &reports, t0, t1);
            }
            Err(e) => m.failures.push(format!("{problem}: operation failed: {e}")),
        }
        if m.failures.len() > 16 {
            break;
        }
    }
    timed
}

/// Pushes the end-to-end metrics every batch workload shares, and the
/// wall-clock figures beside them.
fn push_end_to_end(m: &mut Measured, ctx: &Ctx, timed: &Timed, points: usize, setup_s: &[f64]) {
    m.metrics
        .extend(cpu_metrics(&ctx.calib, &timed.cpu_us, setup_s));
    m.metrics.extend(latency_metrics(&timed.wall_us));
    let rates: Vec<f64> = timed
        .wall_us
        .iter()
        .map(|l| points as f64 / (l / 1e6))
        .collect();
    m.push(
        Metric::median_of("points_per_s", &rates).with_note("input points / operation wall time"),
    );
    m.push_ok_share();
    m.push(Metric::single(
        "peak_rss_mb",
        peak_rss_mb().unwrap_or(f64::NAN),
    ));
}

/// Counter deltas of the traced operation, read around it.
struct Counters<'a> {
    registry: &'a Registry,
    last: diversity::obs::Snapshot,
}

impl<'a> Counters<'a> {
    fn new(registry: &'a Registry) -> Self {
        Counters {
            registry,
            last: registry.snapshot_now(),
        }
    }

    /// Deltas of `names` since the last [`Counters::mark`].
    fn deltas<const N: usize>(&self, names: [&str; N]) -> [f64; N] {
        let now = self.registry.snapshot_now();
        names.map(|name| counter_delta(&self.last, &now, name))
    }

    /// Restarts the deltas from now (after untimed probes ran).
    fn mark(&mut self) {
        self.last = self.registry.snapshot_now();
    }
}

/// Seeded corpora a stream operation passes over, once each.
const CORPORA: usize = 32;

/// Arrival order `index`: a permutation of `0..n` drawn from
/// `(seed, index)`.
fn arrival_order(n: usize, seed: u64, index: usize) -> Vec<u32> {
    let mut rng =
        StdRng::seed_from_u64(seed ^ (index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut order: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    order
}

/// `corpus` as a stream in arrival order `order`.
fn in_order<'a, P: Clone>(corpus: &'a [P], order: &'a [u32]) -> impl Iterator<Item = P> + 'a {
    order.iter().map(|&i| corpus[i as usize].clone())
}

/// Largest per-stage residency a report records.
fn peak_points<P>(report: &Report<P>) -> usize {
    report
        .memory
        .iter()
        .map(|s| s.max_local_points)
        .max()
        .unwrap_or(0)
}

/// One stream operation is a pass over each of [`CORPORA`] seeded
/// corpora, each pass in a fresh seeded arrival order. A pass's cost is
/// set mostly by its first points (they fix the first streaming
/// threshold and with it how many centers the pass keeps): passes over
/// one corpus in eight orders differed up to ninefold, and the cost per
/// document did not shrink with longer corpora. An operation therefore
/// sums many short passes: with sixteen corpora of 5k documents the
/// normalized CPU time still spread 7% across five seeds, with 32 of
/// 2.5k it spread 5%.
pub fn stream(ctx: &Ctx) -> Result<Measured, String> {
    let mut m = Measured::default();
    let n = ctx.scaled(2_500);
    let (k, k_prime) = (16, 32);
    let problem = Problem::RemoteClique;
    let metric = CosineDistance;
    m.params.insert("points_per_corpus", n as f64);
    m.params.insert("corpora", CORPORA as f64);
    m.params.insert("k", k as f64);
    m.params.insert("k_prime", k_prime as f64);

    let config = BagOfWordsConfig::default();
    let corpus_seed = |c: usize| ctx.seed ^ (c as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F);
    let (docs, setup) = repeated_setup(|| {
        Ok((0..CORPORA)
            .map(|c| musixmatch_like(n, corpus_seed(c), &config))
            .collect::<Vec<_>>())
    })?;
    let task = Task::new(problem, k).budget(Budget::KPrime(k_prime));
    let pass = |c: usize, order: &[u32]| task.run_stream(in_order(&docs[c], order), &metric);
    let orders = |op: usize| -> Vec<Vec<u32>> {
        (0..CORPORA)
            .map(|c| arrival_order(n, ctx.seed, op * CORPORA + c))
            .collect()
    };
    let run = |orders: &Vec<Vec<u32>>| {
        orders
            .iter()
            .enumerate()
            .map(|(c, o)| pass(c, o))
            .collect::<Result<Vec<_>, _>>()
    };

    // Untimed: each corpus's reference (the sequential pipeline at
    // k' = k) and a warm-up pass, which must replay exactly at the end.
    let references = docs
        .iter()
        .map(|corpus| {
            Task::new(problem, k)
                .budget(Budget::KPrime(k))
                .run_seq(corpus, &metric)
                .map(|r| r.value)
                .map_err(|e| format!("reference run_seq: {e}"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let first_order = arrival_order(n, ctx.seed, 0);
    let warm = pass(0, &first_order).map_err(|e| format!("warm-up pass: {e}"))?;
    let ratios_of = |reports: &[Report<_>]| {
        reports
            .iter()
            .zip(&references)
            .map(|(r, reference)| r.value / reference)
            .collect::<Vec<_>>()
    };

    let (mut ratios, mut peaks) = (vec![], vec![]);
    let check = (problem, k, &metric);
    let untraced = repeat_op(
        &mut m,
        &ctx.calib,
        ctx.untraced_phase(),
        0,
        check,
        orders,
        run,
        |_, reports, _, _| {
            ratios.extend(ratios_of(reports));
            peaks.extend(reports.iter().map(|r| peak_points(r) as f64));
        },
    );
    let replay = pass(0, &first_order).map_err(|e| format!("replayed pass: {e}"))?;
    m.check(
        replay.indices == warm.indices && replay.value.to_bits() == warm.value.to_bits(),
        || "a pass over the same arrival order answered differently".into(),
    );
    push_end_to_end(&mut m, ctx, &untraced, n * CORPORA, &setup);
    m.push(Metric::median_of("value_ratio", &ratios).with_note("median over passes"));
    m.push(Metric::median_of("peak_local_points", &peaks).with_note("median over passes"));
    if !ctx.trace {
        return Ok(m);
    }

    let registry = install_recorder();
    let mut counters = Counters::new(&registry);
    let per_pass = CORPORA as f64;
    let (mut distances, mut phases, mut merges, mut relaxations) = (vec![], vec![], vec![], vec![]);
    let (mut pass_s, mut solve_s, mut ns_dist, mut peaks) = (vec![], vec![], vec![], vec![]);
    let first = untraced.wall_us.len();
    let traced = repeat_op(
        &mut m,
        &ctx.calib,
        ctx.traced_phase(),
        first,
        check,
        orders,
        run,
        |orders, reports, t0, t1| {
            let [d, ph, me, re] = counters.deltas([
                "kernel.distances",
                "stream.phases",
                "stream.merges",
                "gmm.relaxations",
            ]);
            distances.push(d / per_pass);
            phases.push(ph / per_pass);
            merges.push(me / per_pass);
            relaxations.push(re / per_pass);
            peaks.extend(reports.iter().map(|r| peak_points(r) as f64));
            let tracer = &ctx.tracer;
            let request = tracer.new_request();
            let op = tracer.record(request, None, "stream.op", t0, t1);
            let stages = reports
                .iter()
                .flat_map(|r| r.timings.iter().map(|t| (t.stage.as_str(), t.secs)));
            tracer.record_stages(request, op, t0, stages);

            // Timed calls into the layers each pass is made of, on the same
            // corpora and arrival orders.
            let (mut pass_total, mut solve_total) = (0.0, 0.0);
            for (c, order) in orders.iter().enumerate() {
                let p0 = Instant::now();
                let result = SmmExt::run(metric, k, k_prime, in_order(&docs[c], order));
                let p1 = Instant::now();
                tracer.record(request, None, "probe.streaming.SmmExt::run", p0, p1);
                pass_total += (p1 - p0).as_secs_f64();
                let coreset = result.into_coreset();
                let s0 = Instant::now();
                std::hint::black_box(seq::solve(problem, coreset.points(), &metric, k));
                let s1 = Instant::now();
                tracer.record(request, None, "probe.core.seq::solve", s0, s1);
                solve_total += (s1 - s0).as_secs_f64();
            }
            pass_s.push(pass_total);
            solve_s.push(solve_total);
            ns_dist.push(ns_per_distance(&docs[0], &metric));
            counters.mark();
        },
    );
    diversity::obs::uninstall();

    // Passes and solves were timed on the same orders as the traced
    // operations, so their sum is compared with those operations.
    let e2e = median(&traced.wall_us) / 1e6;
    let layers = median(&pass_s) + median(&solve_s);
    let each_pass = |xs: &[f64]| xs.iter().map(|x| x / per_pass).collect::<Vec<_>>();
    m.push(Metric::median_of("metric.distances", &distances).with_note("per pass"));
    m.push(Metric::median_of("metric.ns_per_distance", &ns_dist));
    m.push(Metric::median_of("streaming.pass_s", &each_pass(&pass_s)).with_note("per pass"));
    m.push(Metric::median_of("streaming.phases", &phases).with_note("per pass"));
    m.push(Metric::median_of("streaming.merges", &merges).with_note("per pass"));
    m.push(Metric::median_of("streaming.peak_points", &peaks));
    m.push(Metric::median_of("core.gmm_relaxations", &relaxations).with_note("per pass"));
    m.push(Metric::median_of("core.solve_s", &each_pass(&solve_s)).with_note("per pass"));
    m.push(Metric::single(
        "trace.overhead",
        median(&traced.wall_us) / median(&untraced.wall_us),
    ));
    m.push(Metric::single("trace.residual_share", (e2e - layers) / e2e));
    Ok(m)
}

/// Seeded inputs a mapreduce operation runs over, once each.
const MR_INPUTS: usize = 4;

/// One mapreduce operation is a `run_mapreduce` over each of
/// [`MR_INPUTS`] seeded inputs. A run's cost depends on its points:
/// repeated runs on one input held within a few percent, but inputs
/// drawn from different seeds took from 75 to 88 ms, so one input per
/// run made the median a single draw.
pub fn mapreduce(ctx: &Ctx) -> Result<Measured, String> {
    let mut m = Measured::default();
    let n = ctx.scaled(200_000);
    let (ell, k, k_prime) = (16, 32, 128);
    let problem = Problem::RemoteEdge;
    let metric = Euclidean;
    let threads = ctx.nproc;
    m.params.insert("points_per_input", n as f64);
    m.params.insert("inputs", MR_INPUTS as f64);
    m.params.insert("partitions", ell as f64);
    m.params.insert("k", k as f64);
    m.params.insert("k_prime", k_prime as f64);
    m.params.insert("threads", threads as f64);

    let input_seed = |i: usize| ctx.seed ^ (i as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F);
    let ((inputs, runtime), setup) = repeated_setup(|| {
        let inputs: Vec<_> = (0..MR_INPUTS)
            .map(|i| {
                let (points, _) = sphere_shell(n, k, 3, input_seed(i));
                split_random(points, ell, input_seed(i))
            })
            .collect();
        Ok((inputs, MapReduceRuntime::with_threads(threads)))
    })?;
    let task = Task::new(problem, k).budget(Budget::KPrime(k_prime));
    let run = |_: &()| {
        inputs
            .iter()
            .map(|parts| task.run_mapreduce(parts, &metric, &runtime, Strategy::TwoRound))
            .collect::<Result<Vec<_>, _>>()
    };

    // Untimed: each input's reference (the sequential pipeline at
    // k' = k) and a warm-up run.
    let references = inputs
        .iter()
        .map(|parts| {
            Task::new(problem, k)
                .budget(Budget::KPrime(k))
                .run_seq(&parts.parts.concat(), &metric)
                .map(|r| r.value)
                .map_err(|e| format!("reference run_seq: {e}"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let warm = run(&()).map_err(|e| format!("warm-up run: {e}"))?;

    // Every run is over the same partitions, so every answer must
    // equal the warm-up's bit for bit.
    let same = |reports: &[Report<_>]| {
        reports.iter().zip(&warm).all(|(report, warm)| {
            report.indices == warm.indices && report.value.to_bits() == warm.value.to_bits()
        })
    };
    let mut diverged = false;
    let check = (problem, k, &metric);
    let untraced = repeat_op(
        &mut m,
        &ctx.calib,
        ctx.untraced_phase(),
        0,
        check,
        |_| (),
        run,
        |_, reports, _, _| {
            diverged |= !same(reports);
        },
    );
    push_end_to_end(&mut m, ctx, &untraced, n * MR_INPUTS, &setup);
    let ratios: Vec<f64> = warm
        .iter()
        .zip(&references)
        .map(|(r, reference)| r.value / reference)
        .collect();
    let peaks: Vec<f64> = warm.iter().map(|r| peak_points(r) as f64).collect();
    m.push(Metric::median_of("value_ratio", &ratios).with_note("median over inputs"));
    m.push(Metric::median_of("peak_local_points", &peaks).with_note("median over inputs"));

    if ctx.trace {
        let registry = install_recorder();
        let mut counters = Counters::new(&registry);
        let per_run = MR_INPUTS as f64;
        let (mut distances, mut relaxations, mut round1, mut round2) =
            (vec![], vec![], vec![], vec![]);
        let (mut coreset_s, mut straggler, mut solve_s, mut ns_dist) =
            (vec![], vec![], vec![], vec![]);
        let (mut shuffle, mut m_locals, mut rounds) = (vec![], vec![], vec![]);
        let first = untraced.wall_us.len();
        let traced = repeat_op(
            &mut m,
            &ctx.calib,
            ctx.traced_phase(),
            first,
            check,
            |_| (),
            run,
            |_, reports, t0, t1| {
                diverged |= !same(reports);
                let [d, re] = counters.deltas(["kernel.distances", "gmm.relaxations"]);
                distances.push(d / per_run);
                relaxations.push(re / per_run);
                let tracer = &ctx.tracer;
                let request = tracer.new_request();
                let op = tracer.record(request, None, "mapreduce.op", t0, t1);
                let mut op_rounds = 0.0;
                for report in reports {
                    let (r1, r2) = (
                        stage_secs(report, "round1:coreset"),
                        stage_secs(report, "round2:solve"),
                    );
                    round1.push(r1);
                    round2.push(r2);
                    op_rounds += r1 + r2;
                    shuffle.push(report.memory.first().map_or(0, |s| s.emitted_points) as f64);
                    m_locals.push(peak_points(report) as f64);
                }
                rounds.push(op_rounds);
                tracer.record_stages(
                    request,
                    op,
                    t0,
                    reports
                        .iter()
                        .flat_map(|r| r.timings.iter().map(|t| (t.stage.as_str(), t.secs))),
                );

                // Each partition's core-set on one thread, then the solve on
                // their union: the work round 1 and round 2 spread over the
                // runtime.
                for parts in &inputs {
                    let mut partition_s = Vec::with_capacity(ell);
                    let mut union = Vec::new();
                    for part in &parts.parts {
                        let c0 = Instant::now();
                        let selected = coreset::gmm_coreset_with_threads(part, &metric, k_prime, 1);
                        let c1 = Instant::now();
                        tracer.record(request, None, "probe.core.gmm_coreset", c0, c1);
                        partition_s.push((c1 - c0).as_secs_f64());
                        union.extend(selected.into_iter().map(|i| part[i].clone()));
                    }
                    let total: f64 = partition_s.iter().sum();
                    let slowest = partition_s.iter().copied().fold(0.0, f64::max);
                    coreset_s.push(total);
                    straggler.push(slowest / (total / ell as f64));
                    let s0 = Instant::now();
                    std::hint::black_box(seq::solve(problem, &union, &metric, k));
                    let s1 = Instant::now();
                    tracer.record(request, None, "probe.core.seq::solve", s0, s1);
                    solve_s.push((s1 - s0).as_secs_f64());
                }
                ns_dist.push(ns_per_distance(&inputs[0].parts[0], &metric));
                counters.mark();
            },
        );
        diversity::obs::uninstall();

        let e2e = median(&traced.wall_us) / 1e6;
        m.push(Metric::median_of("metric.distances", &distances).with_note("per run"));
        m.push(Metric::median_of("metric.ns_per_distance", &ns_dist));
        m.push(Metric::median_of("core.coreset_s", &coreset_s).with_note("per run"));
        m.push(Metric::median_of("core.gmm_relaxations", &relaxations).with_note("per run"));
        m.push(Metric::median_of("core.solve_s", &solve_s).with_note("per run"));
        m.push(Metric::median_of("mapreduce.round1_s", &round1).with_note("per run"));
        m.push(Metric::median_of("mapreduce.round2_s", &round2).with_note("per run"));
        m.push(Metric::median_of("mapreduce.shuffle_points", &shuffle).with_note("per run"));
        m.push(Metric::median_of("mapreduce.m_local", &m_locals).with_note("per run"));
        m.push(Metric::single(
            "mapreduce.parallel_efficiency",
            median(&coreset_s) / (threads as f64 * median(&round1)),
        ));
        m.push(Metric::median_of("mapreduce.straggler_ratio", &straggler));
        m.push(Metric::single(
            "trace.overhead",
            median(&traced.wall_us) / median(&untraced.wall_us),
        ));
        m.push(Metric::single(
            "trace.residual_share",
            (e2e - median(&rounds)) / e2e,
        ));
    }
    m.check(!diverged, || {
        "runs over the same partitions answered differently".into()
    });
    Ok(m)
}
