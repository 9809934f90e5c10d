//! The serving workloads: a seeded 8-shard `ShardPool` behind an
//! in-process `Server`, driven over TCP by the open-loop generator.
//!
//! * `serve-read` — each Poisson due time sends one remote-edge query
//!   on all `nproc` connections at once and nothing mutates the pool:
//!   the warm read path, with the copies of a burst coalescing onto one
//!   extraction (about half the queries with two connections; none
//!   with one).
//! * `serve-churn` — a writer connection sends inserts and deletes
//!   that keep occupancy about constant and pulls a wire checkpoint on
//!   a fixed schedule; a reader connection sends queries whose
//!   payloads all differ. Writes run beside reads, and coalescing is
//!   bypassed.

use super::{check_report, cpu_metrics, peak_rss_mb, us, Ctx, Measured};
use crate::calib::{cpu_time, thread_cpu_time};
use crate::openloop::{drive, poisson_schedule, Outcome, Request, DRAIN_LIMIT};
use crate::record::Metric;
use crate::stats::{median, nearest_rank, sorted};
use crate::trace::Tracer;
use diversity::core::Problem;
use diversity::datasets::sphere_shell;
use diversity::mapreduce::partition::split_random;
use diversity::metric::{Euclidean, VecPoint};
use diversity::obs::Registry;
use diversity::wire::{from_bytes, to_bytes};
use diversity::{Budget, Report, Task};
use diversity_net::frame::Opcode;
use diversity_net::proto::{MutateReply, MutateRequest, Status};
use diversity_net::{NetClient, Server, ServerConfig, ServerStats};
use diversity_serve::{PoolState, Serve, ShardPool};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

type Pool = ShardPool<VecPoint, Euclidean>;

const SHARDS: usize = 8;
const K: usize = 16;
const K_PRIME: usize = 128;
/// Open-loop query rate of serve-read, summed over its connections: a
/// quarter of the lowest closed-loop wire throughput measured on a
/// shared 2-vCPU host (1.6k q/s), so the median times service rather
/// than queueing even when the host slows, and a traced run's 10 s half
/// still collects four times [`MIN_SAMPLES`].
const READ_RATE: f64 = 400.0;
/// Query rate of serve-churn's reader: twice what a traced run's 10 s
/// half needs to reach [`MIN_SAMPLES`].
const CHURN_QUERY_RATE: f64 = 200.0;
/// Mutation rate of serve-churn's writer (inserts and deletes
/// alternate): writes are three in five requests, so the write path is
/// the bulk of the traffic, while reads and writes together (500/s)
/// stay under a third of the 1.6k q/s floor.
const CHURN_MUTATE_RATE: f64 = 300.0;
/// Interval between serve-churn's wire checkpoints: one per segment, so
/// every instance is checkpointed under traffic once and its last
/// checkpoint is the one the restore check replays. At 20k points a
/// wire checkpoint takes about 10 ms, 4 ms of it inside the
/// `checkpoint_consistent` fence: 0.5% of the time (`net.fence_share`).
const CHECKPOINT_EVERY: Duration = Duration::from_secs(2);
/// Reference computations timed after each segment's traffic drains.
const CALIB_PER_SEGMENT: usize = 5;
/// Latency samples a serving phase must collect.
const MIN_SAMPLES: usize = 1000;

fn read_task() -> Task {
    Task::new(Problem::RemoteEdge, K).budget(Budget::KPrime(K_PRIME))
}

/// The reader's `i`-th query in serve-churn: a different `(k, k')` on
/// every call, so no two consecutive payloads are equal.
fn churn_task(i: usize) -> Task {
    let k = 8 + i % 9;
    Task::new(Problem::RemoteEdge, k).budget(Budget::KPrime(64 + 8 * (i % 7)))
}

/// A running server, shut down and joined when dropped.
struct Running(Option<Server<VecPoint, Euclidean>>);

impl Running {
    fn server(&self) -> &Server<VecPoint, Euclidean> {
        self.0.as_ref().expect("server runs until drop")
    }

    fn pool(&self) -> &Pool {
        self.server().pool()
    }

    fn addr(&self) -> SocketAddr {
        self.server().addr()
    }

    fn stats(&self) -> ServerStats {
        self.server().stats()
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        if let Some(server) = self.0.take() {
            server.shutdown_and_join();
        }
    }
}

/// A pool of `n` sphere-shell points drawn from `seed`.
fn seeded_pool(seed: u64, n: usize) -> Result<Pool, String> {
    let (points, _) = sphere_shell(n, K, 3, seed);
    let parts = split_random(points, SHARDS, seed);
    read_task()
        .serve_seeded(&parts, Euclidean)
        .map_err(|e| format!("seeding the pool: {e}"))
}

/// Builds a seeded pool and starts a server on it, adding the CPU time
/// both took to `setup_times`.
fn start_instance(
    seed: u64,
    n: usize,
    workers: usize,
    setup_times: &mut Vec<f64>,
) -> Result<Running, String> {
    let c0 = cpu_time();
    let pool = seeded_pool(seed, n)?;
    let config = ServerConfig {
        workers,
        ..ServerConfig::default()
    };
    let server = Server::start(pool, config).map_err(|e| format!("starting the server: {e}"))?;
    setup_times.push((cpu_time() - c0).as_secs_f64());
    Ok(Running(Some(server)))
}

/// `after − before`, field by field, added to `sum`.
fn add_delta(sum: &mut ServerStats, before: ServerStats, after: ServerStats) {
    sum.accepted += after.accepted - before.accepted;
    sum.queries += after.queries - before.queries;
    sum.mutates += after.mutates - before.mutates;
    sum.coalesced += after.coalesced - before.coalesced;
    sum.rejected += after.rejected - before.rejected;
    sum.protocol_errors += after.protocol_errors - before.protocol_errors;
}

/// What a request is, beside its bytes.
#[derive(Clone, Copy, Debug)]
enum Kind {
    /// A query for `churn_task(i)`, or for `read_task()` when `None`.
    Query(Option<usize>),
    Insert,
    Delete,
    Checkpoint,
}

/// One connection's script.
#[derive(Default)]
struct Script {
    requests: Vec<Request>,
    kinds: Vec<Kind>,
}

impl Script {
    fn push(&mut self, due: Duration, kind: Kind, opcode: Opcode, payload: &[u8]) {
        self.requests.push(Request::new(due, opcode, payload));
        self.kinds.push(kind);
    }

    /// Orders requests by due time (stable, so ties keep their order).
    fn sort(&mut self) {
        let mut order: Vec<usize> = (0..self.requests.len()).collect();
        order.sort_by_key(|&i| self.requests[i].due);
        self.requests = order.iter().map(|&i| self.requests[i].clone()).collect();
        self.kinds = order.iter().map(|&i| self.kinds[i]).collect();
    }
}

/// Everything observed over the serving phases.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    /// Why requests failed or were refused (the first few).
    errors: Vec<String>,
    /// Answers that failed an output check.
    wrong: Vec<String>,
    /// Latency from the due time, in µs, by kind of request.
    query_us: Vec<f64>,
    mutate_us: Vec<f64>,
    checkpoint_ms: Vec<f64>,
    late_us: Vec<f64>,
    response_bytes: Vec<f64>,
    checkpoint_bytes: Vec<f64>,
    decode_us: Vec<f64>,
    encode_us: Vec<f64>,
    /// Stage timings the wire answers report about themselves.
    extract_us: Vec<f64>,
    combine_us: Vec<f64>,
    coreset_sizes: Vec<f64>,
    /// Per segment: the server's CPU time while the segment's traffic
    /// ran, in µs per request.
    cpu_us_per_request: Vec<f64>,
    /// CPU time the generator's own threads used.
    generator_cpu: Duration,
    inserted: u64,
    deleted: u64,
}

impl Tally {
    fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.errors.extend(other.errors);
        self.wrong.extend(other.wrong);
        for (mine, theirs) in [
            (&mut self.query_us, other.query_us),
            (&mut self.mutate_us, other.mutate_us),
            (&mut self.checkpoint_ms, other.checkpoint_ms),
            (&mut self.late_us, other.late_us),
            (&mut self.response_bytes, other.response_bytes),
            (&mut self.checkpoint_bytes, other.checkpoint_bytes),
            (&mut self.decode_us, other.decode_us),
            (&mut self.encode_us, other.encode_us),
            (&mut self.extract_us, other.extract_us),
            (&mut self.combine_us, other.combine_us),
            (&mut self.coreset_sizes, other.coreset_sizes),
            (&mut self.cpu_us_per_request, other.cpu_us_per_request),
        ] {
            mine.extend(theirs);
        }
        self.generator_cpu += other.generator_cpu;
        self.inserted += other.inserted;
        self.deleted += other.deleted;
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 16 {
            self.errors.push(what);
        }
    }
}

/// Why a request did not count as a success.
enum Fault {
    /// Failed or refused (an error status, no response, or a degraded
    /// answer with no fault plan installed).
    Failed(String),
    /// Answered, but the answer failed an output check.
    Wrong(String),
}

impl From<diversity::wire::WireError> for Fault {
    fn from(e: diversity::wire::WireError) -> Self {
        Fault::Wrong(format!("undecodable response: {e}"))
    }
}

/// How the connections judge and trace their answers.
struct Judge<'a> {
    /// The exact answer every serve-read query must return.
    expected: Option<&'a (Vec<usize>, u64)>,
    traced: bool,
    tracer: &'a Tracer,
    /// Latency charged to a failed or refused request: the whole
    /// phase, which misses any latency limit.
    failed_us: f64,
}

impl Judge<'_> {
    fn observe(&self, tally: &mut Tally, kind: Kind, o: &Outcome, start: Instant) {
        tally.attempted += 1;
        tally.late_us.push(us(o.lateness()));
        let mut latency = us(o.latency());
        let verdict = match &o.response {
            None => Err(Fault::Failed("no response".into())),
            Some((Status::Ok, body)) => self.accept(tally, kind, body, o, start),
            Some((status, _)) => Err(Fault::Failed(format!("status {status:?}"))),
        };
        if let Err(fault) = verdict {
            latency = self.failed_us;
            match fault {
                Fault::Failed(why) => tally.fail(format!("{kind:?} request {}: {why}", o.index)),
                Fault::Wrong(why) => {
                    tally.fail(format!("{kind:?} request {}: wrong answer", o.index));
                    tally.wrong.push(why);
                }
            }
        }
        match kind {
            Kind::Query(_) => tally.query_us.push(latency),
            Kind::Insert | Kind::Delete => tally.mutate_us.push(latency),
            Kind::Checkpoint => tally.checkpoint_ms.push(latency / 1e3),
        }
    }

    /// Decodes and checks a successful response body.
    fn accept(
        &self,
        tally: &mut Tally,
        kind: Kind,
        body: &[u8],
        o: &Outcome,
        start: Instant,
    ) -> Result<(), Fault> {
        match kind {
            Kind::Query(variant) => {
                let d0 = Instant::now();
                let report: Report<VecPoint> = from_bytes(body)?;
                let d1 = Instant::now();
                let task = variant.map_or_else(read_task, churn_task);
                check_report(&report, task.problem(), task.k(), &Euclidean)
                    .map_err(Fault::Wrong)?;
                if report.degradation.is_some() {
                    return Err(Fault::Failed("degraded answer with no fault plan".into()));
                }
                if let Some(expected) = self.expected {
                    if answer_of(&report) != *expected {
                        return Err(Fault::Wrong(
                            "wire answer differs from the in-process answer".into(),
                        ));
                    }
                }
                tally.coreset_sizes.push(report.coreset_size as f64);
                tally.response_bytes.push(o.response_bytes as f64);
                if self.traced {
                    self.trace_query(tally, &report, o, (d0, d1), start);
                }
                Ok(())
            }
            Kind::Insert => match from_bytes(body)? {
                MutateReply::Inserted(_) => {
                    tally.inserted += 1;
                    Ok(())
                }
                MutateReply::Deleted(_) => Err(Fault::Wrong("Deleted reply to an insert".into())),
            },
            Kind::Delete => match from_bytes(body)? {
                MutateReply::Deleted(true) => {
                    tally.deleted += 1;
                    Ok(())
                }
                MutateReply::Deleted(false) => {
                    Err(Fault::Wrong("delete missed a live point".into()))
                }
                MutateReply::Inserted(_) => Err(Fault::Wrong("Inserted reply to a delete".into())),
            },
            Kind::Checkpoint => {
                tally.checkpoint_bytes.push(body.len() as f64);
                Ok(())
            }
        }
    }

    /// Records the layer timings and spans of one traced query.
    fn trace_query(
        &self,
        tally: &mut Tally,
        report: &Report<VecPoint>,
        o: &Outcome,
        (d0, d1): (Instant, Instant),
        start: Instant,
    ) {
        tally.decode_us.push(us(d1 - d0));
        let e0 = Instant::now();
        let bytes = std::hint::black_box(to_bytes(report));
        tally.encode_us.push(us(e0.elapsed()));
        drop(bytes);
        let extract = super::stage_secs(report, "warm-extract");
        let lock_wait = super::stage_secs(report, "warm-lock-wait");
        let combine = super::stage_secs(report, "combine:solve");
        tally.extract_us.push(extract * 1e6);
        tally.combine_us.push(combine * 1e6);

        // Server-side stages are laid from the send instant: the report
        // carries their lengths, not their positions.
        let at = |d: Duration| start + d;
        let t = self.tracer;
        let request = t.new_request();
        let root = t.record(request, None, "gen.request", at(o.due), at(o.received));
        t.record(request, Some(root), "gen.send_delay", at(o.due), at(o.sent));
        let wire = t.record(
            request,
            Some(root),
            "wire.roundtrip",
            at(o.sent),
            at(o.received),
        );
        t.record_stages(
            request,
            wire,
            at(o.sent),
            [("serve.extract", extract), ("serve.combine", combine)],
        );
        t.record_stages(request, wire, at(o.sent), [("serve.lock_wait", lock_wait)]);
        t.record(request, Some(root), "wire.decode", d0, d1);
    }
}

/// Runs the scripts, one connection and thread each, concurrently from
/// one start instant.
fn run_phase(addr: SocketAddr, scripts: &[Script], judge: &Judge<'_>) -> Result<Tally, String> {
    let start = Instant::now() + Duration::from_millis(20);
    let results: Vec<Result<Tally, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = scripts
            .iter()
            .map(|script| {
                scope.spawn(move || {
                    let c0 = thread_cpu_time();
                    let mut tally = Tally::default();
                    drive(addr, start, &script.requests, DRAIN_LIMIT, |outcome| {
                        let kind = script.kinds[outcome.index];
                        judge.observe(&mut tally, kind, &outcome, start);
                    })?;
                    tally.generator_cpu = thread_cpu_time() - c0;
                    Ok(tally)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("generator thread panicked".into()))
            })
            .collect()
    });
    Ok(merged(results.into_iter().collect::<Result<Vec<_>, _>>()?))
}

/// Length of one segment of serve-read's phases. Its queries' cost is
/// set by the pool they hit (see [`run_segments`]), so it takes a new
/// pool every second: with one every 2 s, runs of the same seed
/// differed by 12% in CPU time per query.
const READ_SEGMENT: Duration = Duration::from_secs(1);
/// Length of one segment of serve-churn's phases, where writes dilute
/// the pool's share of the cost.
const CHURN_SEGMENT: Duration = Duration::from_secs(2);

/// One segment's traffic: a script per connection, and the exact
/// answer every query must return, if there is one.
struct Segment {
    scripts: Vec<Script>,
    expected: Option<(Vec<usize>, u64)>,
}

/// Runs a phase as segments of about `segment`, each against a fresh
/// instance — pool and server — that is dropped when the segment ends.
/// Segment `i` is numbered `base + i`, and its pool is drawn from that
/// number and the run's seed: warm-query speed depends on the pool
/// (each pool seeds its hash maps anew, which moves memory layout; six
/// same-seed builds in one process ranged 221–302 µs at the median, and
/// some seeds' points are slower than others'), so a run's median rests
/// on many pools rather than on one draw. Idle servers are not free
/// (each worker polls for connections every 2 ms), so only the
/// segment's own instance runs. `prepare(number, length, instance)`
/// writes the segment's traffic, and `after(instance, segment, tally)`
/// runs once that traffic has drained. A `recorder` is installed only
/// while a segment's traffic runs: pool builds, checks and probes go
/// unrecorded, so the recorder holds the wire traffic alone. Returns
/// the merged tally and the summed server counters of the segments.
#[allow(clippy::too_many_arguments)]
fn run_segments(
    ctx: &Ctx,
    n: usize,
    workers: usize,
    (phase, segment): (Duration, Duration),
    base: u64,
    setup_times: &mut Vec<f64>,
    recorder: Option<&Arc<Registry>>,
    mut prepare: impl FnMut(u64, Duration, &Running) -> Result<Segment, String>,
    mut after: impl FnMut(&Running, &Segment, &Tally) -> Result<(), String>,
) -> Result<(Tally, ServerStats), String> {
    let segments = (phase.as_secs_f64() / segment.as_secs_f64())
        .round()
        .max(1.0) as u32;
    let length = phase / segments;
    let mut tally = Tally::default();
    let mut stats = ServerStats::default();
    for number in (0..segments as u64).map(|i| base + i) {
        let pool_seed = ctx.seed ^ (number + 1).wrapping_mul(0xA076_1D64_78BD_642F);
        let instance = start_instance(pool_seed, n, workers, setup_times)?;
        let segment = prepare(number, length, &instance)?;
        let judge = Judge {
            expected: segment.expected.as_ref(),
            traced: recorder.is_some(),
            tracer: &ctx.tracer,
            failed_us: us(phase),
        };
        let before = instance.stats();
        if let Some(registry) = recorder {
            diversity::obs::install(registry.clone());
        }
        // The process's CPU time less the generator's is the server's:
        // this thread only waits for the generator's.
        let c0 = cpu_time();
        let part = run_phase(instance.addr(), &segment.scripts, &judge);
        let cpu = cpu_time() - c0;
        diversity::obs::uninstall();
        let mut part = part?;
        let server_cpu = cpu.saturating_sub(part.generator_cpu);
        part.cpu_us_per_request
            .push(us(server_cpu) / part.attempted.max(1) as f64);
        add_delta(&mut stats, before, instance.stats());
        after(&instance, &segment, &part)?;
        for _ in 0..CALIB_PER_SEGMENT {
            ctx.calib.sample();
        }
        tally.merge(part);
    }
    Ok((tally, stats))
}

/// Merges per-server tallies.
fn merged(tallies: Vec<Tally>) -> Tally {
    tallies.into_iter().fold(Tally::default(), |mut all, t| {
        all.merge(t);
        all
    })
}

/// Poisson-timed queries: all `read_task()`, or `churn_task` variants
/// numbered from `variant_base`.
fn query_script(
    rate: f64,
    phase: Duration,
    seed: u64,
    stream: u64,
    variant_base: Option<usize>,
) -> Script {
    let mut script = Script::default();
    let dues = poisson_schedule(rate, phase.as_secs_f64(), seed, stream);
    for (i, due) in dues.into_iter().enumerate() {
        let variant = variant_base.map(|base| base + i);
        let task = variant.map_or_else(read_task, churn_task);
        script.push(due, Kind::Query(variant), Opcode::Query, &to_bytes(&task));
    }
    script
}

/// The writer's script: alternating inserts of fresh points and
/// deletes of seeded points at Poisson times, plus a checkpoint every
/// [`CHECKPOINT_EVERY`] (at least one). Deletes stop if `victims` runs
/// dry.
fn writer_script(
    phase: Duration,
    seed: u64,
    stream: u64,
    fresh: &mut impl Iterator<Item = VecPoint>,
    victims: &mut impl Iterator<Item = u64>,
) -> Script {
    let mut script = Script::default();
    let dues = poisson_schedule(CHURN_MUTATE_RATE, phase.as_secs_f64(), seed, stream);
    for (i, due) in dues.into_iter().enumerate() {
        let victim = if i % 2 == 1 { victims.next() } else { None };
        match victim {
            Some(id) => {
                let payload = to_bytes(&MutateRequest::<VecPoint>::Delete(id));
                script.push(due, Kind::Delete, Opcode::Mutate, &payload);
            }
            None => {
                let point = fresh.next().expect("fresh points are unbounded");
                script.push(
                    due,
                    Kind::Insert,
                    Opcode::Mutate,
                    &to_bytes(&MutateRequest::Insert(point)),
                );
            }
        }
    }
    // Checkpoints sit mid-interval, so even a segment shorter than the
    // interval pulls one.
    let every = CHECKPOINT_EVERY.min(phase);
    let mut due = every / 2;
    while due < phase {
        script.push(due, Kind::Checkpoint, Opcode::Checkpoint, &[]);
        due += every;
    }
    script.sort();
    script
}

/// The exact answer a report gives: its indices and value bits.
fn answer_of(report: &Report<VecPoint>) -> (Vec<usize>, u64) {
    (report.indices.clone(), report.value.to_bits())
}

/// A wire query through the blocking client.
fn wire_query(addr: SocketAddr, task: &Task) -> Result<Report<VecPoint>, String> {
    let mut client = NetClient::<VecPoint>::connect(addr).map_err(|e| e.to_string())?;
    client.query(task).map_err(|e| format!("wire query: {e}"))
}

/// The pool's alive points in id order (`alive` itself has no fixed
/// order).
fn alive_sorted(pool: &Pool) -> Vec<(u64, VecPoint)> {
    let mut alive: Vec<(u64, VecPoint)> = pool
        .alive()
        .into_iter()
        .map(|(id, p)| (id.encode(), p))
        .collect();
    alive.sort_unstable_by_key(|(id, _)| *id);
    alive
}

/// The solution sizes `value_ratio` is taken over on the serving
/// workloads: one max-min answer's value hangs on its closest pair, so
/// a single `k` swings by ±5% between seeds; the median over nine does
/// not.
const RATIO_KS: std::ops::RangeInclusive<usize> = 8..=16;

/// Warm answer ÷ sequential reference (the pipeline at k' = k over the
/// alive points in id order) for every `k` in [`RATIO_KS`].
fn value_ratios(pool: &Pool) -> Result<Vec<f64>, String> {
    let points: Vec<VecPoint> = alive_sorted(pool).into_iter().map(|(_, p)| p).collect();
    RATIO_KS
        .map(|k| {
            let task = Task::new(Problem::RemoteEdge, k).budget(Budget::KPrime(K_PRIME));
            let warm = pool
                .query(&task)
                .map_err(|e| format!("in-process query: {e}"))?;
            check_report(&warm, Problem::RemoteEdge, k, &Euclidean)?;
            let reference = Task::new(Problem::RemoteEdge, k)
                .budget(Budget::KPrime(k))
                .run_seq(&points, &Euclidean)
                .map_err(|e| format!("reference run_seq: {e}"))?;
            Ok(warm.value / reference.value)
        })
        .collect()
}

/// In-process probes a traced segment runs on its quiescent instance.
const PROBES_PER_SEGMENT: usize = 40;

/// Timings of in-process queries: total, extract, combine and lock
/// wait, in µs.
#[derive(Default)]
struct Inproc([Vec<f64>; 4]);

impl Inproc {
    /// Times [`PROBES_PER_SEGMENT`] queries on `pool`.
    fn probe(&mut self, pool: &Pool, task_for: impl Fn(usize) -> Task) -> Result<(), String> {
        for i in 0..PROBES_PER_SEGMENT {
            let task = task_for(i);
            let t0 = Instant::now();
            let report = pool
                .query(&task)
                .map_err(|e| format!("in-process probe query: {e}"))?;
            self.0[0].push(us(t0.elapsed()));
            self.0[1].push(super::stage_secs(&report, "warm-extract") * 1e6);
            self.0[2].push(super::stage_secs(&report, "combine:solve") * 1e6);
            self.0[3].push(super::stage_secs(&report, "warm-lock-wait") * 1e6);
        }
        Ok(())
    }

    fn medians(&self) -> [f64; 4] {
        [0, 1, 2, 3].map(|i| median(&self.0[i]))
    }
}

/// Nearest-rank p99 of `samples` (0 when empty).
fn p99(samples: &[f64]) -> f64 {
    nearest_rank(&sorted(samples), 0.99).unwrap_or(0.0)
}

/// p50 of histogram `name` in µs (0 if never recorded).
fn hist_p50_us(registry: &Registry, name: &str) -> f64 {
    registry
        .snapshot_now()
        .histogram(name)
        .map_or(0.0, |h| h.p50() as f64 / 1e3)
}

/// Folds a phase's counts and check failures into the run.
fn absorb(m: &mut Measured, tally: &Tally) {
    m.attempted += tally.attempted;
    m.failed += tally.failed;
    m.failures.extend(tally.wrong.iter().take(16).cloned());
    for error in &tally.errors {
        eprintln!("perfbench: {error}");
    }
    m.check(tally.query_us.len() >= MIN_SAMPLES, || {
        format!(
            "only {} query samples (need {MIN_SAMPLES})",
            tally.query_us.len()
        )
    });
}

/// The end-to-end metrics both serving workloads report, from the
/// untraced phase.
///
/// The CPU time an operation took is, per segment, the server's CPU time
/// per request handled. The generator's client-side work (polling its
/// sockets, decoding and checking answers) is left out: it is the
/// benchmark's, and its cost rose and fell with how responses bunched.
fn push_end_to_end(m: &mut Measured, ctx: &Ctx, tally: &Tally, setup_s: &[f64]) {
    m.metrics
        .extend(cpu_metrics(&ctx.calib, &tally.cpu_us_per_request, setup_s));
    m.metrics.extend(super::latency_metrics(&tally.query_us));
    let peak = tally.coreset_sizes.iter().copied().fold(0.0, f64::max);
    m.push(
        Metric::single("peak_local_points", peak)
            .with_note("largest merged core-set a query solved"),
    );
    m.push_ok_share();
    m.push(Metric::single(
        "peak_rss_mb",
        peak_rss_mb().unwrap_or(f64::NAN),
    ));
}

/// Per-layer metrics both serving workloads derive the same way.
struct Layers<'a> {
    untraced: &'a Tally,
    traced: &'a Tally,
    /// Server counters over the traced phase.
    stats: ServerStats,
    registry: &'a Registry,
    /// In-process (total, extract, combine, lock wait) medians in µs.
    inproc: [f64; 4],
}

impl Layers<'_> {
    fn push(&self, m: &mut Measured, points: &[VecPoint]) {
        let [inproc, extract, combine, lock_wait] = self.inproc;
        let (u, t) = (self.untraced, self.traced);
        let handled = self.stats.queries + self.stats.mutates;
        let counter = |name: &str| self.registry.snapshot_now().counter(name).unwrap_or(0) as f64;
        let queries = self.stats.queries as f64;
        let rejected = self.stats.rejected as f64;
        m.push(
            Metric::single(
                "metric.distances",
                counter("kernel.distances") / handled.max(1) as f64,
            )
            .with_note("per request handled"),
        );
        m.push(Metric::single(
            "metric.ns_per_distance",
            super::ns_per_distance(points, &Euclidean),
        ));
        m.push(
            Metric::single(
                "core.gmm_relaxations",
                counter("gmm.relaxations") / handled.max(1) as f64,
            )
            .with_note("per request handled"),
        );
        m.push(Metric::single("serve.query_inproc_us", inproc));
        m.push(Metric::single("serve.extract_us", extract));
        m.push(Metric::single("serve.combine_us", combine));
        m.push(Metric::single("serve.lock_wait_us", lock_wait));
        m.push(Metric::single(
            "serve.unattributed_us",
            inproc - (extract + combine),
        ));
        m.push(Metric::median_of("serve.query_wire_p50_us", &u.query_us));
        m.push(Metric::single("serve.query_wire_p99_us", p99(&u.query_us)));
        m.push(Metric::single(
            "net.overhead_us",
            median(&u.query_us) - inproc,
        ));
        m.push(Metric::single(
            "net.coalesced_share",
            self.stats.coalesced as f64 / queries.max(1.0),
        ));
        m.push(Metric::single(
            "net.rejected_share",
            rejected / (queries + rejected).max(1.0),
        ));
        let untraced_bytes = median(&u.response_bytes);
        m.push(
            Metric::median_of("wire.response_bytes", &t.response_bytes)
                .with_note(format!("untraced median {untraced_bytes}")),
        );
        m.push(Metric::median_of("wire.encode_us", &t.encode_us));
        m.push(Metric::median_of("wire.decode_us", &t.decode_us));
        m.push(Metric::median_of("gen.late_p50_us", &u.late_us));
        m.push(Metric::single(
            "gen.late_max_us",
            u.late_us.iter().copied().fold(0.0, f64::max),
        ));
        m.push(Metric::single(
            "trace.overhead",
            median(&t.query_us) / median(&u.query_us),
        ));
        let wire = median(&t.query_us);
        let layers = median(&t.extract_us) + median(&t.combine_us) + median(&t.decode_us);
        m.push(Metric::single(
            "trace.residual_share",
            (wire - layers) / wire,
        ));
    }
}

pub fn serve_read(ctx: &Ctx) -> Result<Measured, String> {
    let mut m = Measured::default();
    let n = ctx.scaled(20_000);
    let conns = ctx.nproc;
    m.params.insert("points", n as f64);
    m.params.insert("shards", SHARDS as f64);
    m.params.insert("connections", conns as f64);
    m.params.insert("rate_per_s", READ_RATE);

    // The answer every query of a segment must return is the in-process
    // answer of its quiescent pool, taken before the traffic. One
    // Poisson schedule fans out to every connection: each due time sends
    // the same query on all of them at once, as clients polling one
    // dashboard would, so with two or more connections the followers of
    // a burst coalesce onto its leader.
    let task = read_task();
    let prepare = |number: u64, length: Duration, running: &Running| {
        let local = running
            .pool()
            .query(&task)
            .map_err(|e| format!("in-process query: {e}"))?;
        check_report(&local, task.problem(), K, &Euclidean)?;
        let rate = READ_RATE / conns as f64;
        Ok(Segment {
            scripts: (0..conns)
                .map(|_| query_script(rate, length, ctx.seed, number, None))
                .collect(),
            expected: Some(answer_of(&local)),
        })
    };
    // Once its traffic has drained, the pool must still give the same
    // answer, in process and over the wire.
    let mut failures = Vec::new();
    let mut exact = |running: &Running, segment: &Segment| -> Result<(), String> {
        let local = running
            .pool()
            .query(&task)
            .map_err(|e| format!("in-process query: {e}"))?;
        let wire = wire_query(running.addr(), &task)?;
        let expected = segment.expected.as_ref();
        if Some(&answer_of(&local)) != expected || Some(&answer_of(&wire)) != expected {
            failures.push("a pool answered differently after its traffic".into());
        }
        Ok(())
    };
    let mut setup_times = Vec::new();
    let mut ratios = Vec::new();
    let (untraced, _) = run_segments(
        ctx,
        n,
        ctx.nproc,
        (ctx.untraced_phase(), READ_SEGMENT),
        0,
        &mut setup_times,
        None,
        prepare,
        |running, segment, _| {
            exact(running, segment)?;
            ratios.extend(value_ratios(running.pool())?);
            Ok(())
        },
    )?;
    absorb(&mut m, &untraced);
    push_end_to_end(&mut m, ctx, &untraced, &setup_times);
    m.push(
        Metric::median_of("value_ratio", &ratios)
            .with_note("median over segment pools and k = 8..=16"),
    );

    if ctx.trace {
        let registry = Arc::new(Registry::new());
        let mut inproc = Inproc::default();
        let (traced, stats) = run_segments(
            ctx,
            n,
            ctx.nproc,
            (ctx.traced_phase(), READ_SEGMENT),
            1 << 20,
            &mut setup_times,
            Some(&registry),
            prepare,
            |running, segment, _| {
                exact(running, segment)?;
                inproc.probe(running.pool(), |_| read_task())
            },
        )?;
        absorb(&mut m, &traced);
        let layers = Layers {
            untraced: &untraced,
            traced: &traced,
            stats,
            registry: &registry,
            inproc: inproc.medians(),
        };
        layers.push(&mut m, &sphere_shell(n, K, 3, ctx.seed).0);
    }
    m.failures.extend(failures);
    Ok(m)
}

pub fn serve_churn(ctx: &Ctx) -> Result<Measured, String> {
    let mut m = Measured::default();
    let n = ctx.scaled(20_000);
    // Two connections, and the server answers one connection per
    // worker, so it needs at least two.
    let workers = ctx.nproc.max(2);
    m.params.insert("points", n as f64);
    m.params.insert("shards", SHARDS as f64);
    m.params.insert("query_rate_per_s", CHURN_QUERY_RATE);
    m.params.insert("mutate_rate_per_s", CHURN_MUTATE_RATE);
    m.params
        .insert("checkpoint_every_s", CHECKPOINT_EVERY.as_secs_f64());

    // Each segment's writer deletes its instance's seeded points in a
    // seeded order (no id twice) and inserts fresh seeded points; its
    // reader's consecutive queries all differ.
    let prepare = |number: u64, length: Duration, running: &Running| {
        let stream = 2 * number;
        let mut rng = StdRng::seed_from_u64(ctx.seed ^ (stream + 1).wrapping_mul(0xDE1E_7E00_F2E5));
        let mut victims: Vec<u64> = alive_sorted(running.pool())
            .into_iter()
            .map(|(id, _)| id)
            .collect();
        for i in (1..victims.len()).rev() {
            victims.swap(i, rng.gen_range(0..=i));
        }
        let mut fresh = std::iter::repeat_with(move || {
            let mut coord = || rng.gen::<f64>() - 0.5;
            VecPoint::from([coord(), coord(), coord()])
        });
        let mut victims = victims.into_iter();
        let writer = writer_script(length, ctx.seed, stream, &mut fresh, &mut victims);
        let reader = query_script(CHURN_QUERY_RATE, length, ctx.seed, stream + 1, Some(0));
        Ok(Segment {
            scripts: vec![writer, reader],
            expected: None,
        })
    };

    // Output checks on every instance's final state: the wire answer
    // equals the in-process one, and a wire checkpoint restores to the
    // expected population and answers bit-identically.
    let task = read_task();
    let mut ratios = Vec::new();
    let mut failures = Vec::new();
    let mut final_state = |running: &Running, tally: &Tally| -> Result<(), String> {
        let (pool, addr) = (running.pool(), running.addr());
        let expected = n + tally.inserted as usize - tally.deleted as usize;
        let live = pool
            .query(&task)
            .map_err(|e| format!("in-process query: {e}"))?;
        if let Err(e) = check_report(&live, task.problem(), K, &Euclidean) {
            failures.push(e);
        }
        if answer_of(&wire_query(addr, &task)?) != answer_of(&live) {
            failures.push("final wire answer differs from the in-process answer".into());
        }
        let state: PoolState<VecPoint> = NetClient::<VecPoint>::connect(addr)
            .and_then(|mut c| c.checkpoint())
            .map_err(|e| format!("wire checkpoint: {e}"))?;
        let restored = Pool::restore(Euclidean, state).map_err(|e| format!("restore: {e}"))?;
        if pool.len() != expected || restored.len() != expected {
            failures.push(format!(
                "expected {expected} alive, the pool has {}, its checkpoint {}",
                pool.len(),
                restored.len()
            ));
        }
        let replay = restored
            .query(&task)
            .map_err(|e| format!("restored query: {e}"))?;
        if answer_of(&replay) != answer_of(&live) {
            failures.push("the restored checkpoint answers differently".into());
        }
        ratios.extend(value_ratios(pool)?);
        Ok(())
    };

    let mut setup_times = Vec::new();
    let (untraced, _) = run_segments(
        ctx,
        n,
        workers,
        (ctx.untraced_phase(), CHURN_SEGMENT),
        0,
        &mut setup_times,
        None,
        prepare,
        |running, _, tally| final_state(running, tally),
    )?;
    absorb(&mut m, &untraced);

    let mut traced_layers = None;
    if ctx.trace {
        let registry = Arc::new(Registry::new());
        let mut inproc = Inproc::default();
        let (mut insert_us, mut checkpoint_ms) = (Vec::new(), Vec::new());
        let mut probe_rng = StdRng::seed_from_u64(ctx.seed ^ 0x9B0B);
        let (traced, stats) = run_segments(
            ctx,
            n,
            workers,
            (ctx.traced_phase(), CHURN_SEGMENT),
            1 << 20,
            &mut setup_times,
            Some(&registry),
            prepare,
            |running, _, tally| {
                final_state(running, tally).and_then(|()| {
                    let pool = running.pool();
                    inproc.probe(pool, churn_task)?;
                    for _ in 0..PROBES_PER_SEGMENT {
                        let mut coord = || probe_rng.gen::<f64>() - 0.5;
                        let point = VecPoint::from([coord(), coord(), coord()]);
                        let t0 = Instant::now();
                        let id = pool
                            .insert(point)
                            .map_err(|e| format!("in-process insert: {e}"))?;
                        insert_us.push(us(t0.elapsed()));
                        pool.delete(id)
                            .map_err(|e| format!("in-process delete: {e}"))?;
                    }
                    let t0 = Instant::now();
                    let cut = pool
                        .checkpoint_consistent()
                        .map_err(|e| format!("checkpoint: {e}"))?;
                    checkpoint_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                    drop(cut);
                    Ok(())
                })
            },
        )?;
        absorb(&mut m, &traced);
        m.push(Metric::single(
            "dynamic.insert_us",
            hist_p50_us(&registry, "dynamic.insert_ns"),
        ));
        m.push(Metric::single(
            "dynamic.delete_us",
            hist_p50_us(&registry, "dynamic.delete_ns"),
        ));
        m.push(Metric::median_of("serve.insert_inproc_us", &insert_us));
        m.push(Metric::median_of("serve.checkpoint_ms", &checkpoint_ms));
        traced_layers = Some((traced, stats, registry, inproc));
    }

    m.push(
        Metric::median_of("value_ratio", &ratios)
            .with_note("final states; median over segments and k = 8..=16"),
    );
    push_end_to_end(&mut m, ctx, &untraced, &setup_times);
    if let Some((traced, stats, registry, inproc)) = traced_layers {
        m.push(Metric::median_of(
            "net.checkpoint_ms",
            &untraced.checkpoint_ms,
        ));
        let fenced_ms: f64 = untraced.checkpoint_ms.iter().sum();
        m.push(
            Metric::single(
                "net.fence_share",
                fenced_ms / (ctx.untraced_phase().as_secs_f64() * 1e3),
            )
            .with_note("wire checkpoint time / untraced phase"),
        );
        m.push(Metric::median_of(
            "wire.checkpoint_bytes",
            &untraced.checkpoint_bytes,
        ));
        m.push(Metric::median_of(
            "serve.mutate_wire_p50_us",
            &untraced.mutate_us,
        ));
        m.push(Metric::single(
            "serve.mutate_wire_p99_us",
            p99(&untraced.mutate_us),
        ));
        let layers = Layers {
            untraced: &untraced,
            traced: &traced,
            stats,
            registry: &registry,
            inproc: inproc.medians(),
        };
        layers.push(&mut m, &sphere_shell(n, K, 3, ctx.seed).0);
    }
    m.failures.extend(failures);
    Ok(m)
}
