//! The four workloads and what they share: run context, the measured
//! result, set-up repetition, output checks and counter deltas.

pub mod batch;
pub mod serve;

use crate::calib::{cpu_time, Calibration};
use crate::record::Metric;
use crate::stats::{nearest_rank, sorted, tail_quantile};
use crate::trace::Tracer;
use diversity::core::{eval, Problem};
use diversity::metric::Metric as Distance;
use diversity::obs::{Registry, Snapshot};
use diversity::Report;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Fewest times a workload's set-up is repeated; `setup_s` is the
/// median.
pub const SETUP_REPS: usize = 5;

/// Cheap set-ups repeat until they have taken this long in total, so
/// their median rests on more than five short samples.
const SETUP_MIN_TOTAL: Duration = Duration::from_secs(1);

/// Most times a cheap set-up is repeated.
const SETUP_MAX_REPS: usize = 50;

/// What one workload run is given.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: f64,
    pub nproc: usize,
    pub tracer: Tracer,
    /// Reference timings the gated CPU times are normalized by.
    pub calib: Calibration,
}

impl Ctx {
    /// `base` scaled by `--scale`, at least 1.
    pub fn scaled(&self, base: usize) -> usize {
        ((base as f64 * self.scale).round() as usize).max(1)
    }

    /// Length of the untraced measuring phase: the whole run, or its
    /// first half when the second half is traced.
    pub fn untraced_phase(&self) -> Duration {
        let secs = if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        };
        Duration::from_secs_f64(secs)
    }

    /// Length of the traced phase (zero in an untraced run).
    pub fn traced_phase(&self) -> Duration {
        if self.trace {
            Duration::from_secs_f64(self.seconds / 2.0)
        } else {
            Duration::ZERO
        }
    }
}

/// What a workload run produced.
#[derive(Default)]
pub struct Measured {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub params: BTreeMap<&'static str, f64>,
}

impl Measured {
    pub fn push(&mut self, metric: Metric) {
        self.metrics.push(metric);
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Counts one operation, failed or not.
    pub fn count_op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// `ok_share`, which every workload reports.
    pub fn push_ok_share(&mut self) {
        let ok = self.attempted.saturating_sub(self.failed) as f64;
        self.push(Metric::single(
            "ok_share",
            ok / self.attempted.max(1) as f64,
        ));
    }
}

/// Runs `setup` at least [`SETUP_REPS`] times and until the
/// repetitions have taken [`SETUP_MIN_TOTAL`], timing the CPU time of
/// each, and returns the last result with those times in seconds.
/// Earlier results are dropped before the next repetition starts,
/// outside its timing.
pub fn repeated_setup<T>(
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut times = Vec::new();
    let mut last = None;
    let started = Instant::now();
    while times.len() < SETUP_REPS
        || (started.elapsed() < SETUP_MIN_TOTAL && times.len() < SETUP_MAX_REPS)
    {
        drop(last.take());
        let c0 = cpu_time();
        let built = std::hint::black_box(setup()?);
        times.push((cpu_time() - c0).as_secs_f64());
        last = Some(built);
    }
    let built = last.expect("SETUP_REPS is positive");
    Ok((built, times))
}

/// The CPU-time metrics every workload reports: `op_cpu_norm_us` and
/// `setup_s` (gated), normalized to the nominal host by `calib`, and
/// beside them the raw `op_cpu_us` and the reference's own `host.ref_us`.
/// `op_cpu_us` are per-operation CPU times in µs, `setup_s` per-set-up
/// CPU times in seconds.
pub fn cpu_metrics(calib: &Calibration, op_cpu_us: &[f64], setup_s: &[f64]) -> [Metric; 4] {
    let factor = calib.factor();
    let scaled = |xs: &[f64]| xs.iter().map(|x| x * factor).collect::<Vec<_>>();
    [
        Metric::median_of("op_cpu_norm_us", &scaled(op_cpu_us))
            .with_note("CPU time of one operation on the nominal host"),
        Metric::median_of("setup_s", &scaled(setup_s))
            .with_note("CPU time of one set-up on the nominal host"),
        Metric::median_of("op_cpu_us", op_cpu_us),
        Metric::median_of("host.ref_us", &calib.samples_us()),
    ]
}

/// The median and the tail of `samples` as `op_p50_us`/`op_tail_us`.
/// The tail is the highest of p90, p75 and p50 with at least ten
/// samples beyond it; with fewer than 20 samples it is the maximum.
pub fn latency_metrics(samples_us: &[f64]) -> [Metric; 2] {
    let sorted = sorted(samples_us);
    let tail = match tail_quantile(sorted.len()) {
        Some(q) => Metric::median_of("op_tail_us", samples_us)
            .with_value(nearest_rank(&sorted, q).unwrap_or(f64::NAN))
            .with_note(format!("p{}", q * 100.0)),
        None => Metric::median_of("op_tail_us", samples_us)
            .with_value(sorted.last().copied().unwrap_or(f64::NAN))
            .with_note("max (fewer than 20 samples)"),
    };
    [Metric::median_of("op_p50_us", samples_us), tail]
}

/// Peak resident memory of this process in MB, from `/proc`.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The output checks every answer must pass: exactly `k` distinct
/// indices, `k` points, and a value equal (bit for bit) to the
/// objective recomputed on the returned points.
pub fn check_report<P, M: Distance<P>>(
    report: &Report<P>,
    problem: Problem,
    k: usize,
    metric: &M,
) -> Result<(), String> {
    let mut indices = report.indices.clone();
    indices.sort_unstable();
    indices.dedup();
    if report.indices.len() != k || indices.len() != k || report.points.len() != k {
        return Err(format!(
            "{problem}: wanted {k} distinct indices and points, got {} indices ({} distinct), {} points",
            report.indices.len(),
            indices.len(),
            report.points.len()
        ));
    }
    let all: Vec<usize> = (0..k).collect();
    let recomputed = eval::evaluate_subset(problem, &report.points, metric, &all);
    if recomputed.to_bits() != report.value.to_bits() {
        return Err(format!(
            "{problem}: reported value {} but the returned points evaluate to {recomputed}",
            report.value
        ));
    }
    Ok(())
}

/// Installs a fresh recorder for the traced phase.
pub fn install_recorder() -> Arc<Registry> {
    let registry = Arc::new(Registry::new());
    diversity::obs::install(registry.clone());
    registry
}

/// `after − before` for counter `name` (0 if never counted).
pub fn counter_delta(before: &Snapshot, after: &Snapshot, name: &str) -> f64 {
    let read = |s: &Snapshot| s.counter(name).unwrap_or(0);
    read(after).saturating_sub(read(before)) as f64
}

/// Median time, in ns, of one `distance_many` distance over the first
/// points of `points`.
pub fn ns_per_distance<P, M: Distance<P>>(points: &[P], metric: &M) -> f64 {
    let m = points.len().min(4096);
    let centers = points.len().min(16);
    let mut out = vec![0.0; m];
    let mut samples = Vec::with_capacity(centers);
    for center in &points[..centers] {
        let t0 = Instant::now();
        metric.distance_many(center, &points[..m], &mut out);
        std::hint::black_box(&out);
        samples.push(t0.elapsed().as_nanos() as f64 / m as f64);
    }
    crate::stats::median(&samples)
}

/// Microseconds in `d`.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// The seconds a report attributes to `stage` (0 if absent).
pub fn stage_secs<P>(report: &Report<P>, stage: &str) -> f64 {
    report
        .timings
        .iter()
        .filter(|t| t.stage == stage)
        .map(|t| t.secs)
        .sum()
}
