//! The repository's benchmark: four seeded workloads, each run in its
//! own process, printing every metric by name and unit and checking
//! every answer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <stream|mapreduce|serve-read|serve-churn|all> \
//!     --seed <n> --seconds <s> --trace <0|1> [--scale <x>]
//! ```
//!
//! An untraced run (`--trace 0`) installs no recorder and reports the
//! end-to-end metrics. A traced run measures the first half of its time
//! untraced and the second half with a recorder installed and spans
//! kept, and reports the per-layer metrics. The last line of standard
//! output is the result object; the line before it is the full record
//! (host fingerprint, parameters, and every metric's median, quartiles
//! and sample count). The exit code is non-zero if any output check
//! failed.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads /proc and the process CPU clock of 64-bit Linux");

mod calib;
mod openloop;
mod record;
mod stats;
mod trace;
mod workloads;

use calib::{Calibration, RefKind};
use record::{Fingerprint, Metric, Record, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;
use workloads::{batch, serve, Ctx, Measured};

/// The workloads, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 4] = ["stream", "mapreduce", "serve-read", "serve-churn"];

const USAGE: &str = "usage: perfbench --workload <stream|mapreduce|serve-read|serve-churn|all> \
                     [--seed N] [--seconds S] [--trace 0|1] [--scale X]";

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[derive(Clone, Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: f64,
}

fn parse_args(mut raw: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        scale: 1.0,
    };
    while let Some(flag) = raw.next() {
        let value = raw.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: {what}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad("not an unsigned integer"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("not a number"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad("must be in (0, 600]"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                }
            }
            "--scale" => {
                args.scale = value.parse().map_err(|_| bad("not a number"))?;
                if !(args.scale > 0.0 && args.scale <= 100.0) {
                    return Err(bad("must be in (0, 100]"));
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        scale: args.scale,
        nproc: nproc(),
        tracer: Tracer::new(Instant::now(), args.trace),
        // Only mapreduce's operations keep more than one thread busy,
        // on dense points.
        calib: if args.workload == "mapreduce" {
            Calibration::new(RefKind::HeapPoints, nproc())
        } else {
            Calibration::new(RefKind::Mixed, 1)
        },
    };
    let measured = match args.workload.as_str() {
        "stream" => batch::stream(&ctx),
        "mapreduce" => batch::mapreduce(&ctx),
        "serve-read" => serve::serve_read(&ctx),
        "serve-churn" => serve::serve_churn(&ctx),
        other => unreachable!("workload {other} was validated"),
    };
    let measured = match measured {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let record = assemble(&args, measured);
    if args.trace {
        let path = out_dir().join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
        match ctx.tracer.write_jsonl(&path) {
            Ok(()) => eprintln!(
                "perfbench: {} spans -> {}",
                ctx.tracer.len(),
                path.display()
            ),
            Err(e) => eprintln!("perfbench: writing spans to {}: {e}", path.display()),
        }
    }
    print_table(&record);
    for failure in &record.failures {
        eprintln!("perfbench: CHECK FAILED: {failure}");
    }
    println!("{}", record.to_json());
    println!("{}", record.result_line());
    if record.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Orders the measured metrics by catalog — the run mode's list first
/// — and checks the mode's list is complete and finite. Per-layer
/// metrics a workload does not exercise read 0.
fn assemble(args: &Args, mut measured: Measured) -> Record {
    let (primary, secondary) = if args.trace {
        (PER_LAYER, END_TO_END)
    } else {
        (END_TO_END, PER_LAYER)
    };
    let mut metrics = Vec::new();
    for spec in primary.iter().chain(secondary) {
        let found = measured.metrics.iter().position(|m| m.name == spec.name);
        match found.map(|i| measured.metrics.swap_remove(i)) {
            Some(metric) => metrics.push(metric),
            None if args.trace && primary.iter().any(|s| s.name == spec.name) => {
                metrics.push(
                    Metric::single(spec.name, 0.0).with_note("not exercised by this workload"),
                );
            }
            None if primary.iter().any(|s| s.name == spec.name) => {
                measured
                    .failures
                    .push(format!("end-to-end metric {} was not measured", spec.name));
            }
            None => {}
        }
    }
    for metric in &metrics {
        if primary.iter().any(|s| s.name == metric.name) && !metric.value.is_finite() {
            measured
                .failures
                .push(format!("metric {} is not finite", metric.name));
        }
    }
    let mut failures = measured.failures;
    for extra in &measured.metrics {
        failures.push(format!("metric {} is not in the catalog", extra.name));
    }
    Record {
        workload: args.workload.clone(),
        seed: args.seed,
        scale: args.scale,
        seconds: args.seconds,
        trace: args.trace,
        fingerprint: Fingerprint::current(),
        attempted: measured.attempted.max(1),
        failed: measured.failed,
        failures,
        metrics,
        params: measured.params,
    }
}

/// Where spans are written: in the build's target directory, never in
/// the source tree.
fn out_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").map_or_else(
        || PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/target")),
        PathBuf::from,
    );
    target.join("perfbench-out")
}

/// A readable table of the run's metrics, on standard error.
fn print_table(record: &Record) {
    eprintln!(
        "perfbench {} seed={} seconds={} trace={} nproc={} simd={}",
        record.workload,
        record.seed,
        record.seconds,
        u8::from(record.trace),
        record.fingerprint.nproc,
        record.fingerprint.simd
    );
    for m in &record.metrics {
        let unit = record::find_spec(m.name).map_or("", |s| s.unit);
        let spread = m
            .summary
            .map(|s| format!("q1={:.4} q3={:.4} n={}", s.q1, s.q3, s.n))
            .unwrap_or_default();
        let note = m.note.as_deref().unwrap_or("");
        eprintln!(
            "  {:<32} {:>16.4} {:<6} {spread} {note}",
            m.name, m.value, unit
        );
    }
}

/// Runs every workload, each in a child process of this binary, and
/// fails if any of them does.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: locating this binary: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut all_ok = true;
    for workload in WORKLOADS {
        let status = std::process::Command::new(&exe)
            .args(["--workload", workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .args(["--scale", &args.scale.to_string()])
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("perfbench: {workload} failed ({s})");
                all_ok = false;
            }
            Err(e) => {
                eprintln!("perfbench: running {workload}: {e}");
                all_ok = false;
            }
        }
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn arguments_parse_and_reject() {
        let a = parse(&[
            "--workload",
            "serve-read",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve-read", 7, 10.0, true)
        );
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--workload", "stream", "--trace", "2"]).is_err());
        assert!(parse(&["--workload", "stream", "--seconds", "0"]).is_err());
        assert!(parse(&["--workload", "stream", "--seed"]).is_err());
        assert!(parse(&[]).is_err());
    }
}
