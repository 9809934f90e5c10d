//! Shared harness utilities for the experiment benches.
//!
//! Every `benches/*.rs` target (one per table/figure of the paper) uses
//! these helpers for: environment-based scaling, paper-style table
//! printing, and reference-solution computation.
//!
//! ## Scaling
//!
//! The paper's experiments run up to 1.6 billion points on a 16-node
//! cluster; the defaults here are laptop-sized. Scale with:
//!
//! * `DIVMAX_SCALE` — positive, finite multiplier applied to every
//!   dataset size (e.g. `DIVMAX_SCALE=10 cargo bench` for a 10× run);
//!   any other value panics naming the variable;
//! * `DIVMAX_TRIALS` — number of repetitions averaged per cell
//!   (default 3; the paper averages ≥ 10).
//!
//! ## Records
//!
//! Benches that keep a machine-readable record write it to
//! [`record_path`]: `BENCH_<name>.json` at the repository root for a
//! full-scale run, under `target/bench-smoke/` for any other scale, so
//! a scaled-down smoke run never overwrites a committed reference.

use diversity_core::{pipeline, Problem};
use diversity_mapreduce::partition::split_random;
use diversity_mapreduce::two_round::two_round;
use diversity_mapreduce::MapReduceRuntime;
use metric::Metric;
use std::path::PathBuf;
use std::sync::OnceLock;
use std::time::Instant;

/// Parses a `DIVMAX_SCALE` value: a positive, finite float
/// (whitespace-trimmed). Anything else is an error saying why.
pub fn parse_scale(raw: &str) -> Result<f64, String> {
    let scale: f64 = raw.trim().parse().map_err(|_| "not a number".to_string())?;
    if scale.is_finite() && scale > 0.0 {
        Ok(scale)
    } else {
        Err("not a positive, finite number".to_string())
    }
}

/// The `DIVMAX_SCALE` multiplier (default 1), parsed once.
///
/// # Panics
/// Panics, naming the variable and its value, if `DIVMAX_SCALE` is set
/// to anything [`parse_scale`] rejects.
pub fn scale() -> f64 {
    static SCALE: OnceLock<f64> = OnceLock::new();
    *SCALE.get_or_init(|| match std::env::var("DIVMAX_SCALE") {
        Err(std::env::VarError::NotPresent) => 1.0,
        Err(std::env::VarError::NotUnicode(raw)) => {
            panic!("DIVMAX_SCALE={raw:?}: not valid unicode")
        }
        Ok(raw) => parse_scale(&raw).unwrap_or_else(|e| panic!("DIVMAX_SCALE={raw:?}: {e}")),
    })
}

/// Applies `DIVMAX_SCALE` to a default dataset size.
pub fn scaled(default_n: usize) -> usize {
    ((default_n as f64) * scale()).max(1.0) as usize
}

/// Where a bench writes its record `BENCH_<name>.json`: the repository
/// root at full scale, `target/bench-smoke/` (created if missing) at
/// any other [`scale`].
pub fn record_path(name: &str) -> PathBuf {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let dir = if scale() == 1.0 {
        root
    } else {
        let smoke = root.join("target/bench-smoke");
        std::fs::create_dir_all(&smoke).expect("create target/bench-smoke");
        smoke
    };
    dir.join(format!("BENCH_{name}.json"))
}

/// Number of trials per experimental cell (`DIVMAX_TRIALS`, default 3).
pub fn trials() -> usize {
    std::env::var("DIVMAX_TRIALS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .unwrap_or(3)
        .max(1)
}

/// A paper-style results table, printed as aligned plain text (the
/// same rows/series the paper's figures plot).
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given title and column names.
    pub fn new(title: &str, header: &[&str]) -> Self {
        Self {
            title: title.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (stringified cells).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "column count mismatch");
        self.rows.push(cells);
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        println!("\n### {}", self.title);
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let line = |cells: &[String]| {
            let mut out = String::new();
            for (i, c) in cells.iter().enumerate() {
                out.push_str(&format!("{:>width$}  ", c, width = widths[i]));
            }
            out
        };
        println!("{}", line(&self.header));
        println!(
            "{}",
            "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
        );
        for row in &self.rows {
            println!("{}", line(row));
        }
    }
}

/// Times a closure, returning (result, seconds).
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed().as_secs_f64())
}

/// Computes the reference ("best known") value the paper normalizes
/// ratios by: "the best solution found by many runs of our MapReduce
/// algorithm with maximum parallelism and large local memory", plus —
/// where the caller knows one — a planted lower bound.
///
/// Runs the 2-round algorithm with ℓ = 16 and a generous `k' = 8k`
/// across three seeds, plus a single-machine core-set run, and returns
/// the best value seen.
pub fn reference_value<P, M>(
    problem: Problem,
    points: &[P],
    metric: &M,
    k: usize,
    planted: Option<f64>,
) -> f64
where
    P: Clone + Send + Sync,
    M: Metric<P>,
{
    let rt = MapReduceRuntime::default();
    let k_prime = 8 * k;
    let mut best = planted.unwrap_or(f64::NEG_INFINITY);
    for seed in [11u64, 22, 33] {
        let parts = split_random(points.to_vec(), 16, seed);
        let out = two_round(problem, &parts, metric, k, k_prime, &rt);
        best = best.max(out.solution.value);
    }
    let single = pipeline::coreset_then_solve(problem, points, metric, k, k_prime);
    best.max(single.value)
}

/// Formats a ratio for table cells.
pub fn fmt_ratio(reference: f64, value: f64) -> String {
    if value <= 0.0 {
        return "inf".to_string();
    }
    format!("{:.3}", reference / value)
}

/// Formats seconds compactly.
pub fn fmt_secs(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.2}s")
    } else {
        format!("{:.1}ms", s * 1e3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_default_is_identity() {
        // (assumes DIVMAX_SCALE unset in the test environment)
        if std::env::var("DIVMAX_SCALE").is_err() {
            assert_eq!(scaled(1000), 1000);
        }
    }

    #[test]
    fn scale_accepts_positive_finite_values() {
        assert_eq!(parse_scale("1"), Ok(1.0));
        assert_eq!(parse_scale("0.1"), Ok(0.1));
        assert_eq!(parse_scale(" 10 "), Ok(10.0));
        assert_eq!(parse_scale("1e-3"), Ok(0.001));
    }

    #[test]
    fn scale_rejects_everything_else() {
        for bad in [
            "", " ", "0.1x", "x", "1,5", "nan", "NaN", "inf", "-inf", "infinity", "-1", "0", "-0",
            "0.0", "1e400",
        ] {
            assert!(parse_scale(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn record_path_names_the_record() {
        let path = record_path("unit");
        assert_eq!(path.file_name().unwrap(), "BENCH_unit.json");
        let smoke = path.parent().unwrap().ends_with("target/bench-smoke");
        assert_eq!(smoke, scale() != 1.0);
    }

    #[test]
    fn table_rejects_mismatched_rows() {
        let mut t = Table::new("t", &["a", "b"]);
        t.row(vec!["1".into(), "2".into()]);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            t.row(vec!["only-one".into()])
        }));
        assert!(r.is_err());
    }

    #[test]
    fn ratio_formatting() {
        assert_eq!(fmt_ratio(2.0, 1.0), "2.000");
        assert_eq!(fmt_ratio(1.0, 0.0), "inf");
    }

    #[test]
    fn secs_formatting() {
        assert_eq!(fmt_secs(2.5), "2.50s");
        assert_eq!(fmt_secs(0.0123), "12.3ms");
    }
}
