//! The benchmark record: metric catalog, host fingerprint, and the one
//! serializer behind both the full record line and the final result
//! line.

use crate::stats::Summary;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Whether a larger or a smaller value of a metric is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One catalog entry: a metric's name, unit and direction.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn spec(name: &'static str, unit: &'static str, better: Better) -> Spec {
    Spec { name, unit, better }
}

use Better::{Higher, Lower};

/// End-to-end metrics, printed by every untraced run of every workload.
/// The gated costs, `op_cpu_norm_us` and `setup_s`, are CPU times
/// normalized to a nominal host (see `calib`): on a shared host the
/// wall time of the same operation moved by 30–60% between runs as
/// other tenants' load came and went, and its CPU time by 15–20% as the
/// host's speed drifted, both more than any allowed bound.
pub const END_TO_END: &[Spec] = &[
    spec("op_cpu_norm_us", "us", Lower),
    spec("value_ratio", "ratio", Higher),
    spec("peak_local_points", "count", Lower),
    spec("ok_share", "ratio", Higher),
    spec("setup_s", "s", Lower),
    spec("peak_rss_mb", "MB", Lower),
];

/// Per-layer metrics, printed by every traced run of every workload (0
/// where the workload does not exercise the layer). The wall-clock
/// figures a user waits for — `op_p50_us`, `op_tail_us` and the batch
/// workloads' `points_per_s` — are listed here rather than gated: on a
/// shared 2-vCPU host they did not repeat within any allowed bound (the
/// median's quartiles spread 30–60% of it over ten seeds, the serving
/// p90 ranged 0.8–9.8 ms). So are the raw CPU time `op_cpu_us` and the
/// reference computation's CPU time `host.ref_us`, the host speed the
/// gated figures were normalized by.
pub const PER_LAYER: &[Spec] = &[
    spec("op_p50_us", "us", Lower),
    spec("op_cpu_us", "us", Lower),
    spec("host.ref_us", "us", Lower),
    spec("op_tail_us", "us", Lower),
    spec("points_per_s", "1/s", Higher),
    spec("metric.distances", "count", Lower),
    spec("metric.ns_per_distance", "ns", Lower),
    spec("streaming.pass_s", "s", Lower),
    spec("streaming.phases", "count", Lower),
    spec("streaming.merges", "count", Lower),
    spec("streaming.peak_points", "count", Lower),
    spec("core.coreset_s", "s", Lower),
    spec("core.gmm_relaxations", "count", Lower),
    spec("core.solve_s", "s", Lower),
    spec("mapreduce.round1_s", "s", Lower),
    spec("mapreduce.round2_s", "s", Lower),
    spec("mapreduce.shuffle_points", "count", Lower),
    spec("mapreduce.m_local", "count", Lower),
    spec("mapreduce.parallel_efficiency", "ratio", Higher),
    spec("mapreduce.straggler_ratio", "ratio", Lower),
    spec("serve.extract_us", "us", Lower),
    spec("serve.combine_us", "us", Lower),
    spec("serve.lock_wait_us", "us", Lower),
    spec("serve.query_inproc_us", "us", Lower),
    spec("serve.unattributed_us", "us", Lower),
    spec("serve.insert_inproc_us", "us", Lower),
    spec("serve.checkpoint_ms", "ms", Lower),
    spec("serve.query_wire_p50_us", "us", Lower),
    spec("serve.query_wire_p99_us", "us", Lower),
    spec("serve.mutate_wire_p50_us", "us", Lower),
    spec("serve.mutate_wire_p99_us", "us", Lower),
    spec("dynamic.insert_us", "us", Lower),
    spec("dynamic.delete_us", "us", Lower),
    spec("net.checkpoint_ms", "ms", Lower),
    spec("net.fence_share", "ratio", Lower),
    spec("net.overhead_us", "us", Lower),
    spec("net.coalesced_share", "ratio", Higher),
    spec("net.rejected_share", "ratio", Lower),
    spec("wire.checkpoint_bytes", "bytes", Lower),
    spec("wire.response_bytes", "bytes", Lower),
    spec("wire.encode_us", "us", Lower),
    spec("wire.decode_us", "us", Lower),
    spec("gen.late_p50_us", "us", Lower),
    spec("gen.late_max_us", "us", Lower),
    spec("trace.overhead", "ratio", Lower),
    spec("trace.residual_share", "ratio", Lower),
];

/// The catalog entry for `name`, in either list.
pub fn find_spec(name: &str) -> Option<&'static Spec> {
    END_TO_END.iter().chain(PER_LAYER).find(|s| s.name == name)
}

/// One measured metric: the reported value plus the distribution it
/// came from.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub summary: Option<Summary>,
    /// Free-form qualifier (e.g. which percentile a tail is).
    pub note: Option<String>,
}

impl Metric {
    /// The median of `samples`.
    pub fn median_of(name: &'static str, samples: &[f64]) -> Metric {
        let summary = Summary::of(samples);
        Metric {
            name,
            value: summary.map_or(f64::NAN, |s| s.median),
            summary,
            note: None,
        }
    }

    /// A single derived or counted value.
    pub fn single(name: &'static str, value: f64) -> Metric {
        Metric {
            name,
            value,
            summary: Summary::of(&[value]),
            note: None,
        }
    }

    pub fn with_value(mut self, value: f64) -> Metric {
        self.value = value;
        self
    }

    pub fn with_note(mut self, note: impl Into<String>) -> Metric {
        self.note = Some(note.into());
        self
    }
}

/// Where and how a record was made.
#[derive(Clone, Debug)]
pub struct Fingerprint {
    pub nproc: usize,
    pub simd: &'static str,
    pub rustc: &'static str,
    pub git_sha: String,
}

impl Fingerprint {
    pub fn current() -> Fingerprint {
        Fingerprint {
            nproc: crate::nproc(),
            simd: diversity::metric::simd::dispatch_label(),
            rustc: env!("PERFBENCH_RUSTC"),
            git_sha: git_sha().unwrap_or_else(|| "unknown".into()),
        }
    }
}

/// The checked-out commit, read from `.git` without spawning git;
/// `None` outside a git checkout.
fn git_sha() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(sha) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(sha.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed.lines().find_map(|line| {
        let (sha, name) = line.split_once(' ')?;
        (name == reference).then(|| sha.to_string())
    })
}

/// A workload run's full record.
#[derive(Clone, Debug)]
pub struct Record {
    pub workload: String,
    pub seed: u64,
    pub scale: f64,
    pub seconds: f64,
    pub trace: bool,
    pub fingerprint: Fingerprint,
    pub attempted: u64,
    pub failed: u64,
    /// Output checks that failed; the run is correct iff empty.
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Workload parameters (sizes, rates) for the record.
    pub params: BTreeMap<&'static str, f64>,
}

impl Record {
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// The full record as one JSON object.
    pub fn to_json(&self) -> String {
        let fp = &self.fingerprint;
        let mut out = String::from("{");
        field_str(&mut out, "workload", &self.workload);
        field_raw(&mut out, "seed", &self.seed.to_string());
        field_raw(&mut out, "scale", &num(self.scale));
        field_raw(&mut out, "seconds", &num(self.seconds));
        field_raw(&mut out, "trace", if self.trace { "true" } else { "false" });
        let mut host = String::from("{");
        field_raw(&mut host, "nproc", &fp.nproc.to_string());
        field_str(&mut host, "simd", fp.simd);
        field_str(&mut host, "rustc", fp.rustc);
        field_str(&mut host, "git_sha", &fp.git_sha);
        close(&mut host);
        field_raw(&mut out, "host", &host);
        let mut params = String::from("{");
        for (key, value) in &self.params {
            field_raw(&mut params, key, &num(*value));
        }
        close(&mut params);
        field_raw(&mut out, "params", &params);
        self.write_counts(&mut out);
        let failures: Vec<String> = self.failures.iter().map(|f| quote(f)).collect();
        field_raw(&mut out, "failures", &format!("[{}]", failures.join(",")));
        let mut metrics = String::from("{");
        for m in &self.metrics {
            let spec = find_spec(m.name).expect("every emitted metric is in the catalog");
            let mut entry = String::from("{");
            field_raw(&mut entry, "value", &num(m.value));
            field_str(&mut entry, "unit", spec.unit);
            field_str(&mut entry, "better", spec.better.as_str());
            if let Some(s) = m.summary {
                field_raw(&mut entry, "median", &num(s.median));
                field_raw(&mut entry, "q1", &num(s.q1));
                field_raw(&mut entry, "q3", &num(s.q3));
                field_raw(&mut entry, "n", &s.n.to_string());
            }
            if let Some(note) = &m.note {
                field_str(&mut entry, "note", note);
            }
            close(&mut entry);
            field_raw(&mut metrics, m.name, &entry);
        }
        close(&mut metrics);
        field_raw(&mut out, "metrics", &metrics);
        close(&mut out);
        out
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics` — value and unit of every metric of the run's mode
    /// (per-layer when traced, end-to-end otherwise).
    pub fn result_line(&self) -> String {
        let mode = if self.trace { PER_LAYER } else { END_TO_END };
        let mut out = String::from("{");
        self.write_counts(&mut out);
        let mut metrics = String::from("{");
        for m in &self.metrics {
            let Some(spec) = mode.iter().find(|s| s.name == m.name) else {
                continue;
            };
            let mut entry = String::from("{");
            field_raw(&mut entry, "value", &num(m.value));
            field_str(&mut entry, "unit", spec.unit);
            close(&mut entry);
            field_raw(&mut metrics, m.name, &entry);
        }
        close(&mut metrics);
        field_raw(&mut out, "metrics", &metrics);
        close(&mut out);
        out
    }

    fn write_counts(&self, out: &mut String) {
        field_raw(
            out,
            "correct",
            if self.correct() { "true" } else { "false" },
        );
        field_raw(out, "attempted", &self.attempted.to_string());
        field_raw(out, "failed", &self.failed.to_string());
    }
}

/// A JSON number with every digit Rust's shortest round-trip form
/// gives; non-finite values become `null` (and fail the run's checks).
pub fn num(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".into()
    }
}

/// A JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn field_raw(out: &mut String, key: &str, raw: &str) {
    if !out.ends_with('{') {
        out.push(',');
    }
    out.push_str(&quote(key));
    out.push(':');
    out.push_str(raw);
}

fn field_str(out: &mut String, key: &str, value: &str) {
    field_raw(out, key, &quote(value));
}

fn close(out: &mut String) {
    out.push('}');
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether `name` is a valid metric or workload name: 1–64 characters
    /// of `[A-Za-z0-9_.-]`, starting with a letter or digit.
    pub fn valid_name(name: &str) -> bool {
        let mut chars = name.chars();
        let Some(first) = chars.next() else {
            return false;
        };
        name.len() <= 64
            && first.is_ascii_alphanumeric()
            && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    /// Whether `unit` is a valid unit: 1–16 characters of
    /// `[A-Za-z0-9_/%.-]`.
    pub fn valid_unit(unit: &str) -> bool {
        (1..=16).contains(&unit.len())
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_and_units_follow_the_contract() {
        for spec in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(spec.name), "{}", spec.name);
            assert!(valid_unit(spec.unit), "{}", spec.unit);
        }
        for name in crate::WORKLOADS {
            assert!(valid_name(name), "{name}");
        }
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|s| s.name).collect();
        names.extend(crate::WORKLOADS);
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), before, "every name is used once");
        assert!(PER_LAYER.len() <= 128 && (1..=16).contains(&END_TO_END.len()));
    }

    #[test]
    fn name_validation_rejects_what_the_contract_forbids() {
        for bad in [
            "",
            "-lead",
            ".lead",
            "has space",
            "a/b",
            "é",
            &"x".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        for good in [
            "a",
            "9lives",
            "serve-read",
            "net.overhead_us",
            &"x".repeat(64),
        ] {
            assert!(valid_name(good), "{good:?}");
        }
        assert!(valid_unit("1/s") && valid_unit("%") && !valid_unit("") && !valid_unit("m s"));
    }

    #[test]
    fn setup_s_is_an_end_to_end_seconds_metric() {
        let setup = END_TO_END.iter().find(|s| s.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
    }

    #[test]
    fn catalog_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let compact: String = json.split_whitespace().collect();
        for (list, specs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let start = compact.find(&format!("\"{list}\":[")).expect(list);
            let body = &compact[start..];
            let body = &body[..body.find(']').unwrap()];
            assert_eq!(body.matches("\"name\"").count(), specs.len(), "{list}");
            for s in specs {
                let entry = format!(
                    "\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"{}\"",
                    s.name,
                    s.unit,
                    s.better.as_str()
                );
                assert!(body.contains(&entry), "{list} lacks {entry}");
            }
        }
        for name in crate::WORKLOADS {
            assert!(
                compact.contains(&format!("{{\"name\":\"{name}\"")),
                "{name}"
            );
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let record = Record {
            workload: "stream".into(),
            seed: 1,
            scale: 1.0,
            seconds: 1.0,
            trace: false,
            fingerprint: Fingerprint {
                nproc: 2,
                simd: "scalar",
                rustc: "rustc",
                git_sha: "abc".into(),
            },
            attempted: 3,
            failed: 0,
            failures: Vec::new(),
            metrics: vec![
                Metric::median_of("op_cpu_norm_us", &[1.5, 2.5, 3.5]),
                Metric::single("op_p50_us", 9.0),
            ],
            params: BTreeMap::new(),
        };
        assert_eq!(
            record.result_line(),
            "{\"correct\":true,\"attempted\":3,\"failed\":0,\
             \"metrics\":{\"op_cpu_norm_us\":{\"value\":2.5,\"unit\":\"us\"}}}"
        );
        assert!(record.to_json().contains("\"q3\":3.5,\"n\":3"));
        assert_eq!(num(f64::NAN), "null");
        assert_eq!(quote("a\"b\n"), "\"a\\\"b\\n\"");
    }
}
