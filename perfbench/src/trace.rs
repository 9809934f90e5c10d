//! In-memory spans for the traced run, recorded from the benchmark's
//! own code around its calls into each layer and written out when the
//! run ends.

use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span. Spans of one request share `request`; `parent`
/// is the id of the span that caused this one.
#[derive(Clone, Debug)]
pub struct SpanRec {
    pub id: u64,
    pub parent: Option<u64>,
    pub request: u64,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A span sink. Disabled tracers drop every span, so untraced phases
/// pay one branch per call site.
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    next_id: AtomicU64,
    next_request: AtomicU64,
    spans: Mutex<Vec<SpanRec>>,
}

impl Tracer {
    pub fn new(origin: Instant, enabled: bool) -> Tracer {
        Tracer {
            origin,
            enabled,
            next_id: AtomicU64::new(1),
            next_request: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// A fresh request id for a group of spans.
    pub fn new_request(&self) -> u64 {
        self.next_request.fetch_add(1, Ordering::Relaxed)
    }

    fn offset_ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a span from `start` to `end`; returns its id (0 when
    /// disabled).
    pub fn record(
        &self,
        request: u64,
        parent: Option<u64>,
        name: &str,
        start: Instant,
        end: Instant,
    ) -> u64 {
        if !self.enabled {
            return 0;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let span = SpanRec {
            id,
            parent,
            request,
            name: name.to_string(),
            start_ns: self.offset_ns(start),
            end_ns: self.offset_ns(end),
        };
        self.spans.lock().expect("span sink poisoned").push(span);
        id
    }

    /// Records `secs`-long child spans laid end to end from `start`,
    /// for stage timings a layer reports about itself.
    pub fn record_stages<'a>(
        &self,
        request: u64,
        parent: u64,
        start: Instant,
        stages: impl IntoIterator<Item = (&'a str, f64)>,
    ) {
        if !self.enabled {
            return;
        }
        let mut at = start;
        for (name, secs) in stages {
            let end = at + std::time::Duration::from_secs_f64(secs.max(0.0));
            self.record(request, Some(parent), name, at, end);
            at = end;
        }
    }

    pub fn len(&self) -> usize {
        self.spans.lock().expect("span sink poisoned").len()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans.lock().expect("span sink poisoned").iter() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id,
                parent,
                s.request,
                crate::record::quote(&s.name),
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn disabled_tracer_keeps_nothing_and_enabled_links_parents() {
        let t0 = Instant::now();
        let off = Tracer::new(t0, false);
        assert_eq!(off.record(1, None, "x", t0, t0), 0);
        assert_eq!(off.len(), 0);

        let on = Tracer::new(t0, true);
        let root = on.record(7, None, "op", t0, t0 + Duration::from_millis(3));
        on.record_stages(7, root, t0, [("a", 0.001), ("b", 0.002)]);
        let spans = on.spans.lock().unwrap().clone();
        assert_eq!(spans.len(), 3);
        assert!(spans.iter().all(|s| s.request == 7));
        assert_eq!(spans[1].parent, Some(root));
        assert_eq!(spans[2].start_ns, spans[1].end_ns);
    }
}
