//! Spans recorded around the benchmark's calls into each layer.
//!
//! A span is named `layer.operation`; its layer is the part before the
//! first dot (`bench` for the benchmark's own bookkeeping). Spans live in
//! memory and are written out once, when the run ends. With tracing off
//! every call is a no-op, so untraced runs do the same work without the
//! bookkeeping.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

struct Span {
    name: &'static str,
    start: Instant,
    end: Instant,
    parent: Option<SpanId>,
    /// Batch, request, or run number the span belongs to.
    id: u64,
    counts: Vec<(&'static str, f64)>,
}

/// An in-memory span recorder; one per thread, merged with
/// [`Tracer::absorb`].
pub struct Tracer {
    epoch: Instant,
    on: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder whose timestamps count from `epoch`; records nothing
    /// unless `on`.
    pub fn new(epoch: Instant, on: bool) -> Self {
        Tracer { epoch, on, spans: Vec::new() }
    }

    /// A recorder for another thread, sharing this one's epoch and switch.
    pub fn fork(&self) -> Self {
        Tracer::new(self.epoch, self.on)
    }

    /// Records a span from `start` to `end`; its id can parent spans
    /// recorded after it.
    pub fn span(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        id: u64,
        start: Instant,
        end: Instant,
    ) -> Option<SpanId> {
        if !self.on {
            return None;
        }
        self.spans.push(Span { name, start, end, parent, id, counts: Vec::new() });
        Some(self.spans.len() - 1)
    }

    /// Attaches a count to `span`.
    pub fn count(&mut self, span: Option<SpanId>, key: &'static str, value: f64) {
        if let Some(s) = span {
            self.spans[s].counts.push((key, value));
        }
    }

    /// Appends another thread's spans.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    fn duration_ms(s: &Span) -> f64 {
        (s.end - s.start).as_secs_f64() * 1e3
    }

    /// Per span, the milliseconds its direct children cover.
    fn child_ms(&self) -> Vec<f64> {
        let mut child_ms = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ms[p] += Self::duration_ms(s);
            }
        }
        child_ms
    }

    /// Self time per layer, milliseconds: each span's duration minus the
    /// part its children cover.
    pub fn self_time_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut layers = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(self.child_ms()) {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            *layers.entry(layer).or_insert(0.0) += Self::duration_ms(s) - children;
        }
        layers
    }

    /// Share of the `parent`-named spans' time that their children cover.
    pub fn coverage(&self, parent: &str) -> f64 {
        let (mut total, mut covered) = (0.0, 0.0);
        for (s, children) in self.spans.iter().zip(self.child_ms()) {
            if s.name == parent {
                total += Self::duration_ms(s);
                covered += children;
            }
        }
        if total > 0.0 {
            covered / total
        } else {
            0.0
        }
    }

    /// Renders the environment block and every span as JSON, one span per
    /// line; times are microseconds since the epoch.
    pub fn to_json(&self, env: &[(&str, String)]) -> String {
        let mut out = String::from("{\"env\":{");
        for (i, (k, v)) in env.iter().enumerate() {
            let _ = write!(out, "{}\"{k}\":{v}", if i > 0 { "," } else { "" });
        }
        out.push_str("},\n\"spans\":[\n");
        let us = |t: Instant| (t - self.epoch).as_secs_f64() * 1e6;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"i\":{i},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"parent\":{parent},\"id\":{}",
                s.name,
                us(s.start),
                us(s.end),
                s.id
            );
            if !s.counts.is_empty() {
                out.push_str(",\"counts\":{");
                for (j, (k, v)) in s.counts.iter().enumerate() {
                    let _ = write!(out, "{}\"{k}\":{v}", if j > 0 { "," } else { "" });
                }
                out.push('}');
            }
            out.push_str(if i + 1 < self.spans.len() { "},\n" } else { "}\n" });
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children_and_coverage_sums_them() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let mut tr = Tracer::new(t0, true);
        let root = tr.span("bench.publish", None, 1, at(0), at(10));
        tr.span("dynamic.apply", root, 1, at(0), at(6));
        let ap = tr.span("approx.refresh", root, 1, at(6), at(9));
        tr.count(ap, "resampled", 2.0);
        let layers = tr.self_time_ms();
        assert!((layers["bench"] - 1.0).abs() < 1e-9);
        assert!((layers["dynamic"] - 6.0).abs() < 1e-9);
        assert!((layers["approx"] - 3.0).abs() < 1e-9);
        assert!((tr.coverage("bench.publish") - 0.9).abs() < 1e-9);
        let json = tr.to_json(&[("nproc", "2".into())]);
        assert!(json.starts_with("{\"env\":{\"nproc\":2}"));
        assert!(json.contains("\"counts\":{\"resampled\":2}"));
        assert_eq!(json.matches("\"name\":").count(), 3);
    }

    #[test]
    fn absorbed_spans_keep_their_parents() {
        let t0 = Instant::now();
        let mut main = Tracer::new(t0, true);
        main.span("bench.setup", None, 0, t0, t0);
        let mut worker = main.fork();
        let p = worker.span("serve.request", None, 7, t0, t0);
        worker.span("serve.inner", p, 7, t0, t0);
        main.absorb(worker);
        assert_eq!(main.len(), 3);
        assert!(main
            .to_json(&[])
            .contains("\"name\":\"serve.inner\",\"start_us\":0.000,\"end_us\":0.000,\"parent\":1"));
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let t0 = Instant::now();
        let mut tr = Tracer::new(t0, false);
        let s = tr.span("bench.x", None, 0, t0, t0);
        tr.count(s, "n", 1.0);
        assert!(s.is_none());
        assert_eq!(tr.len(), 0);
    }
}
