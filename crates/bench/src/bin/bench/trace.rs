//! Outside-in tracing: every call the harness makes into a layer is
//! timed by a [`Tracer`]. Latencies are always kept (the end-to-end
//! numbers read them); in a traced pass each call also leaves a
//! [`Span`] in memory, written out as JSON-lines when the run ends.

use crate::json::Json;
use crate::stats::median_ns;
use std::collections::BTreeMap;
use std::time::Instant;

/// One timed call into a layer. Spans of one operation share `op_id`;
/// `parent` is the span that caused this one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub op_id: u64,
}

/// Handle of an open (or recorded) span, usable as a `parent`.
#[derive(Debug, Clone, Copy)]
pub struct SpanId {
    index: Option<u32>,
    start: Instant,
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    keep_spans: bool,
    pub spans: Vec<Span>,
    /// Durations in ns per span name, in call order.
    pub lat: BTreeMap<&'static str, Vec<u64>>,
}

impl Tracer {
    pub fn new(keep_spans: bool) -> Tracer {
        Tracer { origin: Instant::now(), keep_spans, spans: Vec::new(), lat: BTreeMap::new() }
    }

    /// Opens a span that will have children; close it with
    /// [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, op_id: u64, parent: Option<SpanId>) -> SpanId {
        let start = Instant::now();
        let index = self.keep_spans.then(|| {
            let at = start.duration_since(self.origin).as_nanos() as u64;
            self.spans.push(Span {
                name,
                start_ns: at,
                end_ns: at,
                parent: parent.and_then(|p| p.index),
                op_id,
            });
            (self.spans.len() - 1) as u32
        });
        SpanId { index, start }
    }

    /// Closes `span` and returns its duration in ns.
    pub fn close(&mut self, name: &'static str, span: SpanId) -> u64 {
        let ns = span.start.elapsed().as_nanos() as u64;
        if let Some(i) = span.index {
            let s = &mut self.spans[i as usize];
            s.end_ns = s.start_ns + ns;
        }
        self.lat.entry(name).or_default().push(ns);
        ns
    }

    /// Times one call into a layer.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        op_id: u64,
        parent: Option<SpanId>,
        call: impl FnOnce() -> T,
    ) -> T {
        let span = self.open(name, op_id, parent);
        let out = call();
        self.close(name, span);
        out
    }

    /// Folds another thread's tracer in (span order is per thread).
    pub fn absorb(&mut self, other: Tracer) {
        let shift = other.origin.saturating_duration_since(self.origin).as_nanos() as u64;
        let base = self.spans.len() as u32;
        for mut span in other.spans {
            span.start_ns += shift;
            span.end_ns += shift;
            span.parent = span.parent.map(|p| p + base);
            self.spans.push(span);
        }
        for (name, mut ns) in other.lat {
            self.lat.entry(name).or_default().append(&mut ns);
        }
    }

    /// The recorded durations of `name`, ascending.
    pub fn sorted(&self, name: &str) -> Vec<u64> {
        let mut ns = self.lat.get(name).cloned().unwrap_or_default();
        ns.sort_unstable();
        ns
    }

    /// Median duration of `name` in µs, `None` when it never ran.
    pub fn median_us(&self, name: &str) -> Option<f64> {
        let sorted = self.sorted(name);
        (!sorted.is_empty()).then(|| median_ns(&sorted) / 1e3)
    }

    pub fn count(&self, name: &str) -> usize {
        self.lat.get(name).map_or(0, Vec::len)
    }

    /// One JSON object per span, one per line.
    pub fn json_lines(&self) -> String {
        let mut out = String::new();
        for span in &self.spans {
            let parent = span.parent.map_or(Json::Null, |p| Json::from(p as usize));
            let line = Json::obj()
                .field("name", span.name)
                .field("start_ns", span.start_ns as usize)
                .field("end_ns", span.end_ns as usize)
                .field("parent", parent)
                .field("op_id", span.op_id as usize);
            out.push_str(&line.to_string());
            out.push('\n');
        }
        out
    }
}

/// Self time of every span: its duration minus the part its children
/// cover. Children of one parent never overlap here (the harness is the
/// only caller and calls in sequence), so covered time is their sum.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            let covered = span.end_ns - span.start_ns;
            own[parent as usize] = own[parent as usize].saturating_sub(covered);
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span { name, start_ns: start, end_ns: end, parent, op_id: 7 }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let spans = [
            span("replay", 0, 100, None),
            span("encode", 5, 25, Some(0)),
            span("query", 30, 90, Some(0)),
            span("retrieve", 35, 60, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![20, 20, 35, 25]);
    }

    #[test]
    fn latencies_are_kept_with_and_without_spans() {
        for keep in [false, true] {
            let mut t = Tracer::new(keep);
            let parent = t.open("outer", 1, None);
            let x = t.time("inner", 1, Some(parent), || 41 + 1);
            t.close("outer", parent);
            assert_eq!(x, 42);
            assert_eq!((t.count("outer"), t.count("inner"), t.count("absent")), (1, 1, 0));
            assert!(t.median_us("outer").unwrap() >= t.median_us("inner").unwrap());
            assert_eq!(t.median_us("absent"), None);
            assert_eq!(t.spans.len(), if keep { 2 } else { 0 });
            if keep {
                assert_eq!(t.spans[1].parent, Some(0));
                let own = self_times(&t.spans);
                assert!(own[0] <= t.spans[0].end_ns - t.spans[0].start_ns);
                assert_eq!(t.json_lines().lines().count(), 2);
            }
        }
    }

    #[test]
    fn absorb_rebases_parents() {
        let mut a = Tracer::new(true);
        a.time("x", 0, None, || ());
        let mut b = Tracer::new(true);
        let p = b.open("p", 1, None);
        b.time("c", 1, Some(p), || ());
        b.close("p", p);
        a.absorb(b);
        assert_eq!(a.spans.len(), 3);
        assert_eq!(a.spans[2].parent, Some(1));
        assert_eq!(a.count("c"), 1);
    }
}
