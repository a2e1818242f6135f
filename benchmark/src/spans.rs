//! In-memory spans recorded around calls into the layers, and their
//! aggregation after the run.
//!
//! A span is `(id, parent, name, start_ns, end_ns)`; its id is its index in
//! the recorder's vector, which is sized before the run so that recording
//! never reallocates while the clock is running. Nothing is aggregated or
//! written until the run has ended.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::stats::{growth, percentile};

/// Parent id of a span opened while no other span was open.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Span name, `<layer>.<call>`.
    pub name: &'static str,
    /// Id of the span that was open when this one started.
    pub parent: u32,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans in call order.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// A recorder with room for `capacity` spans.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(8),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one and returns its id.
    pub fn enter(&mut self, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        self.open.push(id);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    /// Closes span `id`.
    ///
    /// # Panics
    ///
    /// Panics unless `id` is the innermost open span: spans nest.
    pub fn exit(&mut self, id: u32) {
        let end_ns = self.now_ns();
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id as usize].end_ns = end_ns;
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// The recorded spans, in the order they were opened.
    ///
    /// # Panics
    ///
    /// Panics if a span is still open.
    #[must_use]
    pub fn finish(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "span left open: {:?}", self.open);
        self.spans
    }
}

/// Runs `f` inside a span when there is a recorder, bare when tracing is off.
pub fn span_if<T>(tracer: Option<&mut Tracer>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match tracer {
        Some(tracer) => tracer.span(name, f),
        None => f(),
    }
}

/// Everything the report says about one span name.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SpanStats {
    /// Calls.
    pub count: u64,
    /// Sum of durations, nanoseconds.
    pub busy_ns: u64,
    /// Sum of durations minus the part child spans cover, nanoseconds.
    pub self_ns: u64,
    /// Median duration, when at least ten samples lie beyond it.
    pub p50_ns: Option<u64>,
    /// 99th-percentile duration, when at least ten samples lie beyond it.
    pub p99_ns: Option<u64>,
    /// Mean duration of the last decile of calls over the first decile's.
    pub growth: Option<f64>,
}

/// Aggregates spans by name. Sorted by name, so reports are diffable.
#[must_use]
pub fn aggregate(spans: &[Span]) -> BTreeMap<&'static str, SpanStats> {
    let mut covered_by_children = vec![0u64; spans.len()];
    for span in spans {
        if span.parent != NO_PARENT {
            covered_by_children[span.parent as usize] += span.duration_ns();
        }
    }
    let mut durations: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    let mut out: BTreeMap<&'static str, SpanStats> = BTreeMap::new();
    for (span, covered) in spans.iter().zip(&covered_by_children) {
        let stats = out.entry(span.name).or_default();
        stats.count += 1;
        stats.busy_ns += span.duration_ns();
        stats.self_ns += span.duration_ns().saturating_sub(*covered);
        durations
            .entry(span.name)
            .or_default()
            .push(span.duration_ns());
    }
    for (name, in_call_order) in &mut durations {
        let stats = out.get_mut(name).expect("same keys");
        stats.growth = growth(in_call_order);
        in_call_order.sort_unstable();
        stats.p50_ns = percentile(in_call_order, 50);
        stats.p99_ns = percentile(in_call_order, 99);
    }
    out
}

/// Renders spans as JSON lines for `--spans-out`.
#[must_use]
pub fn to_json_lines(spans: &[Span]) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(spans.len() * 96);
    for (id, span) in spans.iter().enumerate() {
        let parent = if span.parent == NO_PARENT {
            "null".to_string()
        } else {
            span.parent.to_string()
        };
        let _ = writeln!(
            out,
            "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            span.name, span.start_ns, span.end_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_what_children_cover() {
        // root 0..100 holds a 10..40 and b 50..70; a holds c 20..25.
        let spans = [
            span("root", NO_PARENT, 0, 100),
            span("a", 0, 10, 40),
            span("c", 1, 20, 25),
            span("b", 0, 50, 70),
        ];
        let stats = aggregate(&spans);
        assert_eq!(stats["root"].busy_ns, 100);
        assert_eq!(stats["root"].self_ns, 50);
        assert_eq!(stats["a"].self_ns, 25);
        assert_eq!(stats["c"].self_ns, 5);
        assert_eq!(stats["b"].self_ns, 20);
        let total_self: u64 = stats.values().map(|s| s.self_ns).sum();
        assert_eq!(total_self, 100, "self times partition the root");
    }

    #[test]
    fn percentiles_appear_only_with_enough_samples() {
        let few: Vec<Span> = (0..19).map(|i| span("x", NO_PARENT, i, i + 1)).collect();
        let stats = aggregate(&few);
        assert_eq!(stats["x"].count, 19);
        assert_eq!(stats["x"].p50_ns, None);
        let many: Vec<Span> = (0..1000).map(|i| span("x", NO_PARENT, 0, i + 1)).collect();
        let stats = aggregate(&many);
        assert_eq!(stats["x"].p50_ns, Some(500));
        assert_eq!(stats["x"].p99_ns, Some(990));
        assert!(stats["x"].growth.unwrap() > 10.0);
    }

    #[test]
    fn recorder_nests_and_orders_spans() {
        let mut tracer = Tracer::with_capacity(4);
        let outer = tracer.enter("outer");
        tracer.span("inner", || ());
        tracer.exit(outer);
        let spans = tracer.finish();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, NO_PARENT);
        assert_eq!(spans[1].parent, 0);
        assert!(spans[0].start_ns <= spans[1].start_ns);
        assert!(spans[1].end_ns <= spans[0].end_ns);
        assert!(to_json_lines(&spans).contains("\"parent\":null"));
    }
}
