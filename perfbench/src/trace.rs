//! In-memory spans recorded around the benchmark's own calls into each
//! layer, written out when the traced run ends.
//!
//! A span has a layer, a name, a start, an end, the span that caused it
//! and a request id shared by the spans of one operation. A layer's self
//! time is its spans' durations minus the part of each interval that
//! the span's children cover (overlapping children are counted once).

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer (module) the call belongs to: `tensor`, `ir`, `core`, …
    pub layer: &'static str,
    /// The public call or step inside the layer.
    pub name: &'static str,
    /// Start, in ns since the origin.
    pub start: u64,
    /// End, in ns since the origin.
    pub end: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Operation id shared by the spans of one request or run.
    pub request: u64,
}

/// A span recorder. Disabled tracers record nothing and cost one branch
/// per call, so the untraced run goes through the same code.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
}

impl Tracer {
    /// A tracer that records when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer { enabled, origin: Instant::now(), spans: Vec::new(), open: Vec::new(), request: 0 }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Starts a new operation id for the spans that follow.
    pub fn next_request(&mut self) {
        self.request += 1;
    }

    fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span of `layer`.
    pub fn span<T>(&mut self, layer: &'static str, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let id = self.open_span(layer, name);
        let out = f();
        self.close_span(id);
        out
    }

    /// Opens a span explicitly (for regions that call back into the
    /// tracer); close it with [`Tracer::close_span`].
    pub fn open_span(&mut self, layer: &'static str, name: &'static str) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        let start = self.now();
        let id = self.spans.len();
        let parent = self.open.last().copied();
        self.spans.push(Span { layer, name, start, end: start, parent, request: self.request });
        self.open.push(id);
        id
    }

    /// Closes a span opened with [`Tracer::open_span`].
    pub fn close_span(&mut self, id: usize) {
        if !self.enabled {
            return;
        }
        let end = self.now();
        self.spans[id].end = end;
        if let Some(pos) = self.open.iter().rposition(|&s| s == id) {
            self.open.truncate(pos);
        }
    }

    /// Takes the recorded spans of a tracer that ran on another thread,
    /// re-based onto this tracer's clock and nested under its innermost
    /// open span.
    pub fn adopt(&mut self, other: Tracer) {
        if !self.enabled {
            return;
        }
        let shift = other.origin.saturating_duration_since(self.origin).as_nanos() as u64;
        let base = self.spans.len();
        let root = self.open.last().copied();
        for mut span in other.spans {
            span.start += shift;
            span.end += shift;
            span.parent = span.parent.map(|p| p + base).or(root);
            self.spans.push(span);
        }
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Length of the union of intervals, each clipped to `[lo, hi]`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for (s, e) in intervals {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Self time per layer, in ns: each span's duration minus the union of
/// its children's intervals inside it, summed by layer.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            children[p].push((span.start, span.end));
        }
    }
    let mut out = BTreeMap::new();
    for (span, kids) in spans.iter().zip(children) {
        let own = span.end.saturating_sub(span.start);
        let child = covered(kids, span.start, span.end);
        *out.entry(span.layer).or_insert(0) += own.saturating_sub(child);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span { layer, name: "t", start, end, parent, request: 0 }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        // root [0, 100) with children [10, 40) and [30, 60): they overlap
        // on [30, 40), so together they cover 50, not 60.
        let spans = vec![
            span("bench", 0, 100, None),
            span("core", 10, 40, Some(0)),
            span("exec", 30, 60, Some(0)),
        ];
        let t = self_times(&spans);
        assert_eq!(t["bench"], 50);
        assert_eq!(t["core"], 30);
        assert_eq!(t["exec"], 30);
    }

    #[test]
    fn children_are_clipped_to_the_parent_and_nest() {
        // A child that outlives its parent only covers the parent's part;
        // a grandchild reduces its own parent, not the root.
        let spans = vec![
            span("bench", 0, 100, None),
            span("kernels", 50, 120, Some(0)),
            span("vm", 60, 80, Some(1)),
            span("codegen", 0, 5, Some(0)),
            span("codegen", 3, 8, Some(0)),
        ];
        let t = self_times(&spans);
        assert_eq!(t["bench"], 100 - 50 - 8);
        assert_eq!(t["kernels"], 70 - 20);
        assert_eq!(t["vm"], 20);
        assert_eq!(t["codegen"], 10);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("core", "x", || 7), 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn recorded_spans_nest_under_the_open_span() {
        let mut t = Tracer::new(true);
        let root = t.open_span("bench", "root");
        t.span("core", "compile", || ());
        t.next_request();
        t.span("vm", "run", || ());
        t.close_span(root);
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert_eq!((s[1].request, s[2].request), (0, 1));
        assert!(s[0].end >= s[2].end);
    }
}
