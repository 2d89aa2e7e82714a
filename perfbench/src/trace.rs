//! In-memory span recorder for the traced run.
//!
//! A span is a name, a start and end time, the span that encloses it and
//! the request it belongs to. Spans are kept in memory while the run goes
//! and written out when it ends; self time is derived from the nesting.
//! A disabled recorder records nothing.

use serde_json::Value;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary the span wraps, e.g. `"decode_step"`.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request the span belongs to, if any.
    pub request: Option<u64>,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle of an open span, closed with [`Recorder::end`].
#[derive(Debug)]
#[must_use = "an open span must be closed with Recorder::end"]
pub struct Open(Option<usize>);

/// A single-threaded span recorder.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Recorder {
    /// A recorder measuring from `epoch`; records only when `enabled`.
    pub fn new(enabled: bool, epoch: Instant) -> Self {
        Self {
            enabled,
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, request: Option<u64>) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            request,
        });
        self.stack.push(index);
        Open(Some(index))
    }

    /// Closes a span (and any still open inside it).
    pub fn end(&mut self, open: Open) {
        let Some(index) = open.0 else { return };
        let now = self.now_ns();
        while let Some(top) = self.stack.pop() {
            self.spans[top].end_ns = now;
            if top == index {
                break;
            }
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> T {
        let open = self.begin(name, request);
        let out = f();
        self.end(open);
        out
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Takes the spans of another recorder sharing this one's epoch (e.g.
    /// a client thread's), re-indexing their parents.
    pub fn absorb(&mut self, other: Recorder) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }
}

/// Measured cost of recording one span (a begin/end pair), in ns.
pub fn span_cost_ns() -> f64 {
    const N: usize = 20_000;
    let mut rec = Recorder::new(true, Instant::now());
    let t0 = Instant::now();
    for i in 0..N {
        let open = rec.begin("probe", Some(i as u64));
        rec.end(open);
    }
    let ns = t0.elapsed().as_nanos() as f64 / N as f64;
    std::hint::black_box(rec.spans().len());
    ns
}

/// Self time of every span: its duration minus the time its direct
/// children cover (children of one parent never overlap, since a thread
/// nests its spans).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for span in spans {
        if let Some(p) = span.parent {
            let parent = &spans[p];
            let start = span.start_ns.max(parent.start_ns);
            let end = span.end_ns.min(parent.end_ns);
            own[p] = own[p].saturating_sub(end.saturating_sub(start));
        }
    }
    own
}

/// Per-name totals: (count, total ns, self ns), sorted by name.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let own = self_times(spans);
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (span, own) in spans.iter().zip(own) {
        let entry = out.entry(span.name).or_default();
        entry.0 += 1;
        entry.1 += span.dur_ns();
        entry.2 += own;
    }
    out
}

/// Time covered by the union of the top-level spans, in ns.
pub fn top_level_coverage_ns(spans: &[Span]) -> u64 {
    let mut intervals: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| (s.start_ns, s.end_ns))
        .collect();
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = 0;
    for (start, end) in intervals {
        let start = start.max(reach);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

/// The spans as JSON, for the trace file written at the end of a run.
pub fn to_json(spans: &[Span]) -> Value {
    Value::Array(
        spans
            .iter()
            .map(|s| {
                Value::Object(vec![
                    ("name".into(), Value::String(s.name.into())),
                    ("start_ns".into(), Value::Int(s.start_ns.into())),
                    ("end_ns".into(), Value::Int(s.end_ns.into())),
                    (
                        "parent".into(),
                        s.parent.map_or(Value::Null, |p| Value::Int(p as i128)),
                    ),
                    (
                        "request".into(),
                        s.request.map_or(Value::Null, |r| Value::Int(r.into())),
                    ),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
/// The shape of a trace — names, nesting and request ids, without times —
/// which repeats exactly for a seed.
pub fn shape(spans: &[Span]) -> Vec<(&'static str, Option<usize>, Option<u64>)> {
    spans
        .iter()
        .map(|s| (s.name, s.parent, s.request))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            request: None,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // request [0, 100) > prefill [10, 40) > attn [15, 35); decode [50, 90)
        let spans = vec![
            span("request", 0, 100, None),
            span("prefill", 10, 40, Some(0)),
            span("attn", 15, 35, Some(1)),
            span("decode", 50, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 10, 20, 40]);
        let t = totals(&spans);
        assert_eq!(t["request"], (1, 100, 30));
        assert_eq!(t["prefill"], (1, 30, 10));
        assert_eq!(top_level_coverage_ns(&spans), 100);
    }

    #[test]
    fn coverage_merges_overlapping_top_level_spans() {
        let spans = vec![
            span("a", 0, 50, None),
            span("b", 40, 60, None),
            span("c", 80, 90, None),
        ];
        assert_eq!(top_level_coverage_ns(&spans), 70);
    }

    #[test]
    fn recorder_nests_and_closes_inner_spans() {
        let mut rec = Recorder::new(true, Instant::now());
        let outer = rec.begin("outer", Some(1));
        let inner = rec.begin("inner", Some(1));
        rec.end(inner);
        let _ = rec.begin("left open", None);
        rec.end(outer);
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert!(
            spans[2].end_ns > 0,
            "closing the outer span closes the inner one"
        );
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(false, Instant::now());
        let x = rec.span("work", None, || 41 + 1);
        assert_eq!(x, 42);
        assert!(rec.spans().is_empty());
    }

    #[test]
    fn absorb_reindexes_parents() {
        let epoch = Instant::now();
        let mut a = Recorder::new(true, epoch);
        a.span("a", None, || ());
        let mut b = Recorder::new(true, epoch);
        let o = b.begin("b", None);
        b.span("b.child", None, || ());
        b.end(o);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
    }
}
