//! In-memory span recorder, self-time accounting and Chrome trace-event
//! export.
//!
//! Spans are recorded from the benchmark's own code around each call into a
//! layer (name, start, end, parent). Worker threads record into their own
//! [`Recorder`] and hand it back with their results; the calling thread
//! [`Recorder::absorb`]s it, re-parenting the worker's top-level spans under
//! whatever span is open there. Nothing is written until the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed (or still open) span. Times are nanoseconds since the
/// recorder's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub tid: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder of one thread.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    tid: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(epoch: Instant, tid: u32) -> Self {
        Self {
            epoch,
            tid,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            tid: self.tid,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Closes span `idx`, which must be the innermost open one. Returns its
    /// duration in nanoseconds.
    pub fn end(&mut self, idx: usize) -> u64 {
        let top = self.open.pop();
        assert_eq!(top, Some(idx), "spans must close innermost first");
        let end_ns = self.now_ns();
        self.spans[idx].end_ns = end_ns;
        self.spans[idx].dur_ns()
    }

    /// Records `f` inside a span named `name`.
    pub fn scope<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let idx = self.begin(name);
        let out = f();
        self.end(idx);
        out
    }

    /// Appends a worker's spans; its top-level spans become children of the
    /// innermost span open here.
    pub fn absorb(&mut self, other: Recorder) {
        assert!(other.open.is_empty(), "absorbed recorder has open spans");
        let base = self.spans.len();
        let adopt = self.open.last().copied();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = match s.parent {
                Some(p) => Some(base + p),
                None => adopt,
            };
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Per-name totals: how often a span ran, its inclusive time and its self
/// time (inclusive time minus the part its child spans cover).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SelfTime {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Self time per span name. Children of one span never overlap in time
/// (they run one after another on the parent's thread, or on worker
/// threads adopted under it — those are charged against the parent too,
/// saturating at zero so parallel children cannot drive it negative).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, SelfTime> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for (s, &children) in spans.iter().zip(&child_ns) {
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.total_ns += s.dur_ns();
        e.self_ns += s.dur_ns().saturating_sub(children);
    }
    out
}

/// Escapes `s` as the body of a JSON string.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Chrome trace-event JSON (the "JSON object format" Perfetto and
/// `chrome://tracing` open): one complete (`"ph": "X"`) event per span,
/// timestamps in microseconds, the span index and parent in `args`, and
/// `meta` as `otherData` key/value strings.
pub fn chrome_trace_json(spans: &[Span], meta: &[(&str, String)]) -> String {
    let mut out = String::with_capacity(64 + spans.len() * 128);
    out.push_str("{\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"repobench\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{}}}}}",
            json_escape(s.name),
            s.tid,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            i,
            parent
        );
        out.push_str(if i + 1 == spans.len() { "\n" } else { ",\n" });
    }
    out.push_str("],\"displayTimeUnit\":\"ms\",\"otherData\":{");
    for (i, (k, v)) in meta.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":\"{}\"", json_escape(k), json_escape(v));
    }
    out.push_str("}}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            tid: 0,
            start_ns: start,
            end_ns: end,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a", 50, 60, Some(0)),
            span("b", 12, 20, Some(1)),
        ];
        let t = self_times(&spans);
        assert_eq!(t["root"].self_ns, 60);
        assert_eq!(t["root"].total_ns, 100);
        assert_eq!(t["a"].count, 2);
        assert_eq!(t["a"].total_ns, 40);
        assert_eq!(t["a"].self_ns, 32);
        assert_eq!(t["b"].self_ns, 8);
    }

    #[test]
    fn absorb_reparents_worker_spans() {
        let epoch = Instant::now();
        let mut main = Recorder::new(epoch, 0);
        let root = main.begin("root");
        let mut worker = Recorder::new(epoch, 1);
        let unit = worker.begin("unit");
        worker.scope("leaf", || ());
        worker.end(unit);
        main.absorb(worker);
        main.end(root);
        let spans = main.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[2].tid, 1);
    }

    #[test]
    fn chrome_trace_is_one_event_per_span() {
        let spans = vec![
            span("root", 0, 2_000, None),
            span("a\"b", 500, 1_000, Some(0)),
        ];
        let json = chrome_trace_json(&spans, &[("cpu", "x \"y\"".into())]);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        assert!(json.contains("\"ts\":0.500,\"dur\":0.500"));
        assert!(json.contains("\"name\":\"a\\\"b\""));
        assert!(json.contains("\"parent\":0"));
        assert!(json.contains("\"cpu\":\"x \\\"y\\\"\""));
    }
}
