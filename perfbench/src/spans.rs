//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span names the layer and the public call (`core.factor`,
//! `service.submit`, `kernels.tsmqr_apply_ws`, …), the operation it
//! belongs to, and the span that was open when it began. Spans stay in
//! memory and are written out as JSON lines when the run ends. A
//! disabled recorder (the untraced run) reads no clock and stores
//! nothing.

use std::fmt::Write as _;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    op: u64,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// Handle of an open span, returned by [`Spans::begin`].
#[must_use = "close the span with Spans::end"]
pub struct Open(Option<usize>);

/// Span recorder.
pub struct Spans {
    origin: Option<Instant>,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// A recorder that records when `enabled` and otherwise does nothing.
    pub fn new(enabled: bool) -> Self {
        Spans {
            origin: enabled.then(Instant::now),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self, origin: Instant) -> u64 {
        u64::try_from(origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open span `name` (`layer.call`) for operation `op`; its parent is
    /// the innermost span still open.
    pub fn begin(&mut self, name: &'static str, op: u64) -> Open {
        let Some(origin) = self.origin else {
            return Open(None);
        };
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            op,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(origin),
            end_ns: 0,
        });
        self.open.push(id);
        Open(Some(id))
    }

    /// Close a span opened by [`begin`](Self::begin) (innermost first).
    pub fn end(&mut self, span: Open) {
        let (Some(origin), Some(id)) = (self.origin, span.0) else {
            return;
        };
        let end = self.now_ns(origin);
        self.spans[id].end_ns = end;
        if let Some(pos) = self.open.iter().rposition(|&o| o == id) {
            self.open.truncate(pos);
        }
    }

    /// Run `f` inside span `name`.
    pub fn time<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        let span = self.begin(name, op);
        let out = f();
        self.end(span);
        out
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Total self time (µs) per span name: each span's duration minus
    /// the part its child spans cover, summed by name, sorted by name.
    pub fn self_time_us(&self) -> Vec<(&'static str, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut by_name: std::collections::BTreeMap<&'static str, f64> = Default::default();
        for (s, c) in self.spans.iter().zip(child_ns) {
            let own = s.end_ns.saturating_sub(s.start_ns).saturating_sub(c);
            *by_name.entry(s.name).or_default() += own as f64 / 1e3;
        }
        by_name.into_iter().collect()
    }

    /// The spans as JSON lines: `{"id","parent","op","name","start_ns","end_ns"}`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                r#"{{"id":{id},"parent":{parent},"op":{},"name":"{}","start_ns":{},"end_ns":{}}}"#,
                s.op, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_self_time() {
        let mut spans = Spans::new(true);
        let outer = spans.begin("core.factor", 1);
        let inner = spans.time("matrix.from_matrix", 1, || {
            std::thread::sleep(std::time::Duration::from_millis(2));
            7
        });
        assert_eq!(inner, 7);
        spans.end(outer);
        assert_eq!(spans.len(), 2);
        let jsonl = spans.to_jsonl();
        assert!(jsonl.lines().nth(1).unwrap().contains(r#""parent":0"#));
        let self_us: std::collections::BTreeMap<_, _> = spans.self_time_us().into_iter().collect();
        assert!(self_us["matrix.from_matrix"] >= 2000.0);
        assert!(self_us["core.factor"] < self_us["matrix.from_matrix"]);
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut spans = Spans::new(false);
        let s = spans.begin("core.factor", 1);
        spans.end(s);
        assert_eq!(spans.time("core.solve", 1, || 3), 3);
        assert_eq!(spans.len(), 0);
    }
}
