//! The span recorder of the traced run.
//!
//! Each call into a layer's public function is wrapped in a span
//! `{name, start_ns, end_ns, parent, call_id}`; counts measured at the
//! same boundaries (bytes parsed, micro-ops compiled, delta cycles run)
//! are added beside them. Spans stay in memory and are written out as
//! JSON lines when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary, `<module>.<call>` (or `call` for a whole workload call).
    pub name: &'static str,
    /// Start, in ns since the recorder was created.
    pub start_ns: u64,
    /// End, in ns since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The workload call this span belongs to.
    pub call_id: u64,
}

impl Span {
    /// Duration in ns.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Totals of every span sharing one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    /// Spans recorded.
    pub count: u64,
    /// Summed durations.
    pub ns: u64,
    /// Summed self times: duration minus the time child spans cover.
    pub self_ns: u64,
}

/// In-memory span and counter store.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    call_id: u64,
    counters: BTreeMap<&'static str, u64>,
}

impl Default for Spans {
    fn default() -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            call_id: 0,
            counters: BTreeMap::new(),
        }
    }
}

impl Spans {
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Tags the spans recorded from now on with `id`.
    pub fn set_call(&mut self, id: u64) {
        self.call_id = id;
    }

    /// Runs `f` inside a span named `name`; spans `f` opens become its
    /// children.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> T) -> T {
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied(),
            call_id: self.call_id,
        });
        self.open.push(index);
        self.spans[index].start_ns = self.now();
        let out = f(self);
        self.spans[index].end_ns = self.now();
        self.open.pop();
        out
    }

    /// Every span recorded so far, in the order they were opened.
    pub fn recorded(&self) -> &[Span] {
        &self.spans
    }

    /// Adds `by` to the counter `name`.
    pub fn count(&mut self, name: &'static str, by: u64) {
        *self.counters.entry(name).or_default() += by;
    }

    /// The counter `name` (0 when never counted).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Per-name totals, with self times.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.ns();
            }
        }
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.ns += s.ns();
            t.self_ns += s.ns().saturating_sub(children);
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut text = String::with_capacity(self.spans.len() * 96);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                text,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"call_id\":{}}}",
                s.name, s.start_ns, s.end_ns, s.call_id
            );
        }
        std::fs::write(path, text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut spans = Spans::default();
        spans.span("outer", |s| {
            s.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            s.count("things", 3);
        });
        let totals = spans.totals();
        let (outer, inner) = (totals["outer"], totals["inner"]);
        assert_eq!((outer.count, inner.count), (1, 1));
        assert_eq!(inner.self_ns, inner.ns);
        assert_eq!(outer.self_ns, outer.ns - inner.ns);
        assert!(inner.ns >= 2_000_000);
        assert_eq!(spans.counter("things"), 3);
        assert_eq!(spans.spans[1].parent, Some(0));
    }
}
