//! In-memory span recorder: every timed call becomes one [`SpanRec`]
//! (name, start, end, parent, cell). Spans are kept in memory and
//! written out once, when the replay ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded call.
pub struct SpanRec {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub cell: u32,
}

impl SpanRec {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-name totals over a whole replay.
#[derive(Default, Clone, Copy)]
pub struct SpanTotals {
    pub calls: u64,
    pub total_ns: u64,
    /// Span time minus the time of its child spans.
    pub self_ns: u64,
}

pub struct Tracer {
    t0: Instant,
    spans: Vec<SpanRec>,
    stack: Vec<usize>,
    /// Cell index stamped on every span opened from now on.
    pub cell: u32,
    /// Total time of the `probe.` spans so far: the probe's own side
    /// work, which no layer is charged for.
    pub probe_ns: u64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            stack: Vec::new(),
            cell: 0,
            probe_ns: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(SpanRec {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            cell: self.cell,
        });
        self.stack.push(id);
        id
    }

    pub fn exit(&mut self, id: usize) {
        let top = self.stack.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        let span = &mut self.spans[id];
        span.end_ns = self.t0.elapsed().as_nanos() as u64;
        if span.name.starts_with("probe.") {
            self.probe_ns += span.dur_ns();
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Calls, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(&child_ns) {
            let t = out.entry(s.name).or_default();
            t.calls += 1;
            t.total_ns += s.dur_ns();
            t.self_ns += s.dur_ns().saturating_sub(*child);
        }
        out
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"cell\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.cell, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
