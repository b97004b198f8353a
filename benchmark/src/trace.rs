//! In-memory spans around the benchmark's own calls into each layer.
//!
//! A span records name, start, end, the span that enclosed it and the id of
//! the op (request, chunk or probe repetition) it belongs to. Spans are kept
//! in memory and written to `trace.json` when the run ends. Spans sit in the
//! benchmark's own files, around its calls into each layer; the product is
//! not instrumented. A layer's self time is therefore its span minus the
//! spans of the layers it calls, each probed on the same inputs
//! (`probes.rs`: `serve.state_self_us`, `serve.tcp_self_us`, `core.self_ms`).

use std::io::Write;
use std::path::Path;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    /// A disabled tracer runs the closure and records nothing.
    pub enabled: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self { enabled, t0: Instant::now(), spans: Vec::new(), stack: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn ns_of(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.t0).as_nanos() as u64
    }

    /// Records a span that was timed elsewhere (a load thread's request),
    /// as a child of `parent`. Returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<u32>,
        start: Instant,
        end: Instant,
    ) -> Option<u32> {
        if !self.enabled {
            return None;
        }
        let (start_ns, end_ns) = (self.ns_of(start), self.ns_of(end));
        self.spans.push(Span { name, op, parent, start_ns, end_ns });
        Some(self.spans.len() as u32 - 1)
    }

    /// Runs `f` inside a span; spans opened by `f` through the tracer it is
    /// handed become this span's children.
    pub fn span<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len() as u32;
        let parent = self.stack.last().copied();
        self.spans.push(Span { name, op, parent, start_ns: self.now_ns(), end_ns: 0 });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id as usize].end_ns = self.now_ns();
        out
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Durations in seconds of the spans called `name` among those recorded
    /// from index `first` on, in recording order.
    pub fn durations_since(&self, first: usize, name: &str) -> Vec<f64> {
        self.spans[first..]
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .collect()
    }

    /// Writes every span as one JSON array element per line.
    pub fn write_json(&self, path: &Path, header: &str) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "{{{header},\n\"spans\": [")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let comma = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                w,
                "{{\"id\": {i}, \"name\": \"{}\", \"op\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}}}{comma}",
                s.name, s.op, s.start_ns, s.end_ns
            )?;
        }
        writeln!(w, "]}}")?;
        w.flush()
    }
}
