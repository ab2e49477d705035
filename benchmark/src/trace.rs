//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed by the benchmark around its calls into
//! each layer; a span names the span that caused it, and the children of
//! one request or pass share that parent. Nothing is written while a pass
//! runs: the summary is printed when the benchmark ends.

use std::collections::BTreeMap;
use std::time::Instant;

/// Identifier of a recorded span.
pub type SpanId = usize;

struct Span {
    name: &'static str,
    parent: Option<SpanId>,
    start_ns: u64,
    end_ns: Option<u64>,
}

pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Trace {
    pub fn new() -> Self {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span caused by `parent`.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: None,
        });
        self.spans.len() - 1
    }

    /// Closes a span opened by [`Trace::open`].
    pub fn close(&mut self, id: SpanId) {
        let end = self.now_ns();
        self.spans[id].end_ns = Some(end);
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Duration of one span in ms (0 while open).
    pub fn ms(&self, id: SpanId) -> f64 {
        let s = &self.spans[id];
        s.end_ns.map_or(0.0, |e| (e - s.start_ns) as f64 / 1e6)
    }

    /// Durations in ms of every closed span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .filter_map(|s| s.end_ns.map(|e| (e - s.start_ns) as f64 / 1e6))
            .collect()
    }

    /// Ids of every span called `name`.
    pub fn ids(&self, name: &str) -> Vec<SpanId> {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .collect()
    }

    /// Total ms of spans called `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.durations_ms(name).iter().sum()
    }

    /// Total ms of spans called `name` whose parent is `parent`.
    pub fn child_total_ms(&self, parent: SpanId, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent == Some(parent) && s.name == name)
            .filter_map(|s| s.end_ns.map(|e| (e - s.start_ns) as f64 / 1e6))
            .sum()
    }

    /// Share of a span's duration its direct children cover (children do
    /// not overlap here: every traced replay is single-threaded).
    pub fn accounted_frac(&self, id: SpanId) -> f64 {
        let total = self.ms(id);
        let covered: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .filter_map(|s| s.end_ns.map(|e| (e - s.start_ns) as f64 / 1e6))
            .sum();
        if total > 0.0 {
            covered / total
        } else {
            0.0
        }
    }

    /// One summary line per span name: count, total and mean duration.
    pub fn summary(&self) -> Vec<String> {
        let mut by_name: BTreeMap<&str, (usize, f64)> = BTreeMap::new();
        for s in &self.spans {
            if let Some(e) = s.end_ns {
                let entry = by_name.entry(s.name).or_default();
                entry.0 += 1;
                entry.1 += (e - s.start_ns) as f64 / 1e6;
            }
        }
        by_name
            .into_iter()
            .map(|(name, (count, total))| {
                format!(
                    "span {name}: count {count}, total {total:.3} ms, mean {:.4} ms",
                    total / count as f64
                )
            })
            .collect()
    }
}
