//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed only in the ledger's own files, around
//! calls into a layer's public functions; nothing inside the simulator
//! is instrumented. Each span keeps its name, start, end, the span that
//! was open when it began (its parent) and the job or case id it serves.
//! A layer's *self* time is a span's duration minus the time its direct
//! children cover; the per-layer table sums self time by span name.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.run` or `sweep.cache.lookup`.
    pub name: &'static str,
    /// Optional qualifier, e.g. the switch model of a `core.run` span.
    pub tag: &'static str,
    /// Job, case or request id the span belongs to (`u64::MAX` for none).
    pub id: u64,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Id for spans that serve no particular job or case.
pub const NO_ID: u64 = u64::MAX;

/// Records spans and counters for one traced pass.
#[derive(Debug)]
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    counts: BTreeMap<String, f64>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer { t0: Instant::now(), spans: Vec::new(), open: Vec::new(), counts: BTreeMap::new() }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one; returns its index.
    pub fn open(&mut self, name: &'static str, id: u64) -> usize {
        let start_ns = self.now_ns();
        let idx = self.spans.len();
        let parent = self.open.last().copied();
        self.spans.push(Span { name, tag: "", id, start_ns, end_ns: start_ns, parent });
        self.open.push(idx);
        idx
    }

    /// Closes span `idx`, which must be the innermost open span.
    pub fn close(&mut self, idx: usize) {
        let top = self.open.pop();
        assert_eq!(top, Some(idx), "spans must close innermost first");
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Number of open spans.
    pub fn depth(&self) -> usize {
        self.open.len()
    }

    /// Closes every span opened above `depth` (after a caught panic).
    pub fn unwind_to(&mut self, depth: usize) {
        while self.open.len() > depth {
            let idx = *self.open.last().expect("open is deeper than depth");
            self.close(idx);
        }
    }

    /// Renames an open or closed span (used when the layer that did the
    /// work — say, a cache hit versus a build — is known only afterwards).
    pub fn rename(&mut self, idx: usize, name: &'static str, tag: &'static str) {
        self.spans[idx].name = name;
        self.spans[idx].tag = tag;
    }

    /// Times `f` as a leaf-or-parent span.
    pub fn time<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> T) -> T {
        let idx = self.open(name, id);
        let out = f();
        self.close(idx);
        out
    }

    /// Adds `by` to counter `name`.
    pub fn count(&mut self, name: &str, by: f64) {
        *self.counts.entry(name.to_string()).or_insert(0.0) += by;
    }

    /// Counter value (0 when never counted).
    pub fn counter(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// All recorded spans, in open order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time in nanoseconds of every span.
    fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.dur_ns());
            }
        }
        own
    }

    /// Self time in milliseconds summed per `name` (and per `name.tag`
    /// for tagged spans), plus span counts per name.
    pub fn layer_table(&self) -> BTreeMap<String, (f64, u64)> {
        let mut table: BTreeMap<String, (f64, u64)> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_ns()) {
            let ms = own as f64 / 1e6;
            let mut add = |key: String| {
                let e = table.entry(key).or_insert((0.0, 0));
                e.0 += ms;
                e.1 += 1;
            };
            add(s.name.to_string());
            if !s.tag.is_empty() {
                add(format!("{}.{}", s.name, s.tag));
            }
        }
        table
    }

    /// Self time of root spans: wall the traced calls do not account for.
    pub fn unattributed_ms(&self) -> f64 {
        self.spans
            .iter()
            .zip(self.self_ns())
            .filter(|(s, _)| s.parent.is_none())
            .map(|(_, own)| own as f64 / 1e6)
            .sum()
    }

    /// Every span as one JSON object per line.
    pub fn to_jsonl(&self, pass: usize) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let id = if s.id == NO_ID { "null".to_string() } else { s.id.to_string() };
            let _ = writeln!(
                out,
                "{{\"pass\":{pass},\"span\":{i},\"name\":\"{}\",\"tag\":\"{}\",\"id\":{id},\
                 \"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.tag, s.start_ns, s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut t = Tracer::new();
        let root = t.open("pass", NO_ID);
        let a = t.open("a", 1);
        let b = t.open("b", 1);
        t.close(b);
        t.close(a);
        t.close(root);
        // Pin the clock readings so the arithmetic is exact.
        t.spans[root].start_ns = 0;
        t.spans[root].end_ns = 100;
        t.spans[a].start_ns = 10;
        t.spans[a].end_ns = 60;
        t.spans[b].start_ns = 20;
        t.spans[b].end_ns = 50;
        assert_eq!(t.self_ns(), vec![50, 20, 30]);
        assert_eq!(t.unattributed_ms(), 50.0 / 1e6);
        let table = t.layer_table();
        assert_eq!(table["a"], (20.0 / 1e6, 1));
        assert_eq!(table["b"], (30.0 / 1e6, 1));
    }

    #[test]
    fn tagged_spans_aggregate_twice_and_serialize() {
        let mut t = Tracer::new();
        let s = t.open("core.run", 7);
        t.rename(s, "core.run", "smt");
        t.close(s);
        let table = t.layer_table();
        assert_eq!(table["core.run"].1, 1);
        assert_eq!(table["core.run.smt"].1, 1);
        let line = t.to_jsonl(0);
        assert!(line.contains("\"name\":\"core.run\",\"tag\":\"smt\",\"id\":7"), "{line}");
        assert!(line.ends_with("\"parent\":null}\n"));
    }
}
