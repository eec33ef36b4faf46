//! The traced pass's span recorder: one span per call into a layer, kept
//! in memory and written out as JSON lines when the benchmark ends.
//!
//! Each query is a root span (layer `harness`) whose children are the
//! stepwise layer calls, in call order. A span's self time is its duration
//! minus its children's, so per query the self times sum to the root's
//! duration exactly, in integer nanoseconds; [`Spans::check`] verifies the
//! structure that makes that true.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// The layer label of root spans and of time no layer call covers.
pub const HARNESS: &str = "harness";

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    /// `None` for a query's root span.
    pub parent: Option<u32>,
    /// Index of the query within the traced pass.
    pub query: u32,
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
    root: Option<u32>,
    queries: u32,
}

impl Default for Spans {
    fn default() -> Self {
        Spans::new()
    }
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
            root: None,
            queries: 0,
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens the root span of the next query.
    pub fn begin_query(&mut self) {
        assert!(self.root.is_none(), "previous query still open");
        let id = self.spans.len() as u32;
        let start_ns = self.now();
        self.spans.push(Span {
            id,
            parent: None,
            query: self.queries,
            layer: HARNESS,
            name: "query",
            start_ns,
            end_ns: start_ns,
        });
        self.root = Some(id);
    }

    /// Closes the open root span and returns its duration.
    pub fn end_query(&mut self) -> u64 {
        let root = self.root.take().expect("a query is open");
        let end_ns = self.now();
        self.spans[root as usize].end_ns = end_ns;
        self.queries += 1;
        self.spans[root as usize].duration_ns()
    }

    /// Runs `call` as one child span of the open query.
    pub fn time<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        call: impl FnOnce() -> T,
    ) -> T {
        let parent = self.root.expect("layer calls happen inside a query");
        let start_ns = self.now();
        let out = call();
        let end_ns = self.now();
        self.spans.push(Span {
            id: self.spans.len() as u32,
            parent: Some(parent),
            query: self.queries,
            layer,
            name,
            start_ns,
            end_ns,
        });
        out
    }

    /// Renames the most recent child span — for calls whose kind (a cache
    /// hit or a miss) is only known once they return.
    pub fn rename_last(&mut self, name: &'static str) {
        if let Some(last) = self.spans.last_mut().filter(|s| s.parent.is_some()) {
            last.name = name;
        }
    }

    pub fn queries(&self) -> u32 {
        self.queries
    }

    /// Total duration of all root spans.
    pub fn root_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::duration_ns)
            .sum()
    }

    /// Self time per `(layer, name)`, the roots' self time under
    /// `(harness, query)`. Sums to [`Spans::root_ns`].
    pub fn self_times(&self) -> BTreeMap<(&'static str, &'static str), u64> {
        let mut out: BTreeMap<(&'static str, &'static str), u64> = BTreeMap::new();
        let mut covered: BTreeMap<u32, u64> = BTreeMap::new();
        for s in &self.spans {
            if let Some(p) = s.parent {
                *covered.entry(p).or_default() += s.duration_ns();
            }
        }
        for s in &self.spans {
            let children = covered.get(&s.id).copied().unwrap_or(0);
            *out.entry((s.layer, s.name)).or_default() += s.duration_ns().saturating_sub(children);
        }
        out
    }

    /// Durations of every span named `(layer, name)`, in call order.
    pub fn durations(&self, layer: &str, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.layer == layer && s.name == name)
            .map(Span::duration_ns)
            .collect()
    }

    /// Number of queries whose span tree breaks the self-time identity:
    /// a child outside its root, children overlapping or out of order, or
    /// self times not summing to the root's duration.
    pub fn check(&self) -> usize {
        let mut failures = 0;
        let mut i = 0;
        while i < self.spans.len() {
            let root = &self.spans[i];
            let mut ok = root.parent.is_none() && root.end_ns >= root.start_ns;
            let mut cursor = root.start_ns;
            let mut children = 0u64;
            let mut j = i + 1;
            while j < self.spans.len() && self.spans[j].parent.is_some() {
                let c = &self.spans[j];
                ok &= c.parent == Some(root.id)
                    && c.query == root.query
                    && c.start_ns >= cursor
                    && c.end_ns >= c.start_ns
                    && c.end_ns <= root.end_ns;
                cursor = c.end_ns;
                children += c.duration_ns();
                j += 1;
            }
            let root_self = root.duration_ns().checked_sub(children);
            ok &= root_self.is_some_and(|s| s + children == root.duration_ns());
            if !ok {
                failures += 1;
            }
            i = j;
        }
        failures
    }

    /// The spans as JSON lines:
    /// `{id, parent, query, layer, name, start_ns, end_ns}`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"query\":{},\"layer\":\"{}\",\"name\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{}}}",
                s.id, parent, s.query, s.layer, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_sum_to_the_roots_exactly() {
        let mut spans = Spans::new();
        for _ in 0..3 {
            spans.begin_query();
            spans.time("a", "x", || std::hint::black_box((0..2000).sum::<u64>()));
            spans.time("b", "y", || std::hint::black_box((0..500).sum::<u64>()));
            spans.end_query();
        }
        assert_eq!(spans.queries(), 3);
        assert_eq!(spans.check(), 0);
        let total: u64 = spans.self_times().values().sum();
        assert_eq!(total, spans.root_ns());
        assert_eq!(spans.durations("a", "x").len(), 3);
        assert_eq!(spans.to_jsonl().lines().count(), 9);
    }

    #[test]
    fn check_flags_a_child_that_escapes_its_root() {
        let mut spans = Spans::new();
        spans.begin_query();
        spans.time("a", "x", || ());
        spans.end_query();
        spans.spans[1].end_ns = spans.spans[0].end_ns + 1;
        assert_eq!(spans.check(), 1);
    }
}
