//! In-memory span recorder for the traced run.
//!
//! The benchmark's own code opens a span around each public call it
//! makes into the mediator. Spans of one query share its id and nest
//! under the query's root span. Calls that cannot be split from
//! outside (the parallel executor's internal guard, the internals of
//! `serve`) are re-run as standalone *probe* calls on the same inputs;
//! probe spans have no parent, so they never inflate a query's tree.
//! Nothing is recorded when tracing is off.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::measure::{json_number, json_string};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub query: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub probe: bool,
}

/// Handle of an open span; closing it with [`Tracer::end`] records the
/// end time.
#[must_use = "close the span with Tracer::end"]
pub struct Open(Option<usize>);

/// The span recorder.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

/// Per-layer totals over a run's spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTotals {
    pub spans: usize,
    pub self_ns: u64,
    pub total_ns: u64,
    pub probe: bool,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str, query: u64, probe: bool) -> Open {
        if !self.on {
            return Open(None);
        }
        let parent = if probe {
            None
        } else {
            self.stack.last().copied()
        };
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            query,
            start_ns,
            end_ns: start_ns,
            parent,
            probe,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Opens a span nested under the innermost open span.
    pub fn begin(&mut self, name: &'static str, query: u64) -> Open {
        self.open(name, query, false)
    }

    /// Opens a probe span: a standalone re-run of a layer outside the
    /// query's span tree.
    pub fn probe(&mut self, name: &'static str, query: u64) -> Open {
        self.open(name, query, true)
    }

    pub fn end(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        let popped = self.stack.pop();
        assert_eq!(popped, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Closes `open` and every span still open inside it: a call that
    /// failed part-way leaves its inner spans open.
    pub fn unwind(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        let now = self.now_ns();
        while let Some(top) = self.stack.pop() {
            self.spans[top].end_ns = now;
            if top == id {
                return;
            }
        }
        panic!("span {id} was not open");
    }

    /// Self time per layer: a span's duration minus the durations of
    /// its children (children of one span never overlap: the benchmark
    /// calls layers one after another).
    pub fn layer_totals(&self) -> BTreeMap<&'static str, LayerTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(&child_ns) {
            let dur = s.end_ns - s.start_ns;
            let t = out.entry(s.name).or_default();
            t.spans += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(*child);
            t.probe |= s.probe;
        }
        out
    }

    /// Writes every span, then the per-layer self-time table, as JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            write!(
                out,
                "  {{\"id\": {i}, \"name\": {}, \"query\": {}, \"start_ns\": {}, \
                 \"end_ns\": {}, \"parent\": {}, \"probe\": {}}}",
                json_string(s.name),
                s.query,
                s.start_ns,
                s.end_ns,
                s.parent
                    .map_or_else(|| "null".to_string(), |p| p.to_string()),
                s.probe
            )
            .expect("write to string");
        }
        out.push_str("\n],\n\"layers\": {\n");
        for (i, (name, t)) in self.layer_totals().iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            write!(
                out,
                "  {}: {{\"spans\": {}, \"self_us\": {}, \"total_us\": {}, \"probe\": {}}}",
                json_string(name),
                t.spans,
                json_number(t.self_ns as f64 / 1e3),
                json_number(t.total_ns as f64 / 1e3),
                t.probe
            )
            .expect("write to string");
        }
        out.push_str("\n}}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_probes_stay_outside() {
        let mut t = Tracer::new(true);
        let root = t.begin("query", 0);
        let a = t.begin("a", 0);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(a);
        t.end(root);
        let p = t.probe("p", 0);
        t.end(p);
        let layers = t.layer_totals();
        let q = layers["query"];
        assert_eq!(q.total_ns - q.self_ns, layers["a"].total_ns);
        assert!(layers["p"].probe);
        assert_eq!(t.spans[2].parent, None);
        assert!(t.to_json().contains("\"probe\": true"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let s = t.begin("query", 0);
        t.end(s);
        assert!(t.layer_totals().is_empty());
    }
}
