//! In-memory spans recorded by the benchmark around its calls into each
//! layer, and the self-time arithmetic over them.
//!
//! The program itself is not instrumented: a span covers one public
//! call as seen from the benchmark. Spans of one request share its id.

use std::fmt::Write as _;
use std::time::Instant;

/// One closed span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Index of this span in the tracer.
    pub id: usize,
    /// The span that caused it.
    pub parent: Option<usize>,
    /// The layer call, e.g. `service.eval_page`.
    pub name: &'static str,
    /// The request the span belongs to.
    pub request: u64,
    /// Nanoseconds since the tracer's epoch.
    pub start: u64,
    /// Nanoseconds since the tracer's epoch.
    pub end: u64,
}

/// A span recorder. Disabled tracers record nothing and cost one
/// branch per call.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            epoch: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; returns its id (meaningless when disabled).
    pub fn open(&mut self, name: &'static str, request: u64, parent: Option<usize>) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        let id = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            id,
            parent,
            name,
            request,
            start,
            end: start,
        });
        id
    }

    /// Close span `id`.
    pub fn close(&mut self, id: usize) {
        if self.enabled {
            let end = self.now();
            self.spans[id].end = end;
        }
    }

    /// Run `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, request, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as a JSON array.
    pub fn to_json(&self) -> String {
        let mut s = String::from("[\n");
        for (i, sp) in self.spans.iter().enumerate() {
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                s,
                "{}  {{\"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \"request\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                if i > 0 { ",\n" } else { "" },
                sp.id,
                sp.name,
                sp.request,
                sp.start,
                sp.end
            );
        }
        s.push_str("\n]\n");
        s
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its children (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for sp in spans {
        if let Some(p) = sp.parent {
            children[p].push((sp.start, sp.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(sp, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = sp.start;
            for (s, e) in kids {
                let (s, e) = (s.max(cursor), e.min(sp.end));
                if e > s {
                    covered += e - s;
                    cursor = e;
                }
            }
            (sp.end - sp.start).saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name: "x",
            request: 0,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 30),
            span(2, Some(0), 50, 90),
            span(3, Some(2), 60, 70),
        ];
        assert_eq!(self_times(&spans), vec![40, 20, 30, 10]);
    }

    #[test]
    fn overlapping_children_are_covered_once() {
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 60),
            span(2, Some(0), 40, 80),
            // Sticks out past the parent: only the inside part counts.
            span(3, Some(0), 95, 120),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 70 - 5);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("a", 1, None, || 7), 7);
        assert!(t.spans().is_empty());
        let mut t = Tracer::new(true);
        let root = t.open("root", 1, None);
        t.span("child", 1, Some(root), || ());
        t.close(root);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(t.to_json().contains("\"name\": \"child\""));
    }
}
