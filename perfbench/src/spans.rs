//! In-memory spans recorded by the benchmark around its calls into each
//! layer, plus the arithmetic that reconciles a span tree: every parent
//! equals its children plus an explicit `unattributed` remainder.
//!
//! Spans are kept in memory and rendered once, after the measured work.

use std::time::Instant;

/// One recorded span. Intervals are nanoseconds since the tree's origin.
#[derive(Debug, Clone)]
struct Span {
    name: String,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// A tree of spans opened and closed in stack order on one thread.
#[derive(Debug)]
pub struct SpanTree {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for SpanTree {
    fn default() -> Self {
        SpanTree {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl SpanTree {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one and returns its id.
    pub fn enter(&mut self, name: &str) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close in stack order");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Duration of span `id` in seconds.
    pub fn secs(&self, id: usize) -> f64 {
        (self.spans[id].end_ns - self.spans[id].start_ns) as f64 / 1e9
    }

    /// Duration of the first span named `name`, in seconds (0 if absent).
    pub fn secs_of(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .position(|s| s.name == name)
            .map_or(0.0, |id| self.secs(id))
    }

    fn children(&self, id: usize) -> impl Iterator<Item = usize> + '_ {
        (0..self.spans.len()).filter(move |&c| self.spans[c].parent == Some(id))
    }

    /// Self time of span `id` in ns: its duration minus the part of its
    /// interval that its children cover.
    pub fn self_ns(&self, id: usize) -> u64 {
        let p = &self.spans[id];
        let iv: Vec<(u64, u64)> = self
            .children(id)
            .map(|c| (self.spans[c].start_ns, self.spans[c].end_ns))
            .collect();
        (p.end_ns - p.start_ns) - covered_ns(p.start_ns, p.end_ns, iv)
    }

    /// Renders the tree, one row per span plus an `unattributed` row
    /// under every span that has children, as `(path, seconds)`.
    pub fn rows(&self) -> Vec<(String, f64)> {
        let mut out = Vec::new();
        for root in (0..self.spans.len()).filter(|&i| self.spans[i].parent.is_none()) {
            self.rows_into(root, String::new(), &mut out);
        }
        out
    }

    fn rows_into(&self, id: usize, prefix: String, out: &mut Vec<(String, f64)>) {
        let path = format!("{prefix}{}", self.spans[id].name);
        out.push((path.clone(), self.secs(id)));
        let kids: Vec<usize> = self.children(id).collect();
        for &c in &kids {
            self.rows_into(c, format!("{path}/"), out);
        }
        if !kids.is_empty() {
            out.push((
                format!("{path}/unattributed"),
                self.self_ns(id) as f64 / 1e9,
            ));
        }
    }

    /// True when, for every span, children plus the unattributed row sum
    /// to the span itself (children lie inside their parent and do not
    /// overlap one another).
    pub fn reconciles(&self) -> bool {
        (0..self.spans.len()).all(|id| {
            let kids: u64 = self
                .children(id)
                .map(|c| self.spans[c].end_ns - self.spans[c].start_ns)
                .sum();
            let p = &self.spans[id];
            kids + self.self_ns(id) == p.end_ns - p.start_ns
        })
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi)`.
fn covered_ns(lo: u64, hi: u64, mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for (s, e) in intervals {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

/// An aggregate span row as exported by the program's telemetry:
/// `/`-joined path and total nanoseconds.
pub type AggRow<'a> = (&'a str, u64);

/// Reconciles an aggregate span tree (the program's own telemetry,
/// summed over cells): for every row with children, returns
/// `(path/unattributed, parent − Σ children)` in ns. A negative value
/// means children exceed their parent and the tree does not reconcile.
pub fn agg_unattributed(rows: &[AggRow]) -> Vec<(String, i64)> {
    let mut out = Vec::new();
    for &(path, total) in rows {
        let depth = path.matches('/').count();
        let kids: u64 = rows
            .iter()
            .filter(|(p, _)| {
                p.strip_prefix(path)
                    .and_then(|rest| rest.strip_prefix('/'))
                    .is_some()
                    && p.matches('/').count() == depth + 1
            })
            .map(|&(_, ns)| ns)
            .sum();
        if kids > 0 {
            out.push((format!("{path}/unattributed"), total as i64 - kids as i64));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree(spans: &[(&str, Option<usize>, u64, u64)]) -> SpanTree {
        SpanTree {
            origin: Instant::now(),
            spans: spans
                .iter()
                .map(|&(n, p, s, e)| Span {
                    name: n.into(),
                    parent: p,
                    start_ns: s,
                    end_ns: e,
                })
                .collect(),
            open: Vec::new(),
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let t = tree(&[
            ("unit", None, 0, 100),
            ("a", Some(0), 10, 40),
            ("b", Some(0), 50, 80),
            ("a1", Some(1), 10, 20),
        ]);
        assert_eq!(t.self_ns(0), 40);
        assert_eq!(t.self_ns(1), 20);
        assert_eq!(t.self_ns(2), 30);
        assert!(t.reconciles());
        let rows = t.rows();
        let get = |p: &str| rows.iter().find(|(q, _)| q == p).unwrap().1;
        assert_eq!(get("unit/unattributed") * 1e9, 40.0);
        assert_eq!(
            get("unit/a") + get("unit/b") + get("unit/unattributed"),
            get("unit")
        );
    }

    #[test]
    fn overlapping_children_do_not_reconcile() {
        let t = tree(&[
            ("unit", None, 0, 100),
            ("a", Some(0), 0, 60),
            ("b", Some(0), 40, 100),
        ]);
        // The union covers the whole parent, so self time is zero …
        assert_eq!(t.self_ns(0), 0);
        // … but the children's durations add up to more than it.
        assert!(!t.reconciles());
    }

    #[test]
    fn live_spans_nest_and_reconcile() {
        let mut t = SpanTree::default();
        let outer = t.enter("outer");
        t.time("inner", || std::hint::black_box(1 + 1));
        t.exit(outer);
        assert!(t.reconciles());
        assert!(t.self_ns(outer) <= (t.secs(outer) * 1e9) as u64);
        assert_eq!(t.rows().len(), 3);
    }

    #[test]
    fn aggregate_rows_report_unattributed() {
        let rows = [
            ("sim.run_cell", 100),
            ("sim.run_cell/run_loop", 70),
            ("sim.run_cell/run_loop/ev.dispatch", 50),
            ("sim.run_cell/finalize", 10),
        ];
        let u = agg_unattributed(&rows);
        assert_eq!(
            u,
            vec![
                ("sim.run_cell/unattributed".to_string(), 20),
                ("sim.run_cell/run_loop/unattributed".to_string(), 20),
            ]
        );
    }
}
