//! Spans recorded from the benchmark's own files, around its calls
//! into each layer: name, start, end, the span that caused it, and the
//! operation it belongs to. Spans live in memory and are written out
//! when the pass ends; a layer's number is its self time.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    /// The replayed operation's index: spans of one operation share it.
    pub op: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Inner {
    spans: Vec<Span>,
    /// Open spans, innermost last.
    stack: Vec<u32>,
    op: u32,
}

/// A single-threaded span recorder. Disabled, [`Tracer::span`] only
/// runs its closure — the replay with tracing off, against which the
/// tracing overhead is measured.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    inner: RefCell<Inner>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            inner: RefCell::new(Inner {
                spans: Vec::new(),
                stack: Vec::new(),
                op: 0,
            }),
        }
    }

    /// Later spans belong to operation `op`.
    pub fn begin_op(&self, op: u32) {
        self.inner.borrow_mut().op = op;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, a child of whichever span
    /// is open on this thread.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let id = {
            let mut inner = self.inner.borrow_mut();
            let id = inner.spans.len() as u32;
            let span = Span {
                id,
                parent: inner.stack.last().copied(),
                op: inner.op,
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
            };
            inner.spans.push(span);
            inner.stack.push(id);
            id
        };
        let result = f();
        let end = self.now_ns();
        let mut inner = self.inner.borrow_mut();
        inner.spans[id as usize].end_ns = end;
        inner.stack.pop();
        result
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.inner.into_inner().spans
    }
}

/// Each span's self time: its duration minus the part of it its child
/// spans cover (children of one span never overlap — one thread).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p as usize] = own[p as usize].saturating_sub(s.duration_ns());
        }
    }
    own
}

/// Per span name, each operation's total self time in that name (ns),
/// in operation order. Operations that never entered a name are absent
/// from its list.
pub fn self_time_per_op(spans: &[Span]) -> BTreeMap<&'static str, Vec<f64>> {
    let own = self_times_ns(spans);
    let mut sums: BTreeMap<(&'static str, u32), f64> = BTreeMap::new();
    for (s, ns) in spans.iter().zip(own) {
        *sums.entry((s.name, s.op)).or_default() += ns as f64;
    }
    let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for ((name, _), ns) in sums {
        out.entry(name).or_default().push(ns);
    }
    out
}

/// One JSON object per line: `id`, `parent` (null for a root), `op`,
/// `name`, `start_ns`, `end_ns`.
pub fn write_jsonl(spans: &[Span], path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{parent},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.op, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, op: u32, name: &'static str, t: (u64, u64)) -> Span {
        Span {
            id,
            parent,
            op,
            name,
            start_ns: t.0,
            end_ns: t.1,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        let spans = vec![
            span(0, None, 0, "op", (0, 100)),
            span(1, Some(0), 0, "exec", (10, 90)),
            // two sibling probes under exec, one with a child of its own
            span(2, Some(1), 0, "probe", (20, 40)),
            span(3, Some(1), 0, "probe", (50, 70)),
            span(4, Some(3), 0, "wire", (55, 60)),
            // a second operation
            span(5, None, 1, "op", (100, 130)),
            span(6, Some(5), 1, "exec", (100, 125)),
        ];
        assert_eq!(self_times_ns(&spans), vec![20, 40, 20, 15, 5, 5, 25]);
        let per_op = self_time_per_op(&spans);
        assert_eq!(per_op["op"], vec![20.0, 5.0]);
        assert_eq!(per_op["exec"], vec![40.0, 25.0]);
        assert_eq!(per_op["probe"], vec![35.0], "siblings add up within an op");
        assert_eq!(per_op["wire"], vec![5.0]);
    }

    #[test]
    fn the_tracer_records_the_call_tree_and_costs_nothing_disabled() {
        let t = Tracer::new(true);
        t.begin_op(7);
        let v = t.span("outer", || t.span("inner", || 1) + t.span("inner", || 2));
        assert_eq!(v, 3);
        let spans = t.into_spans();
        let shape: Vec<_> = spans.iter().map(|s| (s.name, s.parent, s.op)).collect();
        assert_eq!(
            shape,
            vec![
                ("outer", None, 7),
                ("inner", Some(0), 7),
                ("inner", Some(0), 7)
            ]
        );
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert!(spans[1].end_ns <= spans[2].start_ns);

        let off = Tracer::new(false);
        assert_eq!(off.span("outer", || off.span("inner", || 5)), 5);
        assert!(off.into_spans().is_empty());
    }
}
