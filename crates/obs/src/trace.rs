//! Request tracing: per-request span trees in a bounded in-memory
//! ring.
//!
//! A trace is born at the serve front end (one per client command),
//! installed into the current thread, and recorded into as the request
//! descends through route → per-shard probe → bind/check.
//! Layers that do the work stay oblivious to storage: they call
//! [`span`] / [`event`], which write into whichever trace is installed
//! — or do nothing at all when none is (the common case for library
//! tests and embedded use, which therefore pay one thread-local read).
//!
//! Spans carry a depth so the flat record list replays as a tree, and a
//! worker thread installs the request's trace handle
//! ([`TraceState::install`] is `Send`-friendly via `Arc`) so shard
//! probes land in the right request whichever thread runs it.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One recorded span or event.
#[derive(Clone, Debug)]
pub struct SpanRec {
    /// Static span name (`probe`, `retry`, `failover`, …).
    pub name: &'static str,
    /// Free-form detail (`shard=3 addr=127.0.0.1:4711`).
    pub detail: String,
    /// Nesting depth below the root command span.
    pub depth: usize,
    /// Start offset from the trace origin, in microseconds.
    pub start_us: u64,
    /// Span duration in microseconds (0 for point events).
    pub dur_us: u64,
}

#[derive(Default)]
struct TraceInner {
    spans: Vec<SpanRec>,
    depth: usize,
}

/// One request's trace: its ID, origin instant and recorded spans.
pub struct TraceState {
    id: u64,
    origin: Instant,
    inner: Mutex<TraceInner>,
}

thread_local! {
    static CURRENT: RefCell<Option<Arc<TraceState>>> = const { RefCell::new(None) };
}

/// Cap on spans recorded per trace — a runaway fan-out must not turn
/// one trace into an allocation attack on the ring.
const MAX_SPANS: usize = 512;

impl TraceState {
    /// A fresh trace with the given ID, origin = now.
    pub fn new(id: u64) -> Arc<TraceState> {
        Arc::new(TraceState {
            id,
            origin: Instant::now(),
            inner: Mutex::new(TraceInner::default()),
        })
    }

    /// The trace's ID.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Installs this trace as the current thread's trace; the returned
    /// guard restores the previous one on drop. Worker threads call
    /// this with a clone of the request's handle.
    pub fn install(self: &Arc<TraceState>) -> InstallGuard {
        let prev = CURRENT.with(|c| c.borrow_mut().replace(Arc::clone(self)));
        InstallGuard { prev }
    }

    fn record(&self, rec: SpanRec) {
        let mut inner = self.inner.lock().expect("trace lock");
        if inner.spans.len() < MAX_SPANS {
            inner.spans.push(rec);
        }
    }

    /// A copy of the recorded spans, in record order (parents precede
    /// children started after them; guard-recorded spans appear when
    /// they end).
    pub fn spans(&self) -> Vec<SpanRec> {
        self.inner.lock().expect("trace lock").spans.clone()
    }

    /// Renders the span tree as lines: `name dur=<µs>us [detail]`,
    /// indented two spaces per depth, sorted by start offset so the
    /// replay reads in causal order.
    pub fn render(&self) -> Vec<String> {
        let mut spans = self.spans();
        spans.sort_by_key(|s| (s.start_us, s.depth));
        spans
            .iter()
            .map(|s| {
                let indent = "  ".repeat(s.depth);
                if s.detail.is_empty() {
                    format!("{indent}{} dur={}us", s.name, s.dur_us)
                } else {
                    format!("{indent}{} dur={}us {}", s.name, s.dur_us, s.detail)
                }
            })
            .collect()
    }
}

/// Guard restoring the previously installed trace.
pub struct InstallGuard {
    prev: Option<Arc<TraceState>>,
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| *c.borrow_mut() = self.prev.take());
    }
}

/// The current thread's installed trace, if any — a site handing work
/// to another thread captures this first.
pub fn current() -> Option<Arc<TraceState>> {
    CURRENT.with(|c| c.borrow().clone())
}

/// The current trace's ID, if one is installed.
pub fn current_id() -> Option<u64> {
    current().map(|t| t.id())
}

/// Opens a span on the current trace; it records on guard drop. `None`
/// (free of any cost beyond the thread-local read) when no trace is
/// installed.
pub fn span(name: &'static str, detail: impl Into<String>) -> Option<SpanGuard> {
    let trace = current()?;
    let start = Instant::now();
    let (depth, start_us) = {
        let mut inner = trace.inner.lock().expect("trace lock");
        let d = inner.depth;
        inner.depth = d.saturating_add(1);
        (
            d,
            start
                .duration_since(trace.origin)
                .as_micros()
                .min(u64::MAX as u128) as u64,
        )
    };
    Some(SpanGuard {
        trace,
        name,
        detail: detail.into(),
        depth,
        start,
        start_us,
    })
}

/// Records a zero-duration point event (`failover`, `retry`,
/// `breaker-skip`) on the current trace, at the current depth.
pub fn event(name: &'static str, detail: impl Into<String>) {
    if let Some(trace) = current() {
        let (depth, start_us) = {
            let inner = trace.inner.lock().expect("trace lock");
            (
                inner.depth,
                Instant::now()
                    .duration_since(trace.origin)
                    .as_micros()
                    .min(u64::MAX as u128) as u64,
            )
        };
        trace.record(SpanRec {
            name,
            detail: detail.into(),
            depth,
            start_us,
            dur_us: 0,
        });
    }
}

/// An open span; records itself (with its measured duration) when
/// dropped.
pub struct SpanGuard {
    trace: Arc<TraceState>,
    name: &'static str,
    detail: String,
    depth: usize,
    start: Instant,
    start_us: u64,
}

impl SpanGuard {
    /// Replaces the span's detail (for facts only known at the end,
    /// like a probe's candidate count).
    pub fn set_detail(&mut self, detail: impl Into<String>) {
        self.detail = detail.into();
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let dur_us = self.start.elapsed().as_micros().min(u64::MAX as u128) as u64;
        {
            let mut inner = self.trace.inner.lock().expect("trace lock");
            inner.depth = inner.depth.saturating_sub(1);
        }
        self.trace.record(SpanRec {
            name: self.name,
            detail: std::mem::take(&mut self.detail),
            depth: self.depth,
            start_us: self.start_us,
            dur_us,
        });
    }
}

/// A bounded ring of finished traces, newest-first lookup by ID. The
/// serve tier keeps one and pushes every completed command's trace;
/// `TRACE <id>` replays from here.
pub struct TraceRing {
    cap: usize,
    ring: Mutex<VecDeque<Arc<TraceState>>>,
}

impl TraceRing {
    /// A ring holding at most `cap` traces.
    pub fn new(cap: usize) -> TraceRing {
        TraceRing {
            cap: cap.max(1),
            ring: Mutex::new(VecDeque::new()),
        }
    }

    /// Pushes a finished trace, evicting the oldest beyond capacity.
    pub fn push(&self, trace: Arc<TraceState>) {
        let mut ring = self.ring.lock().expect("ring lock");
        if ring.len() == self.cap {
            ring.pop_front();
        }
        ring.push_back(trace);
    }

    /// Finds a trace by ID (newest match wins).
    pub fn get(&self, id: u64) -> Option<Arc<TraceState>> {
        let ring = self.ring.lock().expect("ring lock");
        ring.iter().rev().find(|t| t.id() == id).cloned()
    }

    /// Number of retained traces.
    pub fn len(&self) -> usize {
        self.ring.lock().expect("ring lock").len()
    }

    /// Whether the ring holds no traces.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_render_as_a_tree() {
        let t = TraceState::new(7);
        {
            let _g = t.install();
            let _root = span("command", "QUERY demo");
            {
                let mut probe = span("probe", "").expect("trace installed");
                probe.set_detail("shard=2 candidates=5");
                event("failover", "addr=127.0.0.1:9");
            }
            let _merge = span("merge", "");
        }
        let spans = t.spans();
        assert_eq!(t.id(), 7);
        let names: Vec<&str> = spans.iter().map(|s| s.name).collect();
        // Guards record on drop: children before parents, events inline.
        assert_eq!(names, ["failover", "probe", "merge", "command"]);
        let probe = spans.iter().find(|s| s.name == "probe").unwrap();
        assert_eq!(probe.depth, 1);
        assert_eq!(probe.detail, "shard=2 candidates=5");
        let failover = spans.iter().find(|s| s.name == "failover").unwrap();
        assert_eq!(failover.depth, 2);
        assert_eq!(failover.dur_us, 0);
        let lines = t.render();
        assert!(lines[0].starts_with("command dur="));
        assert!(lines.iter().any(|l| l.starts_with("  probe dur=")));
        assert!(lines
            .iter()
            .any(|l| l.contains("failover") && l.contains("addr=127.0.0.1:9")));
    }

    #[test]
    fn uninstalled_threads_record_nothing() {
        assert!(current().is_none());
        assert!(span("orphan", "").is_none());
        event("orphan", ""); // must not panic
        assert!(current_id().is_none());
    }

    #[test]
    fn install_guard_restores_the_previous_trace() {
        let a = TraceState::new(1);
        let b = TraceState::new(2);
        let _ga = a.install();
        assert_eq!(current_id(), Some(1));
        {
            let _gb = b.install();
            assert_eq!(current_id(), Some(2));
        }
        assert_eq!(current_id(), Some(1));
    }

    #[test]
    fn workers_reinstall_the_parents_trace() {
        let t = TraceState::new(9);
        let _g = t.install();
        let _root = span("command", "");
        let parent = current().expect("installed");
        std::thread::scope(|s| {
            for i in 0..3 {
                let parent = Arc::clone(&parent);
                s.spawn(move || {
                    let _g = parent.install();
                    let _p = span("probe", format!("shard={i}"));
                });
            }
        });
        let spans = t.spans();
        assert_eq!(spans.iter().filter(|s| s.name == "probe").count(), 3);
        for i in 0..3 {
            assert!(spans.iter().any(|s| s.detail == format!("shard={i}")));
        }
    }

    #[test]
    fn ring_evicts_oldest_and_finds_by_id() {
        let ring = TraceRing::new(2);
        assert!(ring.is_empty());
        ring.push(TraceState::new(1));
        ring.push(TraceState::new(2));
        ring.push(TraceState::new(3));
        assert_eq!(ring.len(), 2);
        assert!(ring.get(1).is_none(), "oldest must be evicted");
        assert!(ring.get(2).is_some());
        assert_eq!(ring.get(3).unwrap().id(), 3);
    }

    #[test]
    fn span_count_is_bounded() {
        let t = TraceState::new(4);
        let _g = t.install();
        for _ in 0..(MAX_SPANS + 50) {
            event("e", "");
        }
        assert_eq!(t.spans().len(), MAX_SPANS);
    }
}
