//! Spans around the benchmark's calls into each layer.
//!
//! The benchmark measures the crates from outside, so the spans live here:
//! every call into a crate's public function is wrapped in a span named
//! `<layer>.<call>`, where the layer is the crate. Spans are kept in memory
//! and written out when the run ends. With tracing off (every end-to-end
//! run) [`Tracer::span`] is one branch and reads no clock.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::json::Json;

pub type SpanId = u32;

/// One recorded span. `parent` is the span that caused it; `tid` is a small
/// per-thread number (0 = the driver thread, in practice).
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: SpanId,
    pub parent: Option<SpanId>,
    pub name: String,
    pub tid: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer a span belongs to: its name up to the first dot.
    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or(&self.name)
    }
}

static NEXT_TID: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static TID: Cell<Option<u32>> = const { Cell::new(None) };
    /// Open spans of this thread, innermost last.
    static STACK: RefCell<Vec<SpanId>> = const { RefCell::new(Vec::new()) };
}

fn tid() -> u32 {
    TID.with(|t| {
        t.get().unwrap_or_else(|| {
            let id = NEXT_TID.fetch_add(1, Ordering::Relaxed);
            t.set(Some(id));
            id
        })
    })
}

/// In-memory span recorder shared by the driver thread and the rank
/// threads the benchmark's own closures run on.
pub struct Tracer {
    on: bool,
    workload: String,
    epoch: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool, workload: &str) -> Tracer {
        Tracer {
            on,
            workload: workload.to_string(),
            epoch: Instant::now(),
            next_id: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span named `name`, child of this thread's
    /// innermost open span.
    pub fn span<R>(&self, name: &str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let parent = STACK.with(|s| s.borrow().last().copied());
        self.record(name, parent, f)
    }

    /// Like [`Tracer::span`] on a thread that has no open span of its own
    /// (a rank thread): `parent` is the span on the spawning thread that
    /// caused the work.
    pub fn span_under<R>(&self, parent: Option<SpanId>, name: &str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        self.record(name, parent, f)
    }

    /// The innermost open span of the calling thread, to hand to
    /// [`Tracer::span_under`] on another thread.
    pub fn current(&self) -> Option<SpanId> {
        STACK.with(|s| s.borrow().last().copied())
    }

    fn record<R>(&self, name: &str, parent: Option<SpanId>, f: impl FnOnce() -> R) -> R {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        STACK.with(|s| s.borrow_mut().push(id));
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let out = f();
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        STACK.with(|s| s.borrow_mut().pop());
        self.spans
            .lock()
            .expect("span buffer poisoned: a traced closure panicked")
            .push(Span {
                id,
                parent,
                name: name.to_string(),
                tid: tid(),
                start_ns,
                end_ns,
            });
        out
    }

    /// Every span recorded so far, in id (= start) order.
    pub fn finish(&self) -> Vec<Span> {
        let mut spans = self
            .spans
            .lock()
            .expect("span buffer poisoned: a traced closure panicked")
            .clone();
        spans.sort_by_key(|s| s.id);
        spans
    }

    /// The trace document: one object per span, all sharing the workload id.
    pub fn to_json(&self, spans: &[Span]) -> Json {
        let selfs = self_times(spans);
        Json::obj([
            ("workload", Json::str(self.workload.clone())),
            ("clock", Json::str("ns since tracer start, monotonic")),
            (
                "spans",
                Json::Arr(
                    spans
                        .iter()
                        .map(|s| {
                            Json::obj([
                                ("id", Json::from(s.id as u64)),
                                (
                                    "parent",
                                    s.parent.map_or(Json::Null, |p| Json::from(p as u64)),
                                ),
                                ("name", Json::str(s.name.clone())),
                                ("workload", Json::str(self.workload.clone())),
                                ("tid", Json::from(s.tid as u64)),
                                ("start_ns", Json::from(s.start_ns)),
                                ("end_ns", Json::from(s.end_ns)),
                                ("self_ns", Json::from(selfs[&s.id])),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Self time of every span: its duration minus the part of that interval
/// its child spans cover. Children on *another* thread (rank threads under
/// a `Universe::run`) run beside the parent, not instead of it, so they do
/// not cover it: the parent's wait for them is the parent's own time, and
/// theirs is accounted on their own thread. Overlapping children are
/// covered once (interval union), and a child is clipped to its parent.
pub fn self_times(spans: &[Span]) -> BTreeMap<SpanId, u64> {
    let by_id: BTreeMap<SpanId, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let mut children: BTreeMap<SpanId, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        let Some(parent) = s.parent.and_then(|p| by_id.get(&p)) else {
            continue;
        };
        if parent.tid != s.tid {
            continue;
        }
        let (lo, hi) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
        if lo < hi {
            children.entry(parent.id).or_default().push((lo, hi));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0u64;
            if let Some(iv) = children.get_mut(&s.id) {
                iv.sort_unstable();
                let mut reach = 0u64;
                for &(lo, hi) in iv.iter() {
                    let lo = lo.max(reach);
                    if hi > lo {
                        covered += hi - lo;
                        reach = hi;
                    }
                }
            }
            (s.id, s.dur_ns() - covered)
        })
        .collect()
}

/// Self seconds summed per layer over the spans of `root`'s subtree that
/// run on `root`'s thread. Because same-thread spans nest, these add up to
/// `root`'s duration: the accounting identity the trace must keep.
pub fn layer_self_seconds(spans: &[Span], root: SpanId) -> BTreeMap<String, f64> {
    let selfs = self_times(spans);
    let by_id: BTreeMap<SpanId, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let Some(root_tid) = by_id.get(&root).map(|s| s.tid) else {
        return BTreeMap::new();
    };
    let under_root = |s: &Span| {
        let mut at = Some(s.id);
        while let Some(id) = at {
            if id == root {
                return true;
            }
            at = by_id.get(&id).and_then(|s| s.parent);
        }
        false
    };
    let mut out: BTreeMap<String, f64> = BTreeMap::new();
    for s in spans {
        if s.tid == root_tid && under_root(s) {
            *out.entry(s.layer().to_string()).or_default() += selfs[&s.id] as f64 * 1e-9;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(id: u32, parent: Option<u32>, name: &str, tid: u32, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name: name.into(),
            tid,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_same_thread_children() {
        let spans = vec![
            sp(0, None, "bench.root", 0, 0, 100),
            sp(1, Some(0), "core.multiply", 0, 10, 40),
            // overlaps span 1 by 10 ns: covered once
            sp(2, Some(0), "core.multiply", 0, 30, 60),
            // grandchild covers part of span 1 only
            sp(3, Some(1), "matrix.gemm", 0, 15, 25),
            // sticks out of its parent: clipped to [90, 100]
            sp(4, Some(0), "comm.run", 0, 90, 120),
        ];
        let st = self_times(&spans);
        assert_eq!(st[&0], 100 - (50 + 10));
        assert_eq!(st[&1], 30 - 10);
        assert_eq!(st[&2], 30);
        assert_eq!(st[&3], 10);
        assert_eq!(st[&4], 30);
    }

    #[test]
    fn children_on_other_threads_do_not_cover_the_parent() {
        let spans = vec![
            sp(0, None, "comm.run", 0, 0, 100),
            sp(1, Some(0), "comm.bcast", 1, 5, 95),
            sp(2, Some(0), "comm.bcast", 2, 5, 95),
        ];
        let st = self_times(&spans);
        assert_eq!(st[&0], 100, "the driver waited the whole interval");
        assert_eq!(st[&1] + st[&2], 180);
    }

    #[test]
    fn layer_self_seconds_add_up_to_the_root_duration() {
        let spans = vec![
            sp(0, None, "bench.workload", 0, 0, 1_000),
            sp(1, Some(0), "core.multiply", 0, 100, 600),
            sp(2, Some(1), "matrix.gemm", 0, 200, 500),
            sp(3, Some(0), "comm.run", 0, 700, 900),
            sp(4, Some(3), "comm.bcast", 1, 710, 890),
            sp(5, None, "bench.other_root", 0, 2_000, 3_000),
        ];
        let layers = layer_self_seconds(&spans, 0);
        let total: f64 = layers.values().sum();
        assert!((total - 1_000e-9).abs() < 1e-15, "{layers:?}");
        assert!((layers["core"] - 200e-9).abs() < 1e-15);
        assert!((layers["matrix"] - 300e-9).abs() < 1e-15);
        assert!((layers["comm"] - 200e-9).abs() < 1e-15);
        assert!((layers["bench"] - 300e-9).abs() < 1e-15);
    }

    #[test]
    fn tracer_nests_by_thread_and_is_silent_when_off() {
        let off = Tracer::new(false, "w");
        assert_eq!(off.span("core.x", || 7), 7);
        assert!(off.finish().is_empty());

        let tr = Tracer::new(true, "w");
        tr.span("bench.outer", || {
            tr.span("core.inner", || ());
            let parent = tr.current();
            std::thread::scope(|s| {
                s.spawn(|| tr.span_under(parent, "comm.rank", || ()));
            });
        });
        let spans = tr.finish();
        assert_eq!(spans.len(), 3);
        let outer = spans.iter().find(|s| s.name == "bench.outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "core.inner").unwrap();
        let rank = spans.iter().find(|s| s.name == "comm.rank").unwrap();
        assert_eq!(outer.parent, None);
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(rank.parent, Some(outer.id));
        assert_ne!(rank.tid, outer.tid);
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
    }
}
