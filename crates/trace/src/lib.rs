//! # fgh-trace — structured observability for the decomposition pipeline
//!
//! A zero-dependency, near-zero-overhead tracing layer. The pipeline
//! opens hierarchical **spans** around its phases
//! (`decompose → model-build → coarsen[level] → initial → fm-pass[i] →
//! decode`, and the SpMV executor's `expand → local-mult → fold`) and
//! attaches typed **counters** to them (vertices/nets per level, FM
//! moves/rollbacks, gain-bucket resizes, arena checkouts/reuses,
//! `parallel_forks`, budget checkpoints). Completed spans stream to the
//! tracer's in-memory [`CollectingSink`], which afterwards assembles them
//! into a deterministic [`Trace`] tree that renders as a human-readable
//! tree ([`Trace::render`]) or exports as machine-readable JSON
//! ([`Trace::to_value`] / [`Trace::to_json`], schema documented in
//! DESIGN.md §5.5).
//!
//! ## Overhead model
//!
//! A [`Tracer`] is either *enabled* (holds an `Arc` to a sink) or
//! *disabled* (holds nothing). Every span/counter operation on a disabled
//! tracer — and on the [`SpanHandle::noop`] handles the engines default
//! to — is a single `Option` discriminant test with **no clock reads and
//! no allocation**, so instrumented code costs nothing measurable when
//! tracing is off. Instrumentation sits at phase granularity (per level,
//! per FM pass), never inside per-move inner loops.
//!
//! ## Parallel runs
//!
//! [`SpanHandle`] is `Send + Sync + Clone`: a fork-join worker receives a
//! handle to its parent span and records its subtree under it, so traces
//! from `Threads(n)` runs stitch into the same tree a serial run
//! produces. Because [`Trace::from_records`] orders children by
//! `(name, index, start)` rather than by completion order, the assembled
//! tree is deterministic regardless of thread interleaving.
//!
//! ## Example
//!
//! ```
//! use fgh_trace::Tracer;
//!
//! let (tracer, sink) = Tracer::collecting();
//! {
//!     let root = tracer.span("decompose");
//!     let coarsen = root.child_indexed("coarsen", 0);
//!     coarsen.counter("vertices", 812);
//!     drop(coarsen);
//!     root.child("initial");
//! }
//! let trace = sink.build_trace();
//! assert_eq!(trace.roots.len(), 1);
//! assert_eq!(trace.roots[0].children.len(), 2);
//! println!("{}", trace.render());
//! ```

// Robustness contract: library (non-test) code must not panic; provably
// infallible sites carry a narrowly scoped `allow` with a justification.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod json;
mod sink;
mod tree;

pub use sink::CollectingSink;
pub use tree::{validate_trace_value, Trace, TraceNode};

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The `parent` id of a root span (no parent).
pub const NO_PARENT: u64 = 0;

/// A completed span, as delivered to a [`CollectingSink`]. `start_ns` is
/// relative to the owning [`Tracer`]'s epoch (its creation instant), so
/// spans from different threads of one run share a timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// Unique id within the tracer (ids start at 1; 0 means "no parent").
    pub id: u64,
    /// Id of the enclosing span, or [`NO_PARENT`].
    pub parent: u64,
    /// Phase name, e.g. `"coarsen"` or `"fm-pass"`.
    pub name: &'static str,
    /// Optional ordinal distinguishing repeated phases (`coarsen[3]`).
    pub index: Option<u64>,
    /// Start offset from the tracer epoch, in nanoseconds.
    pub start_ns: u64,
    /// Wall-clock duration, in nanoseconds.
    pub duration_ns: u64,
}

/// A typed counter attached to a span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterRecord {
    /// Id of the span the counter belongs to.
    pub span: u64,
    /// Counter name, e.g. `"fm_moves"`.
    pub name: &'static str,
    /// Counter value. Values recorded under the same `(span, name)` are
    /// summed during tree assembly.
    pub value: u64,
}

/// Shared state of an enabled tracer.
struct TracerCore {
    sink: Arc<CollectingSink>,
    epoch: Instant,
    next_id: AtomicU64,
}

impl TracerCore {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// Entry point: either enabled (records to a sink) or disabled (every
/// operation is a no-op branch). Cloning is cheap; clones share the sink,
/// the epoch, and the id counter.
#[derive(Clone, Default)]
pub struct Tracer {
    core: Option<Arc<TracerCore>>,
}

impl Tracer {
    /// A tracer that records nothing. All span operations reduce to an
    /// `Option` test.
    pub fn disabled() -> Tracer {
        Tracer { core: None }
    }

    /// A tracer recording to a fresh [`CollectingSink`], returned
    /// alongside it for later [`CollectingSink::build_trace`]. The epoch
    /// (zero of the span timeline) is the moment of this call.
    pub fn collecting() -> (Tracer, Arc<CollectingSink>) {
        let sink = Arc::new(CollectingSink::new());
        let core = Arc::new(TracerCore {
            sink: Arc::clone(&sink),
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
        });
        (Tracer { core: Some(core) }, sink)
    }

    /// `true` when spans will actually be recorded.
    pub fn is_enabled(&self) -> bool {
        self.core.is_some()
    }

    /// A handle to the (virtual) root scope; children created from it are
    /// root spans.
    pub fn root(&self) -> SpanHandle {
        SpanHandle {
            core: self.core.clone(),
            id: NO_PARENT,
        }
    }

    /// Opens a root span.
    pub fn span(&self, name: &'static str) -> Span {
        self.root().child(name)
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

/// A cheap, `Send + Sync + Clone` reference to an open span (or to the
/// root scope). Handles are how instrumented code receives its tracing
/// context: they create child spans and attach counters without owning
/// the span's lifetime. A [`SpanHandle::noop`] handle makes every
/// operation free — engines default to it so uninstrumented callers pay
/// nothing.
#[derive(Clone, Default)]
pub struct SpanHandle {
    core: Option<Arc<TracerCore>>,
    id: u64,
}

impl SpanHandle {
    /// A handle that records nothing.
    pub fn noop() -> SpanHandle {
        SpanHandle::default()
    }

    /// `true` when operations on this handle record to a sink.
    pub fn is_enabled(&self) -> bool {
        self.core.is_some()
    }

    /// Opens a child span under this scope.
    pub fn child(&self, name: &'static str) -> Span {
        self.open(name, None)
    }

    /// Opens an indexed child span (`name[index]`) under this scope.
    pub fn child_indexed(&self, name: &'static str, index: u64) -> Span {
        self.open(name, Some(index))
    }

    /// Attaches a counter to this span (summed with any other values
    /// recorded under the same name).
    pub fn counter(&self, name: &'static str, value: u64) {
        if let Some(core) = &self.core {
            core.sink.record_counter(CounterRecord {
                span: self.id,
                name,
                value,
            });
        }
    }

    fn open(&self, name: &'static str, index: Option<u64>) -> Span {
        match &self.core {
            None => Span::noop(),
            Some(core) => {
                // lint: atomic — relaxed: unique span-id counter; uniqueness needs atomicity, not ordering
                let id = core.next_id.fetch_add(1, Ordering::Relaxed);
                Span {
                    core: Some(core.clone()),
                    id,
                    parent: self.id,
                    name,
                    index,
                    start_ns: core.now_ns(),
                    start: Instant::now(),
                }
            }
        }
    }
}

impl std::fmt::Debug for SpanHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpanHandle")
            .field("id", &self.id)
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

/// An open span: an RAII guard that records a [`SpanRecord`] to the sink
/// when dropped. Obtain one from [`Tracer::span`], [`SpanHandle::child`],
/// or [`Span::child`].
pub struct Span {
    core: Option<Arc<TracerCore>>,
    id: u64,
    parent: u64,
    name: &'static str,
    index: Option<u64>,
    start_ns: u64,
    start: Instant,
}

impl Span {
    /// A span that records nothing — zero clock reads, zero allocation.
    pub fn noop() -> Span {
        Span {
            core: None,
            id: NO_PARENT,
            parent: NO_PARENT,
            name: "",
            index: None,
            start_ns: 0,
            // Never read back: `Drop` exits on `core == None` first.
            start: Instant::now(),
        }
    }

    /// `true` when this span will be recorded on drop.
    pub fn is_enabled(&self) -> bool {
        self.core.is_some()
    }

    /// A handle for creating children of this span (possibly from another
    /// thread) without tying them to this guard's lifetime.
    pub fn handle(&self) -> SpanHandle {
        SpanHandle {
            core: self.core.clone(),
            id: self.id,
        }
    }

    /// Opens a child span.
    pub fn child(&self, name: &'static str) -> Span {
        self.handle().child(name)
    }

    /// Opens an indexed child span (`name[index]`).
    pub fn child_indexed(&self, name: &'static str, index: u64) -> Span {
        self.handle().child_indexed(name, index)
    }

    /// Attaches a counter to this span.
    pub fn counter(&self, name: &'static str, value: u64) {
        self.handle().counter(name, value);
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(core) = &self.core {
            let duration_ns = u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            core.sink.record_span(SpanRecord {
                id: self.id,
                parent: self.parent,
                name: self.name,
                index: self.index,
                start_ns: self.start_ns,
                duration_ns,
            });
        }
    }
}

impl std::fmt::Debug for Span {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Span")
            .field("id", &self.id)
            .field("name", &self.name)
            .field("index", &self.index)
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::disabled();
        assert!(!t.is_enabled());
        let s = t.span("decompose");
        assert!(!s.is_enabled());
        let c = s.child_indexed("coarsen", 0);
        c.counter("vertices", 10);
        drop(c);
        drop(s);
        // Nothing to observe — the point is that none of the above panics
        // or allocates a sink.
        assert!(!t.root().is_enabled());
    }

    #[test]
    fn spans_nest_and_record() {
        let (t, sink) = Tracer::collecting();
        let root = t.span("decompose");
        {
            let c = root.child_indexed("coarsen", 1);
            c.counter("vertices", 7);
            c.counter("vertices", 3);
        }
        drop(root);
        let spans = sink.spans();
        assert_eq!(spans.len(), 2);
        let coarsen = spans.iter().find(|s| s.name == "coarsen").unwrap();
        let decomp = spans.iter().find(|s| s.name == "decompose").unwrap();
        assert_eq!(coarsen.parent, decomp.id);
        assert_eq!(decomp.parent, NO_PARENT);
        assert_eq!(coarsen.index, Some(1));
        let counters = sink.counters();
        assert_eq!(counters.len(), 2);
        assert!(counters.iter().all(|c| c.span == coarsen.id));
    }

    #[test]
    fn handles_cross_threads() {
        let (t, sink) = Tracer::collecting();
        let root = t.span("partition");
        let h = root.handle();
        std::thread::scope(|s| {
            for i in 0..4 {
                let h = h.clone();
                s.spawn(move || {
                    let d = h.child_indexed("domain", i);
                    d.counter("work", i);
                });
            }
        });
        drop(root);
        let trace = sink.build_trace();
        assert_eq!(trace.roots.len(), 1);
        let kids = &trace.roots[0].children;
        assert_eq!(kids.len(), 4);
        // Deterministic order by index regardless of completion order.
        let idx: Vec<_> = kids.iter().map(|k| k.index).collect();
        assert_eq!(idx, vec![Some(0), Some(1), Some(2), Some(3)]);
    }

    #[test]
    fn ids_are_unique_and_nonzero() {
        let (t, sink) = Tracer::collecting();
        for _ in 0..10 {
            t.span("x");
        }
        let spans = sink.spans();
        let mut ids: Vec<u64> = spans.iter().map(|s| s.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 10);
        assert!(ids.iter().all(|&i| i != NO_PARENT));
    }
}
