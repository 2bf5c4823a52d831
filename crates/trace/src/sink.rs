//! The in-memory destination for completed spans and counters.

use std::sync::Mutex;

use crate::tree::Trace;
use crate::{CounterRecord, SpanRecord};

/// A sink that buffers every record in memory, for assembling a
/// [`Trace`] after the traced region completes. It is thread-safe:
/// fork-join workers record concurrently, inline in the instrumented code
/// (at phase granularity, never inside per-move loops).
#[derive(Debug, Default)]
pub struct CollectingSink {
    spans: Mutex<Vec<SpanRecord>>,
    counters: Mutex<Vec<CounterRecord>>,
}

impl CollectingSink {
    /// An empty sink.
    pub fn new() -> CollectingSink {
        CollectingSink::default()
    }

    /// Snapshot of the spans recorded so far (completion order).
    pub fn spans(&self) -> Vec<SpanRecord> {
        match self.spans.lock() {
            Ok(g) => g.clone(),
            Err(_) => Vec::new(),
        }
    }

    /// Snapshot of the counters recorded so far.
    pub fn counters(&self) -> Vec<CounterRecord> {
        match self.counters.lock() {
            Ok(g) => g.clone(),
            Err(_) => Vec::new(),
        }
    }

    /// Assembles the records into a deterministic [`Trace`] tree.
    pub fn build_trace(&self) -> Trace {
        Trace::from_records(&self.spans(), &self.counters())
    }

    /// Records one span, when it closes.
    pub(crate) fn record_span(&self, span: SpanRecord) {
        if let Ok(mut g) = self.spans.lock() {
            g.push(span);
        }
    }

    /// Records one counter attachment.
    pub(crate) fn record_counter(&self, counter: CounterRecord) {
        if let Ok(mut g) = self.counters.lock() {
            g.push(counter);
        }
    }
}
