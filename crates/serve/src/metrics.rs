//! Live service counters and the final **`fgh-serve-metrics/1`**
//! report the daemon flushes on clean shutdown.
//!
//! # Schema `fgh-serve-metrics/1`
//!
//! ```json
//! {
//!   "schema": "fgh-serve-metrics/1",
//!   "accepted_connections": 70,
//!   "jobs": {
//!     "admitted": 64, "completed": 61, "cancelled": 2,
//!     "worker_panics": 1, "rejected_overloaded": 5,
//!     "rejected_bad_request": 3, "rejected_bad_frame": 2,
//!     "rejected_shutting_down": 1, "degraded": 4
//!   },
//!   "queue": {"capacity": 16, "peak_depth": 16},
//!   "cache": {
//!     "hits": 10, "misses": 51, "evictions": 2,
//!     "integrity_failures": 0, "bytes": 123456, "byte_cap": 8388608
//!   },
//!   "workers": {
//!     "configured": 4, "respawns": 0, "threads": 2, "parallel_forks": 37
//!   },
//!   "drain": {"clean": true, "drained_jobs": 3}
//! }
//! ```
//!
//! Every member is required; all are non-negative integers except the
//! two booleans-as-written (`drain.clean`). `workers.threads` is the
//! width of the partitioner pool every job shares, and
//! `workers.parallel_forks` counts the recursion subtrees completed
//! decomposes ran on another core: a count, not a time.
//! [`validate_serve_metrics_value`] is the checker CI's smoke job runs
//! against the uploaded artifact.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

use fgh_trace::json::Value;

/// The schema identifier stamped into every report.
pub const SERVE_METRICS_SCHEMA: &str = "fgh-serve-metrics/1";

/// Live counters, all relaxed atomics: observability only, never
/// synchronization.
#[derive(Debug, Default)]
pub struct ServeCounters {
    /// Connections accepted.
    pub accepted_connections: AtomicU64,
    /// Jobs admitted past the queue.
    pub admitted: AtomicU64,
    /// Jobs a worker answered, whatever the response: success (full or
    /// degraded), a typed error, or `worker-panic`. The drain waits for
    /// `admitted <= completed`, so every admitted job must count here.
    pub completed: AtomicU64,
    /// Jobs whose cancel token tripped (client disconnect or drain
    /// deadline) and that came back with the `cancelled` degraded code.
    pub cancelled_jobs: AtomicU64,
    /// Jobs lost to a worker panic (the worker survived via respawn or
    /// unwind containment).
    pub worker_panics: AtomicU64,
    /// Admission rejections: queue full.
    pub rejected_overloaded: AtomicU64,
    /// Parse-level rejections: invalid request object.
    pub rejected_bad_request: AtomicU64,
    /// Frame-level rejections: malformed frame.
    pub rejected_bad_frame: AtomicU64,
    /// Rejections because the daemon was draining.
    pub rejected_shutting_down: AtomicU64,
    /// Completed jobs whose outcome was degraded (any code).
    pub degraded: AtomicU64,
    /// Worker threads respawned by the supervisor.
    pub worker_respawns: AtomicU64,
    /// Recursion subtrees that ran on another core, summed over
    /// completed decomposes (`EngineStats::parallel_forks`).
    pub parallel_forks: AtomicU64,
}

impl ServeCounters {
    /// Relaxed increment.
    // lint: atomic — relaxed: monotonic metric counter; readers tolerate staleness
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Relaxed addition of `n`.
    // lint: atomic — relaxed: monotonic metric counter; readers tolerate staleness
    pub fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Relaxed read.
    // lint: atomic — relaxed: metric snapshot; cross-counter skew is acceptable
    pub fn get(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }
}

/// Point-in-time snapshot of everything the final report carries.
#[derive(Debug, Clone)]
pub struct ServeSnapshot {
    /// Connections accepted.
    pub accepted_connections: u64,
    /// See [`ServeCounters`].
    pub admitted: u64,
    /// See [`ServeCounters`].
    pub completed: u64,
    /// See [`ServeCounters`].
    pub cancelled_jobs: u64,
    /// See [`ServeCounters`].
    pub worker_panics: u64,
    /// See [`ServeCounters`].
    pub rejected_overloaded: u64,
    /// See [`ServeCounters`].
    pub rejected_bad_request: u64,
    /// See [`ServeCounters`].
    pub rejected_bad_frame: u64,
    /// See [`ServeCounters`].
    pub rejected_shutting_down: u64,
    /// See [`ServeCounters`].
    pub degraded: u64,
    /// See [`ServeCounters`].
    pub worker_respawns: u64,
    /// Queue admission capacity.
    pub queue_capacity: u64,
    /// Deepest observed queue.
    pub queue_peak_depth: u64,
    /// Plan-cache hits.
    pub cache_hits: u64,
    /// Plan-cache misses.
    pub cache_misses: u64,
    /// Plan-cache LRU evictions.
    pub cache_evictions: u64,
    /// Cache hits whose plan failed the matrix-free check against the
    /// order and nonzero count recorded with it and the request's K
    /// (entry discarded, recomputed).
    pub cache_integrity_failures: u64,
    /// Bytes currently held by the cache.
    pub cache_bytes: u64,
    /// The cache byte cap.
    pub cache_byte_cap: u64,
    /// Configured worker count.
    pub workers: u64,
    /// Width of the partitioner pool all jobs share (1: serial jobs).
    pub threads: u64,
    /// See [`ServeCounters`].
    pub parallel_forks: u64,
    /// Whether shutdown drained every in-flight job inside the deadline.
    pub drain_clean: bool,
    /// Jobs completed during the drain window.
    pub drained_jobs: u64,
}

fn num(n: u64) -> Value {
    Value::Num(n as f64)
}

impl ServeSnapshot {
    /// Assembles the `fgh-serve-metrics/1` document.
    pub fn to_document(&self) -> Value {
        let mut jobs = BTreeMap::new();
        jobs.insert("admitted".into(), num(self.admitted));
        jobs.insert("completed".into(), num(self.completed));
        jobs.insert("cancelled".into(), num(self.cancelled_jobs));
        jobs.insert("worker_panics".into(), num(self.worker_panics));
        jobs.insert("rejected_overloaded".into(), num(self.rejected_overloaded));
        jobs.insert(
            "rejected_bad_request".into(),
            num(self.rejected_bad_request),
        );
        jobs.insert("rejected_bad_frame".into(), num(self.rejected_bad_frame));
        jobs.insert(
            "rejected_shutting_down".into(),
            num(self.rejected_shutting_down),
        );
        jobs.insert("degraded".into(), num(self.degraded));

        let mut queue = BTreeMap::new();
        queue.insert("capacity".into(), num(self.queue_capacity));
        queue.insert("peak_depth".into(), num(self.queue_peak_depth));

        let mut cache = BTreeMap::new();
        cache.insert("hits".into(), num(self.cache_hits));
        cache.insert("misses".into(), num(self.cache_misses));
        cache.insert("evictions".into(), num(self.cache_evictions));
        cache.insert(
            "integrity_failures".into(),
            num(self.cache_integrity_failures),
        );
        cache.insert("bytes".into(), num(self.cache_bytes));
        cache.insert("byte_cap".into(), num(self.cache_byte_cap));

        let mut workers = BTreeMap::new();
        workers.insert("configured".into(), num(self.workers));
        workers.insert("respawns".into(), num(self.worker_respawns));
        workers.insert("threads".into(), num(self.threads));
        workers.insert("parallel_forks".into(), num(self.parallel_forks));

        let mut drain = BTreeMap::new();
        drain.insert("clean".into(), Value::Bool(self.drain_clean));
        drain.insert("drained_jobs".into(), num(self.drained_jobs));

        let mut doc = BTreeMap::new();
        doc.insert("schema".into(), Value::Str(SERVE_METRICS_SCHEMA.into()));
        doc.insert(
            "accepted_connections".into(),
            num(self.accepted_connections),
        );
        doc.insert("jobs".into(), Value::Obj(jobs));
        doc.insert("queue".into(), Value::Obj(queue));
        doc.insert("cache".into(), Value::Obj(cache));
        doc.insert("workers".into(), Value::Obj(workers));
        doc.insert("drain".into(), Value::Obj(drain));
        Value::Obj(doc)
    }
}

const JOB_MEMBERS: [&str; 9] = [
    "admitted",
    "completed",
    "cancelled",
    "worker_panics",
    "rejected_overloaded",
    "rejected_bad_request",
    "rejected_bad_frame",
    "rejected_shutting_down",
    "degraded",
];
const QUEUE_MEMBERS: [&str; 2] = ["capacity", "peak_depth"];
const CACHE_MEMBERS: [&str; 6] = [
    "hits",
    "misses",
    "evictions",
    "integrity_failures",
    "bytes",
    "byte_cap",
];
const WORKER_MEMBERS: [&str; 4] = ["configured", "respawns", "threads", "parallel_forks"];

fn require_counters(v: Option<&Value>, members: &[&str], path: &str) -> Result<(), String> {
    let v = v.ok_or(format!("{path}: missing"))?;
    let obj = v.as_obj().ok_or(format!("{path}: expected an object"))?;
    for key in obj.keys() {
        if !members.contains(&key.as_str()) {
            return Err(format!("{path}: unknown member {key:?}"));
        }
    }
    for m in members {
        obj.get(*m)
            .and_then(Value::as_u64)
            .ok_or(format!("{path}.{m}: expected a non-negative integer"))?;
    }
    Ok(())
}

/// Validates a parsed JSON value against the `fgh-serve-metrics/1`
/// schema: exact member sets, counter types, and the drain object.
/// Returns the first violation as a `path: problem` message.
pub fn validate_serve_metrics_value(v: &Value) -> Result<(), String> {
    let obj = v
        .as_obj()
        .ok_or("serve-metrics: expected an object".to_string())?;
    const TOP: [&str; 6] = [
        "schema",
        "accepted_connections",
        "jobs",
        "queue",
        "cache",
        "workers",
    ];
    for key in obj.keys() {
        if !TOP.contains(&key.as_str()) && key != "drain" {
            return Err(format!("serve-metrics: unknown member {key:?}"));
        }
    }
    match v.get("schema").and_then(Value::as_str) {
        Some(s) if s == SERVE_METRICS_SCHEMA => {}
        Some(s) => return Err(format!("serve-metrics.schema: unknown schema {s:?}")),
        None => return Err("serve-metrics.schema: missing".to_string()),
    }
    v.get("accepted_connections")
        .and_then(Value::as_u64)
        .ok_or("serve-metrics.accepted_connections: expected a non-negative integer")?;
    require_counters(v.get("jobs"), &JOB_MEMBERS, "serve-metrics.jobs")?;
    require_counters(v.get("queue"), &QUEUE_MEMBERS, "serve-metrics.queue")?;
    require_counters(v.get("cache"), &CACHE_MEMBERS, "serve-metrics.cache")?;
    require_counters(v.get("workers"), &WORKER_MEMBERS, "serve-metrics.workers")?;
    let drain = v
        .get("drain")
        .ok_or("serve-metrics.drain: missing")?
        .as_obj()
        .ok_or("serve-metrics.drain: expected an object")?;
    for key in drain.keys() {
        if key != "clean" && key != "drained_jobs" {
            return Err(format!("serve-metrics.drain: unknown member {key:?}"));
        }
    }
    match drain.get("clean") {
        Some(Value::Bool(_)) => {}
        _ => return Err("serve-metrics.drain.clean: expected a boolean".to_string()),
    }
    drain
        .get("drained_jobs")
        .and_then(Value::as_u64)
        .ok_or("serve-metrics.drain.drained_jobs: expected a non-negative integer")?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot() -> ServeSnapshot {
        ServeSnapshot {
            accepted_connections: 70,
            admitted: 64,
            completed: 61,
            cancelled_jobs: 2,
            worker_panics: 1,
            rejected_overloaded: 5,
            rejected_bad_request: 3,
            rejected_bad_frame: 2,
            rejected_shutting_down: 1,
            degraded: 4,
            worker_respawns: 0,
            queue_capacity: 16,
            queue_peak_depth: 16,
            cache_hits: 10,
            cache_misses: 51,
            cache_evictions: 2,
            cache_integrity_failures: 0,
            cache_bytes: 123456,
            cache_byte_cap: 8 << 20,
            workers: 4,
            threads: 2,
            parallel_forks: 37,
            drain_clean: true,
            drained_jobs: 3,
        }
    }

    #[test]
    fn document_validates_and_round_trips() {
        let doc = snapshot().to_document();
        validate_serve_metrics_value(&doc).unwrap();
        let text = doc.to_json();
        let back = fgh_trace::json::parse(&text).unwrap();
        validate_serve_metrics_value(&back).unwrap();
        assert_eq!(
            back.get("jobs").unwrap().get("cancelled").unwrap().as_u64(),
            Some(2)
        );
    }

    #[test]
    fn validator_rejects_mutations() {
        let good = snapshot().to_document().to_json();
        for (needle, replacement, why) in [
            (
                r#""schema":"fgh-serve-metrics/1""#,
                r#""schema":"bogus/1""#,
                "schema",
            ),
            (r#""clean":true"#, r#""clean":"yes""#, "drain.clean type"),
            (r#""worker_panics""#, r#""worker_paniks""#, "jobs member"),
            (r#""hits":10"#, r#""hits":-10"#, "negative counter"),
            (r#""threads":2"#, r#""threadz":2"#, "workers member"),
            (
                r#""parallel_forks":37"#,
                r#""parallel_forks":0.5"#,
                "fractional counter",
            ),
        ] {
            let bad = good.replace(needle, replacement);
            assert_ne!(good, bad, "mutation {why} did not apply");
            let v = fgh_trace::json::parse(&bad).unwrap();
            assert!(
                validate_serve_metrics_value(&v).is_err(),
                "accepted bad {why}"
            );
        }
    }
}
