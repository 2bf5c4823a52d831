//! Job execution: one queued decomposition request → one response
//! frame, with panic containment and poisoned-state quarantine.
//!
//! Each worker thread loops on the shared [`BoundedQueue`], wrapping
//! every job in `catch_unwind`: a panicking job (an engine defect, or an
//! injected fault in tests) produces a typed `worker-panic` response and
//! the worker keeps serving. Because a mid-partition panic can strand
//! arenas or leave shared warm state suspect, the panic also
//! *quarantines* the shared [`EngineSession`] — the supervisor swaps in
//! a fresh session (fresh [`fgh_core::ArenaPool`]), so no later job ever
//! draws scratch that a dying job touched.
//!
//! [`BoundedQueue`]: crate::queue::BoundedQueue

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::SyncSender;
use std::sync::Arc;
use std::time::{Duration, Instant};

use fgh_core::report::{metrics_document, spgemm_metrics_document};
use fgh_core::{
    decompose_workload_any_in, Budget, CancelToken, DecompositionOutcome, EngineSession, FghError,
    JobParams, Model, SpgemmOutcome, WorkloadAny,
};
use fgh_invariant::{lock_order, OrderedMutex, OrderedMutexGuard};
use fgh_sparse::io::parse_matrix_market_bytes_any;
use fgh_sparse::{catalog, AnyCsrMatrix};
use fgh_trace::json::Value;

use crate::cache::{fnv1a, CachedPlan, PlanCache};
use crate::metrics::ServeCounters;
use crate::protocol::{codes, error_response, DecomposeRequest, MatrixSource};

/// What one queued job executes: a single decompose request, or a whole
/// batch run back-to-back on one queue slot.
pub enum JobPayload {
    /// One `{"op":"decompose"}` request.
    Single(Box<DecomposeRequest>),
    /// One `{"op":"batch"}` frame's requests, in order.
    Batch(Vec<DecomposeRequest>),
}

/// One admitted decomposition job, queued for a worker.
pub struct Job {
    /// The validated request(s).
    pub request: JobPayload,
    /// Tripped by the connection thread on client disconnect and by the
    /// server when the drain deadline expires.
    pub cancel: CancelToken,
    /// Where the response frame goes (the connection thread relays it).
    pub respond: SyncSender<Value>,
}

/// The shared engine handle with quarantine: workers take a cheap clone
/// per job; a panic swaps the stored session for a fresh one.
pub struct SharedSession {
    inner: OrderedMutex<EngineSession>,
}

impl SharedSession {
    /// Wraps a session for shared use.
    pub fn new(session: EngineSession) -> Self {
        SharedSession {
            inner: OrderedMutex::new("SessionState", lock_order::SESSION_STATE, session),
        }
    }

    fn lock(&self) -> OrderedMutexGuard<'_, EngineSession> {
        match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// A clone of the current session (shares its arena pool).
    pub fn current(&self) -> EngineSession {
        self.lock().clone()
    }

    /// Discards the current session for a fresh one — nothing a
    /// panicking job may have poisoned survives into later jobs.
    pub fn quarantine(&self) {
        *self.lock() = EngineSession::new();
    }

    /// Warm arenas parked in the current session's pool.
    pub fn idle_arenas(&self) -> usize {
        self.lock().idle_arenas()
    }
}

fn num(n: u64) -> Value {
    Value::Num(n as f64)
}

/// Stable content-identity + parameters hash — the plan-cache key.
fn cache_key(req: &DecomposeRequest) -> u64 {
    let mut descriptor = String::new();
    match &req.source {
        MatrixSource::Catalog {
            name,
            scale,
            gen_seed,
        } => {
            descriptor.push_str("catalog:");
            descriptor.push_str(&name.to_ascii_lowercase());
            descriptor.push_str(&format!(":{scale}:{gen_seed}"));
        }
        MatrixSource::Inline(mm) => {
            descriptor.push_str(&format!("inline:{:016x}", fnv1a(mm.as_bytes())));
        }
    }
    descriptor.push_str(&format!(
        "|model={}|k={}|eps={}|seed={}|runs={}",
        req.model, req.k, req.epsilon, req.seed, req.runs
    ));
    fnv1a(descriptor.as_bytes())
}

/// Builds the matrix a request names. Errors are client-attributable.
fn build_matrix(source: &MatrixSource) -> Result<AnyCsrMatrix, String> {
    match source {
        MatrixSource::Catalog {
            name,
            scale,
            gen_seed,
        } => {
            let entry =
                catalog::by_name(name).ok_or_else(|| format!("unknown catalog matrix {name:?}"))?;
            Ok(AnyCsrMatrix::U32(entry.generate_scaled(*scale, *gen_seed)))
        }
        MatrixSource::Inline(mm) => parse_matrix_market_bytes_any(mm.as_bytes())
            .and_then(|coo| coo.try_into_csr())
            .map_err(|e| format!("matrix_mm: {e}")),
    }
}

fn owners_array(owners: &[u32]) -> Value {
    Value::Arr(owners.iter().map(|&o| num(o as u64)).collect())
}

fn success_response(
    req: &DecomposeRequest,
    plan: &CachedPlan,
    cache_hit: bool,
    elapsed: Duration,
) -> Value {
    let mut doc = BTreeMap::new();
    doc.insert("ok".into(), Value::Bool(true));
    doc.insert(
        "status".into(),
        Value::Str(
            if plan.degraded_code.is_some() {
                "degraded"
            } else {
                "full"
            }
            .into(),
        ),
    );
    doc.insert(
        "degraded_code".into(),
        plan.degraded_code
            .map_or(Value::Null, |c| Value::Str(c.into())),
    );
    doc.insert(
        "degraded_reason".into(),
        plan.degraded_reason.clone().map_or(Value::Null, Value::Str),
    );
    doc.insert("k".into(), num(req.k as u64));
    doc.insert(
        "nnz".into(),
        num(plan.decomposition.nonzero_owner.len() as u64),
    );
    doc.insert("objective".into(), num(plan.objective));
    doc.insert("volume".into(), num(plan.volume));
    doc.insert("imbalance".into(), Value::Num(plan.imbalance));
    doc.insert(
        "cache".into(),
        Value::Str(if cache_hit { "hit" } else { "miss" }.into()),
    );
    let elapsed_ns = elapsed.as_nanos().min(u64::MAX as u128) as u64;
    doc.insert("elapsed_ns".into(), num(elapsed_ns));
    if req.include_owners {
        doc.insert(
            "nonzero_owner".into(),
            owners_array(&plan.decomposition.nonzero_owner),
        );
        doc.insert(
            "vec_owner".into(),
            owners_array(&plan.decomposition.vec_owner),
        );
    }
    Value::Obj(doc)
}

fn plan_from_outcome(out: &DecompositionOutcome) -> CachedPlan {
    CachedPlan {
        decomposition: out.decomposition.clone(),
        objective: out.objective,
        volume: out.stats.total_volume(),
        imbalance: out.stats.load_imbalance_percent(),
        degraded_code: out.status.code(),
        degraded_reason: out.status.reason().map(ToString::to_string),
    }
}

/// Honors a request's fault-injection directive (tests/self-test only).
fn apply_injection(fault_injection: bool, req: &DecomposeRequest, cancel: &CancelToken) {
    if !fault_injection {
        return;
    }
    if let Some(inject) = req.inject.as_deref() {
        if inject == "panic" {
            panic!("injected worker fault (inject=panic)");
        }
        if let Some(ms) = inject.strip_prefix("sleep_ms:") {
            if let Ok(ms) = ms.parse::<u64>() {
                // Cooperative stall: sleep in slices so cancellation
                // (client disconnect, drain deadline) cuts it short.
                let deadline = Instant::now() + Duration::from_millis(ms.min(60_000));
                while Instant::now() < deadline && !cancel.is_cancelled() {
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
        }
    }
}

/// Runs one job to a response [`Value`]. Never panics on well-behaved
/// engine code; deliberate fault injection panics are the caller's
/// `catch_unwind` business.
pub fn execute_job(
    session: &EngineSession,
    cache: &PlanCache,
    counters: &ServeCounters,
    fault_injection: bool,
    req: &DecomposeRequest,
    cancel: &CancelToken,
) -> Value {
    let start = Instant::now();
    apply_injection(fault_injection, req, cancel);

    // SpGEMM jobs bypass the plan cache: the cached-plan shape (a 2D
    // SpMV decomposition) does not fit a task-hypergraph outcome, and
    // the traffic counters are cheap relative to the partitioning.
    if req.workload == "spgemm" {
        return execute_workload(session, counters, req, cancel, false);
    }

    let a = match build_matrix(&req.source) {
        Ok(a) => a,
        Err(e) => return error_response(codes::BAD_REQUEST, &e, None),
    };
    let model: Model = match req.model.parse() {
        Ok(m) => m,
        Err(e) => return error_response(codes::BAD_REQUEST, &e, None),
    };

    let key = cache_key(req);
    if let Some(plan) = cache.get(key) {
        // Integrity revalidation: a cached plan must still be a valid
        // decomposition of the freshly built matrix. A corrupted or
        // colliding entry is quarantined and the job recomputes.
        let valid = match &a {
            AnyCsrMatrix::U32(m) => plan.decomposition.validate(m).is_ok(),
            AnyCsrMatrix::U64(m) => plan.decomposition.validate(m).is_ok(),
        };
        if valid {
            if plan.degraded_code.is_some() {
                ServeCounters::bump(&counters.degraded);
            }
            return success_response(req, &plan, true, start.elapsed());
        }
        cache.quarantine(key);
    }

    let mut budget = Budget::UNLIMITED;
    if let Some(ms) = req.budget_ms {
        budget.max_wall = Some(Duration::from_millis(ms));
    }
    if let Some(bytes) = req.budget_bytes {
        budget.max_bytes = Some(bytes.min(usize::MAX as u64) as usize); // min-clamp makes the u64 -> usize conversion lossless
    }
    let params = JobParams::new(model, req.k)
        .with_epsilon(req.epsilon)
        .with_seed(req.seed)
        .with_runs(req.runs)
        .with_budget(budget)
        .with_cancel(cancel.clone());

    match session
        .decompose_workload_any(WorkloadAny::Spmv(&a), params)
        .and_then(fgh_core::WorkloadOutcome::into_spmv)
    {
        Ok(out) => {
            if out.engine.cancelled() {
                ServeCounters::bump(&counters.cancelled_jobs);
            }
            if out.status.is_degraded() {
                ServeCounters::bump(&counters.degraded);
            }
            let plan = plan_from_outcome(&out);
            // Only full outcomes are worth caching: a degraded partial
            // (budget, cancellation) is not the answer the next caller
            // with the same parameters wants.
            if !out.status.is_degraded() {
                cache.put(key, plan.clone());
            }
            success_response(req, &plan, false, start.elapsed())
        }
        Err(e) => fgh_error_response(&e),
    }
}

/// Maps a typed engine error onto the protocol's stable error codes.
fn fgh_error_response(e: &FghError) -> Value {
    match e {
        FghError::UnsupportedWidth { model, width } => error_response(
            codes::UNSUPPORTED_WIDTH,
            &format!(
                "model {model} cannot run at {}-bit indices; width-capable models: \
                 graph-1d, hypergraph-1d-colnet, hypergraph-1d-rownet, fine-grain-2d",
                width.bits()
            ),
            None,
        ),
        FghError::InvalidInput(_) | FghError::Sparse(_) | FghError::Model(_) => {
            error_response(codes::BAD_REQUEST, &e.to_string(), None)
        }
        _ => error_response(codes::DECOMPOSE_FAILED, &e.to_string(), None),
    }
}

/// Replays the partitioned SpGEMM through the storage-traffic simulator
/// at the outcome's carrier width. `Null` only when the replay itself
/// fails (a decode/validation defect — the counters are never guessed).
fn spgemm_traffic(a: &AnyCsrMatrix, b: &AnyCsrMatrix, out: &SpgemmOutcome) -> Value {
    let (aw, bw) = match (a.convert_width(out.width), b.convert_width(out.width)) {
        (Ok(aw), Ok(bw)) => (aw, bw),
        _ => return Value::Null,
    };
    let report = match (&aw, &bw) {
        (AnyCsrMatrix::U32(a), AnyCsrMatrix::U32(b)) => {
            fgh_traffic::simulate(a, b, &out.decomposition)
        }
        (AnyCsrMatrix::U64(a), AnyCsrMatrix::U64(b)) => {
            fgh_traffic::simulate(a, b, &out.decomposition)
        }
        _ => return Value::Null,
    };
    report.map_or(Value::Null, |r| r.to_value())
}

/// Executes one decompose body fresh (no plan cache) for either
/// workload, returning a full response document. With `embed_metrics`
/// the document carries the request's validated `fgh-metrics/1` report
/// under `"metrics"` — the batch-response contract. SpGEMM responses
/// always carry the simulator's `"traffic"` counters and `"flops"`.
pub fn execute_workload(
    session: &EngineSession,
    counters: &ServeCounters,
    req: &DecomposeRequest,
    cancel: &CancelToken,
    embed_metrics: bool,
) -> Value {
    let start = Instant::now();
    let a = match build_matrix(&req.source) {
        Ok(a) => a,
        Err(e) => return error_response(codes::BAD_REQUEST, &e, None),
    };
    let model: Model = match req.model.parse() {
        Ok(m) => m,
        Err(e) => return error_response(codes::BAD_REQUEST, &e, None),
    };
    let mut budget = Budget::UNLIMITED;
    if let Some(ms) = req.budget_ms {
        budget.max_wall = Some(Duration::from_millis(ms));
    }
    if let Some(bytes) = req.budget_bytes {
        budget.max_bytes = Some(bytes.min(usize::MAX as u64) as usize); // min-clamp makes the u64 -> usize conversion lossless
    }
    let params = JobParams::new(model, req.k)
        .with_epsilon(req.epsilon)
        .with_seed(req.seed)
        .with_runs(req.runs)
        .with_budget(budget)
        .with_cancel(cancel.clone());
    let cfg = params.into_config(session);

    let mut doc = BTreeMap::new();
    doc.insert("ok".into(), Value::Bool(true));
    doc.insert("k".into(), num(req.k as u64));
    doc.insert("cache".into(), Value::Str("bypass".into()));
    doc.insert("workload".into(), Value::Str(req.workload.clone()));

    if req.workload == "spgemm" {
        let b_owned;
        let b = match &req.source_b {
            Some(s) => match build_matrix(s) {
                Ok(m) => {
                    b_owned = m;
                    &b_owned
                }
                Err(e) => return error_response(codes::BAD_REQUEST, &e, None),
            },
            None => &a, // default: the A·A product
        };
        let out = decompose_workload_any_in(WorkloadAny::Spgemm(&a, b), &cfg, session.pool())
            .and_then(fgh_core::WorkloadOutcome::into_spgemm);
        let out = match out {
            Ok(o) => o,
            Err(e) => return fgh_error_response(&e),
        };
        if out.engine.cancelled() {
            ServeCounters::bump(&counters.cancelled_jobs);
        }
        if out.status.is_degraded() {
            ServeCounters::bump(&counters.degraded);
        }
        status_fields(&mut doc, out.status.code(), out.status.reason());
        doc.insert("nnz".into(), num(a.nnz() as u64));
        doc.insert("flops".into(), num(out.flops));
        doc.insert("objective".into(), num(out.objective));
        doc.insert("volume".into(), num(out.stats.total_volume()));
        doc.insert(
            "imbalance".into(),
            Value::Num(out.stats.load_imbalance_percent()),
        );
        let traffic = spgemm_traffic(&a, b, &out);
        if embed_metrics {
            let traffic_ref = if traffic.is_null() {
                None
            } else {
                Some(&traffic)
            };
            let metrics = match (&a.convert_width(out.width), &b.convert_width(out.width)) {
                (Ok(AnyCsrMatrix::U32(aw)), Ok(AnyCsrMatrix::U32(bw))) => {
                    spgemm_metrics_document(aw, bw, &cfg, &out, traffic_ref)
                }
                (Ok(AnyCsrMatrix::U64(aw)), Ok(AnyCsrMatrix::U64(bw))) => {
                    spgemm_metrics_document(aw, bw, &cfg, &out, traffic_ref)
                }
                _ => Value::Null,
            };
            doc.insert("metrics".into(), metrics);
        }
        doc.insert("traffic".into(), traffic);
    } else {
        let out = decompose_workload_any_in(WorkloadAny::Spmv(&a), &cfg, session.pool())
            .and_then(fgh_core::WorkloadOutcome::into_spmv);
        let out = match out {
            Ok(o) => o,
            Err(e) => return fgh_error_response(&e),
        };
        if out.engine.cancelled() {
            ServeCounters::bump(&counters.cancelled_jobs);
        }
        if out.status.is_degraded() {
            ServeCounters::bump(&counters.degraded);
        }
        status_fields(&mut doc, out.status.code(), out.status.reason());
        doc.insert(
            "nnz".into(),
            num(out.decomposition.nonzero_owner.len() as u64),
        );
        doc.insert("objective".into(), num(out.objective));
        doc.insert("volume".into(), num(out.stats.total_volume()));
        doc.insert(
            "imbalance".into(),
            Value::Num(out.stats.load_imbalance_percent()),
        );
        if embed_metrics {
            let metrics = match &a {
                AnyCsrMatrix::U32(m) => metrics_document(m, &cfg, &out),
                AnyCsrMatrix::U64(m) => metrics_document(m, &cfg, &out),
            };
            doc.insert("metrics".into(), metrics);
        }
    }
    let elapsed_ns = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
    doc.insert("elapsed_ns".into(), num(elapsed_ns));
    Value::Obj(doc)
}

fn status_fields(
    doc: &mut BTreeMap<String, Value>,
    code: Option<&'static str>,
    reason: Option<impl std::fmt::Display>,
) {
    doc.insert(
        "status".into(),
        Value::Str(if code.is_some() { "degraded" } else { "full" }.into()),
    );
    doc.insert(
        "degraded_code".into(),
        code.map_or(Value::Null, |c| Value::Str(c.into())),
    );
    doc.insert(
        "degraded_reason".into(),
        reason.map_or(Value::Null, |r| Value::Str(r.to_string())),
    );
}

/// Executes a batch payload: every body runs back-to-back on this worker
/// (cache-bypassing, metrics embedded), and the frame-level status rolls
/// up the worst sub-result — `full` only when every body succeeded
/// fully, `degraded` with the first degradation's code otherwise.
pub fn execute_batch(
    session: &EngineSession,
    counters: &ServeCounters,
    fault_injection: bool,
    reqs: &[DecomposeRequest],
    cancel: &CancelToken,
) -> Value {
    let start = Instant::now();
    let mut results = Vec::with_capacity(reqs.len());
    let mut first_code: Option<String> = None;
    let mut first_reason: Option<String> = None;
    for req in reqs {
        apply_injection(fault_injection, req, cancel);
        let r = execute_workload(session, counters, req, cancel, true);
        if first_code.is_none() {
            match r.get("ok") {
                Some(Value::Bool(true)) => {
                    if let Some(code) = r.get("degraded_code").and_then(Value::as_str) {
                        first_code = Some(code.to_string());
                        first_reason = r
                            .get("degraded_reason")
                            .and_then(Value::as_str)
                            .map(str::to_string);
                    }
                }
                _ => {
                    let err = r.get("error");
                    first_code = Some(
                        err.and_then(|e| e.get("code"))
                            .and_then(Value::as_str)
                            .unwrap_or(codes::DECOMPOSE_FAILED)
                            .to_string(),
                    );
                    first_reason = err
                        .and_then(|e| e.get("message"))
                        .and_then(Value::as_str)
                        .map(str::to_string);
                }
            }
        }
        results.push(r);
    }
    let mut doc = BTreeMap::new();
    doc.insert("ok".into(), Value::Bool(true));
    doc.insert("op".into(), Value::Str("batch".into()));
    status_fields(&mut doc, None::<&'static str>, None::<String>);
    if let Some(code) = first_code {
        doc.insert("status".into(), Value::Str("degraded".into()));
        doc.insert("degraded_code".into(), Value::Str(code));
        doc.insert(
            "degraded_reason".into(),
            first_reason.map_or(Value::Null, Value::Str),
        );
    }
    doc.insert("results".into(), Value::Arr(results));
    let elapsed_ns = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
    doc.insert("elapsed_ns".into(), num(elapsed_ns));
    Value::Obj(doc)
}

/// The worker loop: pop, execute under `catch_unwind`, respond, repeat.
/// Exits when the queue is closed and empty. On a job panic the response
/// is a typed `worker-panic` error and the shared session is
/// quarantined; the loop itself survives.
pub fn worker_loop(
    queue: Arc<crate::queue::BoundedQueue<Job>>,
    session: Arc<SharedSession>,
    cache: Arc<PlanCache>,
    counters: Arc<ServeCounters>,
    fault_injection: bool,
) {
    loop {
        let Some(job) = queue.pop(Duration::from_millis(100)) else {
            if queue.is_closed() {
                return;
            }
            continue;
        };
        let snapshot = session.current();
        let result = catch_unwind(AssertUnwindSafe(|| match &job.request {
            JobPayload::Single(req) => execute_job(
                &snapshot,
                &cache,
                &counters,
                fault_injection,
                req,
                &job.cancel,
            ),
            JobPayload::Batch(reqs) => {
                execute_batch(&snapshot, &counters, fault_injection, reqs, &job.cancel)
            }
        }));
        let response = match result {
            Ok(v) => v,
            Err(_) => {
                ServeCounters::bump(&counters.worker_panics);
                session.quarantine();
                error_response(
                    codes::WORKER_PANIC,
                    "worker panicked executing the job; the daemon and worker pool survive",
                    None,
                )
            }
        };
        ServeCounters::bump(&counters.completed);
        // A disconnected client (dropped receiver) is fine — the
        // response is simply unobserved.
        let _ = job.respond.send(response);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request(k: u32) -> DecomposeRequest {
        DecomposeRequest {
            source: MatrixSource::Catalog {
                name: "bcspwr10".into(),
                scale: 48,
                gen_seed: 7,
            },
            model: "fine-grain-2d".into(),
            k,
            epsilon: 0.03,
            seed: 1,
            runs: 1,
            budget_ms: None,
            budget_bytes: None,
            include_owners: false,
            inject: None,
            workload: "spmv".into(),
            source_b: None,
        }
    }

    fn fixture() -> (EngineSession, PlanCache, ServeCounters) {
        (
            EngineSession::new(),
            PlanCache::new(8 << 20),
            ServeCounters::default(),
        )
    }

    #[test]
    fn decompose_then_cache_hit() {
        let (session, cache, counters) = fixture();
        let token = CancelToken::new();
        let r1 = execute_job(&session, &cache, &counters, false, &request(4), &token);
        assert_eq!(r1.get("ok"), Some(&Value::Bool(true)));
        assert_eq!(r1.get("cache").unwrap().as_str(), Some("miss"));
        let r2 = execute_job(&session, &cache, &counters, false, &request(4), &token);
        assert_eq!(r2.get("cache").unwrap().as_str(), Some("hit"));
        assert_eq!(r1.get("volume"), r2.get("volume"));
        // Different K is a different key.
        let r3 = execute_job(&session, &cache, &counters, false, &request(2), &token);
        assert_eq!(r3.get("cache").unwrap().as_str(), Some("miss"));
    }

    #[test]
    fn unknown_matrix_and_model_are_bad_requests() {
        let (session, cache, counters) = fixture();
        let token = CancelToken::new();
        let mut req = request(4);
        req.source = MatrixSource::Catalog {
            name: "no-such-matrix".into(),
            scale: 1,
            gen_seed: 1,
        };
        let r = execute_job(&session, &cache, &counters, false, &req, &token);
        assert_eq!(
            r.get("error").unwrap().get("code").unwrap().as_str(),
            Some(codes::BAD_REQUEST)
        );
        let mut req = request(4);
        req.model = "quantum-3d".into();
        let r = execute_job(&session, &cache, &counters, false, &req, &token);
        assert_eq!(
            r.get("error").unwrap().get("code").unwrap().as_str(),
            Some(codes::BAD_REQUEST)
        );
    }

    #[test]
    fn inline_matrix_market_decomposes() {
        let (session, cache, counters) = fixture();
        let mm = "%%MatrixMarket matrix coordinate real general\n4 4 4\n1 1 1.0\n2 2 1.0\n3 3 1.0\n4 4 1.0\n";
        let req = DecomposeRequest {
            source: MatrixSource::Inline(mm.into()),
            ..request(2)
        };
        let r = execute_job(
            &session,
            &cache,
            &counters,
            false,
            &req,
            &CancelToken::new(),
        );
        assert_eq!(r.get("ok"), Some(&Value::Bool(true)), "{}", r.to_json());
        assert_eq!(r.get("nnz").unwrap().as_u64(), Some(4));
    }

    #[test]
    fn cancelled_job_reports_cancelled_code() {
        let (session, cache, counters) = fixture();
        let token = CancelToken::new();
        token.cancel();
        let r = execute_job(&session, &cache, &counters, false, &request(4), &token);
        assert_eq!(r.get("ok"), Some(&Value::Bool(true)));
        assert_eq!(r.get("degraded_code").unwrap().as_str(), Some("cancelled"));
        assert_eq!(ServeCounters::get(&counters.cancelled_jobs), 1);
        // Degraded outcomes are never cached: re-running un-cancelled
        // must recompute, not serve the partial.
        let r2 = execute_job(
            &session,
            &cache,
            &counters,
            false,
            &request(4),
            &CancelToken::new(),
        );
        assert_eq!(r2.get("cache").unwrap().as_str(), Some("miss"));
        assert!(r2.get("degraded_code").unwrap().is_null());
    }

    #[test]
    fn include_owners_ships_valid_arrays() {
        let (session, cache, counters) = fixture();
        let mut req = request(2);
        req.include_owners = true;
        let r = execute_job(
            &session,
            &cache,
            &counters,
            false,
            &req,
            &CancelToken::new(),
        );
        let owners = r.get("nonzero_owner").unwrap().as_arr().unwrap();
        assert_eq!(owners.len() as u64, r.get("nnz").unwrap().as_u64().unwrap());
        assert!(owners.iter().all(|o| o.as_u64().unwrap() < 2));
    }

    #[test]
    fn spgemm_request_bypasses_cache_and_reports_traffic() {
        let (session, cache, counters) = fixture();
        let token = CancelToken::new();
        let mut req = request(4);
        req.workload = "spgemm".into();
        req.model = "spgemm-fine-grain".into();
        let r = execute_job(&session, &cache, &counters, false, &req, &token);
        assert_eq!(r.get("ok"), Some(&Value::Bool(true)), "{}", r.to_json());
        assert_eq!(r.get("cache").unwrap().as_str(), Some("bypass"));
        assert_eq!(r.get("workload").unwrap().as_str(), Some("spgemm"));
        assert!(r.get("flops").unwrap().as_u64().unwrap() > 0);
        // The simulator's replayed remote traffic must equal the
        // model-predicted communication volume — the tentpole invariant.
        let traffic = r.get("traffic").unwrap();
        assert_eq!(
            traffic.get("total_remote").unwrap().as_u64(),
            r.get("volume").unwrap().as_u64()
        );
        // Re-running is always a fresh compute, never a plan-cache hit.
        let r2 = execute_job(&session, &cache, &counters, false, &req, &token);
        assert_eq!(r2.get("cache").unwrap().as_str(), Some("bypass"));
    }

    #[test]
    fn batch_embeds_validating_metrics_documents() {
        let (session, _cache, counters) = fixture();
        let token = CancelToken::new();
        let mut spgemm = request(3);
        spgemm.workload = "spgemm".into();
        spgemm.model = "spgemm-fine-grain".into();
        let r = execute_batch(&session, &counters, false, &[request(2), spgemm], &token);
        assert_eq!(r.get("ok"), Some(&Value::Bool(true)), "{}", r.to_json());
        assert_eq!(r.get("op").unwrap().as_str(), Some("batch"));
        assert_eq!(r.get("status").unwrap().as_str(), Some("full"));
        let results = r.get("results").unwrap().as_arr().unwrap();
        assert_eq!(results.len(), 2);
        for sub in results {
            assert_eq!(sub.get("ok"), Some(&Value::Bool(true)));
            fgh_core::validate_metrics_value(sub.get("metrics").unwrap()).unwrap();
        }
        assert_eq!(results[0].get("workload").unwrap().as_str(), Some("spmv"));
        assert_eq!(results[1].get("workload").unwrap().as_str(), Some("spgemm"));
    }

    #[test]
    fn batch_rolls_up_the_first_failing_body() {
        let (session, _cache, counters) = fixture();
        let mut bad = request(2);
        bad.model = "quantum-3d".into();
        let r = execute_batch(
            &session,
            &counters,
            false,
            &[request(2), bad],
            &CancelToken::new(),
        );
        // Frame-level contract: ok stays true (the batch executed), the
        // status degrades with the first failing body's code; siblings
        // still carry their own results.
        assert_eq!(r.get("ok"), Some(&Value::Bool(true)));
        assert_eq!(r.get("status").unwrap().as_str(), Some("degraded"));
        assert_eq!(
            r.get("degraded_code").unwrap().as_str(),
            Some(codes::BAD_REQUEST)
        );
        let results = r.get("results").unwrap().as_arr().unwrap();
        assert_eq!(results[0].get("ok"), Some(&Value::Bool(true)));
        assert_eq!(results[1].get("ok"), Some(&Value::Bool(false)));
    }

    #[test]
    fn injected_panic_is_contained_by_worker_loop() {
        let queue = Arc::new(crate::queue::BoundedQueue::new(4));
        let session = Arc::new(SharedSession::new(EngineSession::new()));
        let cache = Arc::new(PlanCache::new(1 << 20));
        let counters = Arc::new(ServeCounters::default());
        let (tx, rx) = std::sync::mpsc::sync_channel(1);
        let mut req = request(2);
        req.inject = Some("panic".into());
        queue
            .push(Job {
                request: JobPayload::Single(Box::new(req)),
                cancel: CancelToken::new(),
                respond: tx,
            })
            .unwrap();
        // A healthy job after the panicking one proves the worker survived.
        let (tx2, rx2) = std::sync::mpsc::sync_channel(1);
        queue
            .push(Job {
                request: JobPayload::Single(Box::new(request(2))),
                cancel: CancelToken::new(),
                respond: tx2,
            })
            .unwrap();
        queue.close();
        let w = {
            let (q, s, c, m) = (
                Arc::clone(&queue),
                Arc::clone(&session),
                Arc::clone(&cache),
                Arc::clone(&counters),
            );
            std::thread::spawn(move || worker_loop(q, s, c, m, true))
        };
        let r1 = rx.recv_timeout(Duration::from_secs(30)).unwrap();
        assert_eq!(
            r1.get("error").unwrap().get("code").unwrap().as_str(),
            Some(codes::WORKER_PANIC)
        );
        let r2 = rx2.recv_timeout(Duration::from_secs(30)).unwrap();
        assert_eq!(r2.get("ok"), Some(&Value::Bool(true)));
        w.join().unwrap();
        assert_eq!(ServeCounters::get(&counters.worker_panics), 1);
    }
}
