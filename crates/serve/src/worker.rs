//! Job execution: one queued decomposition request → one response
//! frame, with panic containment and poisoned-state quarantine.
//!
//! Each worker thread loops on the shared [`BoundedQueue`], wrapping
//! every job in `catch_unwind`: a panicking job (an engine defect, or an
//! injected fault in tests) produces a typed `worker-panic` response and
//! the worker keeps serving. Because a mid-partition panic can leave
//! shared warm state suspect, the panic also *quarantines* the
//! [`ArenaPool`] the workers share: [`ArenaPool::clear`] drops its idle
//! arenas, among them those the dying job checked back in while it
//! unwound, so later jobs start from empty ones. The daemon's budget
//! ceiling and partitioner thread pool are not pool state; every job
//! receives them by value from [`worker_loop`], so a quarantine cannot
//! drop them.
//!
//! [`BoundedQueue`]: crate::queue::BoundedQueue

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::SyncSender;
use std::sync::Arc;
use std::time::{Duration, Instant};

use fgh_core::report::{metrics_document, spgemm_metrics_document};
use fgh_core::{
    decompose_workload_any_in, ArenaPool, Budget, CancelToken, CommSummary, DecomposeConfig,
    DecomposeIndex, DecompositionOutcome, FghError, Model, Outcome, Parallelism, SpgemmOutcome,
    WorkloadAny, WorkloadKind, WorkloadOutcome,
};
use fgh_sparse::io::parse_matrix_market_bytes_any;
use fgh_sparse::{catalog, AnyCsrMatrix, IndexWidth};
use fgh_trace::json::Value;
use rayon::ThreadPool;

use crate::cache::{CachedPlan, PlanCache};
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

fn num(n: u64) -> Value {
    Value::Num(n as f64)
}

/// The plan-cache key: the digest of the request's exact matrix source
/// (the inline bytes, or the lowercased catalog name, scale and generator
/// seed) and of every parameter that shapes the plan.
fn cache_key(cache: &PlanCache, req: &DecomposeRequest) -> u128 {
    let params = (&req.model, req.k, req.epsilon.to_bits(), req.seed, req.runs);
    match &req.source {
        MatrixSource::Catalog {
            name,
            scale,
            gen_seed,
        } => cache.digest(&(
            "catalog",
            name.to_ascii_lowercase(),
            scale,
            gen_seed,
            params,
        )),
        MatrixSource::Inline(mm) => cache.digest(&("inline", mm.as_str(), params)),
    }
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
        MatrixSource::Inline(mm) => {
            parse_matrix_market_bytes_any(mm.as_bytes()).map_err(|e| format!("matrix_mm: {e}"))
        }
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
    status_fields(
        &mut doc,
        plan.degraded_code,
        plan.degraded_reason.as_deref(),
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

/// The plan of a fresh outcome on `a`, recording `a`'s order and nonzero
/// count for the integrity check of later hits.
fn plan_from_outcome(a: &AnyCsrMatrix, out: DecompositionOutcome) -> CachedPlan {
    CachedPlan {
        order: a.nrows(),
        nnz: a.nnz(),
        objective: out.objective,
        volume: out.stats.total_volume(),
        imbalance: out.stats.load_imbalance_percent(),
        degraded_code: out.status.code(),
        degraded_reason: out.status.reason().map(ToString::to_string),
        decomposition: out.decomposition,
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

/// The config a request runs under: its model, K, ε, seed, runs and
/// cancel token, its budget clamped under the daemon's budget ceiling,
/// and the thread policy `policy` gives: `Threads(width)` inside the
/// daemon's partitioner pool, so the engine offers forks to that pool,
/// and `Serial` without one. A model name that does not parse is a
/// `bad-request` response.
fn job_config(
    (ceiling, parallelism): (Budget, Parallelism),
    req: &DecomposeRequest,
    cancel: &CancelToken,
) -> Result<DecomposeConfig, Value> {
    let model: Model = req
        .model
        .parse()
        .map_err(|e: String| error_response(codes::BAD_REQUEST, &e, None))?;
    let mut budget = Budget::UNLIMITED;
    if let Some(ms) = req.budget_ms {
        budget.max_wall = Some(Duration::from_millis(ms));
    }
    if let Some(bytes) = req.budget_bytes {
        budget.max_bytes = Some(bytes.min(usize::MAX as u64) as usize); // min-clamp makes the u64 -> usize conversion lossless
    }
    Ok(DecomposeConfig::new(model, req.k)
        .with_epsilon(req.epsilon)
        .with_seed(req.seed)
        .with_runs(req.runs)
        .with_budget(ceiling.intersect(&budget))
        .with_parallelism(parallelism)
        .with_cancel(cancel.clone()))
}

/// Runs one job to a response [`Value`], drawing scratch from `pool`
/// under `policy` (the daemon's budget ceiling, the job's thread policy).
/// Never panics on well-behaved engine code; deliberate fault injection
/// panics are the caller's `catch_unwind` business.
pub fn execute_job(
    pool: &Arc<ArenaPool>,
    policy: (Budget, Parallelism),
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
    if let WorkloadKind::Spgemm = req.workload {
        return execute_workload(pool, policy, counters, req, cancel, false);
    }

    // A hit answers without building the matrix. Its integrity check is
    // matrix-free: the stored plan must still fit the order and nonzero
    // count recorded with it and have the request's K parts. A corrupted
    // entry is quarantined and the job recomputes.
    let key = cache_key(cache, req);
    if let Some(plan) = cache.get(key) {
        let d = &plan.decomposition;
        if d.k == req.k && d.validate_shape(plan.order, plan.nnz).is_ok() {
            if plan.degraded_code.is_some() {
                ServeCounters::bump(&counters.degraded);
            }
            return success_response(req, &plan, true, start.elapsed());
        }
        cache.quarantine(key);
    }

    let a = match build_matrix(&req.source) {
        Ok(a) => a,
        Err(e) => return error_response(codes::BAD_REQUEST, &e, None),
    };
    let cfg = match job_config(policy, req, cancel) {
        Ok(cfg) => cfg,
        Err(response) => return response,
    };
    match decompose_workload_any_in(WorkloadAny::Spmv(&a), &cfg, pool)
        .and_then(WorkloadOutcome::into_spmv)
    {
        Ok(out) => {
            count_outcome(counters, &out);
            // Only full outcomes are worth caching: a degraded partial
            // (budget, cancellation) is not the answer the next caller
            // with the same parameters wants.
            let full = !out.status.is_degraded();
            let plan = Arc::new(plan_from_outcome(&a, out));
            if full {
                cache.put(key, Arc::clone(&plan));
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
                "model {model} cannot run at {}-bit indices; width-capable models: {}",
                width.bits(),
                Model::wide_spmv_names()
            ),
            None,
        ),
        FghError::InvalidInput(_) | FghError::Sparse(_) | FghError::Model(_) => {
            error_response(codes::BAD_REQUEST, &e.to_string(), None)
        }
        _ => error_response(codes::DECOMPOSE_FAILED, &e.to_string(), None),
    }
}

/// Counts a fresh outcome's cancellation, degradation and forks.
fn count_outcome<D, S>(counters: &ServeCounters, out: &Outcome<D, S>) {
    ServeCounters::add(&counters.parallel_forks, out.engine.parallel_forks);
    if out.engine.cancelled() {
        ServeCounters::bump(&counters.cancelled_jobs);
    }
    if out.status.is_degraded() {
        ServeCounters::bump(&counters.degraded);
    }
}

/// Counts a fresh outcome and writes the members every workload reports:
/// the status, the objective, the exact volume, and the imbalance.
fn outcome_fields<D, S: CommSummary>(
    doc: &mut BTreeMap<String, Value>,
    counters: &ServeCounters,
    out: &Outcome<D, S>,
) {
    count_outcome(counters, out);
    status_fields(doc, out.status.code(), out.status.reason());
    doc.insert("objective".into(), num(out.objective));
    doc.insert("volume".into(), num(out.stats.total_volume()));
    doc.insert(
        "imbalance".into(),
        Value::Num(out.stats.load_imbalance_percent()),
    );
}

/// Replays the partitioned SpGEMM through the storage-traffic simulator
/// at the outcome's index width, converting the operands once for the
/// replay and for the metrics document (built when `embed_metrics`). The
/// traffic is `Null` only when the replay itself fails — a
/// decode/validation defect; the counters are never guessed.
fn spgemm_replay<I: DecomposeIndex>(
    a: &AnyCsrMatrix,
    b: &AnyCsrMatrix,
    cfg: &DecomposeConfig,
    out: &SpgemmOutcome,
    embed_metrics: bool,
) -> (Value, Option<Value>) {
    let (Ok(a), Ok(b)) = (I::at_width(a), I::at_width(b)) else {
        return (Value::Null, embed_metrics.then_some(Value::Null));
    };
    let traffic =
        fgh_traffic::simulate(&*a, &*b, &out.decomposition).map_or(Value::Null, |r| r.to_value());
    let metrics = embed_metrics.then(|| {
        let replayed = (!traffic.is_null()).then_some(&traffic);
        spgemm_metrics_document(&*a, &*b, cfg, out, replayed)
    });
    (traffic, metrics)
}

/// Executes one decompose body fresh (no plan cache) for either
/// workload, returning a full response document. With `embed_metrics`
/// the document carries the request's validated `fgh-metrics/1` report
/// under `"metrics"` — the batch-response contract. SpGEMM responses
/// always carry the simulator's `"traffic"` counters and `"flops"`.
pub fn execute_workload(
    pool: &Arc<ArenaPool>,
    policy: (Budget, Parallelism),
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
    let cfg = match job_config(policy, req, cancel) {
        Ok(cfg) => cfg,
        Err(response) => return response,
    };

    let mut doc = BTreeMap::new();
    doc.insert("ok".into(), Value::Bool(true));
    doc.insert("k".into(), num(req.k as u64));
    doc.insert("cache".into(), Value::Str("bypass".into()));
    doc.insert("workload".into(), Value::Str(req.workload.name().into()));
    doc.insert("nnz".into(), num(a.nnz() as u64));

    match req.workload {
        WorkloadKind::Spgemm => {
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
            let out = match decompose_workload_any_in(WorkloadAny::Spgemm(&a, b), &cfg, pool)
                .and_then(WorkloadOutcome::into_spgemm)
            {
                Ok(o) => o,
                Err(e) => return fgh_error_response(&e),
            };
            outcome_fields(&mut doc, counters, &out);
            doc.insert("flops".into(), num(out.flops()));
            let (traffic, metrics) = match out.width {
                IndexWidth::U32 => spgemm_replay::<u32>(&a, b, &cfg, &out, embed_metrics),
                IndexWidth::U64 => spgemm_replay::<u64>(&a, b, &cfg, &out, embed_metrics),
            };
            doc.insert("traffic".into(), traffic);
            if let Some(metrics) = metrics {
                doc.insert("metrics".into(), metrics);
            }
        }
        WorkloadKind::Spmv => {
            let out = match decompose_workload_any_in(WorkloadAny::Spmv(&a), &cfg, pool)
                .and_then(WorkloadOutcome::into_spmv)
            {
                Ok(o) => o,
                Err(e) => return fgh_error_response(&e),
            };
            outcome_fields(&mut doc, counters, &out);
            if embed_metrics {
                doc.insert("metrics".into(), metrics_document(&cfg, &out));
            }
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
    pool: &Arc<ArenaPool>,
    policy: (Budget, Parallelism),
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
        let r = execute_workload(pool, policy, counters, req, cancel, true);
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
/// Every job draws scratch from the shared arena `pool` and runs under
/// the daemon's budget `ceiling`. With a partitioner pool
/// (`threads`), each job runs inside it with `Threads(width)`, so its
/// recursion forks onto the slots the other busy workers leave free; an
/// idle worker holds no slot. Without one, jobs run serially. Exits when
/// the queue is closed and empty. On a job panic the response is a typed
/// `worker-panic` error and the arena pool is cleared; the loop itself
/// survives.
pub fn worker_loop(
    queue: Arc<crate::queue::BoundedQueue<Job>>,
    pool: Arc<ArenaPool>,
    ceiling: Budget,
    threads: Option<ThreadPool>,
    cache: Arc<PlanCache>,
    counters: Arc<ServeCounters>,
    fault_injection: bool,
) {
    let parallelism = threads.as_ref().map_or(Parallelism::Serial, |t| {
        Parallelism::Threads(t.current_num_threads())
    });
    let policy = (ceiling, parallelism);
    loop {
        let Some(job) = queue.pop(Duration::from_millis(100)) else {
            if queue.is_closed() {
                return;
            }
            continue;
        };
        let run = || {
            catch_unwind(AssertUnwindSafe(|| match &job.request {
                JobPayload::Single(req) => execute_job(
                    &pool,
                    policy,
                    &cache,
                    &counters,
                    fault_injection,
                    req,
                    &job.cancel,
                ),
                JobPayload::Batch(reqs) => {
                    execute_batch(&pool, policy, &counters, fault_injection, reqs, &job.cancel)
                }
            }))
        };
        let result = match &threads {
            Some(t) => t.install(run),
            None => run(),
        };
        let response = match result {
            Ok(v) => v,
            Err(_) => {
                ServeCounters::bump(&counters.worker_panics);
                pool.clear();
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
            workload: WorkloadKind::Spmv,
            source_b: None,
        }
    }

    #[test]
    fn unsupported_width_names_the_wide_spmv_models() {
        let r = fgh_error_response(&FghError::UnsupportedWidth {
            model: "jagged-2d",
            width: IndexWidth::U64,
        });
        let err = r.get("error").unwrap();
        assert_eq!(
            err.get("code").unwrap().as_str(),
            Some(codes::UNSUPPORTED_WIDTH)
        );
        // The list comes from `Model::wide_spmv_names`, byte for byte.
        assert_eq!(
            err.get("message").unwrap().as_str(),
            Some(
                "model jagged-2d cannot run at 64-bit indices; width-capable models: \
                 graph-1d, hypergraph-1d-colnet, hypergraph-1d-rownet, fine-grain-2d"
            )
        );
    }

    /// An unlimited ceiling and the all-cores thread policy.
    const POLICY: (Budget, Parallelism) = (Budget::UNLIMITED, Parallelism::Auto);

    fn fixture() -> (Arc<ArenaPool>, PlanCache, ServeCounters) {
        (
            Arc::new(ArenaPool::new()),
            PlanCache::new(8 << 20),
            ServeCounters::default(),
        )
    }

    #[test]
    fn decompose_then_cache_hit() {
        let (pool, cache, _) = fixture();
        for base in [request(4), inline(MM)] {
            let first = run(&pool, &cache, &base);
            assert_eq!(first.get("ok"), Some(&Value::Bool(true)));
            assert_eq!(cache_outcome(&first), "miss");
            let again = run(&pool, &cache, &base);
            assert_eq!(cache_outcome(&again), "hit");
            for member in ["objective", "volume", "nnz", "imbalance", "k", "status"] {
                assert_eq!(first.get(member), again.get(member), "{member}");
            }
        }
        // One changed byte of matrix_mm, or one changed parameter, misses.
        for changed in one_change_each(&inline(MM)) {
            let r = run(&pool, &cache, &changed);
            assert_eq!(cache_outcome(&r), "miss", "{changed:?}: {}", r.to_json());
        }
    }

    /// A 6x6 matrix: a diagonal plus a cycle of off-diagonal entries.
    const MM: &str = "%%MatrixMarket matrix coordinate real general\n6 6 12\n\
        1 1 1.0\n2 2 1.0\n3 3 1.0\n4 4 1.0\n5 5 1.0\n6 6 1.0\n\
        1 2 1.0\n2 3 1.0\n3 4 1.0\n4 5 1.0\n5 6 1.0\n6 1 1.0\n";

    fn inline(mm: &str) -> DecomposeRequest {
        DecomposeRequest {
            source: MatrixSource::Inline(mm.into()),
            ..request(2)
        }
    }

    fn run(pool: &Arc<ArenaPool>, cache: &PlanCache, req: &DecomposeRequest) -> Value {
        let counters = ServeCounters::default();
        execute_job(
            pool,
            POLICY,
            cache,
            &counters,
            false,
            req,
            &CancelToken::new(),
        )
    }

    fn cache_outcome(r: &Value) -> &str {
        r.get("cache").and_then(Value::as_str).unwrap_or("none")
    }

    /// Each request that differs from `base` in exactly one member of the
    /// cache identity.
    fn one_change_each(base: &DecomposeRequest) -> Vec<DecomposeRequest> {
        let sources = match &base.source {
            MatrixSource::Inline(mm) => {
                vec![MatrixSource::Inline(mm.replacen("6 1 1.0", "6 1 2.0", 1))]
            }
            MatrixSource::Catalog {
                name,
                scale,
                gen_seed,
            } => {
                let (scale, gen_seed) = (*scale, *gen_seed);
                vec![
                    MatrixSource::Catalog {
                        name: format!("{name}x"),
                        scale,
                        gen_seed,
                    },
                    MatrixSource::Catalog {
                        name: name.clone(),
                        scale: scale + 1,
                        gen_seed,
                    },
                    MatrixSource::Catalog {
                        name: name.clone(),
                        scale,
                        gen_seed: gen_seed + 1,
                    },
                ]
            }
        };
        let mut out: Vec<_> = sources
            .into_iter()
            .map(|source| DecomposeRequest {
                source,
                ..base.clone()
            })
            .collect();
        let params: [fn(&mut DecomposeRequest); 5] = [
            |r| r.model = "hypergraph-1d-colnet".into(),
            |r| r.k += 1,
            |r| r.epsilon = 0.05,
            |r| r.seed += 1,
            |r| r.runs += 1,
        ];
        for change in params {
            let mut r = base.clone();
            change(&mut r);
            out.push(r);
        }
        out
    }

    #[test]
    fn every_identity_member_is_in_the_key() {
        let cache = PlanCache::new(0);
        for base in [inline(MM), request(4)] {
            let key = cache_key(&cache, &base);
            assert_eq!(key, cache_key(&cache, &base.clone()));
            for changed in one_change_each(&base) {
                assert_ne!(key, cache_key(&cache, &changed), "{changed:?}");
            }
            // The budgets, owner arrays and injection are not.
            let mut extras = base.clone();
            extras.budget_ms = Some(5);
            extras.budget_bytes = Some(1 << 30);
            extras.include_owners = true;
            extras.inject = Some("sleep_ms:1".into());
            assert_eq!(key, cache_key(&cache, &extras));
        }
    }

    #[test]
    fn catalog_names_hit_case_insensitively() {
        let (pool, cache, _) = fixture();
        assert_eq!(cache_outcome(&run(&pool, &cache, &request(4))), "miss");
        let mut upper = request(4);
        upper.source = MatrixSource::Catalog {
            name: "BCSPWR10".into(),
            scale: 48,
            gen_seed: 7,
        };
        assert_eq!(cache_outcome(&run(&pool, &cache, &upper)), "hit");
    }

    #[test]
    fn hit_path_never_builds_the_matrix() {
        let (pool, cache, _) = fixture();
        // The plan a good request stores, seeded under the keys of
        // requests whose matrix cannot be built.
        run(&pool, &cache, &inline(MM));
        let plan = cache.get(cache_key(&cache, &inline(MM))).unwrap();
        let unknown = DecomposeRequest {
            source: MatrixSource::Catalog {
                name: "no-such-matrix".into(),
                scale: 1,
                gen_seed: 1,
            },
            ..request(2)
        };
        for req in [inline("not matrix market"), unknown] {
            let bad = run(&pool, &cache, &req);
            assert_eq!(
                bad.get("error").unwrap().get("code").unwrap().as_str(),
                Some(codes::BAD_REQUEST)
            );
            cache.put(cache_key(&cache, &req), Arc::clone(&plan));
            let r = run(&pool, &cache, &req);
            assert_eq!(cache_outcome(&r), "hit", "{}", r.to_json());
            assert_eq!(r.get("volume").unwrap().as_u64(), Some(plan.volume));
        }
        // Each failed build counted one miss before its bad-request.
        let (hits, misses, ..) = cache.stats();
        assert_eq!((hits, misses), (3, 3));
    }

    #[test]
    fn corrupt_entries_are_quarantined_and_recomputed() {
        let corruptions: [fn(&mut fgh_core::Decomposition); 3] = [
            |d| d.nonzero_owner[0] = d.k,
            |d| d.nonzero_owner.truncate(d.nonzero_owner.len() - 1),
            // Owners in range, but for another K than the request's.
            |d| d.k += 1,
        ];
        for corrupt in corruptions {
            let (pool, cache, _) = fixture();
            let req = inline(MM);
            let fresh = run(&pool, &cache, &req);
            let key = cache_key(&cache, &req);
            let stored = cache.get(key).unwrap();
            let mut decomposition = stored.decomposition.clone();
            corrupt(&mut decomposition);
            cache.put(
                key,
                Arc::new(CachedPlan {
                    decomposition,
                    degraded_reason: None,
                    ..*stored
                }),
            );
            let r = run(&pool, &cache, &req);
            assert_eq!(cache_outcome(&r), "miss", "{}", r.to_json());
            for member in ["objective", "volume", "nnz"] {
                assert_eq!(r.get(member), fresh.get(member), "{member}");
            }
            let (.., integrity_failures, _) = cache.stats();
            assert_eq!(integrity_failures, 1);
            assert_eq!(cache_outcome(&run(&pool, &cache, &req)), "hit");
        }
    }

    #[test]
    fn unknown_matrix_and_model_are_bad_requests() {
        let (pool, cache, counters) = fixture();
        let token = CancelToken::new();
        let mut req = request(4);
        req.source = MatrixSource::Catalog {
            name: "no-such-matrix".into(),
            scale: 1,
            gen_seed: 1,
        };
        let r = execute_job(&pool, POLICY, &cache, &counters, false, &req, &token);
        assert_eq!(
            r.get("error").unwrap().get("code").unwrap().as_str(),
            Some(codes::BAD_REQUEST)
        );
        for model in ["quantum-3d", "checkerboard-hg-2d"] {
            let mut req = request(4);
            req.model = model.into();
            let r = execute_job(&pool, POLICY, &cache, &counters, false, &req, &token);
            assert_eq!(
                r.get("error").unwrap().get("code").unwrap().as_str(),
                Some(codes::BAD_REQUEST),
                "{model}"
            );
        }
    }

    #[test]
    fn inline_matrix_market_decomposes() {
        let (pool, cache, counters) = fixture();
        let mm = "%%MatrixMarket matrix coordinate real general\n4 4 4\n1 1 1.0\n2 2 1.0\n3 3 1.0\n4 4 1.0\n";
        let req = DecomposeRequest {
            source: MatrixSource::Inline(mm.into()),
            ..request(2)
        };
        let r = execute_job(
            &pool,
            POLICY,
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
        let (pool, cache, counters) = fixture();
        let token = CancelToken::new();
        token.cancel();
        let r = execute_job(&pool, POLICY, &cache, &counters, false, &request(4), &token);
        assert_eq!(r.get("ok"), Some(&Value::Bool(true)));
        assert_eq!(r.get("degraded_code").unwrap().as_str(), Some("cancelled"));
        assert_eq!(ServeCounters::get(&counters.cancelled_jobs), 1);
        // Degraded outcomes are never cached: re-running un-cancelled
        // must recompute, not serve the partial.
        let r2 = execute_job(
            &pool,
            POLICY,
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
        let (pool, cache, counters) = fixture();
        let mut req = request(2);
        req.include_owners = true;
        let r = execute_job(
            &pool,
            POLICY,
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
        let (pool, cache, counters) = fixture();
        let token = CancelToken::new();
        let mut req = request(4);
        req.workload = WorkloadKind::Spgemm;
        req.model = "spgemm-fine-grain".into();
        let r = execute_job(&pool, POLICY, &cache, &counters, false, &req, &token);
        assert_eq!(r.get("ok"), Some(&Value::Bool(true)), "{}", r.to_json());
        assert_eq!(r.get("cache").unwrap().as_str(), Some("bypass"));
        assert_eq!(r.get("workload").unwrap().as_str(), Some("spgemm"));
        assert!(r.get("flops").unwrap().as_u64().unwrap() > 0);
        // The simulator's replayed remote traffic must equal the
        // partitioner's objective — the tentpole invariant. The replayed
        // `volume` counts the same decomposition as the simulator, so it
        // is no witness.
        let traffic = r.get("traffic").unwrap();
        assert_eq!(
            traffic.get("total_remote").unwrap().as_u64(),
            r.get("objective").unwrap().as_u64()
        );
        // Re-running is always a fresh compute, never a plan-cache hit.
        let r2 = execute_job(&pool, POLICY, &cache, &counters, false, &req, &token);
        assert_eq!(r2.get("cache").unwrap().as_str(), Some("bypass"));
    }

    #[test]
    fn mismatched_spgemm_operands_are_bad_requests() {
        // A is 2x4 with a nonzero in its last column, B is 3x2.
        let (pool, cache, counters) = fixture();
        let req = body(
            r#"{"workload":"spgemm","k":2,
                "matrix_mm":"%%MatrixMarket matrix coordinate real general\n2 4 2\n1 1 1.0\n2 4 1.0\n",
                "matrix_b_mm":"%%MatrixMarket matrix coordinate real general\n3 2 2\n1 1 1.0\n3 2 1.0\n"}"#,
        );
        let r = execute_job(
            &pool,
            POLICY,
            &cache,
            &counters,
            false,
            &req,
            &CancelToken::new(),
        );
        assert_eq!(
            r.get("error").unwrap().get("code").unwrap().as_str(),
            Some(codes::BAD_REQUEST),
            "{}",
            r.to_json()
        );
    }

    #[test]
    fn batch_embeds_validating_metrics_documents() {
        let (pool, _cache, counters) = fixture();
        let token = CancelToken::new();
        let mut spgemm = request(3);
        spgemm.workload = WorkloadKind::Spgemm;
        spgemm.model = "spgemm-fine-grain".into();
        let r = execute_batch(
            &pool,
            POLICY,
            &counters,
            false,
            &[request(2), spgemm],
            &token,
        );
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
        let (pool, _cache, counters) = fixture();
        let mut bad = request(2);
        bad.model = "quantum-3d".into();
        let r = execute_batch(
            &pool,
            POLICY,
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

    /// A decompose body as a client sends it, through the protocol parser.
    fn body(json: &str) -> DecomposeRequest {
        crate::protocol::parse_decompose_body(fgh_trace::json::parse(json).unwrap()).unwrap()
    }

    /// The member names of a response object, sorted.
    fn members(v: &Value) -> Vec<&str> {
        let mut names: Vec<&str> = v.as_obj().unwrap().keys().map(String::as_str).collect();
        names.sort_unstable();
        names
    }

    #[test]
    fn response_member_sets_are_pinned() {
        let (pool, cache, counters) = fixture();
        let token = CancelToken::new();
        let spmv = body(r#"{"matrix":"bcspwr10","scale":48,"gen_seed":7,"k":4}"#);
        let single = [
            "cache",
            "degraded_code",
            "degraded_reason",
            "elapsed_ns",
            "imbalance",
            "k",
            "nnz",
            "objective",
            "ok",
            "status",
            "volume",
        ];
        let miss = execute_job(&pool, POLICY, &cache, &counters, false, &spmv, &token);
        assert_eq!(miss.get("cache").unwrap().as_str(), Some("miss"));
        assert_eq!(members(&miss), single);
        let hit = execute_job(&pool, POLICY, &cache, &counters, false, &spmv, &token);
        assert_eq!(hit.get("cache").unwrap().as_str(), Some("hit"));
        assert_eq!(members(&hit), single);

        let batch = execute_batch(&pool, POLICY, &counters, false, &[spmv], &token);
        let entry = &batch.get("results").unwrap().as_arr().unwrap()[0];
        assert_eq!(
            members(entry),
            [
                "cache",
                "degraded_code",
                "degraded_reason",
                "elapsed_ns",
                "imbalance",
                "k",
                "metrics",
                "nnz",
                "objective",
                "ok",
                "status",
                "volume",
                "workload",
            ]
        );

        let spgemm =
            body(r#"{"matrix":"bcspwr10","scale":48,"gen_seed":7,"k":4,"workload":"spgemm"}"#);
        let r = execute_job(&pool, POLICY, &cache, &counters, false, &spgemm, &token);
        assert_eq!(
            members(&r),
            [
                "cache",
                "degraded_code",
                "degraded_reason",
                "elapsed_ns",
                "flops",
                "imbalance",
                "k",
                "nnz",
                "objective",
                "ok",
                "status",
                "traffic",
                "volume",
                "workload",
            ]
        );
    }

    #[test]
    fn ceiling_clamps_request_budget() {
        let token = CancelToken::new();
        // An unlimited request runs under the ceiling.
        let cfg = job_config((Budget::bytes(1), Parallelism::Serial), &request(4), &token).unwrap();
        assert_eq!(cfg.budget.max_bytes, Some(1));

        // And a tighter request wins over a looser ceiling.
        let mut req = request(4);
        req.budget_bytes = Some(10);
        let cfg = job_config((Budget::bytes(1000), Parallelism::Serial), &req, &token).unwrap();
        assert_eq!(cfg.budget.max_bytes, Some(10));
    }

    #[test]
    fn job_config_pins_every_field() {
        let ceiling = Budget {
            max_wall: Some(Duration::from_millis(200)),
            max_bytes: Some(1 << 20),
            ..Budget::UNLIMITED
        };
        let mut req = request(5);
        req.model = "graph-1d".into();
        req.epsilon = 0.1;
        req.seed = 42;
        req.runs = 3;
        req.budget_ms = Some(50); // tighter than the ceiling: wins
        req.budget_bytes = Some(1 << 30); // looser than the ceiling: clamped
        let token = CancelToken::new();
        let cfg = job_config((ceiling, Parallelism::Threads(3)), &req, &token).unwrap();
        assert_eq!(cfg.model, Model::Graph1D);
        assert_eq!(cfg.k, 5);
        assert_eq!(cfg.epsilon, 0.1);
        assert_eq!(cfg.seed, 42);
        assert_eq!(cfg.runs, 3);
        assert_eq!(cfg.parallelism, Parallelism::Threads(3));
        assert_eq!(
            cfg.budget,
            Budget {
                max_wall: Some(Duration::from_millis(50)),
                max_bytes: Some(1 << 20),
                ..Budget::UNLIMITED
            }
        );
        assert!(!cfg.trace);
        // The attached token is the job's own: tripping it is visible
        // through the config.
        let cancel = cfg.cancel.expect("the job's token is attached");
        assert!(!cancel.is_cancelled());
        token.cancel();
        assert!(cancel.is_cancelled());

        // The other way round: a looser wall is clamped, tighter bytes win.
        req.budget_ms = Some(10_000);
        req.budget_bytes = Some(1 << 10);
        let cfg = job_config((ceiling, Parallelism::Serial), &req, &token).unwrap();
        assert_eq!(cfg.parallelism, Parallelism::Serial);
        assert_eq!(
            cfg.budget,
            Budget {
                max_wall: Some(Duration::from_millis(200)),
                max_bytes: Some(1 << 10),
                ..Budget::UNLIMITED
            }
        );
    }

    /// Runs `reqs` in order through one fault-injecting [`worker_loop`]
    /// over `pool`, on this thread, and returns their responses and the
    /// counters.
    fn run_worker_loop(
        pool: &Arc<ArenaPool>,
        (ceiling, threads): (Budget, Option<ThreadPool>),
        reqs: Vec<DecomposeRequest>,
    ) -> (Vec<Value>, Arc<ServeCounters>) {
        let queue = Arc::new(crate::queue::BoundedQueue::new(reqs.len()));
        let replies: Vec<_> = reqs
            .into_iter()
            .map(|req| {
                let (tx, rx) = std::sync::mpsc::sync_channel(1);
                queue
                    .push(Job {
                        request: JobPayload::Single(Box::new(req)),
                        cancel: CancelToken::new(),
                        respond: tx,
                    })
                    .unwrap();
                rx
            })
            .collect();
        // Closed and drained, the loop returns.
        queue.close();
        let counters = Arc::new(ServeCounters::default());
        let cache = Arc::new(PlanCache::new(1 << 20));
        worker_loop(
            queue,
            Arc::clone(pool),
            ceiling,
            threads,
            cache,
            Arc::clone(&counters),
            true,
        );
        let responses = replies.iter().map(|rx| rx.try_recv().unwrap()).collect();
        (responses, counters)
    }

    /// A partitioner pool two threads wide, whatever the host's CPUs.
    fn two_threads() -> ThreadPool {
        rayon::ThreadPoolBuilder::new()
            .num_threads(2)
            .build()
            .unwrap()
    }

    #[test]
    fn quarantine_keeps_the_budget_ceiling_and_thread_policy() {
        let pool = Arc::new(ArenaPool::new());
        let mut panics = request(2);
        panics.inject = Some("panic".into());
        let (responses, _) = run_worker_loop(
            &pool,
            (Budget::bytes(1), Some(two_threads())),
            vec![panics.clone(), request(2), panics],
        );
        // The job after the panic still runs under the one-byte ceiling.
        let r = &responses[1];
        assert_eq!(
            r.get("status").unwrap().as_str(),
            Some("degraded"),
            "{}",
            r.to_json()
        );
        assert_eq!(
            r.get("degraded_code").unwrap().as_str(),
            Some("budget-exhausted")
        );
        // The healthy job parked its arena; the last job's panic
        // dropped it.
        assert_eq!(pool.idle(), 0, "the pool is cleared");
    }

    #[test]
    fn injected_panic_is_contained_by_worker_loop() {
        let pool = Arc::new(ArenaPool::new());
        let mut panics = request(2);
        panics.inject = Some("panic".into());
        // A healthy job after the panicking one proves the worker survived,
        // and its forks prove the panicking job gave its pool slot back.
        let (responses, counters) = run_worker_loop(
            &pool,
            (Budget::UNLIMITED, Some(two_threads())),
            vec![panics, request(8)],
        );
        assert_eq!(
            responses[0]
                .get("error")
                .unwrap()
                .get("code")
                .unwrap()
                .as_str(),
            Some(codes::WORKER_PANIC)
        );
        assert_eq!(responses[1].get("ok"), Some(&Value::Bool(true)));
        assert_eq!(ServeCounters::get(&counters.worker_panics), 1);
        assert!(ServeCounters::get(&counters.parallel_forks) > 0);
    }
}
