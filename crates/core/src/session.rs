//! Reusable decomposition engine handle: [`EngineSession`] holds the
//! state worth keeping *across* requests (the scratch-arena pool, the
//! thread policy, a budget ceiling), while [`JobParams`] carries what
//! varies *per* request (model, K, ε, seed, runs, budget, trace, cancel
//! token). `fgh serve` builds one session at startup and runs every
//! accepted job through it; embedders batch-processing many matrices get
//! the same warm-arena reuse without a server.
//!
//! The split is the session/request factoring of [`DecomposeConfig`]: a
//! `JobParams` composes with the session into a plain `DecomposeConfig`
//! (see [`JobParams::into_config`]), so the one-shot API and the session
//! API cannot drift apart.

use std::sync::Arc;

use fgh_partition::{ArenaPool, Budget, CancelToken, InitialScheme, Parallelism};

use crate::api::{DecomposeConfig, DecomposeIndex, Model};
use crate::workload::{
    decompose_workload_any_in, decompose_workload_in, Workload, WorkloadAny, WorkloadOutcome,
};
use crate::FghError;

/// Per-request decomposition parameters — everything about *one* job.
///
/// Defaults mirror [`DecomposeConfig::new`]: ε = 3%, seed 1, one run,
/// unlimited budget, no trace, no cancel token.
#[derive(Debug, Clone)]
pub struct JobParams {
    /// The decomposition model.
    pub model: Model,
    /// Number of processors K.
    pub k: u32,
    /// Maximum load imbalance ε.
    pub epsilon: f64,
    /// Base RNG seed.
    pub seed: u64,
    /// Independent partitioner runs; best balanced result kept.
    pub runs: usize,
    /// Per-request resource budget. The effective budget is this
    /// intersected with the session's ceiling (see
    /// [`EngineSession::with_budget_ceiling`]) — a request can tighten
    /// but never loosen the session limit.
    pub budget: Budget,
    /// Record a structured execution trace for this job.
    pub trace: bool,
    /// Cooperative cancellation token for this job.
    pub cancel: Option<CancelToken>,
    /// Initial-partitioning scheme (see [`DecomposeConfig::initial`]).
    pub initial: InitialScheme,
}

impl JobParams {
    /// Parameters for the given model and K with paper defaults.
    pub fn new(model: Model, k: u32) -> Self {
        JobParams {
            model,
            k,
            epsilon: 0.03,
            seed: 1,
            runs: 1,
            budget: Budget::UNLIMITED,
            trace: false,
            cancel: None,
            initial: InitialScheme::Ghg,
        }
    }

    /// The same parameters with a different balance tolerance ε.
    pub fn with_epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = epsilon;
        self
    }

    /// The same parameters with a different base RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The same parameters running `runs` independent partitioner seeds.
    pub fn with_runs(mut self, runs: usize) -> Self {
        self.runs = runs;
        self
    }

    /// The same parameters with a per-request budget attached.
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// The same parameters with trace recording switched on or off.
    pub fn with_trace(mut self, trace: bool) -> Self {
        self.trace = trace;
        self
    }

    /// The same parameters with a cancellation token attached.
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = Some(cancel);
        self
    }

    /// The same parameters with a different initial-partitioning scheme.
    pub fn with_initial(mut self, initial: InitialScheme) -> Self {
        self.initial = initial;
        self
    }

    /// Composes these parameters with a session's policy into the
    /// [`DecomposeConfig`] the one-shot API understands. The budget is
    /// the intersection of the request's and the session ceiling.
    pub fn into_config(self, session: &EngineSession) -> DecomposeConfig {
        DecomposeConfig {
            model: self.model,
            k: self.k,
            epsilon: self.epsilon,
            seed: self.seed,
            runs: self.runs,
            budget: session.budget_ceiling.intersect(&self.budget),
            parallelism: session.parallelism,
            trace: self.trace,
            cancel: self.cancel,
            initial: self.initial,
        }
    }
}

/// A long-lived decomposition engine handle.
///
/// Owns the [`ArenaPool`] every request draws scratch from (warm buffers
/// survive across whole decompositions), the thread fan-out policy, and
/// an optional budget ceiling that clamps every request. `Clone` is
/// cheap and shares the pool, so one session serves many worker threads
/// concurrently — the pool hands each concurrency domain its own arena.
#[derive(Debug, Clone)]
pub struct EngineSession {
    pool: Arc<ArenaPool>,
    parallelism: Parallelism,
    budget_ceiling: Budget,
}

impl EngineSession {
    /// A session with a fresh pool, [`Parallelism::Auto`], and no budget
    /// ceiling.
    pub fn new() -> Self {
        EngineSession {
            pool: Arc::new(ArenaPool::new()),
            parallelism: Parallelism::Auto,
            budget_ceiling: Budget::UNLIMITED,
        }
    }

    /// The same session with a thread fan-out policy attached.
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// The same session with a budget ceiling every request is clamped
    /// under (see [`Budget::intersect`]).
    pub fn with_budget_ceiling(mut self, ceiling: Budget) -> Self {
        self.budget_ceiling = ceiling;
        self
    }

    /// The same thread policy and budget ceiling over a fresh, empty
    /// arena pool.
    pub fn with_fresh_pool(mut self) -> Self {
        self.pool = Arc::new(ArenaPool::new());
        self
    }

    /// The shared scratch-arena pool.
    pub fn pool(&self) -> &Arc<ArenaPool> {
        &self.pool
    }

    /// Arenas currently parked in the pool — an RSS observability hook
    /// for services (counts warm buffers awaiting reuse).
    pub fn idle_arenas(&self) -> usize {
        self.pool.idle()
    }

    /// [`crate::decompose_workload`] through this session: any workload
    /// family, scratch drawn from the session pool, budget clamped under
    /// the ceiling.
    pub fn decompose_workload<I: DecomposeIndex>(
        &self,
        workload: Workload<'_, I>,
        params: JobParams,
    ) -> std::result::Result<WorkloadOutcome, FghError> {
        let cfg = params.into_config(self);
        decompose_workload_in(workload, &cfg, &self.pool)
    }

    /// [`crate::decompose_workload_any`] through this session
    /// (width-erased).
    pub fn decompose_workload_any(
        &self,
        workload: WorkloadAny<'_>,
        params: JobParams,
    ) -> std::result::Result<WorkloadOutcome, FghError> {
        let cfg = params.into_config(self);
        decompose_workload_any_in(workload, &cfg, &self.pool)
    }
}

impl Default for EngineSession {
    fn default() -> Self {
        EngineSession::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::DecompositionOutcome;
    use fgh_sparse::gen::{self, ValueMode};
    use fgh_sparse::CsrMatrix;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn test_matrix() -> CsrMatrix {
        gen::grid5(
            12,
            12,
            1.0,
            ValueMode::Ones,
            &mut SmallRng::seed_from_u64(7),
        )
    }

    /// SpMV through the session.
    fn decompose_spmv(
        session: &EngineSession,
        a: &CsrMatrix,
        params: JobParams,
    ) -> std::result::Result<DecompositionOutcome, FghError> {
        session
            .decompose_workload(Workload::Spmv(a), params)
            .and_then(WorkloadOutcome::into_spmv)
    }

    #[test]
    fn session_matches_one_shot_api() {
        let a = test_matrix();
        let session = EngineSession::new();
        let s = decompose_spmv(&session, &a, JobParams::new(Model::FineGrain2D, 4)).unwrap();
        let o = crate::decompose_workload(
            Workload::Spmv(&a),
            &DecomposeConfig::new(Model::FineGrain2D, 4),
        )
        .unwrap()
        .into_spmv()
        .unwrap();
        assert_eq!(s.decomposition, o.decomposition);
        assert_eq!(s.objective, o.objective);
    }

    #[test]
    fn session_runs_spgemm_workloads() {
        let a = test_matrix();
        let session = EngineSession::new();
        let out = session
            .decompose_workload(
                Workload::Spgemm(&a, &a),
                JobParams::new(Model::SpgemmFineGrain, 4),
            )
            .unwrap()
            .into_spgemm()
            .unwrap();
        out.decomposition.validate(&a, &a).unwrap();
        assert_eq!(out.objective, out.stats.total_volume());
        assert!(session.idle_arenas() > 0, "spgemm jobs share the pool");
    }

    #[test]
    fn pool_is_reused_across_requests() {
        let a = test_matrix();
        let session = EngineSession::new();
        decompose_spmv(&session, &a, JobParams::new(Model::FineGrain2D, 4)).unwrap();
        let warmed = session.idle_arenas();
        assert!(warmed > 0, "first request must park arenas for reuse");
        decompose_spmv(&session, &a, JobParams::new(Model::FineGrain2D, 4)).unwrap();
        // Reuse, not growth: the second identical request checks the same
        // arenas out and back in.
        assert_eq!(session.idle_arenas(), warmed);
    }

    #[test]
    fn ceiling_clamps_request_budget() {
        let session = EngineSession::new().with_budget_ceiling(Budget::bytes(1));
        let params = JobParams::new(Model::FineGrain2D, 4); // unlimited request
        let cfg = params.into_config(&session);
        assert_eq!(cfg.budget.max_bytes, Some(1));

        // And a tighter request wins over a looser ceiling.
        let session = EngineSession::new().with_budget_ceiling(Budget::bytes(1000));
        let cfg = JobParams::new(Model::FineGrain2D, 4)
            .with_budget(Budget::bytes(10))
            .into_config(&session);
        assert_eq!(cfg.budget.max_bytes, Some(10));
    }

    #[test]
    fn cancelled_token_degrades_with_cancelled_reason() {
        let a = test_matrix();
        let session = EngineSession::new();
        let token = CancelToken::new();
        token.cancel(); // tripped before the run even starts
        let out = decompose_spmv(
            &session,
            &a,
            JobParams::new(Model::FineGrain2D, 4).with_cancel(token),
        )
        .unwrap();
        out.decomposition.validate(&a).unwrap();
        assert_eq!(out.status.code(), Some("cancelled"));
        assert!(out.engine.cancelled());
        assert!(!out.engine.truncated(), "cancel is not a budget truncation");
    }
}
