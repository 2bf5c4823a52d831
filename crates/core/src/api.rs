//! The decomposition vocabulary and the SpMV pipeline: pick a [`Model`],
//! configure it with a [`DecomposeConfig`], get a [`DecompositionOutcome`]
//! — a decomposition plus its exact communication statistics and timing,
//! the loop body of the paper's Table-2 experiment.
//!
//! The entry points live in [`crate::workload`] and come in two flavors:
//!
//! * [`crate::decompose_workload`] with [`crate::Workload::Spmv`] —
//!   width-generic: callers holding a `CsrMatrix<u32>` (the fast path,
//!   every catalog matrix) or a `CsrMatrix<u64>` (the big path) call it
//!   directly and monomorphize to that width.
//! * [`crate::decompose_workload_any`] with [`crate::WorkloadAny::Spmv`]
//!   — width-erased: consumes an [`AnyCsrMatrix`] (as produced by
//!   streaming Matrix Market input), auto-upgrading a `u32` carrier to
//!   `u64` when the fine-grain hypergraph would overflow 32-bit ids. The
//!   CLI uses this and never names an index width.
//!
//! Both run one decompose skeleton for every workload; this module holds
//! what is SpMV's own in it — the per-model build, partition, and decode,
//! the empty decomposition, and the round-robin fallback.

use std::borrow::Cow;
use std::sync::Arc;
use std::time::Duration;

use fgh_graph::partition_graph_best_traced_in;
use fgh_partition::{
    partition_hypergraph_best_traced_in, ArenaIndex, ArenaPool, Budget, CancelToken, EngineStats,
    Parallelism, PartitionConfig, PartitionResult,
};
use fgh_sparse::{AnyCsrMatrix, CsrMatrix, IndexType, IndexWidth};
use fgh_trace::{SpanHandle, Trace};

use crate::decomp::Decomposition;
use crate::metrics::CommStats;
use crate::models::{
    CheckerboardModel, ColumnNetModel, FineGrainModel, JaggedModel, MondriaanModel, RowNetModel,
    StandardGraphModel,
};
use crate::status::{DecompositionStatus, DegradedReason};
use crate::workload::Pipeline;
use crate::FghError;

/// The index widths [`crate::decompose_workload`] runs at. Sealed by
/// construction: it extends [`ArenaIndex`] (itself sealed), and only
/// `u32` / `u64` implement it.
///
/// The width-dependent capabilities live here. The composite 2D models
/// ([`Model::Checkerboard2D`], [`Model::Mondriaan2D`], [`Model::Jagged2D`])
/// are `u32`-only, and
/// [`DecomposeIndex::as_u32_matrix`] is the zero-cost evidence check —
/// `Some` (the identity) on the fast path, `None` (→
/// [`FghError::UnsupportedWidth`]) on the big path; no model converts a
/// matrix behind the caller's back. [`DecomposeIndex::at_width`] is the
/// one explicit conversion, from a width-erased carrier.
pub trait DecomposeIndex: ArenaIndex {
    /// Runtime tag for this width, stamped into [`Outcome::width`].
    const WIDTH: IndexWidth;

    /// `Some(a)` iff `Self` is `u32` (a zero-cost identity), `None` on
    /// the big-index path.
    fn as_u32_matrix(a: &CsrMatrix<Self>) -> Option<&CsrMatrix<u32>>;

    /// `m` at this width: borrowed when it is carried at it, converted
    /// otherwise (a typed error when narrowing does not fit).
    fn at_width(m: &AnyCsrMatrix) -> std::result::Result<Cow<'_, CsrMatrix<Self>>, FghError>;
}

impl DecomposeIndex for u32 {
    const WIDTH: IndexWidth = IndexWidth::U32;

    fn as_u32_matrix(a: &CsrMatrix<u32>) -> Option<&CsrMatrix<u32>> {
        Some(a)
    }

    fn at_width(m: &AnyCsrMatrix) -> std::result::Result<Cow<'_, CsrMatrix<u32>>, FghError> {
        Ok(match m {
            AnyCsrMatrix::U32(m) => Cow::Borrowed(m),
            AnyCsrMatrix::U64(m) => Cow::Owned(m.convert_width()?),
        })
    }
}

impl DecomposeIndex for u64 {
    const WIDTH: IndexWidth = IndexWidth::U64;

    fn as_u32_matrix(_a: &CsrMatrix<u64>) -> Option<&CsrMatrix<u32>> {
        None
    }

    fn at_width(m: &AnyCsrMatrix) -> std::result::Result<Cow<'_, CsrMatrix<u64>>, FghError> {
        Ok(match m {
            AnyCsrMatrix::U64(m) => Cow::Borrowed(m),
            AnyCsrMatrix::U32(m) => Cow::Owned(m.convert_width()?),
        })
    }
}

/// Which decomposition model to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Model {
    /// 1D row-wise decomposition via the standard graph model (MeTiS-style
    /// baseline).
    Graph1D,
    /// 1D row-wise decomposition via the column-net hypergraph model
    /// (TPDS'99 baseline).
    Hypergraph1DColNet,
    /// 1D column-wise decomposition via the row-net hypergraph model.
    Hypergraph1DRowNet,
    /// 2D decomposition via the fine-grain hypergraph model (the paper's
    /// contribution).
    FineGrain2D,
    /// 2D block-checkerboard decomposition on a near-square processor
    /// grid — the pre-existing 2D scheme of §1, with structured
    /// communication but no volume minimization. Included as an ablation
    /// baseline.
    Checkerboard2D,
    /// Mondriaan-style recursive matrix bisection with per-step direction
    /// choice (row vs column 1D model) — the paper's best-known follow-on,
    /// included as a forward-looking comparison point.
    Mondriaan2D,
    /// Jagged 2D decomposition: volume-minimized row stripes, then
    /// independent per-stripe column groupings — the intermediate point of
    /// the jagged/checkerboard/fine-grain 2D taxonomy.
    Jagged2D,
    /// Fine-grain SpGEMM decomposition (`C = A · B`): one vertex per used
    /// nonzero `a_ik`, holding the multiply tasks `a_ik · b_kj` that read
    /// it and weighted by their count (a group over four times the mean
    /// weight is split into chunks tied by an A-net), with B-nets for the
    /// expand of `B` and C-nets for the fold of `C` (see
    /// [`crate::models::SpgemmModel`]). The only model for
    /// [`crate::Workload::Spgemm`] inputs — SpMV entry points reject it.
    SpgemmFineGrain,
}

/// The workload family a [`Model`] decomposes — the coupling between a
/// config's model and the [`crate::Workload`] variant it accepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// `y = A x`: one square matrix.
    Spmv,
    /// `C = A · B`: a conformable matrix pair.
    Spgemm,
}

impl WorkloadKind {
    /// Stable lowercase name (used by the metrics document and the serve
    /// protocol).
    pub fn name(&self) -> &'static str {
        match self {
            WorkloadKind::Spmv => "spmv",
            WorkloadKind::Spgemm => "spgemm",
        }
    }
}

impl std::fmt::Display for WorkloadKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl Model {
    /// Every model, in the canonical presentation order of the paper's
    /// tables (1D baselines first, then the 2D schemes, then the SpGEMM
    /// extension). The single source of truth for "all models" sweeps —
    /// the CLI's `compare` command and the metrics tests iterate this
    /// array (filtering by [`Model::workload`] where only one workload
    /// family applies).
    pub const ALL: [Model; 8] = [
        Model::Graph1D,
        Model::Hypergraph1DColNet,
        Model::Hypergraph1DRowNet,
        Model::FineGrain2D,
        Model::Checkerboard2D,
        Model::Mondriaan2D,
        Model::Jagged2D,
        Model::SpgemmFineGrain,
    ];

    /// Short display name as used in the paper's tables. Each name parses
    /// back through `Model`'s [`FromStr`](std::str::FromStr) impl.
    pub fn name(&self) -> &'static str {
        match self {
            Model::Graph1D => "graph-1d",
            Model::Hypergraph1DColNet => "hypergraph-1d-colnet",
            Model::Hypergraph1DRowNet => "hypergraph-1d-rownet",
            Model::FineGrain2D => "fine-grain-2d",
            Model::Checkerboard2D => "checkerboard-2d",
            Model::Mondriaan2D => "mondriaan-2d",
            Model::Jagged2D => "jagged-2d",
            Model::SpgemmFineGrain => "spgemm-fine-grain",
        }
    }

    /// The workload family this model decomposes. Every SpMV model
    /// rejects a SpGEMM workload and vice versa — the check lives in the
    /// workload entry points, typed as [`crate::FghError::InvalidInput`].
    pub fn workload(&self) -> WorkloadKind {
        match self {
            Model::SpgemmFineGrain => WorkloadKind::Spgemm,
            _ => WorkloadKind::Spmv,
        }
    }

    /// `true` for the models that run at either index width (the
    /// engine-backed single-partition models). The composite 2D models are
    /// `u32`-only.
    pub fn supports_wide_indices(&self) -> bool {
        matches!(
            self,
            Model::Graph1D
                | Model::Hypergraph1DColNet
                | Model::Hypergraph1DRowNet
                | Model::FineGrain2D
                | Model::SpgemmFineGrain
        )
    }

    /// The SpMV models that run at either index width, named in
    /// [`Model::ALL`] order and joined by `", "`: the hint the CLI and
    /// the serve daemon give when a matrix needs `u64` indices that the
    /// chosen model cannot run at.
    pub fn wide_spmv_names() -> String {
        Model::ALL
            .iter()
            .filter(|m| m.workload() == WorkloadKind::Spmv && m.supports_wide_indices())
            .map(Model::name)
            .collect::<Vec<_>>()
            .join(", ")
    }
}

impl std::fmt::Display for Model {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Model {
    type Err = String;

    /// Parses a model from its canonical [`Model::name`], accepting the
    /// historical CLI aliases (`graph`, `colnet`, `rownet`, `finegrain`,
    /// `fine-grain`, `checkerboard`, `mondriaan`, `jagged`, `spgemm`)
    /// case-insensitively.
    fn from_str(s: &str) -> std::result::Result<Self, Self::Err> {
        let lower = s.to_ascii_lowercase();
        let m = match lower.as_str() {
            "graph" | "graph-1d" => Model::Graph1D,
            "colnet" | "hypergraph-1d-colnet" => Model::Hypergraph1DColNet,
            "rownet" | "hypergraph-1d-rownet" => Model::Hypergraph1DRowNet,
            "finegrain" | "fine-grain" | "fine-grain-2d" => Model::FineGrain2D,
            "checkerboard" | "checkerboard-2d" => Model::Checkerboard2D,
            "mondriaan" | "mondriaan-2d" => Model::Mondriaan2D,
            "jagged" | "jagged-2d" => Model::Jagged2D,
            "spgemm" | "spgemm-fine-grain" => Model::SpgemmFineGrain,
            _ => {
                return Err(format!(
                    "unknown model '{s}' (expected one of: {})",
                    Model::ALL.map(|m| m.name()).join(", ")
                ))
            }
        };
        Ok(m)
    }
}

/// Configuration for [`crate::decompose_workload`].
#[derive(Debug, Clone)]
pub struct DecomposeConfig {
    /// The decomposition model.
    pub model: Model,
    /// Number of processors K.
    pub k: u32,
    /// Maximum load imbalance ε (the paper uses 3%).
    pub epsilon: f64,
    /// Base RNG seed.
    pub seed: u64,
    /// Independent partitioner runs; the best balanced result is kept
    /// (the paper averages over 50 runs; see the bench harness for the
    /// averaging protocol).
    pub runs: usize,
    /// Resource budget for the partitioner. When a limit trips, the best
    /// partition found so far is returned, the truncation is recorded in
    /// [`Outcome::engine`], and the outcome is tagged
    /// [`DecompositionStatus::Degraded`].
    pub budget: Budget,
    /// Thread fan-out for the partitioner. [`Parallelism::Serial`] and
    /// multi-threaded modes produce bit-identical decompositions; threads
    /// change wall-clock time only.
    pub parallelism: Parallelism,
    /// Record a structured execution trace: per-phase spans (model build,
    /// coarsening levels, initial partitioning, FM passes, decode) with
    /// monotonic timings and engine counters, surfaced as
    /// [`Outcome::trace`]. Off by default; tracing never
    /// changes the decomposition, only observes it.
    pub trace: bool,
    /// Cooperative cancellation: when a token is attached and tripped,
    /// the partitioner stops at its next multilevel checkpoint, the best
    /// partition found so far is decoded, and the outcome is tagged
    /// [`DecompositionStatus::Degraded`] with
    /// [`DegradedReason::Cancelled`]. `None` (the default) disables
    /// polling.
    pub cancel: Option<CancelToken>,
}

impl DecomposeConfig {
    /// A config for the given model and K with paper defaults.
    pub fn new(model: Model, k: u32) -> Self {
        DecomposeConfig {
            model,
            k,
            epsilon: 0.03,
            seed: 1,
            runs: 1,
            budget: Budget::UNLIMITED,
            parallelism: Parallelism::Auto,
            trace: false,
            cancel: None,
        }
    }

    /// The same config with a resource budget attached.
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// The same config with a thread fan-out policy attached. Results are
    /// bit-identical across policies; only wall-clock time changes.
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// The same config with a different base RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The same config running `runs` independent partitioner seeds,
    /// keeping the best balanced result.
    pub fn with_runs(mut self, runs: usize) -> Self {
        self.runs = runs;
        self
    }

    /// The same config with a different balance tolerance ε.
    pub fn with_epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = epsilon;
        self
    }

    /// The same config with trace recording switched on or off (see
    /// [`DecomposeConfig::trace`]).
    pub fn with_trace(mut self, trace: bool) -> Self {
        self.trace = trace;
        self
    }

    /// The same config with a cancellation token attached (see
    /// [`DecomposeConfig::cancel`]).
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = Some(cancel);
        self
    }

    /// The [`PartitionConfig`] every engine-backed model runs under: the
    /// request's ε, seed, budget, parallelism, and cancel token carry
    /// over, everything else keeps the partitioner's defaults. The single
    /// source of truth for the config translation (each model arm used to
    /// spell out this struct by hand).
    pub fn partition_config(&self) -> PartitionConfig {
        PartitionConfig {
            epsilon: self.epsilon,
            seed: self.seed,
            budget: self.budget,
            parallelism: self.parallelism,
            cancel: self.cancel.clone(),
            ..Default::default()
        }
    }
}

/// The result of a decomposition, for either workload: the mapping, its
/// exact communication statistics, the model's objective value, and
/// wall-clock time. [`DecompositionOutcome`] is the SpMV instance and
/// [`crate::SpgemmOutcome`] the SpGEMM one.
#[derive(Debug, Clone)]
pub struct Outcome<D, S> {
    /// The decoded decomposition: nonzero and vector owners for SpMV;
    /// task, A, B, and C owners for SpGEMM.
    pub decomposition: D,
    /// Exact communication statistics, recomputed from the decomposition
    /// — ground truth for every model, independent of its objective.
    pub stats: S,
    /// The objective the partitioner minimized: edge cut for
    /// [`Model::Graph1D`], connectivity−1 cutsize for hypergraph models.
    pub objective: u64,
    /// Partitioning wall-clock time (model build + partitioning + decode).
    pub elapsed: Duration,
    /// Full or degraded, with the reason when degraded.
    pub status: DecompositionStatus,
    /// The index width the decomposition ran at: `U32` for the fast path,
    /// `U64` for the big path (via [`crate::decompose_workload_any`]'s
    /// auto-upgrade or a caller's own wide matrix).
    pub width: IndexWidth,
    /// Multilevel engine statistics, including budget-truncation counters.
    /// For the single-partition models this is the winning run's stats;
    /// for the composite models ([`Model::Mondriaan2D`],
    /// [`Model::Jagged2D`]) it is the **aggregate** over every internal
    /// engine run (merged counters). Zeroed only for
    /// [`Model::Checkerboard2D`], which builds its decomposition directly
    /// without any partitioner.
    pub engine: EngineStats,
    /// Structured execution trace, recorded when
    /// [`DecomposeConfig::trace`] was set: a tree of per-phase spans
    /// (monotonic start + duration, engine counters) rooted at
    /// `decompose`. `None` when tracing was off.
    pub trace: Option<Trace>,
}

/// The result of an SpMV decomposition.
pub type DecompositionOutcome = Outcome<Decomposition, CommStats>;

impl<D, S> Outcome<D, S> {
    /// Strict-mode check: returns the outcome unchanged when
    /// [`DecompositionStatus::Full`], otherwise converts the degradation
    /// into a typed error — [`FghError::BudgetExhausted`] when a budget
    /// limit truncated the run, [`FghError::Cancelled`] when a cancel
    /// token stopped it, [`FghError::Infeasible`] otherwise.
    pub fn into_strict(self) -> std::result::Result<Self, FghError> {
        match &self.status {
            DecompositionStatus::Full => Ok(self),
            DecompositionStatus::Degraded { reason } => match reason {
                DegradedReason::BudgetExhausted { .. } => {
                    Err(FghError::BudgetExhausted(reason.to_string()))
                }
                DegradedReason::Cancelled => Err(FghError::Cancelled(reason.to_string())),
                _ => Err(FghError::Infeasible(reason.to_string())),
            },
        }
    }
}

/// SpMV's part of the decompose skeleton. Its work units are nonzeros,
/// and each model builds inside [`Pipeline::partition`], so an empty
/// matrix is caught before any model build.
impl<I: DecomposeIndex> Pipeline for &CsrMatrix<I> {
    type Decomposition = Decomposition;
    type Stats = CommStats;

    fn work_units(&self) -> u64 {
        self.nnz() as u64
    }

    fn empty(&self, k: u32) -> std::result::Result<Decomposition, FghError> {
        Ok(Decomposition::rowwise(
            self,
            k,
            vec![0; self.nrows().index()],
        )?)
    }

    fn partition(
        &self,
        cfg: &DecomposeConfig,
        pool: &Arc<ArenaPool>,
        scope: &SpanHandle,
    ) -> std::result::Result<(Decomposition, u64, EngineStats), FghError> {
        decompose_with_model(self, cfg, pool, scope)
    }

    /// Round-robin nonzeros across processors, vector entries following
    /// the first nonzero of their column where one exists. Valid by
    /// construction, never balanced cleverly.
    fn round_robin(&self, k: u32) -> std::result::Result<Decomposition, FghError> {
        let n = self.nrows().index();
        let mut vec_owner: Vec<u32> = (0..n)
            .map(|j| (j % k as usize) as u32) // lint: checked-cast — value < k, a u32
            .collect();
        let mut nonzero_owner = Vec::with_capacity(self.nnz());
        let mut col_seen = vec![false; n];
        for (e, (_, j, _)) in self.iter().enumerate() {
            let owner = (e % k as usize) as u32; // lint: checked-cast — value < k, a u32
            nonzero_owner.push(owner);
            let ju = j.index();
            if !col_seen[ju] {
                col_seen[ju] = true;
                vec_owner[ju] = owner;
            }
        }
        Ok(Decomposition::general(self, k, nonzero_owner, vec_owner)?)
    }

    fn stats(&self, d: &Decomposition) -> std::result::Result<CommStats, FghError> {
        Ok(CommStats::compute(self, d)?)
    }
}

/// Downcast evidence for the `u32`-only composite models: `Some` on the
/// fast path, a typed [`FghError::UnsupportedWidth`] on the big path.
fn require_u32<I: DecomposeIndex>(
    a: &CsrMatrix<I>,
    model: Model,
) -> std::result::Result<&CsrMatrix<u32>, FghError> {
    I::as_u32_matrix(a).ok_or(FghError::UnsupportedWidth {
        model: model.name(),
        width: I::WIDTH,
    })
}

/// Runs the configured model, returning the decoded decomposition, the
/// model's objective value, and the engine statistics where available.
/// Under an enabled `scope`, the phases record as `model-build` /
/// `partition` / `decode` child spans (plus `objective` for the models
/// whose reported objective is a separate exact-volume computation).
fn decompose_with_model<I: DecomposeIndex>(
    a: &CsrMatrix<I>,
    cfg: &DecomposeConfig,
    pool: &Arc<ArenaPool>,
    scope: &SpanHandle,
) -> std::result::Result<(Decomposition, u64, EngineStats), FghError> {
    let pcfg = cfg.partition_config();
    let out = match cfg.model {
        Model::Graph1D => {
            let mb = scope.child("model-build");
            let model = StandardGraphModel::build(a)?;
            drop(mb);
            let ps = scope.child("partition");
            let r = partition_graph_best_traced_in(
                model.graph(),
                cfg.k,
                &pcfg,
                cfg.runs,
                pool,
                &ps.handle(),
            )?;
            drop(ps);
            let ds = scope.child("decode");
            let d = model.decode(a, cfg.k, &r.parts)?;
            drop(ds);
            (d, r.edge_cut, r.stats)
        }
        Model::Hypergraph1DColNet => {
            let model = build_spanned(scope, || ColumnNetModel::build(a))?;
            hypergraph_arm(cfg, &pcfg, pool, scope, model.hypergraph(), |r| {
                model.decode(a, &r.partition)
            })?
        }
        Model::Hypergraph1DRowNet => {
            let model = build_spanned(scope, || RowNetModel::build(a))?;
            hypergraph_arm(cfg, &pcfg, pool, scope, model.hypergraph(), |r| {
                model.decode(a, &r.partition)
            })?
        }
        Model::FineGrain2D => {
            let model = build_spanned(scope, || FineGrainModel::build(a))?;
            hypergraph_arm(cfg, &pcfg, pool, scope, model.hypergraph(), |r| {
                model.decode(a, &r.partition)
            })?
        }
        Model::Checkerboard2D => {
            // Direct construction — no partitioner and no communication
            // objective; its "objective" is reported as its true volume.
            let a32 = require_u32(a, cfg.model)?;
            let model = build_spanned(scope, || CheckerboardModel::build(a32, cfg.k))?;
            let ds = scope.child("decode");
            let d = model.decode(a32)?;
            drop(ds);
            let vol = objective_volume(a32, &d, scope)?;
            (d, vol, EngineStats::default())
        }
        Model::Mondriaan2D => {
            // The internal per-level cuts approximate volume (no
            // consistency pins in the directional hypergraphs), so the
            // reported objective is the exact decoded volume.
            let a32 = require_u32(a, cfg.model)?;
            let model = MondriaanModel::new(cfg.k, cfg.epsilon);
            let ps = scope.child("partition");
            let (d, stats) = model.decompose_traced(a32, &pcfg, &ps.handle())?;
            drop(ps);
            let vol = objective_volume(a32, &d, scope)?;
            (d, vol, stats)
        }
        Model::Jagged2D => {
            let a32 = require_u32(a, cfg.model)?;
            let model = JaggedModel::new(cfg.k, cfg.epsilon)?;
            let ps = scope.child("partition");
            let (d, stats) = model.decompose_traced(a32, &pcfg, &ps.handle())?;
            drop(ps);
            let vol = objective_volume(a32, &d, scope)?;
            (d, vol, stats)
        }
        // Unreachable: the request checks reject SpGEMM-workload models
        // before dispatch; kept total rather than panicking.
        Model::SpgemmFineGrain => {
            return Err(FghError::InvalidInput(format!(
                "model {} decomposes a {} workload, not SpMV",
                cfg.model.name(),
                cfg.model.workload()
            )))
        }
    };
    Ok(out)
}

/// Runs a model-construction closure under a `model-build` span.
fn build_spanned<T, E>(
    scope: &SpanHandle,
    build: impl FnOnce() -> std::result::Result<T, E>,
) -> std::result::Result<T, E> {
    let _span = scope.child("model-build");
    build()
}

/// The shared partition + decode tail of every hypergraph-model arm,
/// SpGEMM's included: multi-seed partitioning under a `partition` span,
/// decoding under a `decode` span.
pub(crate) fn hypergraph_arm<I, T>(
    cfg: &DecomposeConfig,
    pcfg: &PartitionConfig,
    pool: &Arc<ArenaPool>,
    scope: &SpanHandle,
    hg: &fgh_hypergraph::Hypergraph<I>,
    decode: impl FnOnce(&PartitionResult) -> crate::Result<T>,
) -> std::result::Result<(T, u64, EngineStats), FghError>
where
    I: ArenaIndex,
{
    let ps = scope.child("partition");
    let r = partition_hypergraph_best_traced_in(hg, cfg.k, pcfg, cfg.runs, pool, &ps.handle())?;
    drop(ps);
    let ds = scope.child("decode");
    let d = decode(&r)?;
    drop(ds);
    Ok((d, r.cutsize, r.stats))
}

/// Computes the exact decoded volume under an `objective` span — the
/// reported objective for the models whose internal cuts only
/// approximate communication volume.
fn objective_volume<I: IndexType>(
    a: &CsrMatrix<I>,
    d: &Decomposition,
    scope: &SpanHandle,
) -> std::result::Result<u64, FghError> {
    let _span = scope.child("objective");
    Ok(CommStats::compute(a, d)?.total_volume())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgh_sparse::gen::{self, ValueMode};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn test_matrix() -> CsrMatrix {
        gen::grid5(
            16,
            16,
            1.0,
            ValueMode::Ones,
            &mut SmallRng::seed_from_u64(1),
        )
    }

    // SpMV through the workload entry points, typed and width-erased.
    fn decompose<I: DecomposeIndex>(
        a: &CsrMatrix<I>,
        cfg: &DecomposeConfig,
    ) -> std::result::Result<DecompositionOutcome, FghError> {
        crate::workload::decompose_workload(crate::workload::Workload::Spmv(a), cfg)
            .and_then(crate::workload::WorkloadOutcome::into_spmv)
    }

    fn decompose_any(
        a: &AnyCsrMatrix,
        cfg: &DecomposeConfig,
    ) -> std::result::Result<DecompositionOutcome, FghError> {
        crate::workload::decompose_workload_any(crate::workload::WorkloadAny::Spmv(a), cfg)
            .and_then(crate::workload::WorkloadOutcome::into_spmv)
    }

    #[test]
    fn all_models_produce_valid_decompositions() {
        let a = test_matrix();
        for model in [
            Model::Graph1D,
            Model::Hypergraph1DColNet,
            Model::Hypergraph1DRowNet,
            Model::FineGrain2D,
        ] {
            let out = decompose(&a, &DecomposeConfig::new(model, 4)).unwrap();
            out.decomposition.validate(&a).unwrap();
            assert_eq!(out.stats.k, 4);
            assert_eq!(out.width, IndexWidth::U32);
            assert!(
                out.stats.load_imbalance_percent() <= 10.0,
                "{}: imbalance {}%",
                model.name(),
                out.stats.load_imbalance_percent()
            );
        }
    }

    #[test]
    fn hypergraph_objective_equals_true_volume() {
        // The paper's central claim: for the consistent hypergraph models,
        // the connectivity−1 cutsize is exactly the communication volume.
        let a = test_matrix();
        for model in [
            Model::Hypergraph1DColNet,
            Model::Hypergraph1DRowNet,
            Model::FineGrain2D,
        ] {
            let out = decompose(&a, &DecomposeConfig::new(model, 4)).unwrap();
            assert_eq!(
                out.objective,
                out.stats.total_volume(),
                "{}: cutsize != decoded volume",
                model.name()
            );
        }
    }

    #[test]
    fn graph_edge_cut_overestimates_or_mismatches_volume() {
        // The graph model's objective is generally NOT the true volume
        // (that is the point of the paper). We only check it is an upper
        // bound here: each cut edge costs >= the words its x-values incur.
        let a = test_matrix();
        let out = decompose(&a, &DecomposeConfig::new(Model::Graph1D, 4)).unwrap();
        assert!(
            out.objective >= out.stats.total_volume(),
            "edge cut {} should bound volume {}",
            out.objective,
            out.stats.total_volume()
        );
    }

    #[test]
    fn rowwise_models_have_zero_fold() {
        let a = test_matrix();
        for model in [Model::Graph1D, Model::Hypergraph1DColNet] {
            let out = decompose(&a, &DecomposeConfig::new(model, 4)).unwrap();
            assert_eq!(out.stats.fold_volume, 0, "{}", model.name());
        }
        let out = decompose(&a, &DecomposeConfig::new(Model::Hypergraph1DRowNet, 4)).unwrap();
        assert_eq!(out.stats.expand_volume, 0);
    }

    #[test]
    fn fine_grain_beats_1d_on_average_matrix() {
        // Not guaranteed instance-wise, but on a stencil matrix with K=8
        // the 2D model should not be worse than the graph baseline.
        let a = test_matrix();
        let g = decompose(&a, &DecomposeConfig::new(Model::Graph1D, 8)).unwrap();
        let f = decompose(&a, &DecomposeConfig::new(Model::FineGrain2D, 8)).unwrap();
        assert!(
            f.stats.total_volume() <= g.stats.total_volume() * 2,
            "fine-grain volume {} wildly exceeds graph volume {}",
            f.stats.total_volume(),
            g.stats.total_volume()
        );
    }

    #[test]
    fn checkerboard_works_and_loses_to_fine_grain() {
        // The checkerboard baseline is valid but (being volume-oblivious)
        // should not beat the fine-grain model.
        let a = test_matrix();
        let cb = decompose(&a, &DecomposeConfig::new(Model::Checkerboard2D, 4)).unwrap();
        cb.decomposition.validate(&a).unwrap();
        assert_eq!(cb.objective, cb.stats.total_volume());
        let fg = decompose(&a, &DecomposeConfig::new(Model::FineGrain2D, 4)).unwrap();
        assert!(
            fg.stats.total_volume() <= cb.stats.total_volume(),
            "fine-grain {} vs checkerboard {}",
            fg.stats.total_volume(),
            cb.stats.total_volume()
        );
    }

    #[test]
    fn k0_rejected() {
        let a = test_matrix();
        assert!(decompose(&a, &DecomposeConfig::new(Model::FineGrain2D, 0)).is_err());
    }

    #[test]
    fn k1_trivial() {
        let a = test_matrix();
        let out = decompose(&a, &DecomposeConfig::new(Model::FineGrain2D, 1)).unwrap();
        assert_eq!(out.stats.total_volume(), 0);
        assert_eq!(out.objective, 0);
    }

    #[test]
    fn wide_path_matches_fast_path_for_engine_models() {
        // Golden width parity: the same matrix forced through u64 indices
        // must produce the identical decomposition as the u32 fast path
        // for every engine-backed model.
        let a = test_matrix();
        let a64: CsrMatrix<u64> = a.convert_width().unwrap();
        for model in [
            Model::Graph1D,
            Model::Hypergraph1DColNet,
            Model::Hypergraph1DRowNet,
            Model::FineGrain2D,
        ] {
            let cfg = DecomposeConfig::new(model, 4);
            let narrow = decompose(&a, &cfg).unwrap();
            let wide = decompose(&a64, &cfg).unwrap();
            assert_eq!(wide.width, IndexWidth::U64);
            assert_eq!(
                narrow.decomposition,
                wide.decomposition,
                "{}: widths disagree",
                model.name()
            );
            assert_eq!(narrow.objective, wide.objective, "{}", model.name());
        }
    }

    #[test]
    fn composite_models_reject_wide_indices() {
        let a64: CsrMatrix<u64> = test_matrix().convert_width().unwrap();
        for model in Model::ALL {
            let r = decompose(&a64, &DecomposeConfig::new(model, 4));
            if model.workload() != WorkloadKind::Spmv {
                // Not an SpMV model at all: the SpMV pipeline rejects it
                // before width even matters.
                assert!(matches!(r, Err(FghError::InvalidInput(_))), "{r:?}");
                continue;
            }
            if model.supports_wide_indices() {
                assert!(r.is_ok(), "{} must run wide", model.name());
            } else {
                match r {
                    Err(FghError::UnsupportedWidth { model: m, width }) => {
                        assert_eq!(m, model.name());
                        assert_eq!(width, IndexWidth::U64);
                    }
                    other => panic!("{}: expected UnsupportedWidth, got {other:?}", model.name()),
                }
            }
        }
    }

    #[test]
    fn decompose_any_dispatches_and_matches_typed_path() {
        let a = test_matrix();
        let cfg = DecomposeConfig::new(Model::FineGrain2D, 4);
        let typed = decompose(&a, &cfg).unwrap();
        let any = AnyCsrMatrix::from(a.clone());
        let erased = decompose_any(&any, &cfg).unwrap();
        // Small matrices stay on the fast path (unless CI forces u64, in
        // which case the decomposition must still be identical).
        if cfg!(feature = "force-u64") {
            assert_eq!(erased.width, IndexWidth::U64);
        } else {
            assert_eq!(erased.width, IndexWidth::U32);
        }
        assert_eq!(typed.decomposition, erased.decomposition);

        // A wide carrier runs the big path directly.
        let wide_any = any.convert_width(IndexWidth::U64).unwrap();
        let wide = decompose_any(&wide_any, &cfg).unwrap();
        assert_eq!(wide.width, IndexWidth::U64);
        assert_eq!(typed.decomposition, wide.decomposition);
    }

    #[test]
    fn byte_budget_degrades_instead_of_aborting() {
        // A byte cap far below the model's footprint must still return a
        // valid partition, tagged Degraded with the byte counter visible.
        let a = test_matrix();
        let cfg = DecomposeConfig::new(Model::FineGrain2D, 4).with_budget(Budget::bytes(1));
        let out = decompose(&a, &cfg).unwrap();
        out.decomposition.validate(&a).unwrap();
        assert!(out.engine.byte_truncations > 0, "cap must be recorded");
        assert!(out.status.is_degraded());
        let reason = out.status.reason().unwrap();
        assert_eq!(out.status.code(), Some("budget-exhausted"));
        assert!(
            reason.to_string().contains("bytes"),
            "reason must name bytes: {reason}"
        );
    }
}
