//! The SpMV decomposition pipeline and its vocabulary: pick a [`Model`],
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

use std::sync::Arc;
use std::time::{Duration, Instant};

use fgh_graph::partition_graph_best_traced_in;
use fgh_partition::{
    partition_hypergraph_best_traced_in, ArenaIndex, ArenaPool, Budget, CancelToken, EngineStats,
    InitialScheme, Parallelism, PartitionConfig,
};
use fgh_sparse::{AnyCsrMatrix, CsrMatrix, IndexType, IndexWidth};
use fgh_trace::{SpanHandle, Trace, Tracer};

use crate::decomp::Decomposition;
use crate::metrics::CommStats;
use crate::models::{
    CheckerboardHgModel, CheckerboardModel, ColumnNetModel, FineGrainModel, JaggedModel,
    MondriaanModel, RowNetModel, StandardGraphModel,
};
use crate::status::{DecompositionStatus, DegradedReason};
use crate::{FghError, ModelError};

/// The index widths [`crate::decompose_workload`] runs at. Sealed by
/// construction: it extends [`ArenaIndex`] (itself sealed), and only
/// `u32` / `u64` implement it.
///
/// The one width-dependent capability lives here: the composite 2D models
/// ([`Model::Checkerboard2D`], [`Model::Mondriaan2D`], [`Model::Jagged2D`],
/// [`Model::CheckerboardHg2D`]) are `u32`-only, and
/// [`DecomposeIndex::as_u32_matrix`] is the zero-cost evidence check —
/// `Some` (the identity) on the fast path, `None` (→
/// [`FghError::UnsupportedWidth`]) on the big path. No conversion is ever
/// performed behind the caller's back.
pub trait DecomposeIndex: ArenaIndex {
    /// Runtime tag for this width, stamped into
    /// [`DecompositionOutcome::width`].
    const WIDTH: IndexWidth;

    /// `Some(a)` iff `Self` is `u32` (a zero-cost identity), `None` on
    /// the big-index path.
    fn as_u32_matrix(a: &CsrMatrix<Self>) -> Option<&CsrMatrix<u32>>;
}

impl DecomposeIndex for u32 {
    const WIDTH: IndexWidth = IndexWidth::U32;

    fn as_u32_matrix(a: &CsrMatrix<u32>) -> Option<&CsrMatrix<u32>> {
        Some(a)
    }
}

impl DecomposeIndex for u64 {
    const WIDTH: IndexWidth = IndexWidth::U64;

    fn as_u32_matrix(_a: &CsrMatrix<u64>) -> Option<&CsrMatrix<u32>> {
        None
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
    /// Coarse-grain checkerboard *hypergraph* decomposition (the
    /// companion IPDPS 2001 paper): volume-minimized row stripes, then a
    /// single multi-constraint column grouping shared by all stripes.
    CheckerboardHg2D,
    /// Fine-grain SpGEMM decomposition (`C = A · B`): one vertex per
    /// multiply task `a_ik · b_kj`, nets modeling A-row reuse, B-column
    /// reuse, and the C fold. The only model for
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
    pub const ALL: [Model; 9] = [
        Model::Graph1D,
        Model::Hypergraph1DColNet,
        Model::Hypergraph1DRowNet,
        Model::FineGrain2D,
        Model::Checkerboard2D,
        Model::Mondriaan2D,
        Model::Jagged2D,
        Model::CheckerboardHg2D,
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
            Model::CheckerboardHg2D => "checkerboard-hg-2d",
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
    /// `fine-grain`, `checkerboard`, `mondriaan`, `jagged`,
    /// `checkerboard-hg`, `spgemm`) case-insensitively.
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
            "checkerboard-hg" | "checkerboard-hg-2d" => Model::CheckerboardHg2D,
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
    /// [`DecompositionOutcome::engine`], and the outcome is tagged
    /// [`DecompositionStatus::Degraded`].
    pub budget: Budget,
    /// Thread fan-out for the partitioner. [`Parallelism::Serial`] and
    /// multi-threaded modes produce bit-identical decompositions; threads
    /// change wall-clock time only.
    pub parallelism: Parallelism,
    /// Record a structured execution trace: per-phase spans (model build,
    /// coarsening levels, initial partitioning, FM passes, decode) with
    /// monotonic timings and engine counters, surfaced as
    /// [`DecompositionOutcome::trace`]. Off by default; tracing never
    /// changes the decomposition, only observes it.
    pub trace: bool,
    /// Cooperative cancellation: when a token is attached and tripped,
    /// the partitioner stops at its next multilevel checkpoint, the best
    /// partition found so far is decoded, and the outcome is tagged
    /// [`DecompositionStatus::Degraded`] with
    /// [`DegradedReason::Cancelled`]. `None` (the default) disables
    /// polling.
    pub cancel: Option<CancelToken>,
    /// Initial-partitioning scheme at the coarsest level. The default is
    /// [`InitialScheme::Ghg`] (greedy hypergraph growing, the paper's
    /// scheme). [`InitialScheme::Geometric`] / [`InitialScheme::Auto`]
    /// seed each bisection with a longest-axis cut through the nonzero
    /// coordinates of the fine-grain model; models without natural
    /// vertex coordinates fall back to GHG.
    pub initial: InitialScheme,
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
            initial: InitialScheme::Ghg,
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

    /// The same config with a different initial-partitioning scheme (see
    /// [`DecomposeConfig::initial`]).
    pub fn with_initial(mut self, initial: InitialScheme) -> Self {
        self.initial = initial;
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
            initial: self.initial,
            ..Default::default()
        }
    }
}

/// The result of a decomposition: the mapping, its exact communication
/// statistics, the model's internal objective value, and wall-clock time.
#[derive(Debug, Clone)]
pub struct DecompositionOutcome {
    /// The decoded decomposition.
    pub decomposition: Decomposition,
    /// Exact communication statistics (ground truth for every model).
    pub stats: CommStats,
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
    /// [`Model::Jagged2D`], [`Model::CheckerboardHg2D`]) it is the
    /// **aggregate** over every internal engine run (merged counters —
    /// [`Model::CheckerboardHg2D`]'s phase-2 multi-constraint partitioner
    /// reports its placement and refinement work in the same vocabulary,
    /// with coarsening counters untouched). Zeroed
    /// only for [`Model::Checkerboard2D`], which builds its decomposition
    /// directly without any partitioner.
    pub engine: EngineStats,
    /// Structured execution trace, recorded when
    /// [`DecomposeConfig::trace`] was set: a tree of per-phase spans
    /// (monotonic start + duration, engine counters) rooted at
    /// `decompose`. `None` when tracing was off.
    pub trace: Option<Trace>,
}

impl DecompositionOutcome {
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

/// Best-effort fallback for degenerate inputs the models cannot handle
/// (e.g. `K` larger than the number of partitionable units): round-robin
/// nonzeros across processors, vector entries following the first nonzero
/// of their column where one exists. Valid by construction, never balanced
/// cleverly — callers tag the outcome [`DecompositionStatus::Degraded`].
fn best_effort_round_robin<I: IndexType>(
    a: &CsrMatrix<I>,
    k: u32,
) -> std::result::Result<Decomposition, FghError> {
    let n = a.nrows().index();
    let mut vec_owner: Vec<u32> = (0..n)
        .map(|j| (j % k as usize) as u32) // lint: checked-cast — value < k, a u32
        .collect();
    let mut nonzero_owner = Vec::with_capacity(a.nnz());
    let mut col_seen = vec![false; n];
    for (e, (_, j, _)) in a.iter().enumerate() {
        let owner = (e % k as usize) as u32; // lint: checked-cast — value < k, a u32
        nonzero_owner.push(owner);
        let ju = j.index();
        if !col_seen[ju] {
            col_seen[ju] = true;
            vec_owner[ju] = owner;
        }
    }
    Ok(Decomposition::general(a, k, nonzero_owner, vec_owner)?)
}

/// Status attribution shared by the SpMV and SpGEMM pipelines: a forced
/// reason (degenerate input) wins, then cancellation, then budget
/// truncation, then a missed balance target. The balance tolerance adds
/// one work unit of slack (`100·K / work_units` percent) on top of ε —
/// integer loads cannot hit a fractional average exactly, and that
/// granularity is not a degradation. Cancellation wins the attribution
/// over budget truncation: a cancelled run is reported as cancelled, not
/// a budget accident.
pub(crate) fn degradation_status(
    forced_reason: Option<DegradedReason>,
    engine: &EngineStats,
    cfg: &DecomposeConfig,
    imbalance: f64,
    work_units: u64,
) -> DecompositionStatus {
    let allowed = cfg.epsilon * 100.0 + 100.0 * cfg.k as f64 / work_units.max(1) as f64 + 1e-9;
    if let Some(reason) = forced_reason {
        DecompositionStatus::Degraded { reason }
    } else if engine.cancelled() {
        DecompositionStatus::Degraded {
            reason: DegradedReason::Cancelled,
        }
    } else if engine.truncated() {
        DecompositionStatus::Degraded {
            reason: DegradedReason::BudgetExhausted {
                wall: engine.wall_truncations,
                levels: engine.level_truncations,
                fm_passes: engine.fm_truncations,
                bytes: engine.byte_truncations,
            },
        }
    } else if imbalance > allowed {
        DecompositionStatus::Degraded {
            reason: DegradedReason::BalanceInfeasible {
                epsilon: cfg.epsilon,
                achieved_percent: imbalance,
            },
        }
    } else {
        DecompositionStatus::Full
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

/// The SpMV pipeline — the body behind [`crate::Workload::Spmv`]; see
/// [`crate::decompose_workload`] for its failure semantics.
pub(crate) fn spmv_pipeline_in<I: DecomposeIndex>(
    a: &CsrMatrix<I>,
    cfg: &DecomposeConfig,
    pool: &Arc<ArenaPool>,
) -> std::result::Result<DecompositionOutcome, FghError> {
    if cfg.model.workload() != WorkloadKind::Spmv {
        return Err(FghError::InvalidInput(format!(
            "model {} decomposes a {} workload, not SpMV",
            cfg.model.name(),
            cfg.model.workload()
        )));
    }
    if cfg.k == 0 {
        return Err(FghError::InvalidInput("K must be >= 1".into()));
    }
    if !cfg.epsilon.is_finite() || cfg.epsilon < 0.0 {
        return Err(FghError::InvalidInput(format!(
            "epsilon must be finite and >= 0, got {}",
            cfg.epsilon
        )));
    }
    if !a.is_square() {
        return Err(FghError::Model(ModelError::NotSquare {
            nrows: a.nrows().as_u64(),
            ncols: a.ncols().as_u64(),
        }));
    }
    // Tracing observes the same window `elapsed` measures: the root
    // `decompose` span opens at `start` and closes right after the model
    // finishes (statistics computation is outside both).
    let (tracer, sink) = if cfg.trace {
        let (t, s) = Tracer::collecting();
        (t, Some(s))
    } else {
        (Tracer::disabled(), None)
    };
    let start = Instant::now();
    let root = tracer.span("decompose");

    // Degenerate inputs are served a trivial decomposition up front rather
    // than fed to partitioners that assume at least one unit of work.
    if a.nnz() == 0 {
        let decomposition = Decomposition::rowwise(a, cfg.k, vec![0; a.nrows().index()])?;
        let elapsed = start.elapsed();
        drop(root);
        let stats = CommStats::compute(a, &decomposition)?;
        return Ok(DecompositionOutcome {
            decomposition,
            stats,
            objective: 0,
            elapsed,
            status: DecompositionStatus::Degraded {
                reason: DegradedReason::EmptyMatrix,
            },
            width: I::WIDTH,
            engine: EngineStats::default(),
            trace: sink.map(|s| s.build_trace()),
        });
    }
    let mut forced_reason: Option<DegradedReason> = None;
    if cfg.k as u64 > a.nnz() as u64 {
        forced_reason = Some(DegradedReason::DegenerateK {
            k: cfg.k,
            nnz: a.nnz() as u64,
            fallback: None,
        });
    }

    let attempt = decompose_with_model(a, cfg, pool, &root.handle());
    let (decomposition, objective, engine) = match attempt {
        Ok(t) => t,
        Err(e) if forced_reason.is_some() => {
            // The model choked on the degenerate K; fall back instead of
            // failing, keeping the reason visible.
            forced_reason = Some(DegradedReason::DegenerateK {
                k: cfg.k,
                nnz: a.nnz() as u64,
                fallback: Some(format!(
                    "{} failed on degenerate input: {e}",
                    cfg.model.name()
                )),
            });
            let d = best_effort_round_robin(a, cfg.k)?;
            let vol = CommStats::compute(a, &d)?.total_volume();
            (d, vol, EngineStats::default())
        }
        Err(e) => return Err(e),
    };
    let elapsed = start.elapsed();
    drop(root);
    let trace = sink.map(|s| s.build_trace());
    let stats = CommStats::compute(a, &decomposition)?;

    let status = degradation_status(
        forced_reason,
        &engine,
        cfg,
        stats.load_imbalance_percent(),
        a.nnz() as u64,
    );
    Ok(DecompositionOutcome {
        decomposition,
        stats,
        objective,
        elapsed,
        status,
        width: I::WIDTH,
        engine,
        trace,
    })
}

/// The width-erased SpMV pipeline: [`IndexWidth::select`]-driven
/// auto-upgrade in front of [`spmv_pipeline_in`] (the rules are on
/// [`crate::decompose_workload_any`]).
pub(crate) fn spmv_pipeline_any_in(
    a: &AnyCsrMatrix,
    cfg: &DecomposeConfig,
    pool: &Arc<ArenaPool>,
) -> std::result::Result<DecompositionOutcome, FghError> {
    let needed = IndexWidth::select(a.nrows(), a.ncols(), a.nnz() as u64);
    let force_wide = cfg!(feature = "force-u64");
    match a {
        AnyCsrMatrix::U64(m) => spmv_pipeline_in(m, cfg, pool),
        AnyCsrMatrix::U32(m) => {
            if needed == IndexWidth::U64 || force_wide {
                let wide: CsrMatrix<u64> = m.convert_width()?;
                spmv_pipeline_in(&wide, cfg, pool)
            } else {
                spmv_pipeline_in(m, cfg, pool)
            }
        }
    }
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
    let mut pcfg = cfg.partition_config();
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
            // Fine-grain vertices have natural (row, col) positions; hand
            // them to the partitioner only when the geometric / auto
            // scheme asks — the default GHG path stays allocation-free.
            if matches!(cfg.initial, InitialScheme::Geometric | InitialScheme::Auto) {
                let n = model.hypergraph().num_vertices().index();
                let coords: Vec<(f32, f32)> = (0..n)
                    .map(|v| {
                        let (r, c) = model.coords(I::from_index(v));
                        // lint: checked-cast — row/col ids as geometric positions; f32 rounding above 2^24 only nudges the sweep order, never indexes
                        (r.index() as f32, c.index() as f32)
                    })
                    .collect();
                pcfg.coords = Some(Arc::new(coords));
            }
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
        Model::CheckerboardHg2D => {
            let a32 = require_u32(a, cfg.model)?;
            let model = CheckerboardHgModel::new(cfg.k, cfg.epsilon)?;
            let ps = scope.child("partition");
            let (d, stats) = model.decompose_traced(a32, &pcfg, &ps.handle())?;
            drop(ps);
            let vol = objective_volume(a32, &d, scope)?;
            (d, vol, stats)
        }
        // Unreachable: spmv_pipeline_in rejects SpGEMM-workload models
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

/// The shared partition + decode tail of the three 1D/2D hypergraph-model
/// arms: multi-seed partitioning under a `partition` span, decoding under
/// a `decode` span.
fn hypergraph_arm<I, D>(
    cfg: &DecomposeConfig,
    pcfg: &PartitionConfig,
    pool: &Arc<ArenaPool>,
    scope: &SpanHandle,
    hg: &fgh_hypergraph::Hypergraph<I>,
    decode: D,
) -> std::result::Result<(Decomposition, u64, EngineStats), FghError>
where
    I: ArenaIndex,
    D: FnOnce(&fgh_partition::PartitionResult) -> crate::Result<Decomposition>,
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
