//! The workload-generic decomposition API: one entry point for every
//! workload the models decompose, and the one skeleton they all run.
//!
//! [`Workload`] names *what* runs in parallel — an SpMV `y = Ax` over one
//! square matrix, or an SpGEMM `C = A · B` over a conformable pair — and
//! [`decompose_workload`] runs it under one [`DecomposeConfig`]. The
//! config's [`Model`](crate::Model) is coupled to the workload family via
//! [`Model::workload`](crate::Model::workload): an SpMV model on a SpGEMM
//! workload (or vice versa) is a typed [`FghError::InvalidInput`], never
//! a silent reinterpretation.
//!
//! Everything comes width-generic ([`Workload`] over `u32`/`u64`
//! indices) and width-erased ([`WorkloadAny`], which auto-upgrades a
//! `u32` carrier when the task hypergraph would overflow 32-bit ids —
//! for SpGEMM that is driven by the *flop count*, which overflows long
//! before either matrix's own indices do). The `_in` variants draw
//! partitioner scratch from a caller-supplied [`ArenaPool`].
//!
//! Both workloads share the request checks, the `decompose` span and
//! `elapsed` window, the degenerate-input handling, and the status
//! attribution. Each contributes only its `Pipeline` hooks: SpMV's live
//! with its models in [`crate::api`], SpGEMM's below.

use std::sync::Arc;
use std::time::Instant;

use fgh_partition::{ArenaPool, EngineStats};
use fgh_sparse::{AnyCsrMatrix, CsrMatrix, IndexWidth};
use fgh_trace::{SpanHandle, Tracer};

use crate::api::{
    hypergraph_arm, DecomposeConfig, DecomposeIndex, DecompositionOutcome, Outcome, WorkloadKind,
};
use crate::metrics::CommSummary;
use crate::models::spgemm::{spgemm_flops, SpgemmCommStats, SpgemmDecomposition, SpgemmModel};
use crate::status::{DecompositionStatus, DegradedReason};
use crate::{FghError, ModelError};

/// A decomposition workload at a fixed index width: the matrices whose
/// computation is being distributed across `K` processors.
#[derive(Debug, Clone, Copy)]
pub enum Workload<'a, I: DecomposeIndex> {
    /// Sparse matrix-vector multiply `y = A x` (the paper's workload).
    /// `A` must be square.
    Spmv(&'a CsrMatrix<I>),
    /// Sparse matrix-matrix multiply `C = A · B`. Rectangular matrices
    /// are fine; only the inner dimensions must agree.
    Spgemm(&'a CsrMatrix<I>, &'a CsrMatrix<I>),
}

impl<I: DecomposeIndex> Workload<'_, I> {
    /// Which workload family this is.
    pub fn kind(&self) -> WorkloadKind {
        match self {
            Workload::Spmv(_) => WorkloadKind::Spmv,
            Workload::Spgemm(..) => WorkloadKind::Spgemm,
        }
    }

    /// `(rows, cols)` of each operand, `A` first.
    fn dims(&self) -> Vec<(u64, u64)> {
        let dims = |m: &CsrMatrix<I>| (m.nrows().as_u64(), m.ncols().as_u64());
        match *self {
            Workload::Spmv(a) => vec![dims(a)],
            Workload::Spgemm(a, b) => vec![dims(a), dims(b)],
        }
    }
}

/// A [`Workload`] over width-erased carriers (as produced by streaming
/// Matrix Market input) — the input to [`decompose_workload_any`].
#[derive(Debug, Clone, Copy)]
pub enum WorkloadAny<'a> {
    /// Sparse matrix-vector multiply `y = A x`.
    Spmv(&'a AnyCsrMatrix),
    /// Sparse matrix-matrix multiply `C = A · B`.
    Spgemm(&'a AnyCsrMatrix, &'a AnyCsrMatrix),
}

impl<'a> WorkloadAny<'a> {
    /// Which workload family this is.
    pub fn kind(&self) -> WorkloadKind {
        match self {
            WorkloadAny::Spmv(_) => WorkloadKind::Spmv,
            WorkloadAny::Spgemm(..) => WorkloadKind::Spgemm,
        }
    }

    /// The carriers, `A` first.
    fn operands(&self) -> Vec<&'a AnyCsrMatrix> {
        match *self {
            WorkloadAny::Spmv(a) => vec![a],
            WorkloadAny::Spgemm(a, b) => vec![a, b],
        }
    }
}

/// The result of [`decompose_workload`]: one variant per workload family.
/// A [`Workload::Spmv`] input always produces the `Spmv` variant and a
/// [`Workload::Spgemm`] input the `Spgemm` variant — the accessors exist
/// so callers that know their workload can unwrap without a panic path.
#[derive(Debug, Clone)]
pub enum WorkloadOutcome {
    /// Outcome of an SpMV decomposition.
    Spmv(DecompositionOutcome),
    /// Outcome of a SpGEMM decomposition.
    Spgemm(SpgemmOutcome),
}

impl WorkloadOutcome {
    /// Which workload family produced this outcome.
    pub fn kind(&self) -> WorkloadKind {
        match self {
            WorkloadOutcome::Spmv(_) => WorkloadKind::Spmv,
            WorkloadOutcome::Spgemm(_) => WorkloadKind::Spgemm,
        }
    }

    /// Full or degraded, for either family.
    pub fn status(&self) -> &DecompositionStatus {
        match self {
            WorkloadOutcome::Spmv(o) => &o.status,
            WorkloadOutcome::Spgemm(o) => &o.status,
        }
    }

    /// The SpMV outcome, if this is one.
    pub fn as_spmv(&self) -> Option<&DecompositionOutcome> {
        match self {
            WorkloadOutcome::Spmv(o) => Some(o),
            WorkloadOutcome::Spgemm(_) => None,
        }
    }

    /// The SpGEMM outcome, if this is one.
    pub fn as_spgemm(&self) -> Option<&SpgemmOutcome> {
        match self {
            WorkloadOutcome::Spgemm(o) => Some(o),
            WorkloadOutcome::Spmv(_) => None,
        }
    }

    /// Unwraps the SpMV outcome; a typed error (never a panic) when the
    /// outcome belongs to another family.
    pub fn into_spmv(self) -> std::result::Result<DecompositionOutcome, FghError> {
        match self {
            WorkloadOutcome::Spmv(o) => Ok(o),
            other => Err(FghError::InvalidInput(format!(
                "expected an SpMV outcome, got {}",
                other.kind()
            ))),
        }
    }

    /// Unwraps the SpGEMM outcome; a typed error (never a panic) when
    /// the outcome belongs to another family.
    pub fn into_spgemm(self) -> std::result::Result<SpgemmOutcome, FghError> {
        match self {
            WorkloadOutcome::Spgemm(o) => Ok(o),
            other => Err(FghError::InvalidInput(format!(
                "expected a SpGEMM outcome, got {}",
                other.kind()
            ))),
        }
    }

    /// Strict-mode check for either family — see [`Outcome::into_strict`].
    pub fn into_strict(self) -> std::result::Result<Self, FghError> {
        match self {
            WorkloadOutcome::Spmv(o) => o.into_strict().map(WorkloadOutcome::Spmv),
            WorkloadOutcome::Spgemm(o) => o.into_strict().map(WorkloadOutcome::Spgemm),
        }
    }
}

/// The result of a SpGEMM decomposition: task, A, B, and C owners, and
/// statistics replayed from them.
pub type SpgemmOutcome = Outcome<SpgemmDecomposition, SpgemmCommStats>;

impl SpgemmOutcome {
    /// Multiply-task count (= flops of the numeric product).
    pub fn flops(&self) -> u64 {
        self.decomposition.task_owner.len() as u64
    }
}

/// Decomposes a workload for `cfg.k` processors with the configured
/// model — **the** generic entry point.
///
/// Dispatch is total: a [`Workload::Spmv`] input runs the configured SpMV
/// model and returns [`WorkloadOutcome::Spmv`]; a [`Workload::Spgemm`]
/// input builds the SpGEMM hypergraph of its multiply tasks grouped by
/// the `A` nonzero they read, partitions it with the same multilevel
/// engine, and returns [`WorkloadOutcome::Spgemm`].
///
/// # Failure semantics
///
/// * Malformed requests (`K = 0`, non-finite or negative ε, a
///   non-square SpMV matrix, SpGEMM operands whose inner dimensions
///   disagree) return a typed [`FghError`] — never a panic.
/// * `cfg.model.workload()` must match the workload family, or the
///   request is rejected as [`FghError::InvalidInput`].
/// * The composite 2D models on a `u64` matrix return
///   [`FghError::UnsupportedWidth`] (see
///   [`Model::supports_wide_indices`](crate::Model::supports_wide_indices)).
/// * Pathological-but-valid inputs (empty matrix, `K > nnz`) return a
///   best-effort decomposition tagged [`DecompositionStatus::Degraded`].
/// * When [`DecomposeConfig::budget`] trips (wall clock, level, FM-pass,
///   or byte caps), the best partition found so far is returned, the
///   truncation is visible in the outcome's engine statistics, and the
///   outcome is `Degraded` — never an OOM abort. Strict callers reject
///   these via [`WorkloadOutcome::into_strict`].
pub fn decompose_workload<I: DecomposeIndex>(
    workload: Workload<'_, I>,
    cfg: &DecomposeConfig,
) -> std::result::Result<WorkloadOutcome, FghError> {
    decompose_workload_in(workload, cfg, &Arc::new(ArenaPool::new()))
}

/// [`decompose_workload`] drawing all partitioner scratch arenas from a
/// caller-supplied [`ArenaPool`]. A caller that passes one pool to every
/// request keeps warm buffers across whole decompositions.
pub fn decompose_workload_in<I: DecomposeIndex>(
    workload: Workload<'_, I>,
    cfg: &DecomposeConfig,
    pool: &Arc<ArenaPool>,
) -> std::result::Result<WorkloadOutcome, FghError> {
    check_request(cfg, workload.kind(), &workload.dims())?;
    run_checked(workload, cfg, pool)
}

/// [`decompose_workload`] over width-erased carriers, choosing the index
/// width once for either workload. It runs wide when any of these holds:
///
/// * the `force-u64` cargo feature is on (CI uses it to route the whole
///   test suite through the big path);
/// * any carrier is already `u64`;
/// * [`IndexWidth::select`] says so for any operand — the fine-grain
///   hypergraph (nnz + dummies vertices, `2M` nets) would overflow
///   32-bit ids even though the matrix itself fits `u32`;
/// * for SpGEMM only, the flop count (every task is one C-net pin) plus
///   the net-count bound (split A groups + B nets + nnz(C) ≤ nnz(A) +
///   nnz(B) + flops) reaches `u32::MAX`.
///
/// The request checks run first, so a malformed pair is rejected before
/// its flops are counted. The outcome's `width` field records which path
/// actually ran.
pub fn decompose_workload_any(
    workload: WorkloadAny<'_>,
    cfg: &DecomposeConfig,
) -> std::result::Result<WorkloadOutcome, FghError> {
    decompose_workload_any_in(workload, cfg, &Arc::new(ArenaPool::new()))
}

/// [`decompose_workload_any`] drawing partitioner scratch from a
/// caller-supplied [`ArenaPool`].
pub fn decompose_workload_any_in(
    workload: WorkloadAny<'_>,
    cfg: &DecomposeConfig,
    pool: &Arc<ArenaPool>,
) -> std::result::Result<WorkloadOutcome, FghError> {
    let operands = workload.operands();
    let dims: Vec<(u64, u64)> = operands.iter().map(|m| (m.nrows(), m.ncols())).collect();
    check_request(cfg, workload.kind(), &dims)?;
    // Counted only when no other rule already chose u64.
    let spgemm_overflows = || match workload {
        WorkloadAny::Spgemm(AnyCsrMatrix::U32(a), AnyCsrMatrix::U32(b)) => {
            let nets_bound = spgemm_flops(a, b)
                .saturating_add(a.nnz() as u64)
                .saturating_add(b.nnz() as u64);
            nets_bound >= u32::MAX as u64
        }
        _ => false,
    };
    let wide = cfg!(feature = "force-u64")
        || operands.iter().any(|m| {
            m.width() == IndexWidth::U64
                || IndexWidth::select(m.nrows(), m.ncols(), m.nnz() as u64) == IndexWidth::U64
        })
        || spgemm_overflows();
    if wide {
        run_at::<u64>(workload, cfg, pool)
    } else {
        run_at::<u32>(workload, cfg, pool)
    }
}

/// Runs a checked carrier workload at width `I`, converting each carrier
/// not already carried at it.
fn run_at<I: DecomposeIndex>(
    workload: WorkloadAny<'_>,
    cfg: &DecomposeConfig,
    pool: &Arc<ArenaPool>,
) -> std::result::Result<WorkloadOutcome, FghError> {
    match workload {
        WorkloadAny::Spmv(a) => {
            let a = I::at_width(a)?;
            run_checked(Workload::Spmv(&*a), cfg, pool)
        }
        WorkloadAny::Spgemm(a, b) => {
            let (a, b) = (I::at_width(a)?, I::at_width(b)?);
            run_checked(Workload::Spgemm(&*a, &*b), cfg, pool)
        }
    }
}

/// The request checks, in one place, made before any width or model
/// work: the model decomposes this workload family, `K ≥ 1`, ε is finite
/// and `≥ 0`, an SpMV matrix is square, and SpGEMM inner dimensions
/// agree. `dims` holds `(rows, cols)` of each operand, `A` first.
fn check_request(
    cfg: &DecomposeConfig,
    kind: WorkloadKind,
    dims: &[(u64, u64)],
) -> std::result::Result<(), FghError> {
    if cfg.model.workload() != kind {
        return Err(FghError::InvalidInput(format!(
            "model {} decomposes a {} workload, not {}",
            cfg.model.name(),
            cfg.model.workload(),
            match kind {
                WorkloadKind::Spmv => "SpMV",
                WorkloadKind::Spgemm => "SpGEMM",
            }
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
    match *dims {
        [(nrows, ncols)] if nrows != ncols => {
            Err(FghError::Model(ModelError::NotSquare { nrows, ncols }))
        }
        [(m, p), (q, n)] if p != q => Err(FghError::InvalidInput(format!(
            "SpGEMM inner dimensions disagree: A is {m} x {p}, B is {q} x {n}"
        ))),
        _ => Ok(()),
    }
}

/// Dispatches a checked workload to the skeleton. SpMV hands over its
/// matrix and builds each model inside [`Pipeline::partition`]; SpGEMM
/// builds its task model first, because its work units are the model's
/// tasks.
fn run_checked<I: DecomposeIndex>(
    workload: Workload<'_, I>,
    cfg: &DecomposeConfig,
    pool: &Arc<ArenaPool>,
) -> std::result::Result<WorkloadOutcome, FghError> {
    match workload {
        Workload::Spmv(a) => run::<I, _>(cfg, pool, |_| Ok(a)).map(WorkloadOutcome::Spmv),
        Workload::Spgemm(a, b) => run::<I, _>(cfg, pool, |root| {
            let _span = root.child("model-build");
            Ok(SpgemmModel::build(a, b)?)
        })
        .map(WorkloadOutcome::Spgemm),
    }
}

/// What one workload contributes to the decompose skeleton.
pub(crate) trait Pipeline {
    /// The decoded decomposition.
    type Decomposition;
    /// Its exact communication statistics.
    type Stats: CommSummary;

    /// The units balance is measured in: nonzeros for SpMV, multiply
    /// tasks for SpGEMM.
    fn work_units(&self) -> u64;

    /// The decomposition of an input without any work unit.
    fn empty(&self, k: u32) -> std::result::Result<Self::Decomposition, FghError>;

    /// Partition and decode, under `scope`'s `partition` / `decode` child
    /// spans, returning the decomposition, the objective, and the engine
    /// statistics.
    fn partition(
        &self,
        cfg: &DecomposeConfig,
        pool: &Arc<ArenaPool>,
        scope: &SpanHandle,
    ) -> std::result::Result<(Self::Decomposition, u64, EngineStats), FghError>;

    /// A valid-by-construction decomposition for when
    /// [`Pipeline::partition`] fails on a degenerate K.
    fn round_robin(&self, k: u32) -> std::result::Result<Self::Decomposition, FghError>;

    /// The exact statistics of `d`.
    fn stats(&self, d: &Self::Decomposition) -> std::result::Result<Self::Stats, FghError>;
}

/// The decompose skeleton every workload runs: the `decompose` root span
/// and the `elapsed` window around `prepare` and the partition, a trivial
/// decomposition for an input without work, the round-robin fallback
/// when `K` exceeds the work units and the model fails on it, and the
/// status attribution.
fn run<I: DecomposeIndex, P: Pipeline>(
    cfg: &DecomposeConfig,
    pool: &Arc<ArenaPool>,
    prepare: impl FnOnce(&SpanHandle) -> std::result::Result<P, FghError>,
) -> std::result::Result<Outcome<P::Decomposition, P::Stats>, FghError> {
    // Tracing observes the same window `elapsed` measures: the root
    // `decompose` span opens at `start` and closes right after the
    // decode (statistics computation is outside both).
    let (tracer, sink) = if cfg.trace {
        let (t, s) = Tracer::collecting();
        (t, Some(s))
    } else {
        (Tracer::disabled(), None)
    };
    let start = Instant::now();
    let root = tracer.span("decompose");
    let pipeline = prepare(&root.handle())?;
    let work = pipeline.work_units();

    // Degenerate inputs are served a trivial decomposition up front rather
    // than fed to partitioners that assume at least one unit of work.
    if work == 0 {
        let decomposition = pipeline.empty(cfg.k)?;
        let elapsed = start.elapsed();
        drop(root);
        let stats = pipeline.stats(&decomposition)?;
        return Ok(Outcome {
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
    let degenerate_k = |fallback| DegradedReason::DegenerateK {
        k: cfg.k,
        nnz: work,
        fallback,
    };
    let mut forced_reason = (cfg.k as u64 > work).then(|| degenerate_k(None));

    let (decomposition, objective, engine, fallback_stats) =
        match pipeline.partition(cfg, pool, &root.handle()) {
            Ok((d, objective, engine)) => (d, objective, engine, None),
            Err(e) if forced_reason.is_some() => {
                // The model choked on the degenerate K; fall back instead
                // of failing, keeping the reason visible. The fallback's
                // objective is its exact volume.
                forced_reason = Some(degenerate_k(Some(format!(
                    "{} failed on degenerate input: {e}",
                    cfg.model.name()
                ))));
                let d = pipeline.round_robin(cfg.k)?;
                let stats = pipeline.stats(&d)?;
                (d, stats.total_volume(), EngineStats::default(), Some(stats))
            }
            Err(e) => return Err(e),
        };
    let elapsed = start.elapsed();
    drop(root);
    let trace = sink.map(|s| s.build_trace());
    let stats = match fallback_stats {
        Some(stats) => stats,
        None => pipeline.stats(&decomposition)?,
    };

    let status = degradation_status(
        forced_reason,
        &engine,
        cfg,
        stats.load_imbalance_percent(),
        work,
    );
    Ok(Outcome {
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

/// Status attribution: a forced reason (degenerate input) wins, then
/// cancellation, then budget truncation, then a missed balance target.
/// The balance tolerance adds one work unit of slack (`100·K /
/// work_units` percent) on top of ε — integer loads cannot hit a
/// fractional average exactly, and that granularity is not a
/// degradation. Cancellation wins the attribution over budget
/// truncation: a cancelled run is reported as cancelled, not a budget
/// accident.
fn degradation_status(
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

/// SpGEMM's part of the decompose skeleton: model → multilevel partition
/// of the task groups → first-consumer decode → replayed statistics. Its
/// work units are multiply tasks, so an empty product is caught after the
/// model build.
impl<I: DecomposeIndex> Pipeline for SpgemmModel<I> {
    type Decomposition = SpgemmDecomposition;
    type Stats = SpgemmCommStats;

    fn work_units(&self) -> u64 {
        self.structure().num_tasks() as u64
    }

    fn empty(&self, k: u32) -> std::result::Result<SpgemmDecomposition, FghError> {
        Ok(SpgemmDecomposition {
            k,
            task_owner: Vec::new(),
            a_owner: Vec::new(),
            b_owner: Vec::new(),
            c_owner: Vec::new(),
        })
    }

    fn partition(
        &self,
        cfg: &DecomposeConfig,
        pool: &Arc<ArenaPool>,
        scope: &SpanHandle,
    ) -> std::result::Result<(SpgemmDecomposition, u64, EngineStats), FghError> {
        let pcfg = cfg.partition_config();
        hypergraph_arm(cfg, &pcfg, pool, scope, self.hypergraph(), |r| {
            self.decode(&r.partition)
        })
    }

    /// Round-robin the task groups; the first-consumer decode keeps the
    /// exact-volume property.
    fn round_robin(&self, k: u32) -> std::result::Result<SpgemmDecomposition, FghError> {
        let parts: Vec<u32> = (0..self.hypergraph().num_vertices().index())
            .map(|v| (v % k as usize) as u32) // lint: checked-cast — value < k, a u32
            .collect();
        let p = fgh_hypergraph::Partition::new(k, parts)
            .map_err(fgh_partition::PartitionError::from)?;
        Ok(self.decode(&p)?)
    }

    fn stats(&self, d: &SpgemmDecomposition) -> std::result::Result<SpgemmCommStats, FghError> {
        Ok(SpgemmCommStats::compute_with(self.structure(), d)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::Model;
    use fgh_sparse::gen::{self, ValueMode};
    use fgh_sparse::CooMatrix;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn test_matrix() -> CsrMatrix {
        gen::grid5(
            12,
            12,
            1.0,
            ValueMode::Ones,
            &mut SmallRng::seed_from_u64(5),
        )
    }

    fn spgemm_cfg(k: u32) -> DecomposeConfig {
        DecomposeConfig::new(Model::SpgemmFineGrain, k)
    }

    #[test]
    fn spgemm_outcome_is_exact_and_valid() {
        let a = test_matrix();
        let out = decompose_workload(Workload::Spgemm(&a, &a), &spgemm_cfg(4))
            .unwrap()
            .into_spgemm()
            .unwrap();
        out.decomposition.validate(&a, &a).unwrap();
        assert_eq!(out.stats.k, 4);
        assert_eq!(
            out.objective,
            out.stats.total_volume(),
            "cutsize != replayed SpGEMM volume"
        );
        assert!(out.flops() > 0);
        assert_eq!(out.decomposition.task_owner.len() as u64, out.flops());
        assert!(out.engine.bisections > 0, "engine-backed model");
    }

    #[test]
    fn spgemm_rectangular_pair_works() {
        // A: 6x4, B: 4x5 — only the inner dimension must agree.
        let a: CsrMatrix = CsrMatrix::from_coo(
            CooMatrix::from_triplets(
                6,
                4,
                vec![
                    (0, 0, 1.0),
                    (1, 1, 2.0),
                    (2, 2, 1.0),
                    (3, 3, 1.0),
                    (4, 0, 1.0),
                    (5, 2, 3.0),
                    (0, 3, 1.0),
                ],
            )
            .unwrap(),
        );
        let b: CsrMatrix = CsrMatrix::from_coo(
            CooMatrix::from_triplets(
                4,
                5,
                vec![
                    (0, 0, 1.0),
                    (0, 4, 1.0),
                    (1, 2, 1.0),
                    (2, 1, 1.0),
                    (3, 3, 1.0),
                ],
            )
            .unwrap(),
        );
        let out = decompose_workload(Workload::Spgemm(&a, &b), &spgemm_cfg(2))
            .unwrap()
            .into_spgemm()
            .unwrap();
        out.decomposition.validate(&a, &b).unwrap();
        assert_eq!(out.objective, out.stats.total_volume());
    }

    #[test]
    fn model_workload_mismatch_is_typed() {
        let a = test_matrix();
        // SpGEMM model on an SpMV workload.
        let r = decompose_workload(
            Workload::Spmv(&a),
            &DecomposeConfig::new(Model::SpgemmFineGrain, 2),
        );
        assert!(matches!(r, Err(FghError::InvalidInput(_))), "{r:?}");
        // SpMV model on a SpGEMM workload.
        let r = decompose_workload(
            Workload::Spgemm(&a, &a),
            &DecomposeConfig::new(Model::FineGrain2D, 2),
        );
        assert!(matches!(r, Err(FghError::InvalidInput(_))), "{r:?}");
    }

    #[test]
    fn spgemm_rejects_bad_requests() {
        let a = test_matrix();
        assert!(decompose_workload(Workload::Spgemm(&a, &a), &spgemm_cfg(0)).is_err());
        let bad_eps = spgemm_cfg(2).with_epsilon(f64::NAN);
        assert!(decompose_workload(Workload::Spgemm(&a, &a), &bad_eps).is_err());
    }

    #[test]
    fn mismatched_inner_dimensions_are_typed_before_width_work() {
        // A is 2x4 with a nonzero in its last column, B is 3x2: counting
        // the pair's flops would index past B's rows.
        let a: CsrMatrix = CsrMatrix::from_coo(
            CooMatrix::from_triplets(2, 4, vec![(0, 0, 1.0), (1, 3, 1.0)]).unwrap(),
        );
        let b: CsrMatrix = CsrMatrix::from_coo(
            CooMatrix::from_triplets(3, 2, vec![(0, 0, 1.0), (2, 1, 1.0)]).unwrap(),
        );
        let r = decompose_workload(Workload::Spgemm(&a, &b), &spgemm_cfg(2));
        assert!(matches!(r, Err(FghError::InvalidInput(_))), "{r:?}");
        let (a, b) = (AnyCsrMatrix::from(a), AnyCsrMatrix::from(b));
        let r = decompose_workload_any(WorkloadAny::Spgemm(&a, &b), &spgemm_cfg(2));
        assert!(matches!(r, Err(FghError::InvalidInput(_))), "{r:?}");
    }

    #[test]
    fn spgemm_empty_product_degrades() {
        // Disjoint support: A uses only column 0, B's row 0 is empty.
        let a: CsrMatrix =
            CsrMatrix::from_coo(CooMatrix::from_triplets(2, 2, vec![(0, 0, 1.0)]).unwrap());
        let b: CsrMatrix =
            CsrMatrix::from_coo(CooMatrix::from_triplets(2, 2, vec![(1, 1, 1.0)]).unwrap());
        let out = decompose_workload(Workload::Spgemm(&a, &b), &spgemm_cfg(2))
            .unwrap()
            .into_spgemm()
            .unwrap();
        assert_eq!(out.flops(), 0);
        assert_eq!(out.status.code(), Some("empty-matrix"));
        assert_eq!(out.stats.total_volume(), 0);
    }

    #[test]
    fn spgemm_degenerate_k_round_robins() {
        // K far above the flop count must degrade, not fail.
        let a: CsrMatrix = CsrMatrix::from_coo(
            CooMatrix::from_triplets(2, 2, vec![(0, 0, 1.0), (1, 1, 1.0)]).unwrap(),
        );
        let out = decompose_workload(Workload::Spgemm(&a, &a), &spgemm_cfg(64))
            .unwrap()
            .into_spgemm()
            .unwrap();
        assert_eq!(out.status.code(), Some("degenerate-k"));
        out.decomposition.validate(&a, &a).unwrap();
        assert_eq!(out.objective, out.stats.total_volume());
    }

    #[test]
    fn spgemm_k1_costs_nothing() {
        let a = test_matrix();
        let out = decompose_workload(Workload::Spgemm(&a, &a), &spgemm_cfg(1))
            .unwrap()
            .into_spgemm()
            .unwrap();
        assert_eq!(out.objective, 0);
        assert_eq!(out.stats.total_volume(), 0);
    }

    #[test]
    fn spgemm_wide_path_matches_fast_path() {
        let a = test_matrix();
        let a64: CsrMatrix<u64> = a.convert_width().unwrap();
        let cfg = spgemm_cfg(4);
        let narrow = decompose_workload(Workload::Spgemm(&a, &a), &cfg)
            .unwrap()
            .into_spgemm()
            .unwrap();
        let wide = decompose_workload(Workload::Spgemm(&a64, &a64), &cfg)
            .unwrap()
            .into_spgemm()
            .unwrap();
        assert_eq!(wide.width, IndexWidth::U64);
        assert_eq!(narrow.decomposition, wide.decomposition);
        assert_eq!(narrow.objective, wide.objective);
    }

    #[test]
    fn workload_any_dispatches_spgemm() {
        let a = test_matrix();
        let cfg = spgemm_cfg(4);
        let typed = decompose_workload(Workload::Spgemm(&a, &a), &cfg)
            .unwrap()
            .into_spgemm()
            .unwrap();
        let any = AnyCsrMatrix::from(a.clone());
        let erased = decompose_workload_any(WorkloadAny::Spgemm(&any, &any), &cfg)
            .unwrap()
            .into_spgemm()
            .unwrap();
        if cfg!(feature = "force-u64") {
            assert_eq!(erased.width, IndexWidth::U64);
        } else {
            assert_eq!(erased.width, IndexWidth::U32);
        }
        assert_eq!(typed.decomposition, erased.decomposition);

        // A mixed-width pair runs wide.
        let wide = any.convert_width(IndexWidth::U64).unwrap();
        let mixed = decompose_workload_any(WorkloadAny::Spgemm(&any, &wide), &cfg)
            .unwrap()
            .into_spgemm()
            .unwrap();
        assert_eq!(mixed.width, IndexWidth::U64);
        assert_eq!(typed.decomposition, mixed.decomposition);
    }

    #[test]
    fn spgemm_trace_and_strict_contract() {
        let a = test_matrix();
        let out = decompose_workload(Workload::Spgemm(&a, &a), &spgemm_cfg(4).with_trace(true))
            .unwrap()
            .into_spgemm()
            .unwrap();
        let trace = out.trace.as_ref().expect("trace requested");
        let json = trace.to_json();
        assert!(json.contains("decompose") && json.contains("model-build"));
        assert!(out.clone().into_strict().is_ok());

        // Strict rejection of a budget-truncated run.
        let tight = spgemm_cfg(4).with_budget(crate::Budget::bytes(1));
        let out = decompose_workload(Workload::Spgemm(&a, &a), &tight)
            .unwrap()
            .into_spgemm()
            .unwrap();
        assert!(out.status.is_degraded());
        assert!(matches!(
            out.into_strict(),
            Err(FghError::BudgetExhausted(_))
        ));
    }

    #[test]
    fn spmv_entry_points_agree_bitwise() {
        // The width-erased entry point must reproduce the typed one
        // exactly, engine counters included.
        let a = test_matrix();
        let any = AnyCsrMatrix::from(a.clone());
        for model in [Model::Graph1D, Model::FineGrain2D] {
            let cfg = DecomposeConfig::new(model, 4).with_seed(7);
            let typed = decompose_workload(Workload::Spmv(&a), &cfg)
                .unwrap()
                .into_spmv()
                .unwrap();
            let erased = decompose_workload_any(WorkloadAny::Spmv(&any), &cfg)
                .unwrap()
                .into_spmv()
                .unwrap();
            assert_eq!(erased.decomposition, typed.decomposition);
            assert_eq!(erased.objective, typed.objective);
            assert_eq!(erased.stats, typed.stats);
            assert_eq!(erased.status, typed.status);
            // Engine counters are deterministic; wall-clock nanos are not.
            let detimed = |mut e: EngineStats| {
                e.coarsen_nanos = 0;
                e.initial_nanos = 0;
                e.refine_nanos = 0;
                e
            };
            assert_eq!(detimed(erased.engine), detimed(typed.engine));
        }

        // And the pool-drawing pair, on one shared pool.
        let cfg = DecomposeConfig::new(Model::FineGrain2D, 4);
        let pool = Arc::new(ArenaPool::new());
        let typed_in = decompose_workload_in(Workload::Spmv(&a), &cfg, &pool)
            .unwrap()
            .into_spmv()
            .unwrap();
        let erased_in = decompose_workload_any_in(WorkloadAny::Spmv(&any), &cfg, &pool)
            .unwrap()
            .into_spmv()
            .unwrap();
        assert_eq!(erased_in.decomposition, typed_in.decomposition);
    }

    #[test]
    fn outcome_accessors_are_total() {
        let a = test_matrix();
        let spmv = decompose_workload(Workload::Spmv(&a), &DecomposeConfig::new(Model::Graph1D, 2))
            .unwrap();
        assert_eq!(spmv.kind(), WorkloadKind::Spmv);
        assert!(spmv.as_spmv().is_some());
        assert!(spmv.as_spgemm().is_none());
        assert!(matches!(
            spmv.clone().into_spgemm(),
            Err(FghError::InvalidInput(_))
        ));
        assert!(spmv.into_strict().is_ok());

        let spgemm = decompose_workload(Workload::Spgemm(&a, &a), &spgemm_cfg(2)).unwrap();
        assert_eq!(spgemm.kind(), WorkloadKind::Spgemm);
        assert!(spgemm.as_spgemm().is_some());
        assert!(matches!(spgemm.into_spmv(), Err(FghError::InvalidInput(_))));
    }

    #[test]
    fn spgemm_balance_targets_flops() {
        // With default epsilon the task loads must be near-balanced.
        let a = test_matrix();
        let out = decompose_workload(Workload::Spgemm(&a, &a), &spgemm_cfg(4))
            .unwrap()
            .into_spgemm()
            .unwrap();
        let loads = out.decomposition.loads();
        let total: u64 = loads.iter().sum();
        assert_eq!(total, out.flops());
        assert!(
            out.stats.load_imbalance_percent() <= 15.0,
            "imbalance {}%",
            out.stats.load_imbalance_percent()
        );
    }

    #[test]
    fn session_runs_spgemm_workloads() {
        let a = test_matrix();
        let pool = Arc::new(ArenaPool::new());
        let out = decompose_workload_in(Workload::Spgemm(&a, &a), &spgemm_cfg(4), &pool)
            .unwrap()
            .into_spgemm()
            .unwrap();
        out.decomposition.validate(&a, &a).unwrap();
        assert_eq!(out.objective, out.stats.total_volume());
        assert!(pool.idle() > 0, "spgemm jobs share the pool");
    }

    #[test]
    fn pool_is_reused_across_requests() {
        let a = test_matrix();
        let pool = Arc::new(ArenaPool::new());
        let cfg = DecomposeConfig::new(Model::FineGrain2D, 4);
        decompose_workload_in(Workload::Spmv(&a), &cfg, &pool).unwrap();
        let warmed = pool.idle();
        assert!(warmed > 0, "first request must park arenas for reuse");
        decompose_workload_in(Workload::Spmv(&a), &cfg, &pool).unwrap();
        // Reuse, not growth: the second identical request checks the same
        // arenas out and back in.
        assert_eq!(pool.idle(), warmed);
    }

    #[test]
    fn cancelled_token_degrades_with_cancelled_reason() {
        let a = test_matrix();
        let token = crate::CancelToken::new();
        token.cancel(); // tripped before the run even starts
        let cfg = DecomposeConfig::new(Model::FineGrain2D, 4).with_cancel(token);
        let out = decompose_workload_in(Workload::Spmv(&a), &cfg, &Arc::new(ArenaPool::new()))
            .unwrap()
            .into_spmv()
            .unwrap();
        out.decomposition.validate(&a).unwrap();
        assert_eq!(out.status.code(), Some("cancelled"));
        assert!(out.engine.cancelled());
        assert!(!out.engine.truncated(), "cancel is not a budget truncation");
    }
}
