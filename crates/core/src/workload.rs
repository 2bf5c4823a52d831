//! The workload-generic decomposition API: one entry point for every
//! workload the models decompose.
//!
//! [`Workload`] names *what* runs in parallel — an SpMV `y = Ax` over one
//! square matrix, or an SpGEMM `C = A · B` over a conformable pair — and
//! [`decompose_workload`] dispatches it to the matching pipeline under
//! one [`DecomposeConfig`]. The config's [`Model`](crate::Model) is
//! coupled to the workload family via
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

use std::sync::Arc;
use std::time::{Duration, Instant};

use fgh_partition::{
    partition_hypergraph_best_traced_in, ArenaPool, EngineStats, InitialScheme, Parallelism,
};
use fgh_sparse::{AnyCsrMatrix, CsrMatrix, IndexWidth};
use fgh_trace::{Trace, Tracer};

use crate::api::{
    degradation_status, spmv_pipeline_any_in, spmv_pipeline_in, DecomposeConfig, DecomposeIndex,
    DecompositionOutcome, WorkloadKind,
};
use crate::models::spgemm::{spgemm_flops, SpgemmCommStats, SpgemmDecomposition, SpgemmModel};
use crate::status::{DecompositionStatus, DegradedReason};
use crate::FghError;

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

impl WorkloadAny<'_> {
    /// Which workload family this is.
    pub fn kind(&self) -> WorkloadKind {
        match self {
            WorkloadAny::Spmv(_) => WorkloadKind::Spmv,
            WorkloadAny::Spgemm(..) => WorkloadKind::Spgemm,
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

    /// Strict-mode check for either family — see
    /// [`DecompositionOutcome::into_strict`].
    pub fn into_strict(self) -> std::result::Result<Self, FghError> {
        match self {
            WorkloadOutcome::Spmv(o) => o.into_strict().map(WorkloadOutcome::Spmv),
            WorkloadOutcome::Spgemm(o) => o.into_strict().map(WorkloadOutcome::Spgemm),
        }
    }
}

/// The result of a SpGEMM decomposition — the SpGEMM face of
/// [`DecompositionOutcome`], with the same status / engine / trace
/// contract.
#[derive(Debug, Clone)]
pub struct SpgemmOutcome {
    /// The decoded decomposition (task, A, B, and C owners).
    pub decomposition: SpgemmDecomposition,
    /// Exact communication statistics, replayed from the decomposition —
    /// ground truth independent of the model's objective.
    pub stats: SpgemmCommStats,
    /// The connectivity−1 cutsize the partitioner minimized. Equals
    /// `stats.total_volume()` for decoded outcomes (the model's exactness
    /// property, cross-checked by the `fgh-traffic` simulator).
    pub objective: u64,
    /// Multiply-task count (= flops of the numeric product).
    pub flops: u64,
    /// Wall-clock time (model build + partitioning + decode).
    pub elapsed: Duration,
    /// Full or degraded, with the reason when degraded.
    pub status: DecompositionStatus,
    /// The index width the decomposition ran at.
    pub width: IndexWidth,
    /// Multilevel engine statistics (budget-truncation counters
    /// included).
    pub engine: EngineStats,
    /// Structured execution trace when [`DecomposeConfig::trace`] was
    /// set; `None` otherwise.
    pub trace: Option<Trace>,
}

impl SpgemmOutcome {
    /// Strict-mode check — same contract as
    /// [`DecompositionOutcome::into_strict`].
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

/// Decomposes a workload for `cfg.k` processors with the configured
/// model — **the** generic entry point.
///
/// Dispatch is total: a [`Workload::Spmv`] input runs the SpMV pipeline
/// and returns [`WorkloadOutcome::Spmv`]; a [`Workload::Spgemm`] input
/// builds the fine-grain SpGEMM task hypergraph, partitions it with the
/// same multilevel engine, and returns [`WorkloadOutcome::Spgemm`].
///
/// # Failure semantics
///
/// * Malformed requests (`K = 0`, non-finite or negative ε, a
///   non-square SpMV matrix) return a typed [`FghError`] — never a
///   panic.
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
/// caller-supplied [`ArenaPool`] — the session-reuse entry point behind
/// [`crate::session::EngineSession`].
pub fn decompose_workload_in<I: DecomposeIndex>(
    workload: Workload<'_, I>,
    cfg: &DecomposeConfig,
    pool: &Arc<ArenaPool>,
) -> std::result::Result<WorkloadOutcome, FghError> {
    match workload {
        Workload::Spmv(a) => spmv_pipeline_in(a, cfg, pool).map(WorkloadOutcome::Spmv),
        Workload::Spgemm(a, b) => spgemm_pipeline_in(a, b, cfg, pool).map(WorkloadOutcome::Spgemm),
    }
}

/// [`decompose_workload`] over width-erased carriers, choosing the index
/// width automatically:
///
/// * a `u64` carrier runs the big path directly;
/// * a `u32` SpMV carrier normally runs the fast path, but is upgraded
///   to `u64` first when [`IndexWidth::select`] says the fine-grain
///   hypergraph (nnz + dummies vertices, `2M` nets) would overflow
///   32-bit ids — the matrix itself fitting `u32` is not sufficient;
/// * a SpGEMM pair additionally upgrades when the flop count — the
///   task-hypergraph vertex count — would overflow `u32` ids;
/// * building with the `force-u64` cargo feature upgrades every carrier,
///   which CI uses to route the whole test suite through the big path.
///
/// The outcome's `width` field records which path actually ran.
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
    match workload {
        WorkloadAny::Spmv(a) => spmv_pipeline_any_in(a, cfg, pool).map(WorkloadOutcome::Spmv),
        WorkloadAny::Spgemm(a, b) => {
            spgemm_pipeline_any_in(a, b, cfg, pool).map(WorkloadOutcome::Spgemm)
        }
    }
}

/// Width choice for a SpGEMM pair: wide when either carrier is already
/// wide, when either matrix's own shape demands it, when the flop count
/// (task-hypergraph vertices) or the net-count upper bound (used A +
/// used B + nnz(C) ≤ nnz(A) + nnz(B) + flops) would overflow `u32` ids,
/// or when the `force-u64` build routes everything wide.
fn spgemm_width(a: &AnyCsrMatrix, b: &AnyCsrMatrix) -> IndexWidth {
    if cfg!(feature = "force-u64")
        || matches!(a, AnyCsrMatrix::U64(_))
        || matches!(b, AnyCsrMatrix::U64(_))
        || IndexWidth::select(a.nrows(), a.ncols(), a.nnz() as u64) == IndexWidth::U64
        || IndexWidth::select(b.nrows(), b.ncols(), b.nnz() as u64) == IndexWidth::U64
    {
        return IndexWidth::U64;
    }
    let flops = match (a, b) {
        (AnyCsrMatrix::U32(a32), AnyCsrMatrix::U32(b32)) => spgemm_flops(a32, b32),
        // Unreachable (wide carriers returned above), but total.
        _ => u64::MAX,
    };
    let nets_bound = flops
        .saturating_add(a.nnz() as u64)
        .saturating_add(b.nnz() as u64);
    if nets_bound >= u32::MAX as u64 {
        IndexWidth::U64
    } else {
        IndexWidth::U32
    }
}

fn spgemm_pipeline_any_in(
    a: &AnyCsrMatrix,
    b: &AnyCsrMatrix,
    cfg: &DecomposeConfig,
    pool: &Arc<ArenaPool>,
) -> std::result::Result<SpgemmOutcome, FghError> {
    match spgemm_width(a, b) {
        IndexWidth::U32 => match (a, b) {
            (AnyCsrMatrix::U32(a32), AnyCsrMatrix::U32(b32)) => {
                spgemm_pipeline_in(a32, b32, cfg, pool)
            }
            // spgemm_width only answers U32 for a pair of U32 carriers.
            _ => Err(FghError::InvalidInput(
                "width selection chose u32 for a wide carrier".into(),
            )),
        },
        IndexWidth::U64 => {
            let wide_a;
            let a64: &CsrMatrix<u64> = match a {
                AnyCsrMatrix::U64(m) => m,
                AnyCsrMatrix::U32(m) => {
                    wide_a = m.convert_width()?;
                    &wide_a
                }
            };
            let wide_b;
            let b64: &CsrMatrix<u64> = match b {
                AnyCsrMatrix::U64(m) => m,
                AnyCsrMatrix::U32(m) => {
                    wide_b = m.convert_width()?;
                    &wide_b
                }
            };
            spgemm_pipeline_in(a64, b64, cfg, pool)
        }
    }
}

/// The SpGEMM pipeline: model build → multilevel partition → first-pin
/// decode → exact replayed statistics, with the same degenerate-input
/// and budget-degradation semantics as the SpMV pipeline.
fn spgemm_pipeline_in<I: DecomposeIndex>(
    a: &CsrMatrix<I>,
    b: &CsrMatrix<I>,
    cfg: &DecomposeConfig,
    pool: &Arc<ArenaPool>,
) -> std::result::Result<SpgemmOutcome, FghError> {
    if cfg.model.workload() != WorkloadKind::Spgemm {
        return Err(FghError::InvalidInput(format!(
            "model {} decomposes a {} workload, not SpGEMM",
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
    let (tracer, sink) = if cfg.trace {
        let (t, s) = Tracer::collecting();
        (t, Some(s))
    } else {
        (Tracer::disabled(), None)
    };
    let start = Instant::now();
    let root = tracer.span("decompose");

    let model = {
        let _mb = root.handle().child("model-build");
        SpgemmModel::build(a, b)?
    };
    let flops = model.structure().num_tasks() as u64;

    // Degenerate product (no multiply task at all): a trivial empty
    // decomposition, tagged like the empty-matrix SpMV case.
    if flops == 0 {
        let decomposition = SpgemmDecomposition {
            k: cfg.k,
            task_owner: Vec::new(),
            a_owner: Vec::new(),
            b_owner: Vec::new(),
            c_owner: Vec::new(),
        };
        let stats = SpgemmCommStats::compute_with(model.structure(), &decomposition)?;
        let elapsed = start.elapsed();
        drop(root);
        return Ok(SpgemmOutcome {
            decomposition,
            stats,
            objective: 0,
            flops: 0,
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
    if cfg.k as u64 > flops {
        forced_reason = Some(DegradedReason::DegenerateK {
            k: cfg.k,
            nnz: flops,
            fallback: None,
        });
    }

    let attempt = (|| -> std::result::Result<(SpgemmDecomposition, u64, EngineStats), FghError> {
        let mut pcfg = cfg.partition_config();
        if matches!(cfg.initial, InitialScheme::Geometric | InitialScheme::Auto) {
            // Tasks have natural (row, col) positions in the product.
            let coords: Vec<(f32, f32)> = (0..model.structure().num_tasks())
                .map(|t| {
                    let (r, c) = model.coords(t);
                    // lint: checked-cast — ids as geometric positions; f32 rounding above 2^24 only nudges the sweep order, never indexes
                    (r.index() as f32, c.index() as f32)
                })
                .collect();
            pcfg.coords = Some(Arc::new(coords));
        }
        let ps = root.handle().child("partition");
        let r = partition_hypergraph_best_traced_in(
            model.hypergraph(),
            cfg.k,
            &pcfg,
            cfg.runs,
            pool,
            &ps.handle(),
        )?;
        drop(ps);
        let ds = root.handle().child("decode");
        let d = model.decode(&r.partition)?;
        drop(ds);
        Ok((d, r.cutsize, r.stats))
    })();

    let (decomposition, objective, engine) = match attempt {
        Ok(t) => t,
        Err(e) if forced_reason.is_some() => {
            // The engine choked on the degenerate K; round-robin the
            // tasks instead of failing, keeping the reason visible. The
            // first-pin decode keeps the exact-volume property.
            forced_reason = Some(DegradedReason::DegenerateK {
                k: cfg.k,
                nnz: flops,
                fallback: Some(format!(
                    "{} failed on degenerate input: {e}",
                    cfg.model.name()
                )),
            });
            let parts: Vec<u32> = (0..model.structure().num_tasks())
                .map(|t| (t % cfg.k as usize) as u32) // lint: checked-cast — value < k, a u32
                .collect();
            let p = fgh_hypergraph::Partition::new(cfg.k, parts)
                .map_err(fgh_partition::PartitionError::from)?;
            let d = model.decode(&p)?;
            let vol = SpgemmCommStats::compute_with(model.structure(), &d)?.total_volume();
            (d, vol, EngineStats::default())
        }
        Err(e) => return Err(e),
    };
    let elapsed = start.elapsed();
    drop(root);
    let trace = sink.map(|s| s.build_trace());
    let stats = SpgemmCommStats::compute_with(model.structure(), &decomposition)?;

    let status = degradation_status(
        forced_reason,
        &engine,
        cfg,
        stats.load_imbalance_percent(),
        flops,
    );
    Ok(SpgemmOutcome {
        decomposition,
        stats,
        objective,
        flops,
        elapsed,
        status,
        width: I::WIDTH,
        engine,
        trace,
    })
}

// Serial-vs-parallel determinism and session reuse are inherited from the
// engine; the Parallelism re-export keeps the doc link above resolvable
// without a direct use in code.
const _: fn() -> Parallelism = || Parallelism::Auto;

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
        assert!(out.flops > 0);
        assert_eq!(out.decomposition.task_owner.len() as u64, out.flops);
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
        assert_eq!(out.flops, 0);
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
        assert_eq!(total, out.flops);
        assert!(
            out.stats.load_imbalance_percent() <= 15.0,
            "imbalance {}%",
            out.stats.load_imbalance_percent()
        );
    }
}
