//! # fgh-core — decomposition models for parallel sparse matrix-vector multiply
//!
//! The paper's contribution and its baselines, as reusable decomposition
//! models over a shared vocabulary:
//!
//! * [`models::FineGrainModel`] — **the paper's fine-grain 2D hypergraph
//!   model**: one vertex per nonzero `a_ij` (an atomic scalar-multiply
//!   task), one column net `n_j` per column (the *expand* of `x_j`), one
//!   row net `m_i` per row (the *fold* of `y_i`), zero-weight dummy
//!   diagonal vertices enforcing the consistency condition
//!   `v_jj ∈ pins[n_j] ∩ pins[m_j]`.
//! * [`models::ColumnNetModel`] / [`models::RowNetModel`] — the 1D
//!   hypergraph models of Çatalyürek & Aykanat (TPDS 1999).
//! * [`models::StandardGraphModel`] — the classic graph model (MeTiS
//!   baseline) on the symmetrized pattern with edge costs 1/2.
//!
//! Every model decodes its partition into a common [`Decomposition`]
//! (owner of every nonzero + conformal owner of every `x_j`/`y_j`), and
//! [`CommStats`] computes the **exact** communication requirements of one
//! SpMV from that decomposition — volumes in words, per-processor
//! send/receive loads, and message counts — independent of any model's
//! objective function. For the fine-grain model, total volume provably
//! equals the connectivity−1 cutsize (verified in tests and end-to-end by
//! `fgh-spmv`).
//!
//! The [`workload`] module offers one-call decomposition for any
//! supported workload ([`workload::decompose_workload`] over
//! [`workload::Workload::Spmv`] and [`workload::Workload::Spgemm`]);
//! [`api`] holds the shared vocabulary ([`Model`], [`DecomposeConfig`],
//! [`DecompositionOutcome`]) and the SpMV pipeline behind it. To keep
//! warm scratch arenas across requests, an embedder (such as `fgh serve`)
//! creates one [`ArenaPool`] and passes it to every call of
//! [`decompose_workload_in`] or [`decompose_workload_any_in`]; the pool
//! is `Sync`, so many threads may share it.

// Robustness contract: library (non-test) code must not panic; provably
// infallible sites carry a narrowly scoped `allow` with a justification.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod api;
pub mod decomp;
pub mod metrics;
pub mod models;
pub mod report;
pub mod status;
pub mod workload;

pub use api::{
    DecomposeConfig, DecomposeIndex, DecompositionOutcome, Model, Outcome, WorkloadKind,
};
pub use decomp::Decomposition;
pub use fgh_partition::{ArenaPool, Budget, CancelToken, EngineStats, Parallelism};
pub use fgh_trace::{Trace, Tracer};
pub use metrics::{CommStats, CommSummary};
pub use report::{
    metrics_document, metrics_json, spgemm_metrics_document, spgemm_metrics_json,
    validate_metrics_value, METRICS_SCHEMA,
};
pub use status::{DecompositionStatus, DegradedReason};
pub use workload::{
    decompose_workload, decompose_workload_any, decompose_workload_any_in, decompose_workload_in,
    SpgemmOutcome, Workload, WorkloadAny, WorkloadOutcome,
};

/// Errors from model construction and decomposition.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelError {
    /// Decomposition models require square matrices (symmetric x/y
    /// partitioning is meaningless otherwise). Dimensions are reported
    /// widened so one error type serves both index widths.
    NotSquare { nrows: u64, ncols: u64 },
    /// The underlying partitioner failed.
    Partition(String),
    /// A decomposition failed validation (see message).
    Invalid(String),
}

impl std::fmt::Display for ModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelError::NotSquare { nrows, ncols } => {
                write!(
                    f,
                    "decomposition requires a square matrix, got {nrows} x {ncols}"
                )
            }
            ModelError::Partition(m) => write!(f, "partitioning failed: {m}"),
            ModelError::Invalid(m) => write!(f, "invalid decomposition: {m}"),
        }
    }
}

impl std::error::Error for ModelError {}

impl From<fgh_hypergraph::HypergraphError> for ModelError {
    fn from(e: fgh_hypergraph::HypergraphError) -> Self {
        ModelError::Partition(e.to_string())
    }
}

impl From<fgh_partition::PartitionError> for ModelError {
    fn from(e: fgh_partition::PartitionError) -> Self {
        ModelError::Partition(e.to_string())
    }
}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, ModelError>;

/// Coarse category of an [`FghError`], used by the CLI to map failures to
/// exit codes (bad input → 2, infeasible → 3, budget → 4, internal → 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCategory {
    /// The input (matrix file, K, ε, ...) is malformed or out of range.
    BadInput,
    /// The request is well-formed but cannot be satisfied (e.g. a strict
    /// caller rejected a `Degraded` balance outcome).
    Infeasible,
    /// A resource budget was exhausted and the caller demanded a complete
    /// run.
    Budget,
    /// An internal invariant failed (partitioner defect, worker panic).
    Internal,
}

/// Unified error for the whole decomposition pipeline: every fallible step
/// from parsing a matrix file through partitioning to decoding surfaces
/// here as one typed, categorized error.
#[derive(Debug, Clone, PartialEq)]
pub enum FghError {
    /// Matrix construction / Matrix Market parsing failed.
    Sparse(fgh_sparse::SparseError),
    /// Hypergraph construction or partition validation failed.
    Hypergraph(fgh_hypergraph::HypergraphError),
    /// The multilevel partitioner failed.
    Partition(fgh_partition::PartitionError),
    /// Model construction or decoding failed.
    Model(ModelError),
    /// A decompose-boundary validation rejected the request.
    InvalidInput(String),
    /// The request cannot be satisfied (strict caller rejected a degraded
    /// outcome).
    Infeasible(String),
    /// A [`Budget`] limit truncated the run and the caller was strict.
    BudgetExhausted(String),
    /// A [`CancelToken`] stopped the run and the caller was strict. Like
    /// [`FghError::BudgetExhausted`] this is a resource-style truncation
    /// of an otherwise-valid run, so it shares [`ErrorCategory::Budget`].
    Cancelled(String),
    /// The chosen model does not support the matrix's index width: the
    /// composite 2D models ([`Model::Checkerboard2D`],
    /// [`Model::Mondriaan2D`], [`Model::Jagged2D`]) run on the `u32` fast
    /// path only.
    ///
    /// [`Model::Checkerboard2D`]: api::Model::Checkerboard2D
    /// [`Model::Mondriaan2D`]: api::Model::Mondriaan2D
    /// [`Model::Jagged2D`]: api::Model::Jagged2D
    UnsupportedWidth {
        /// Canonical name of the rejected model.
        model: &'static str,
        /// The index width the matrix is carried at.
        width: fgh_sparse::IndexWidth,
    },
}

impl FghError {
    /// The coarse category of this error (drives CLI exit codes).
    pub fn category(&self) -> ErrorCategory {
        use fgh_hypergraph::HypergraphError as He;
        match self {
            FghError::Sparse(_) | FghError::InvalidInput(_) | FghError::UnsupportedWidth { .. } => {
                ErrorCategory::BadInput
            }
            FghError::Hypergraph(He::InvalidK) => ErrorCategory::BadInput,
            FghError::Partition(fgh_partition::PartitionError::Hypergraph(He::InvalidK)) => {
                ErrorCategory::BadInput
            }
            FghError::Model(ModelError::NotSquare { .. }) => ErrorCategory::BadInput,
            FghError::Infeasible(_) => ErrorCategory::Infeasible,
            FghError::BudgetExhausted(_) | FghError::Cancelled(_) => ErrorCategory::Budget,
            FghError::Hypergraph(_) | FghError::Partition(_) | FghError::Model(_) => {
                ErrorCategory::Internal
            }
        }
    }
}

impl std::fmt::Display for FghError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FghError::Sparse(e) => write!(f, "{e}"),
            FghError::Hypergraph(e) => write!(f, "{e}"),
            FghError::Partition(e) => write!(f, "{e}"),
            FghError::Model(e) => write!(f, "{e}"),
            FghError::InvalidInput(m) => write!(f, "invalid input: {m}"),
            FghError::Infeasible(m) => write!(f, "infeasible: {m}"),
            FghError::BudgetExhausted(m) => write!(f, "budget exhausted: {m}"),
            FghError::Cancelled(m) => write!(f, "cancelled: {m}"),
            FghError::UnsupportedWidth { model, width } => write!(
                f,
                "model {model} does not support {width}-bit indices (only the \
                 engine-backed models run on the big-index path)",
                width = width.bits()
            ),
        }
    }
}

impl std::error::Error for FghError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FghError::Sparse(e) => Some(e),
            FghError::Hypergraph(e) => Some(e),
            FghError::Partition(e) => Some(e),
            FghError::Model(e) => Some(e),
            _ => None,
        }
    }
}

impl From<fgh_sparse::SparseError> for FghError {
    fn from(e: fgh_sparse::SparseError) -> Self {
        FghError::Sparse(e)
    }
}

impl From<fgh_hypergraph::HypergraphError> for FghError {
    fn from(e: fgh_hypergraph::HypergraphError) -> Self {
        FghError::Hypergraph(e)
    }
}

impl From<fgh_partition::PartitionError> for FghError {
    fn from(e: fgh_partition::PartitionError) -> Self {
        FghError::Partition(e)
    }
}

impl From<ModelError> for FghError {
    fn from(e: ModelError) -> Self {
        FghError::Model(e)
    }
}
