//! # fgh-spmv — distributed sparse matrix-vector multiplication
//!
//! Executes parallel `y = Ax` under any [`fgh_core::Decomposition`],
//! following the paper's two-phase schedule:
//!
//! 1. **expand** (pre-communication): owners of `x_j` send it to every
//!    processor holding a nonzero of column `j`,
//! 2. **local multiply**: each processor computes `y_i^j = a_ij x_j` for
//!    its nonzeros and accumulates local partials,
//! 3. **fold** (post-communication): partial `y_i` values are sent to the
//!    owner of `y_i` and summed.
//!
//! [`plan::DistributedSpmv::build`] compiles the plan once into local
//! index space: each processor numbers only the x entries its nonzeros
//! touch (plus owned ones it sends) and the y entries they touch (plus
//! owned ones it receives partials for), its nonzeros name those slots,
//! and every communicated word is a (sender slot, receiver slot) pair.
//! Every slot is owned (at most one per vector entry) or is the end of
//! exactly one communicated word, so a multiply needs at most
//! `3n + volume` words of scratch including `y`, where a full-length x
//! and y image per processor needed `2·K·n`. Two executors run off that
//! one layout:
//!
//! * [`plan::DistributedSpmv::multiply`] — deterministic single-threaded
//!   simulator that also **counts every word and message actually
//!   transferred** ([`plan::MeasuredComm`]), closing the loop on the
//!   paper's claim that the fine-grain cutsize equals true communication
//!   volume; [`plan::DistributedSpmv::multiply_transpose`] runs `Aᵀx` on
//!   the same layout with the phases reversed,
//! * [`parallel::parallel_spmv`] — a real multi-threaded executor (one
//!   thread per processor, `std::sync::mpsc` channels as the interconnect,
//!   each thread allocating only its own slots).
//!
//! [`plan::DistributedSpmv::validate`] checks the compiled layout in
//! release builds: slots in bounds, every received slot written by
//! exactly one word, every partial folded exactly once.
//!
//! [`solver`] builds iterative methods (CG, power iteration) on top, with
//! conformal vector ownership so vector operations need no communication —
//! the reason the paper insists on symmetric x/y partitioning.

// Robustness contract: library (non-test) code must not panic; provably
// infallible sites carry a narrowly scoped `allow` with a justification.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod cost;
pub mod parallel;
pub mod plan;
pub mod schedule;
pub mod solver;

pub use cost::{estimate, CostEstimate, MachineModel};
pub use plan::{DistributedSpmv, MeasuredComm};
pub use schedule::{schedule_phase, PhaseSchedule, SpmvSchedule};

/// Errors from plan construction and execution.
#[derive(Debug, Clone, PartialEq)]
pub enum SpmvError {
    /// The decomposition failed validation against the matrix.
    BadDecomposition(String),
    /// Input vector length mismatch.
    DimensionMismatch { expected: usize, got: usize },
    /// An iterative solver failed to converge.
    NoConvergence { iterations: usize, residual: f64 },
    /// A parallel-executor worker thread failed (panicked or lost its
    /// channel peer mid-multiply).
    Worker(String),
}

impl std::fmt::Display for SpmvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpmvError::BadDecomposition(m) => write!(f, "bad decomposition: {m}"),
            SpmvError::DimensionMismatch { expected, got } => {
                write!(f, "vector has length {got}, expected {expected}")
            }
            SpmvError::NoConvergence {
                iterations,
                residual,
            } => {
                write!(
                    f,
                    "no convergence after {iterations} iterations (residual {residual:e})"
                )
            }
            SpmvError::Worker(m) => write!(f, "spmv worker failed: {m}"),
        }
    }
}

impl std::error::Error for SpmvError {}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, SpmvError>;
