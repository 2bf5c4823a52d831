//! # fgh-sparse — sparse matrix substrate
//!
//! Sparse matrix data structures and utilities underpinning the fine-grain
//! hypergraph decomposition library:
//!
//! * [`CooMatrix`] — coordinate (triplet) format, the mutable construction
//!   format,
//! * [`CsrMatrix`] — compressed sparse row, the primary analysis/compute
//!   format,
//! * [`CscMatrix`] — compressed sparse column,
//! * [`io`] — Matrix Market (`.mtx`) reading, through one streaming line
//!   driver over any buffered reader, and writing,
//! * [`gen`] — synthetic sparse matrix generators (stencils, power grids,
//!   LP constraint blocks, scale-free patterns, ...),
//! * [`catalog`] — synthetic analogues of the 14 test matrices from Table 1
//!   of the paper (sherman3 ... finan512),
//! * [`stats`] — the per-row/per-column nonzero statistics reported in
//!   Table 1.
//!
//! Indices are generic over [`IndexType`] — `u32` by default (the paper's
//! largest instance has 74 752 rows and 615 774 nonzeros; `u32` keeps the
//! hypergraphs compact) with a `u64` big path for instances whose
//! fine-grain hypergraphs exceed what 32 bits address. Pointer arrays are
//! `usize`, values are `f64`. [`IndexWidth::select`] picks the narrowest
//! width from a parsed header, and [`AnyCsrMatrix`] carries a
//! width-erased matrix across API boundaries.

// Robustness contract: this crate parses untrusted input, so the library
// (non-test) code must not panic. Sites that are provably infallible carry
// a narrowly scoped `allow` with a justification.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![forbid(unsafe_code)]

pub mod any;
pub mod catalog;
pub mod coo;
pub mod csc;
pub mod csr;
pub mod gen;
pub mod index;
pub mod io;
pub mod pattern;
pub mod reorder;
pub mod spy;
pub mod stats;

pub use any::AnyCsrMatrix;
pub use coo::{CooMatrix, DedupPolicy};
pub use csc::CscMatrix;
pub use csr::CsrMatrix;
pub use index::{IndexType, IndexWidth};
pub use stats::MatrixStats;

/// Error type for matrix construction and I/O.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SparseError {
    /// An entry's row or column index is out of the declared bounds.
    /// Coordinates are reported as `u64` so the same error serves both
    /// index widths.
    IndexOutOfBounds {
        row: u64,
        col: u64,
        nrows: u64,
        ncols: u64,
    },
    /// A malformed Matrix Market file, with a human-readable reason.
    Parse(String),
    /// A malformed Matrix Market file, with the 1-based line number where
    /// the problem was detected.
    ParseAt { line: u64, msg: String },
    /// A duplicate `(row, col)` entry rejected by
    /// [`coo::DedupPolicy::Error`].
    DuplicateEntry { row: u64, col: u64 },
    /// An I/O failure while reading/writing a file.
    Io(String),
    /// A declared dimension or count exceeds what the `u32`/`usize` index
    /// types can represent. Carries what overflowed, the declared value,
    /// and the representable maximum — so a 5-billion-row header is a
    /// typed error instead of a silent `as` truncation.
    TooLarge {
        what: &'static str,
        value: u64,
        max: u64,
    },
    /// Operation requires a square matrix.
    NotSquare { nrows: u64, ncols: u64 },
    /// Dimension mismatch between operands (e.g. SpMV with wrong x length).
    DimensionMismatch(String),
}

impl std::fmt::Display for SparseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SparseError::IndexOutOfBounds {
                row,
                col,
                nrows,
                ncols,
            } => write!(
                f,
                "entry ({row}, {col}) out of bounds for a {nrows} x {ncols} matrix"
            ),
            SparseError::Parse(msg) => write!(f, "matrix market parse error: {msg}"),
            SparseError::ParseAt { line, msg } => {
                write!(f, "matrix market parse error at line {line}: {msg}")
            }
            SparseError::DuplicateEntry { row, col } => {
                write!(f, "duplicate entry at ({row}, {col})")
            }
            SparseError::Io(msg) => write!(f, "i/o error: {msg}"),
            SparseError::TooLarge { what, value, max } => {
                write!(f, "{what} {value} exceeds the supported maximum {max}")
            }
            SparseError::NotSquare { nrows, ncols } => {
                write!(
                    f,
                    "operation requires a square matrix, got {nrows} x {ncols}"
                )
            }
            SparseError::DimensionMismatch(msg) => write!(f, "dimension mismatch: {msg}"),
        }
    }
}

impl std::error::Error for SparseError {}

impl From<std::io::Error> for SparseError {
    fn from(e: std::io::Error) -> Self {
        SparseError::Io(e.to_string())
    }
}

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, SparseError>;
