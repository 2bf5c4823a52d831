//! # fgh-hypergraph — hypergraph data structures and partition metrics
//!
//! A hypergraph `H = (V, N)` is a vertex set plus a set of *nets*
//! (hyperedges), each net being an arbitrary subset of vertices (its
//! *pins*). This crate provides:
//!
//! * [`Hypergraph`] — compact dual-CSR storage (pins of each net *and* nets
//!   of each vertex), with integer vertex weights and net costs,
//! * [`HypergraphBuilder`] — incremental construction,
//! * [`Partition`] — a K-way vertex partition with balance queries,
//! * cutsize metrics: the **cut-net** metric (eq. 2 of the paper) and the
//!   **connectivity − 1** metric (eq. 3), plus per-net connectivity sets,
//! * [`Hypergraph::extract_part`] — sub-hypergraph extraction with *net
//!   splitting*, the operation recursive bisection relies on so that
//!   minimizing cut nets per bisection composes to minimizing `Σ (λ−1)`
//!   over the final K-way partition.
//!
//! The terminology follows Section 2 of the paper: a net with pins in more
//! than one part is *cut* (external); `λ_j` is the number of parts net `j`
//! connects.

// Robustness contract: this crate sits on user-reachable paths, so the
// library (non-test) code must not panic. Sites that are provably
// infallible carry a narrowly scoped `allow` with a justification.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod builder;
pub mod hypergraph;
pub mod io;
pub mod metrics;
pub mod partition;

pub use builder::HypergraphBuilder;
pub use hypergraph::Hypergraph;
pub use metrics::{connectivities, connectivity_sets, cutsize_connectivity, cutsize_cutnet};
pub use partition::Partition;

/// Errors from hypergraph construction and partition validation.
///
/// Vertex/net/pin ids are reported as `u64` so the same error type serves
/// every [`fgh_sparse::IndexType`] width the hypergraph is instantiated at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HypergraphError {
    /// A pin refers to a vertex id >= the vertex count.
    PinOutOfBounds {
        net: u64,
        pin: u64,
        num_vertices: u64,
    },
    /// A net contains the same pin twice.
    DuplicatePin { net: u64, pin: u64 },
    /// A flat pin CSR's offsets must run from 0 to the pin count without
    /// decreasing; entry `at` of `pin_ptr` (or the missing entry 0)
    /// breaks that.
    MalformedPinPtr { at: usize, pins: usize },
    /// Vertex weight vector length does not match the vertex count.
    WeightLengthMismatch { expected: usize, got: usize },
    /// Net cost vector length does not match the net count.
    CostLengthMismatch { expected: usize, got: usize },
    /// Partition vector length does not match the vertex count.
    PartitionLengthMismatch { expected: usize, got: usize },
    /// A vertex is assigned to a part id >= K.
    PartOutOfBounds { vertex: u64, part: u32, k: u32 },
    /// K must be at least 1.
    InvalidK,
    /// A part of the partition received no vertices.
    EmptyPart { part: u32 },
    /// An I/O or parse failure (`.hgr` reading/writing).
    Io(String),
}

impl std::fmt::Display for HypergraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HypergraphError::PinOutOfBounds {
                net,
                pin,
                num_vertices,
            } => write!(
                f,
                "net {net} has pin {pin} out of bounds (|V| = {num_vertices})"
            ),
            HypergraphError::DuplicatePin { net, pin } => {
                write!(f, "net {net} contains pin {pin} more than once")
            }
            HypergraphError::MalformedPinPtr { at, pins } => write!(
                f,
                "pin offset {at} breaks the CSR: offsets must run from 0 to {pins} \
                 without decreasing"
            ),
            HypergraphError::WeightLengthMismatch { expected, got } => {
                write!(
                    f,
                    "vertex weight vector has {got} entries, hypergraph has {expected} vertices"
                )
            }
            HypergraphError::CostLengthMismatch { expected, got } => {
                write!(
                    f,
                    "net cost vector has {got} entries, hypergraph has {expected} nets"
                )
            }
            HypergraphError::PartitionLengthMismatch { expected, got } => {
                write!(
                    f,
                    "partition has {got} entries, hypergraph has {expected} vertices"
                )
            }
            HypergraphError::PartOutOfBounds { vertex, part, k } => {
                write!(f, "vertex {vertex} assigned to part {part} >= K = {k}")
            }
            HypergraphError::InvalidK => write!(f, "K must be >= 1"),
            HypergraphError::EmptyPart { part } => write!(f, "part {part} is empty"),
            HypergraphError::Io(msg) => write!(f, "hypergraph i/o: {msg}"),
        }
    }
}

impl std::error::Error for HypergraphError {}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, HypergraphError>;
