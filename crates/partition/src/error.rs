//! Typed errors for the partitioning layer.

pub use fgh_hypergraph::HypergraphError;

/// Error type for K-way partitioning runs.
///
/// Most failures are structural (invalid `k`, malformed partitions) and
/// surface as wrapped [`HypergraphError`]s; [`Worker`] converts a panic
/// caught from a multi-seed worker thread into a value the caller can
/// handle instead of an abort.
///
/// [`Worker`]: PartitionError::Worker
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PartitionError {
    /// A structural error from the hypergraph layer (invalid `k`,
    /// malformed partitions).
    Hypergraph(HypergraphError),
    /// A worker thread of a multi-seed run panicked; the payload is the
    /// panic message when one was recoverable.
    Worker(String),
    /// An internal bookkeeping invariant broke mid-run (a partitioner
    /// defect, not bad input). Replaces what used to be
    /// `debug_assert!(false, ...)` sites: release builds now surface the
    /// defect as an error instead of silently continuing on corrupt state.
    Internal(String),
}

impl PartitionError {
    /// Builds an [`Internal`](PartitionError::Internal) error.
    pub fn internal(detail: impl Into<String>) -> Self {
        PartitionError::Internal(detail.into())
    }
}

impl std::fmt::Display for PartitionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PartitionError::Hypergraph(e) => write!(f, "{e}"),
            PartitionError::Worker(msg) => write!(f, "partition worker failed: {msg}"),
            PartitionError::Internal(msg) => {
                write!(f, "internal partitioner invariant broken: {msg}")
            }
        }
    }
}

impl std::error::Error for PartitionError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PartitionError::Hypergraph(e) => Some(e),
            PartitionError::Worker(_) | PartitionError::Internal(_) => None,
        }
    }
}

impl From<HypergraphError> for PartitionError {
    fn from(e: HypergraphError) -> Self {
        PartitionError::Hypergraph(e)
    }
}

/// Renders the payload of a caught thread panic for the multi-seed
/// fan-out's per-seed error slot.
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "unknown panic payload".to_string()
    }
}
