//! # fine-grain-hypergraph
//!
//! A complete Rust implementation of **"A Fine-Grain Hypergraph Model for
//! 2D Decomposition of Sparse Matrices"** (Çatalyürek & Aykanat,
//! IPPS/IPDPS 2001), including every substrate the paper relies on:
//!
//! * [`sparse`] — sparse matrices (COO/CSR/CSC), Matrix Market I/O,
//!   synthetic generators and the Table-1 matrix catalog,
//! * [`hypergraph`] — hypergraphs, partitions, cutsize metrics,
//! * [`partition`] — a PaToH-style multilevel hypergraph partitioner,
//! * [`graph`] — a MeTiS-style multilevel graph partitioner (baseline),
//! * [`core`] — the decomposition models (fine-grain 2D, 1D column/row-net,
//!   standard graph), partition decoding, exact communication statistics,
//! * [`spmv`] — distributed SpMV (word-counting simulator + threaded
//!   executor) and iterative solvers.
//!
//! ## Quickstart
//!
//! ```
//! use fine_grain_hypergraph::prelude::*;
//!
//! // A small SPD test matrix (5-point stencil on an 8x8 grid).
//! let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
//! let a = fgh_sparse::gen::grid5(8, 8, 1.0, ValueMode::Laplacian, &mut rng);
//!
//! // 2D fine-grain decomposition of the SpMV workload for 4 processors.
//! let out = decompose_workload(Workload::Spmv(&a), &DecomposeConfig::new(Model::FineGrain2D, 4))
//!     .and_then(WorkloadOutcome::into_spmv)
//!     .unwrap();
//! assert_eq!(out.objective, out.stats.total_volume()); // exact volume model
//!
//! // Run the distributed SpMV and check it against the serial kernel.
//! let plan = DistributedSpmv::build(&a, &out.decomposition).unwrap();
//! let x = vec![1.0; a.ncols() as usize];
//! let (y, comm) = plan.multiply(&x).unwrap();
//! assert_eq!(comm.total_words(), out.stats.total_volume());
//! assert_eq!(y, a.spmv(&x).unwrap());
//! ```

pub use fgh_core as core;
pub use fgh_graph as graph;
pub use fgh_hypergraph as hypergraph;
pub use fgh_partition as partition;
pub use fgh_sparse as sparse;
pub use fgh_spmv as spmv;

/// Commonly used items, re-exported for one-line imports.
pub mod prelude {
    pub use fgh_core::{
        decompose_workload, decompose_workload_any, Budget, CommStats, DecomposeConfig,
        Decomposition, DecompositionOutcome, DecompositionStatus, EngineStats, ErrorCategory,
        FghError, Model, SpgemmOutcome, Workload, WorkloadAny, WorkloadKind, WorkloadOutcome,
    };
    pub use fgh_hypergraph::{
        cutsize_connectivity, cutsize_cutnet, Hypergraph, HypergraphBuilder, Partition,
    };
    pub use fgh_partition::{partition_hypergraph, partition_hypergraph_best, PartitionConfig};
    pub use fgh_sparse::gen::ValueMode;
    pub use fgh_sparse::{CooMatrix, CscMatrix, CsrMatrix, MatrixStats};
    pub use fgh_spmv::{DistributedSpmv, MeasuredComm};
    pub use rand::rngs::SmallRng;
    pub use rand::SeedableRng;
}
