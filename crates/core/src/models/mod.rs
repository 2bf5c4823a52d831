//! Decomposition models: the fine-grain 2D hypergraph model (the paper's
//! contribution), the 1D baselines it is evaluated against, and the
//! SpGEMM extension (one vertex per used nonzero of `A`, holding the
//! multiply tasks of `C = A · B` that read it).

pub mod checkerboard;
pub mod fine_grain;
pub mod graph_model;
pub mod jagged;
pub mod mondriaan;
pub mod oned;
pub mod spgemm;

pub use checkerboard::CheckerboardModel;
pub use fine_grain::FineGrainModel;
pub use graph_model::StandardGraphModel;
pub use jagged::JaggedModel;
pub use mondriaan::MondriaanModel;
pub use oned::{ColumnNetModel, RowNetModel};
pub use spgemm::{
    spgemm_flops, SpgemmCommStats, SpgemmDecomposition, SpgemmModel, SpgemmStructure,
};
