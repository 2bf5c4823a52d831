//! Decomposition models: the fine-grain 2D hypergraph model (the paper's
//! contribution), the 1D baselines it is evaluated against, and the
//! fine-grain SpGEMM extension (one vertex per multiply task of
//! `C = A · B`).

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
