//! `fgh stats` — Table-1 style matrix properties.

use fgh_sparse::MatrixStats;

use crate::commands::load_matrix;
use crate::error::CmdResult;
use crate::opts::Opts;

pub fn run(args: &[String]) -> CmdResult {
    let o = Opts::parse(args, &[])?;
    let path = o.one_positional("matrix.mtx")?;
    let a = load_matrix(path)?;
    let s = MatrixStats::compute(&a);
    println!("matrix:      {path}");
    println!("rows x cols: {} x {}", s.nrows, s.ncols);
    println!("nonzeros:    {}", s.nnz);
    println!(
        "per row:     min {} / max {} / avg {:.2}",
        s.row_min, s.row_max, s.row_avg
    );
    println!(
        "per col:     min {} / max {} / avg {:.2}",
        s.col_min, s.col_max, s.col_avg
    );
    println!("square:      {}", a.is_square());
    if a.is_square() {
        println!("full diag:   {}", a.has_full_diagonal());
        println!("sym pattern: {}", a.pattern_symmetric());
    }
    Ok(())
}
