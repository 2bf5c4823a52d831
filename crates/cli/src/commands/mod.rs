//! `fgh` subcommands.

pub mod compare;
pub mod convert;
pub mod gen;
pub mod partition;
pub mod serve;
pub mod spgemm;
pub mod spmv;
pub mod spy;
pub mod stats;

use fgh_core::{FghError, Outcome};
use fgh_sparse::{AnyCsrMatrix, CsrMatrix};

use crate::error::CmdError;

/// Loads a MatrixMarket file into CSR. Compression honors the COO
/// matrix's attached duplicate policy via [`CsrMatrix::try_from_coo`], so
/// a policy violation surfaces as a typed error rather than a panic.
pub fn load_matrix(path: &str) -> Result<CsrMatrix, String> {
    let coo = fgh_sparse::io::read_matrix_market(path).map_err(|e| format!("{path}: {e}"))?;
    CsrMatrix::try_from_coo(coo).map_err(|e| format!("{path}: {e}"))
}

/// Loads a MatrixMarket file into a CSR carrier at the index width its
/// header demands: catalog-scale inputs stay on the `u32` fast path,
/// inputs whose fine-grain hypergraph would overflow 32-bit ids come back
/// `u64`. Decomposition commands route this through
/// [`fgh_core::decompose_workload_any`] so the CLI never names an index
/// width.
pub fn load_matrix_any(path: &str) -> Result<AnyCsrMatrix, String> {
    fgh_sparse::io::read_matrix_market_any(path).map_err(|e| format!("{path}: {e}"))
}

/// Applies the degraded-outcome policy shared by the subcommands, for
/// either workload: errors propagate with their exit code, `--strict`
/// converts a degraded outcome into an error (exit 3, or 4 when a budget
/// tripped), and otherwise the degradation reason is reported on stderr
/// while the run continues.
pub fn finish_outcome<D, S>(
    r: Result<Outcome<D, S>, FghError>,
    strict: bool,
) -> Result<Outcome<D, S>, CmdError> {
    let out = r.map_err(CmdError::from)?;
    let out = if strict {
        out.into_strict().map_err(CmdError::from)?
    } else {
        out
    };
    if let Some(reason) = out.status.reason() {
        eprintln!("warning: degraded decomposition: {reason}");
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    fn workdir(name: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join("fgh_cli_integration").join(name);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    /// gen → stats → partition → spmv → convert → spy, end to end through
    /// the subcommand entry points.
    #[test]
    fn full_cli_workflow() {
        let dir = workdir("workflow");
        let dirs = dir.to_str().unwrap();

        super::gen::run(&args(&format!("sherman3 --scale 32 --out {dirs}"))).unwrap();
        let mtx = format!("{dirs}/sherman3_s32.mtx");
        assert!(std::path::Path::new(&mtx).exists());

        super::stats::run(&args(&mtx)).unwrap();

        let map = format!("{dirs}/map.txt");
        super::partition::run(&args(&format!("{mtx} --k 4 --out {map}"))).unwrap();
        let d = super::partition::read_mapping(&map).unwrap();
        assert_eq!(d.k, 4);
        let a = load_matrix(&mtx).unwrap();
        d.validate(&a).unwrap();

        super::spmv::run(&args(&format!("{mtx} --k 4 --parallel --threads 2"))).unwrap();

        let hgr = format!("{dirs}/m.hgr");
        super::convert::run(&args(&format!("{mtx} --out {hgr}"))).unwrap();
        let hg = fgh_hypergraph::io::read_hgr(&hgr).unwrap();
        assert_eq!(hg.num_nets(), 2 * a.nrows());

        super::spy::run(&args(&format!("{mtx} --width 20"))).unwrap();
        super::spy::run(&args(&format!("{mtx} --width 20 --k 2"))).unwrap();
    }

    #[test]
    fn compare_runs_all_models() {
        let dir = workdir("compare");
        let dirs = dir.to_str().unwrap();
        super::gen::run(&args(&format!("bcspwr10 --scale 32 --out {dirs}"))).unwrap();
        super::compare::run(&args(&format!("{dirs}/bcspwr10_s32.mtx --k 4"))).unwrap();
    }

    #[test]
    fn errors_are_reported_not_panicked() {
        assert!(super::stats::run(&args("/nonexistent/x.mtx")).is_err());
        assert!(super::gen::run(&args("not-a-matrix")).is_err());
        assert!(super::partition::run(&args("also-missing.mtx --k 4")).is_err());
        let dir = workdir("errors");
        let bad = dir.join("bad.mtx");
        std::fs::write(&bad, "this is not matrix market\n").unwrap();
        assert!(super::stats::run(&args(bad.to_str().unwrap())).is_err());
    }
}
