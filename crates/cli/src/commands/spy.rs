//! `fgh spy` — ASCII spy plot of a matrix, optionally overlaid with a
//! decomposition's ownership map.

use fgh_core::{decompose_workload, Workload, WorkloadOutcome};

use crate::commands::{finish_outcome, load_matrix};
use crate::error::CmdResult;
use crate::opts::{Opts, DECOMPOSE_FLAGS};

pub fn run(args: &[String]) -> CmdResult {
    let o = Opts::parse(args, &[DECOMPOSE_FLAGS, &["width", "k", "strict"]].concat())?;
    if o.get("k").is_none() {
        // The plain pattern plot decomposes nothing.
        o.only("`fgh spy` without --k", &["width"])?;
    }
    let path = o.one_positional("matrix.mtx")?;
    let a = load_matrix(path)?;
    let width: u32 = o.parse_or("width", 60)?;

    println!(
        "{path}: {} x {}, {} nonzeros",
        a.nrows(),
        a.ncols(),
        a.nnz()
    );
    println!();
    if let Some(kstr) = o.get("k") {
        let k: u32 = kstr.parse().map_err(|e| format!("--k: {e}"))?;
        let cfg = o.decompose_config(k)?;
        let out = finish_outcome(
            decompose_workload(Workload::Spmv(&a), &cfg).and_then(WorkloadOutcome::into_spmv),
            o.has("strict"),
        )?;
        println!(
            "ownership map ({}, K = {k}; cells show the dominant owner, base 36):",
            cfg.model.name()
        );
        println!();
        print!(
            "{}",
            fgh_sparse::spy::spy_owners(&a, &out.decomposition.nonzero_owner, width)
        );
        println!();
        println!(
            "volume {} words, imbalance {:.2}%",
            out.stats.total_volume(),
            out.stats.load_imbalance_percent()
        );
    } else {
        print!("{}", fgh_sparse::spy::spy_pattern(&a, width));
    }
    Ok(())
}
