//! `fgh compare` — all models on one matrix, Table-2 style row.

use fgh_core::{
    decompose_workload, DecomposeConfig, Model, Workload, WorkloadKind, WorkloadOutcome,
};

use crate::commands::{finish_outcome, load_matrix};
use crate::error::{CmdError, CmdResult};
use crate::opts::Opts;

pub fn run(args: &[String]) -> CmdResult {
    let o = Opts::parse(
        args,
        &["k", "seed", "max-wall-ms", "max-bytes", "threads", "strict"],
    )?;
    let path = o.one_positional("matrix.mtx")?;
    let a = load_matrix(path)?;
    let k: u32 = o.parse_required("k")?;
    let seed: u64 = o.parse_or("seed", 1)?;

    println!(
        "{path}: {} rows, {} nonzeros, K = {k}\n",
        a.nrows(),
        a.nnz()
    );
    println!(
        "{:<22} {:>10} {:>10} {:>10} {:>8} {:>9} {:>9}",
        "model", "volume", "vol/M", "max/proc", "msgs/p", "imbal%", "time"
    );
    println!("{}", "-".repeat(84));
    // The comparison is an SpMV shoot-out: SpGEMM-workload models need a
    // second operand and live under `fgh spgemm`.
    for model in Model::ALL
        .into_iter()
        .filter(|m| m.workload() == WorkloadKind::Spmv)
    {
        let cfg = DecomposeConfig::new(model, k)
            .with_seed(seed)
            .with_budget(o.budget()?)
            .with_parallelism(o.parallelism()?);
        let out = finish_outcome(
            decompose_workload(Workload::Spmv(&a), &cfg).and_then(WorkloadOutcome::into_spmv),
            o.has("strict"),
        )
        .map_err(|e| CmdError::new(e.code, format!("{}: {}", model.name(), e.msg)))?;
        println!(
            "{:<22} {:>10} {:>10.4} {:>10} {:>8.2} {:>9.2} {:>8.3}s",
            model.name(),
            out.stats.total_volume(),
            out.stats.scaled_total_volume(),
            out.stats.max_sent_words(),
            out.stats.avg_messages_per_proc(),
            out.stats.load_imbalance_percent(),
            out.elapsed.as_secs_f64(),
        );
    }
    Ok(())
}
