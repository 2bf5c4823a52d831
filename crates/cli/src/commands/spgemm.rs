//! `fgh spgemm` — partition the SpGEMM hypergraph of `C = A · B` (one
//! vertex per used `A` nonzero, weighted by the multiply tasks that read
//! it), replay the partition through the storage-traffic simulator, and
//! cross-check that the measured remote traffic equals the partitioner's
//! objective.

use fgh_core::{
    decompose_workload_any, DecomposeConfig, DecomposeIndex, SpgemmOutcome, WorkloadAny,
    WorkloadOutcome,
};
use fgh_sparse::{AnyCsrMatrix, IndexWidth};
use fgh_traffic::TrafficReport;

use crate::commands::{finish_outcome, load_matrix_any};
use crate::error::{CmdError, CmdResult};
use crate::opts::{Opts, DECOMPOSE_FLAGS};

pub fn run(args: &[String]) -> CmdResult {
    let o = Opts::parse(
        args,
        &[DECOMPOSE_FLAGS, &["k", "strict", "metrics-json"]].concat(),
    )?;
    let (path_a, path_b) = o.one_or_two_positional("A.mtx [B.mtx]")?;
    let a = load_matrix_any(path_a)?;
    let b = match path_b {
        Some(p) => load_matrix_any(p)?,
        None => a.clone(), // one operand: the A·A product
    };
    let cfg = o.decompose_config_for("spgemm-fine-grain", o.parse_required("k")?)?;
    let out = finish_outcome(
        decompose_workload_any(WorkloadAny::Spgemm(&a, &b), &cfg)
            .and_then(WorkloadOutcome::into_spgemm),
        o.has("strict"),
    )?;

    if let Some(trace) = &out.trace {
        eprint!("{}", trace.render());
    }

    let json_path = o.get("metrics-json");
    let (report, doc) = match out.width {
        IndexWidth::U32 => replay::<u32>(&a, &b, &cfg, &out, json_path.is_some())?,
        IndexWidth::U64 => replay::<u64>(&a, &b, &cfg, &out, json_path.is_some())?,
    };

    println!(
        "A:                 {path_a} ({} x {}, {} nnz)",
        a.nrows(),
        a.ncols(),
        a.nnz()
    );
    println!(
        "B:                 {} ({} x {}, {} nnz)",
        path_b.unwrap_or("= A"),
        b.nrows(),
        b.ncols(),
        b.nnz()
    );
    println!("model:             {}", cfg.model.name());
    println!("index width:       {} bits", out.width.bits());
    println!("processors:        {}", cfg.k);
    println!("multiply tasks:    {} (flops)", out.flops());
    println!("objective:         {}", out.objective);
    println!("comm volume:       {} words", out.stats.total_volume());
    println!("  expand A:        {} words", out.stats.a_expand_volume);
    println!("  expand B:        {} words", out.stats.b_expand_volume);
    println!("  fold C:          {} words", out.stats.fold_volume);
    println!(
        "msgs/proc max:     {} ({} messages total)",
        out.stats.max_messages_per_proc(),
        out.stats.total_messages()
    );
    println!(
        "load imbalance:    {:.2}%",
        out.stats.load_imbalance_percent()
    );
    println!("simulated traffic (storage replay):");
    println!(
        "  A reads:         {} dram, {} remote",
        report.a.dram_reads, report.a.remote_reads
    );
    println!(
        "  B reads:         {} dram, {} remote",
        report.b.dram_reads, report.b.remote_reads
    );
    println!(
        "  C writes:        {} dram, {} remote",
        report.c.dram_writes, report.c.remote_writes
    );
    println!(
        "  total remote:    {} words (== predicted volume)",
        report.total_remote()
    );
    println!("partition time:    {:.3}s", out.elapsed.as_secs_f64());
    match out.status.reason() {
        Some(r) => println!("status:            degraded ({}): {r}", r.code()),
        None => println!("status:            full"),
    }

    if let (Some(json_path), Some(doc)) = (json_path, doc) {
        std::fs::write(json_path, doc + "\n").map_err(|e| format!("{json_path}: {e}"))?;
        println!("metrics written:   {json_path}");
    }
    Ok(())
}

/// Runs the storage-traffic simulator at the outcome's index width,
/// holds it to the exactness gate, and — when `metrics` is set — builds
/// the metrics document from the same converted operands.
fn replay<I: DecomposeIndex>(
    a: &AnyCsrMatrix,
    b: &AnyCsrMatrix,
    cfg: &DecomposeConfig,
    out: &SpgemmOutcome,
    metrics: bool,
) -> Result<(TrafficReport, Option<String>), CmdError> {
    let convert =
        |m| I::at_width(m).map_err(|e| CmdError::new(1, format!("width conversion: {e}")));
    let (a, b) = (convert(a)?, convert(b)?);
    let report = fgh_traffic::simulate(&*a, &*b, &out.decomposition)
        .map_err(|e| CmdError::new(1, format!("traffic replay: {e}")))?;
    exactness_gate(&report, out)?;
    let doc = metrics
        .then(|| fgh_core::spgemm_metrics_json(&*a, &*b, cfg, out, Some(&report.to_value())));
    Ok((report, doc))
}

/// The exactness invariant: the replayed remote words must equal the
/// connectivity−1 cutsize the partitioner minimized. The replayed
/// statistics are no witness here — they count the same decomposition the
/// replay does, so a decode that breaks the invariant moves both alike.
fn exactness_gate(report: &TrafficReport, out: &SpgemmOutcome) -> Result<(), CmdError> {
    if report.total_remote() == out.objective {
        return Ok(());
    }
    Err(CmdError::new(
        1,
        format!(
            "traffic simulator measured {} remote words but the partitioner's objective is {} — \
             the exactness invariant is broken",
            report.total_remote(),
            out.objective
        ),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgh_core::models::{SpgemmCommStats, SpgemmStructure};
    use fgh_core::{decompose_workload, Model, Workload};
    use fgh_sparse::gen::{self, ValueMode};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    fn workdir(name: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join("fgh_cli_spgemm").join(name);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn spgemm_partitions_two_operands_and_writes_metrics() {
        let dir = workdir("two");
        let dirs = dir.to_str().unwrap();
        crate::commands::gen::run(&args(&format!("bcspwr10 --scale 64 --out {dirs}"))).unwrap();
        let mtx = format!("{dirs}/bcspwr10_s64.mtx");
        let json = format!("{dirs}/metrics.json");
        run(&args(&format!("{mtx} {mtx} --k 4 --metrics-json {json}"))).unwrap();
        let doc = std::fs::read_to_string(&json).unwrap();
        let v = fgh_trace::json::parse(&doc).unwrap();
        fgh_core::validate_metrics_value(&v).unwrap();
        assert_eq!(v.get("workload").unwrap().as_str(), Some("spgemm"));
        let traffic = v.get("traffic").unwrap();
        assert_eq!(
            traffic.get("total_remote").unwrap().as_u64(),
            v.get("objective").unwrap().as_u64(),
            "simulated traffic must equal the partitioner's objective"
        );
    }

    #[test]
    fn spgemm_single_operand_squares_the_matrix() {
        let dir = workdir("square");
        let dirs = dir.to_str().unwrap();
        crate::commands::gen::run(&args(&format!("bcspwr10 --scale 64 --out {dirs}"))).unwrap();
        run(&args(&format!("{dirs}/bcspwr10_s64.mtx --k 2"))).unwrap();
    }

    #[test]
    fn spgemm_rejects_bad_inputs() {
        assert!(run(&args("missing.mtx --k 4")).is_err());
        let dir = workdir("errors");
        let dirs = dir.to_str().unwrap();
        crate::commands::gen::run(&args(&format!("bcspwr10 --scale 64 --out {dirs}"))).unwrap();
        let mtx = format!("{dirs}/bcspwr10_s64.mtx");
        // Missing --k and an SpMV-only model are both typed errors.
        assert!(run(&args(&mtx)).is_err());
        assert!(run(&args(&format!("{mtx} --k 4 --model graph-1d"))).is_err());
    }

    #[test]
    fn spgemm_mismatched_operands_exit_2() {
        let dir = workdir("mismatch");
        let (a, b) = (dir.join("a.mtx"), dir.join("b.mtx"));
        let header = "%%MatrixMarket matrix coordinate real general\n";
        std::fs::write(&a, format!("{header}2 4 2\n1 1 1.0\n2 4 1.0\n")).unwrap();
        std::fs::write(&b, format!("{header}3 2 2\n1 1 1.0\n3 2 1.0\n")).unwrap();
        let (a, b) = (a.to_str().unwrap(), b.to_str().unwrap());
        let err = run(&args(&format!("{a} {b} --k 2"))).unwrap_err();
        assert_eq!(err.code, 2, "{}", err.msg);
    }

    #[test]
    fn exactness_gate_rejects_a_broken_decode() {
        let a = gen::grid5(
            10,
            10,
            1.0,
            ValueMode::Ones,
            &mut SmallRng::seed_from_u64(1),
        );
        let cfg = DecomposeConfig::new(Model::SpgemmFineGrain, 4);
        let mut out = decompose_workload(Workload::Spgemm(&a, &a), &cfg)
            .unwrap()
            .into_spgemm()
            .unwrap();
        let report = fgh_traffic::simulate(&a, &a, &out.decomposition).unwrap();
        exactness_gate(&report, &out).unwrap();

        // A decode that puts one C owner outside its net's connectivity
        // set costs one word more than the cutsize; statistics replayed
        // from that decomposition count the same extra word.
        let s = SpgemmStructure::build(&a, &a).unwrap();
        let d = &mut out.decomposition;
        let (e, outsider) = (0..d.c_owner.len())
            .find_map(|e| {
                let producers: Vec<u32> = (0..s.num_tasks())
                    .filter(|&t| s.task_c[t] == e)
                    .map(|t| d.task_owner[t])
                    .collect();
                (0..d.k).find(|p| !producers.contains(p)).map(|p| (e, p))
            })
            .unwrap();
        d.c_owner[e] = outsider;
        out.stats = SpgemmCommStats::compute(&a, &a, &out.decomposition).unwrap();
        let report = fgh_traffic::simulate(&a, &a, &out.decomposition).unwrap();
        assert_eq!(report.total_remote(), out.objective + 1);
        assert_eq!(report.total_remote(), out.stats.total_volume());
        assert!(exactness_gate(&report, &out).is_err());
    }
}
