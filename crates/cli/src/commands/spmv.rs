//! `fgh spmv` — decompose, execute one distributed SpMV, verify.

use fgh_core::{decompose_workload, Tracer, Workload, WorkloadOutcome};
use fgh_spmv::parallel::parallel_spmv;
use fgh_spmv::DistributedSpmv;

use crate::commands::{finish_outcome, load_matrix};
use crate::error::CmdResult;
use crate::opts::{Opts, DECOMPOSE_FLAGS};

pub fn run(args: &[String]) -> CmdResult {
    let o = Opts::parse(
        args,
        &[DECOMPOSE_FLAGS, &["k", "strict", "parallel"]].concat(),
    )?;
    let path = o.one_positional("matrix.mtx")?;
    let a = load_matrix(path)?;
    let cfg = o.decompose_config(o.parse_required("k")?)?;
    let out = finish_outcome(
        decompose_workload(Workload::Spmv(&a), &cfg).and_then(WorkloadOutcome::into_spmv),
        o.has("strict"),
    )?;
    if let Some(trace) = &out.trace {
        eprint!("{}", trace.render());
    }
    let plan = DistributedSpmv::build(&a, &out.decomposition).map_err(|e| e.to_string())?;

    let x: Vec<f64> = (0..a.ncols())
        .map(|j| 1.0 + (j % 101) as f64 * 1e-2)
        .collect();
    let threaded = o.has("parallel");
    let (y, comm) = if threaded {
        parallel_spmv(&plan, &x).map_err(|e| e.to_string())?
    } else if o.has("trace") {
        // A second span tree for the execution itself: the simulator's
        // expand / local-mult / fold phases with word counters.
        let (tracer, sink) = Tracer::collecting();
        let root = tracer.span("spmv");
        let r = plan
            .multiply_traced(&x, &root.handle())
            .map_err(|e| e.to_string())?;
        drop(root);
        eprint!("{}", sink.build_trace().render());
        r
    } else {
        plan.multiply(&x).map_err(|e| e.to_string())?
    };

    let y_serial = a.spmv(&x).map_err(|e| e.to_string())?;
    let max_err = y
        .iter()
        .zip(&y_serial)
        .map(|(p, s)| (p - s).abs())
        .fold(0.0f64, f64::max);

    println!(
        "executor:        {}",
        if threaded {
            "threaded (one thread per processor)"
        } else {
            "simulator"
        }
    );
    println!("model:           {}", cfg.model.name());
    println!(
        "words moved:     {} (expand {}, fold {})",
        comm.total_words(),
        comm.expand_words,
        comm.fold_words
    );
    println!(
        "messages:        {} (expand {}, fold {})",
        comm.total_messages(),
        comm.expand_messages,
        comm.fold_messages
    );
    println!("modeled volume:  {} words", out.stats.total_volume());
    println!("max |err|:       {max_err:.3e}");
    if comm.total_words() != out.stats.total_volume() {
        return Err(crate::error::CmdError::new(
            1,
            "executed word count does not match the model (bug)",
        ));
    }
    if max_err > 1e-6 {
        return Err(crate::error::CmdError::new(
            1,
            format!("numeric mismatch vs serial SpMV: {max_err}"),
        ));
    }
    println!("verified: distributed result matches serial, traffic matches model");
    Ok(())
}
