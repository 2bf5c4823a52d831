//! Compare every SpMV decomposition model on one matrix — a one-matrix
//! slice of the paper's Table 2.
//!
//!     cargo run --release --example compare_models [matrix-name] [K]
//!
//! `matrix-name` is a Table-1 catalog name (default `ken-11`); `K`
//! defaults to 16.

use fine_grain_hypergraph::prelude::*;

fn main() {
    let mut args = std::env::args().skip(1);
    let name = args.next().unwrap_or_else(|| "ken-11".to_string());
    let k: u32 = args
        .next()
        .map(|s| s.parse().expect("K must be an integer"))
        .unwrap_or(16);

    let entry = fine_grain_hypergraph::sparse::catalog::by_name(&name)
        .unwrap_or_else(|| panic!("unknown matrix {name:?}; see `table1` for the catalog"));
    let a = entry.generate_scaled(8, 7);
    println!(
        "{} analogue: {} rows, {} nonzeros, K = {k}\n",
        entry.name,
        a.nrows(),
        a.nnz()
    );
    println!(
        "{:<22} {:>10} {:>10} {:>10} {:>10} {:>9} {:>9}",
        "model", "objective", "volume", "vol/M", "max/proc", "msgs/p", "time"
    );
    println!("{}", "-".repeat(86));

    for model in [
        Model::Graph1D,
        Model::Hypergraph1DColNet,
        Model::Hypergraph1DRowNet,
        Model::Checkerboard2D,
        Model::Jagged2D,
        Model::Mondriaan2D,
        Model::FineGrain2D,
    ] {
        let out = decompose_workload(Workload::Spmv(&a), &DecomposeConfig::new(model, k))
            .and_then(WorkloadOutcome::into_spmv)
            .expect("decompose");
        println!(
            "{:<22} {:>10} {:>10} {:>10.3} {:>10} {:>9.2} {:>8.3}s",
            model.name(),
            out.objective,
            out.stats.total_volume(),
            out.stats.scaled_total_volume(),
            out.stats.max_sent_words(),
            out.stats.avg_messages_per_proc(),
            out.elapsed.as_secs_f64(),
        );
    }

    println!();
    println!("notes:");
    println!(" * for hypergraph models, objective (connectivity-1 cutsize) == volume exactly;");
    println!("   the graph model's edge-cut objective only approximates its true volume.");
    println!(" * fine-grain-2d may use up to 2(K-1) messages per processor (two phases)");
    println!("   vs K-1 for the 1D models -- the volume-vs-latency tradeoff of Section 4.");
}
