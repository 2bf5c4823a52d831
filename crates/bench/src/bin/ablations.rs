//! Ablation study over the partitioner's design choices called out in
//! DESIGN.md, measured as fine-grain-model communication volume (the
//! paper's objective) averaged over seeds:
//!
//! * net splitting in recursive bisection — on vs off,
//! * coarsening scheme — HCM vs HCC vs scaled HCC,
//! * initial partitioning — GHG vs weight-only bin packing,
//! * direct K-way refinement post-pass — on vs off,
//! * volume-minimizing 2D (fine-grain) vs structured 2D (checkerboard).
//!
//! Usage: cargo run --release -p fgh-bench --bin ablations --
//!        [--scale N] [--runs N] [--ks 16] [--matrices a,b] [--seed N]

use fgh_bench::ExperimentConfig;
use fgh_core::models::{CheckerboardModel, FineGrainModel};
use fgh_core::CommStats;
use fgh_partition::{partition_hypergraph, CoarseningScheme, InitialScheme, PartitionConfig};
use fgh_sparse::CsrMatrix;

struct Variant {
    name: &'static str,
    cfg: fn(u64) -> PartitionConfig,
}

fn variants() -> Vec<Variant> {
    fn base(seed: u64) -> PartitionConfig {
        PartitionConfig::with_seed(seed)
    }
    vec![
        Variant {
            name: "baseline (HCC+GHG+split+kway)",
            cfg: base,
        },
        Variant {
            name: "no net splitting",
            cfg: |s| PartitionConfig {
                net_splitting: false,
                ..base(s)
            },
        },
        Variant {
            name: "no k-way refine post-pass",
            cfg: |s| PartitionConfig {
                kway_refine: false,
                ..base(s)
            },
        },
        Variant {
            name: "coarsening: HCM",
            cfg: |s| PartitionConfig {
                coarsening: CoarseningScheme::Hcm,
                ..base(s)
            },
        },
        Variant {
            name: "coarsening: scaled HCC",
            cfg: |s| PartitionConfig {
                coarsening: CoarseningScheme::ScaledHcc,
                ..base(s)
            },
        },
        Variant {
            name: "initial: bin packing",
            cfg: |s| PartitionConfig {
                initial: InitialScheme::BinPacking,
                ..base(s)
            },
        },
    ]
}

fn avg_cutsize(
    a: &CsrMatrix,
    k: u32,
    runs: usize,
    seed: u64,
    make: fn(u64) -> PartitionConfig,
) -> f64 {
    let model = FineGrainModel::build(a).expect("square");
    let mut total = 0u64;
    for r in 0..runs {
        let cfg = make(seed.wrapping_add(r as u64 * 7919));
        let res = partition_hypergraph(model.hypergraph(), k, &cfg).expect("partition");
        total += res.cutsize;
    }
    total as f64 / runs as f64
}

fn main() {
    let mut cfg = match ExperimentConfig::from_args(std::env::args().skip(1)) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    if cfg.matrices.is_empty() {
        cfg.matrices = vec![
            "sherman3".into(),
            "ken-11".into(),
            "vibrobox".into(),
            "finan512".into(),
        ];
    }
    let k = cfg.ks[0];
    println!(
        "Ablations: fine-grain communication volume (words), K = {k}, scale 1/{}, {} run(s)",
        cfg.scale, cfg.runs
    );
    println!();

    let entries = cfg.selected_entries();
    print!("{:<32}", "variant");
    for e in &entries {
        print!(" {:>12}", e.name);
    }
    println!();
    println!("{}", "-".repeat(32 + entries.len() * 13));

    let mats: Vec<CsrMatrix> = entries
        .iter()
        .map(|e| e.generate_scaled(cfg.scale, cfg.seed))
        .collect();

    let mut baseline: Vec<f64> = Vec::new();
    for (vi, v) in variants().iter().enumerate() {
        print!("{:<32}", v.name);
        for (mi, a) in mats.iter().enumerate() {
            let c = avg_cutsize(a, k, cfg.runs, cfg.seed, v.cfg);
            if vi == 0 {
                baseline.push(c);
                print!(" {:>12.0}", c);
            } else {
                print!(" {:>6.0} ({:+4.0}%)", c, 100.0 * (c / baseline[mi] - 1.0));
            }
        }
        println!();
    }

    // Structured-2D contrast: checkerboard (no volume objective at all).
    print!("{:<32}", "checkerboard 2D (no objective)");
    for (mi, a) in mats.iter().enumerate() {
        let cb = CheckerboardModel::build(a, k).expect("square");
        let d = cb.decode(a).expect("valid");
        let vol = CommStats::compute(a, &d).expect("stats").total_volume() as f64;
        print!(
            " {:>6.0} ({:+4.0}%)",
            vol,
            100.0 * (vol / baseline[mi] - 1.0)
        );
    }
    println!();
    println!();
    println!("cells: volume (and % change vs baseline; positive = worse).");
}
