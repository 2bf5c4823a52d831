//! Parallel-scaling benchmark for the partitioning engine.
//!
//! Runs the paper's multi-seed protocol (8 independent seeds, K = 16) on a
//! ken-11-style catalog matrix under the fine-grain model, once per thread
//! count in {1, 2, 4, 8}, and reports wall-clock speedup over the serial
//! baseline. Because every recursion node derives its RNG from its own
//! identity, per-seed cutsizes must be bit-identical across thread counts —
//! the harness asserts this before trusting any timing.
//!
//! Results land in `BENCH_parallel.json` at the repository root:
//! per-thread wall times, speedups, the per-seed cutsizes proving
//! determinism, and a per-phase wall-clock breakdown (coarsen / initial /
//! fm-pass / …) from one traced sweep per thread count. On a 1-CPU host
//! every row's speedup is the string `"unmeasured"`: threads there only
//! time-slice one core, so a ratio would say nothing about scaling.
//!
//! Usage: `cargo bench --bench parallel_scaling [-- --quick]`
//! (`--quick` shrinks the matrix and repetitions for CI smoke runs).

use std::sync::Arc;
use std::time::Instant;

use fgh_core::models::FineGrainModel;
use fgh_hypergraph::Hypergraph;
use fgh_partition::{
    partition_hypergraph_seeds, partition_hypergraph_with, run_seeds, ArenaPool, Parallelism,
    PartitionConfig,
};
use fgh_trace::Tracer;

const K: u32 = 16;
const SEEDS: usize = 8;
const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

struct Protocol {
    scale: u32,
    reps: usize,
}

fn build_hypergraph(scale: u32) -> Hypergraph {
    let entry = fgh_sparse::catalog::by_name("ken-11").expect("catalog name");
    let a = entry.generate_scaled(scale, 1);
    let model = FineGrainModel::build(&a).expect("square catalog matrix");
    model.hypergraph().clone()
}

fn config_for(threads: usize) -> PartitionConfig {
    PartitionConfig {
        seed: 1,
        parallelism: if threads == 1 {
            Parallelism::Serial
        } else {
            Parallelism::Threads(threads)
        },
        ..Default::default()
    }
}

/// One traced (untimed) sweep: total nanoseconds per span name, summed
/// over the whole tree. Keyed by phase name (`coarsen`, `initial`,
/// `fm-pass`, `run`, …) for the `phase_ns` column of the JSON report.
fn phase_breakdown(hg: &Hypergraph, threads: usize) -> Vec<(&'static str, u64)> {
    let cfg = config_for(threads);
    let (tracer, sink) = Tracer::collecting();
    let root = tracer.span("sweep");
    let pool = Arc::new(ArenaPool::new());
    let results = run_seeds(&cfg, SEEDS, &pool, &root.handle(), |driver| {
        partition_hypergraph_with(driver, hg, K)
    });
    drop(root);
    for r in results {
        r.expect("traced partition run failed");
    }
    sink.build_trace().phase_totals()
}

/// Best-of-`reps` wall time for the 8-seed sweep, plus per-seed cutsizes.
fn run_sweep(hg: &Hypergraph, threads: usize, reps: usize) -> (f64, Vec<u64>) {
    let cfg = config_for(threads);
    let mut best = f64::INFINITY;
    let mut cutsizes = Vec::new();
    for _ in 0..reps {
        let start = Instant::now();
        let results = partition_hypergraph_seeds(hg, K, &cfg, SEEDS);
        let elapsed = start.elapsed().as_secs_f64();
        cutsizes = results
            .into_iter()
            .map(|r| r.expect("partition run failed").cutsize)
            .collect();
        best = best.min(elapsed);
    }
    (best, cutsizes)
}

/// Peak resident set size of this process in kilobytes, read from
/// `/proc/self/status` (`VmHWM`). 0 when unavailable (non-Linux hosts);
/// the JSON field is informational, never gated.
fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse().ok())
        })
        .unwrap_or(0)
}

/// Commit the recorded numbers were measured at, so a stale committed
/// file is detectable (`baseline_sha` ≠ HEAD means regenerate).
fn git_head() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    // `scale` divides the catalog dimensions, so quick runs use the
    // larger divisor (smaller matrix).
    let p = if quick {
        Protocol { scale: 16, reps: 1 }
    } else {
        Protocol { scale: 4, reps: 3 }
    };
    let hg = build_hypergraph(p.scale);
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "parallel_scaling: ken-11 scale {} ({} vertices, {} nets), K = {K}, {SEEDS} seeds, best of {}, {host_cpus} host cpus",
        p.scale,
        hg.num_vertices(),
        hg.num_nets(),
        p.reps
    );
    if host_cpus < 2 {
        println!(
            "note: single-core host; speedups recorded as unmeasured (determinism still checked)"
        );
    }

    let mut times = Vec::new();
    let mut serial_cuts: Vec<u64> = Vec::new();
    for &threads in &THREAD_COUNTS {
        let (secs, cuts) = run_sweep(&hg, threads, p.reps);
        if threads == 1 {
            serial_cuts = cuts.clone();
        } else {
            assert_eq!(
                cuts, serial_cuts,
                "threads={threads}: per-seed cutsizes diverged from serial"
            );
        }
        let phases = phase_breakdown(&hg, threads);
        times.push((threads, secs, cuts, phases));
    }

    let serial_time = times[0].1;
    let mut rows = String::new();
    println!("threads  wall_s   speedup  per-seed cutsizes");
    for (i, (threads, secs, cuts, phases)) in times.iter().enumerate() {
        let speedup = if host_cpus < 2 {
            "\"unmeasured\"".to_string()
        } else {
            format!("{:.3}", serial_time / secs)
        };
        println!("{threads:>7}  {secs:>7.3}  {speedup:>7}  {cuts:?}");
        let cuts_json = cuts
            .iter()
            .map(|c| c.to_string())
            .collect::<Vec<_>>()
            .join(",");
        let phase_json = phases
            .iter()
            .map(|(name, ns)| format!("\"{name}\": {ns}"))
            .collect::<Vec<_>>()
            .join(", ");
        if i > 0 {
            rows.push(',');
        }
        rows.push_str(&format!(
            "\n    {{\"threads\": {threads}, \"wall_s\": {secs:.6}, \"speedup\": {speedup}, \"cutsizes\": [{cuts_json}], \"phase_ns\": {{{phase_json}}}}}"
        ));
    }

    let peak_rss_kb = peak_rss_kb();
    println!("peak rss: {peak_rss_kb} kB");
    let json = format!(
        "{{\n  \"bench\": \"parallel_scaling\",\n  \"matrix\": \"ken-11\",\n  \"baseline_sha\": \"{}\",\n  \"scale\": {},\n  \"k\": {K},\n  \"seeds\": {SEEDS},\n  \"reps\": {},\n  \"quick\": {quick},\n  \"host_cpus\": {host_cpus},\n  \"peak_rss_kb\": {peak_rss_kb},\n  \"per_seed_cutsizes_identical\": true,\n  \"runs\": [{rows}\n  ]\n}}\n",
        git_head(),
        p.scale, p.reps
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_parallel.json");
    std::fs::write(out, &json).expect("write BENCH_parallel.json");
    println!("wrote {out}");
}
