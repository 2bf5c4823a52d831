//! Hot-loop kernel microbenchmarks: each phase's rewritten kernel is
//! timed against its pre-rewrite counterpart *in the same binary*, and
//! the result is recorded as a speedup ratio. Ratios are host-independent
//! (both sides run on the same machine in the same process), so the
//! committed `BENCH_phases.json` can gate CI on any runner: `--check`
//! fails when a current ratio regresses more than 25% below the recorded
//! one.
//!
//! Phases and their baselines:
//! - `refine`: the flat connectivity table ([`NetConnectivity`], one fixed
//!   row per net) vs the scan-based [`NaiveConnectivity`] oracle, which
//!   keeps one `Vec` per net, replaying a k-way move-and-query stream.
//! - `coarsen`: the monomorphized pin-traversal scoring kernel
//!   (`for_each_scored_neighbor` into a pre-sized scratch array) vs the
//!   pre-rewrite form (dyn-dispatched visitor into per-vertex hash
//!   scratch).
//!
//! Usage: `cargo bench --bench phase_kernels [-- --quick] [-- --check]`
//! With no flags, runs both the quick and full workloads and writes
//! `BENCH_phases.json` (sections `quick_phases` / `full_phases`) at the
//! repository root. `--quick` runs only the small workload; combined
//! with `--check` it gates against the committed `quick_phases` section
//! (quick alone prints without writing, so the full section is never
//! clobbered by a smoke run).

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

use fgh_core::models::FineGrainModel;
use fgh_hypergraph::{Hypergraph, Partition};
use fgh_partition::connectivity::{NaiveConnectivity, NetConnectivity};
use fgh_partition::engine::Substrate;

const REFINE_K: u32 = 48;
const MAX_NET_SIZE: usize = 64;

fn build_hypergraph(scale: u32) -> Hypergraph {
    let entry = fgh_sparse::catalog::by_name("ken-11").expect("catalog name");
    let a = entry.generate_scaled(scale, 1);
    let model = FineGrainModel::build(&a).expect("square catalog matrix");
    model.hypergraph().clone()
}

/// Best-of-`reps` wall time of `f`, in nanoseconds.
fn time_best(reps: usize, mut f: impl FnMut()) -> u64 {
    let mut best = u64::MAX;
    for _ in 0..reps {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_nanos() as u64);
    }
    best
}

/// The connectivity workload: a deterministic stream of pin moves and
/// table queries shaped like k-way FM (move a vertex's nets, then read
/// the λ and counts FM's gain formulas read).
fn connectivity_workload<T>(
    hg: &Hypergraph,
    parts: &mut [u32],
    table: &mut T,
    move_pin: impl Fn(&mut T, u32, u32, u32) -> bool,
    lambda: impl Fn(&T, u32) -> usize,
    count: impl Fn(&T, u32, u32) -> u64,
) -> u64 {
    let mut acc = 0u64;
    let nv = hg.num_vertices();
    let mut state = 0x243f6a8885a308d3u64;
    for round in 0..2u32 {
        for v in 0..nv {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(round as u64 + 1);
            let from = parts[v as usize];
            let to = (state >> 33) as u32 % REFINE_K;
            if from == to {
                continue;
            }
            for &n in hg.nets(v) {
                let ok = move_pin(table, n, from, to);
                debug_assert!(ok);
                // FM gain updates read λ plus the pin counts of both
                // endpoints of the move.
                acc += lambda(table, n) as u64;
                acc += count(table, n, to);
                acc += count(table, n, from);
            }
            parts[v as usize] = to;
        }
    }
    acc
}

fn bench_refine(hg: &Hypergraph, reps: usize) -> (u64, u64) {
    let nv = hg.num_vertices() as usize;
    let parts0: Vec<u32> = (0..nv as u32).map(|v| v % REFINE_K).collect();
    let partition = Partition::new(REFINE_K, parts0.clone()).unwrap();
    let new_ns = time_best(reps, || {
        let mut parts = parts0.clone();
        let mut t = NetConnectivity::build(hg, &partition);
        let acc = connectivity_workload(
            hg,
            &mut parts,
            &mut t,
            |t, n, f, to| t.move_pin(n, f, to).is_ok(),
            |t, n| t.lambda(n),
            |t, n, p| t.count(n, p),
        );
        black_box(acc);
    });
    let legacy_ns = time_best(reps, || {
        let mut parts = parts0.clone();
        let mut t = NaiveConnectivity::build(hg, &partition);
        let acc = connectivity_workload(
            hg,
            &mut parts,
            &mut t,
            |t, n, f, to| t.move_pin(n, f, to).is_ok(),
            |t, n| t.lambda(n),
            |t, n, p| t.count(n, p),
        );
        black_box(acc);
    });
    (new_ns, legacy_ns)
}

/// Pre-rewrite scoring shape: dyn-dispatched visitor writing into a
/// per-vertex hash map (the scratch the rewrite eliminated).
#[allow(clippy::type_complexity)] // the dyn-visitor type IS the legacy shape being measured
fn legacy_score_vertex(hg: &Hypergraph, u: u32, score: &mut HashMap<u32, u64>) {
    score.clear();
    let visit: &mut dyn FnMut(&mut HashMap<u32, u64>, u32, u64) =
        &mut |score, v, cost| *score.entry(v).or_insert(0) += cost;
    for &net in hg.nets(u) {
        if hg.net_size(net) > MAX_NET_SIZE {
            continue;
        }
        let cost = hg.net_cost(net) as u64;
        for &v in hg.pins(net) {
            if v != u {
                visit(score, v, cost);
            }
        }
    }
}

fn bench_coarsen(hg: &Hypergraph, reps: usize) -> (u64, u64) {
    let nv = hg.num_vertices();
    let new_ns = time_best(reps, || {
        // The engine's form: monomorphized traversal, pre-sized scratch,
        // touched-list reset (mirrors `coarsen_once_in`).
        let mut score = vec![0u64; nv as usize];
        let mut touched: Vec<u32> = Vec::new();
        let mut acc = 0u64;
        for u in 0..nv {
            for &t in &touched {
                score[t as usize] = 0;
            }
            touched.clear();
            Substrate::for_each_scored_neighbor(hg, u, MAX_NET_SIZE, |v, cost| {
                if score[v as usize] == 0 {
                    touched.push(v);
                }
                score[v as usize] += cost;
            });
            for &t in &touched {
                acc = acc.max(score[t as usize]);
            }
        }
        black_box(acc);
    });
    let legacy_ns = time_best(reps, || {
        let mut score: HashMap<u32, u64> = HashMap::new();
        let mut acc = 0u64;
        for u in 0..nv {
            legacy_score_vertex(hg, u, &mut score);
            for (_, &s) in score.iter() {
                acc = acc.max(s);
            }
        }
        black_box(acc);
    });
    (new_ns, legacy_ns)
}

fn git_head() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Reads a phase's recorded speedup out of the committed JSON with a
/// dependency-free scan (the file is machine-written, shape-stable).
/// `section` scopes the lookup to the matching workload size.
fn recorded_speedup(json: &str, section: &str, phase: &str) -> Option<f64> {
    let at = json.find(&format!("\"{section}\""))?;
    let scoped = &json[at + section.len() + 2..];
    let scoped = match scoped.find("_phases\"") {
        // Stop before the next section header so a quick lookup never
        // reads a full-section ratio.
        Some(next) => &scoped[..next],
        None => scoped,
    };
    let pat = format!("\"{phase}\"");
    let tail = &scoped[scoped.find(&pat)?..];
    let sp = tail.find("\"speedup\":")?;
    let rest = tail[sp + 10..].trim_start();
    let end = rest.find(|c: char| c != '.' && !c.is_ascii_digit())?;
    rest[..end].parse().ok()
}

/// Runs the two phase benches at one workload size.
fn run_phases(quick: bool) -> (u32, [(&'static str, u64, u64); 2]) {
    let (scale, reps) = if quick { (16, 2) } else { (8, 3) };
    let hg = build_hypergraph(scale);
    println!(
        "phase_kernels[{}]: ken-11 scale {scale} ({} vertices, {} nets), best of {reps}",
        if quick { "quick" } else { "full" },
        hg.num_vertices(),
        hg.num_nets()
    );
    let (refine_new, refine_old) = bench_refine(&hg, reps);
    let (coarsen_new, coarsen_old) = bench_coarsen(&hg, reps);
    let phases = [
        ("refine", refine_new, refine_old),
        ("coarsen", coarsen_new, coarsen_old),
    ];
    println!("phase    new_ns       baseline_ns  speedup");
    for (name, new_ns, old_ns) in &phases {
        let speedup = *old_ns as f64 / (*new_ns).max(1) as f64;
        println!("{name:<8} {new_ns:>12} {old_ns:>12} {speedup:>6.2}x");
    }
    (scale, phases)
}

fn rows_json(phases: &[(&'static str, u64, u64); 2]) -> String {
    let mut rows = String::new();
    for (i, (name, new_ns, old_ns)) in phases.iter().enumerate() {
        let speedup = *old_ns as f64 / (*new_ns).max(1) as f64;
        if i > 0 {
            rows.push(',');
        }
        rows.push_str(&format!(
            "\n    \"{name}\": {{\"new_ns\": {new_ns}, \"baseline_ns\": {old_ns}, \"speedup\": {speedup:.3}}}"
        ));
    }
    rows
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let check = std::env::args().any(|a| a == "--check");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_phases.json");

    if check {
        let section = if quick { "quick_phases" } else { "full_phases" };
        let (_, phases) = run_phases(quick);
        let committed = std::fs::read_to_string(path).expect("read committed BENCH_phases.json");
        let mut failures = Vec::new();
        for (name, new_ns, old_ns) in &phases {
            let current = *old_ns as f64 / (*new_ns).max(1) as f64;
            let Some(recorded) = recorded_speedup(&committed, section, name) else {
                failures.push(format!("{name}: no recorded speedup in {section}"));
                continue;
            };
            // >25% regression vs the committed ratio fails the gate.
            if current < recorded * 0.75 {
                failures.push(format!(
                    "{name}: speedup {current:.2}x is below 75% of recorded {recorded:.2}x"
                ));
            } else {
                println!("check {name}: {current:.2}x vs recorded {recorded:.2}x — ok");
            }
        }
        if !failures.is_empty() {
            eprintln!("phase_kernels --check FAILED:\n{}", failures.join("\n"));
            std::process::exit(1);
        }
        println!("phase_kernels --check passed");
        return;
    }

    if quick {
        // Smoke run: print only; writing would clobber the full section.
        run_phases(true);
        return;
    }

    let (quick_scale, quick_phases) = run_phases(true);
    let (full_scale, full_phases) = run_phases(false);
    let json = format!(
        "{{\n  \"bench\": \"phase_kernels\",\n  \"matrix\": \"ken-11\",\n  \"baseline_sha\": \"{}\",\n  \"quick_scale\": {quick_scale},\n  \"full_scale\": {full_scale},\n  \"quick_phases\": {{{}\n  }},\n  \"full_phases\": {{{}\n  }}\n}}\n",
        git_head(),
        rows_json(&quick_phases),
        rows_json(&full_phases),
    );
    std::fs::write(path, &json).expect("write BENCH_phases.json");
    println!("wrote {path}");
}
