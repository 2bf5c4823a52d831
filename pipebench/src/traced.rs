//! The traced run: drives each layer's public functions one at a time,
//! records the benchmark's own spans around those calls, and derives the
//! per-layer metrics from them.
//!
//! Every traced run covers every layer so it can report every per-layer
//! metric. The traced workload's own layer group runs first and at full
//! length; where two groups measure the same layer (parse, partition,
//! decode, plan, CG), the traced workload's group supplies the number.
//! The other groups run a few ops only.
//!
//! The layer-by-layer path must reproduce `decompose_workload`'s objective
//! bit for bit (SpMV and SpGEMM, same seed and config); otherwise the run
//! fails, since its per-layer numbers would describe a different program.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use fgh_core::models::{FineGrainModel, SpgemmCommStats, SpgemmModel};
use fgh_core::{ArenaPool, Budget, CommStats, DecomposeConfig, EngineStats, Model, Parallelism};
use fgh_hypergraph::Hypergraph;
use fgh_partition::{partition_hypergraph_best_traced_in, ArenaIndex, PartitionConfig, PartitionResult};
use fgh_spmv::solver::conjugate_gradient;
use fgh_spmv::DistributedSpmv;
use fgh_trace::SpanHandle;

use crate::spans::Spans;
use crate::stats::{median, Tally};
use crate::workloads::{self as w, Kind, Spec};

/// Ops each group runs when it is not the traced workload's.
const SECONDARY_OPS: usize = 3;
/// Standalone multiplies timed after each traced CG solve.
const MULTIPLIES_PER_OP: usize = 5;

/// Per-layer metrics; the first group to report a name keeps it.
#[derive(Default)]
pub struct Metrics {
    pub values: BTreeMap<&'static str, (f64, &'static str)>,
    /// Bases of the ratios, printed next to them.
    pub notes: Vec<String>,
}

impl Metrics {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.values.entry(name).or_insert((value, unit));
    }

    fn has(&self, name: &str) -> bool {
        self.values.contains_key(name)
    }

    fn note(&mut self, name: &str, text: String) {
        if !self.has(name) {
            self.notes.push(format!("{name} = {text}"));
        }
    }

    fn span_medians(&mut self, s: &Spans, pairs: &[(&'static str, &str)]) {
        for &(metric, span) in pairs {
            self.put(metric, median(&s.durations_ms(span)), "ms");
        }
    }
}

pub struct TraceOut {
    pub tally: Tally,
    pub metrics: Metrics,
}

/// Wall time of a group's traced ops and of the same ops run untraced,
/// for `trace.overhead_ratio`.
#[derive(Default)]
struct Overhead {
    traced_s: f64,
    untraced_s: f64,
}

/// The partition layer exactly as the one-call API drives it.
fn partition<I: ArenaIndex>(hg: &Hypergraph<I>, k: u32, runs: usize, pcfg: &PartitionConfig) -> Result<PartitionResult, String> {
    partition_hypergraph_best_traced_in(hg, k, pcfg, runs, &Arc::new(ArenaPool::new()), &SpanHandle::noop())
        .map_err(|e| format!("partition: {e}"))
}

/// `cfg`'s partition config with refinement switched off.
fn without_fm(cfg: &DecomposeConfig) -> PartitionConfig {
    let mut p = cfg.partition_config();
    p.budget = Budget {
        max_fm_passes: Some(0),
        ..p.budget
    };
    p
}

/// Engine counters of the traced partitionings, and the objective each
/// would have had without refinement.
#[derive(Default)]
struct EngineTotals {
    stats: Vec<EngineStats>,
    objective: u64,
    objective_no_fm: u64,
}

impl EngineTotals {
    fn add(&mut self, r: &PartitionResult, no_fm: u64) {
        self.stats.push(r.stats);
        self.objective += r.cutsize;
        self.objective_no_fm += no_fm;
    }

    fn report(&self, m: &mut Metrics) {
        let med = |f: fn(&EngineStats) -> u64| median(&self.stats.iter().map(|s| f(s) as f64).collect::<Vec<_>>());
        let moves: u64 = self.stats.iter().map(|s| s.fm_moves).sum();
        let kept: u64 = self.stats.iter().map(|s| s.fm_moves - s.fm_rollbacks).sum();
        m.note("partition.fm_kept_ratio", format!("{kept} moves kept / {moves} moves"));
        m.note(
            "partition.fm_gain_ratio",
            format!("{} words without FM / {} words with FM", self.objective_no_fm, self.objective),
        );
        m.put("partition.levels", med(|s| s.levels), "count");
        m.put("partition.fm_passes", med(|s| s.fm_passes), "count");
        m.put("partition.fm_moves", med(|s| s.fm_moves), "count");
        m.put("partition.fm_kept_ratio", kept as f64 / moves.max(1) as f64, "ratio");
        m.put("partition.fm_gain_ratio", self.objective_no_fm as f64 / self.objective.max(1) as f64, "ratio");
    }
}

fn parity(layered: u64, one_call: Result<u64, String>) -> Result<(), String> {
    let obj = one_call?;
    if obj == layered {
        Ok(())
    } else {
        Err(format!("layer path objective {layered} != decompose_workload objective {obj}"))
    }
}

/// parse -> FineGrainModel::build -> partition -> decode -> CommStats ->
/// plan -> CG, on spmv-pipeline's inputs.
fn spmv_group(spec: &Spec, seed: u64, ops: usize, s: &mut Spans, m: &mut Metrics) -> Result<(Tally, Overhead), String> {
    let inputs = w::mm_pool(spec, seed, ops, true)?;
    let cfg = w::spmv_config(spec);
    let (mut tally, mut ovh, mut eng) = (Tally::default(), Overhead::default(), EngineTotals::default());
    let mut iterations = Vec::new();
    for i in 0..ops {
        let input = &inputs[i % inputs.len()];
        let t = Instant::now();
        let op = s.open("op.spmv", None);
        let traced = (|| {
            let a = s.time("sparse.parse", Some(op), || w::parse_mm(&input.mm))?;
            let model = s.time("core.model_build", Some(op), || FineGrainModel::build(&a)).map_err(|e| format!("model build: {e}"))?;
            let r = s.time("partition.partition", Some(op), || partition(model.hypergraph(), cfg.k, cfg.runs, &cfg.partition_config()))?;
            let d = s.time("core.decode", Some(op), || model.decode(&a, &r.partition)).map_err(|e| format!("decode: {e}"))?;
            let stats = s.time("core.comm_stats", Some(op), || CommStats::compute(&a, &d)).map_err(|e| format!("comm stats: {e}"))?;
            let plan = s.time("spmv.plan_build", Some(op), || DistributedSpmv::build(&a, &d)).map_err(|e| format!("plan: {e}"))?;
            let cap = w::cg_iteration_cap(input.b.len());
            let sol = s.time("spmv.cg", Some(op), || conjugate_gradient(&plan, &input.b, w::CG_TOL, cap)).map_err(|e| format!("cg: {e}"))?;
            Ok::<_, String>((a, model, r, stats, plan, sol))
        })();
        s.close(op);
        ovh.traced_s += t.elapsed().as_secs_f64();
        // Checks, outside the spans.
        let checked = traced.and_then(|(_, model, r, stats, plan, sol)| {
            if stats.total_volume() != r.cutsize {
                return Err(format!("volume {} != cutsize {}", stats.total_volume(), r.cutsize));
            }
            plan.validate_cutsize(r.cutsize).map_err(|e| format!("cutsize replay: {e}"))?;
            w::check_solution(&sol, input, r.cutsize)?;
            iterations.push(sol.iterations as f64);
            eng.add(&r, partition(model.hypergraph(), cfg.k, cfg.runs, &without_fm(&cfg))?.cutsize);
            Ok(r.cutsize)
        });
        let Some(layered) = tally.record(checked, "traced spmv op") else {
            continue;
        };
        // The one-call path on the same input and config: the untraced half
        // of the overhead ratio, and the parity reference.
        let t = Instant::now();
        let one_call = w::spmv_pipeline_op(input, &cfg);
        ovh.untraced_s += t.elapsed().as_secs_f64();
        tally.record(parity(layered, one_call), "spmv layer-path parity");
    }
    m.span_medians(
        s,
        &[
            ("sparse.parse_ms", "sparse.parse"),
            ("core.model_build_ms", "core.model_build"),
            ("partition.partition_ms", "partition.partition"),
            ("core.decode_ms", "core.decode"),
            ("core.comm_stats_ms", "core.comm_stats"),
            ("spmv.plan_build_ms", "spmv.plan_build"),
            ("spmv.cg_ms", "spmv.cg"),
        ],
    );
    m.put("spmv.cg_iterations", median(&iterations), "count");
    eng.report(m);
    fidelity(spec, &inputs[0], m)?;
    Ok((tally, ovh))
}

/// graph-1d against fine-grain-2d on the spmv-pipeline matrix, both
/// serial, as the paper's Table 2 compares them (fine-grain: 59% lower
/// volume at ~7.3x the partitioning time).
fn fidelity(spec: &Spec, input: &w::MmInput, m: &mut Metrics) -> Result<(), String> {
    let a = w::parse_mm(&input.mm)?;
    let run = |model| {
        let cfg = DecomposeConfig::new(model, spec.k).with_parallelism(Parallelism::Serial);
        let t = Instant::now();
        let out = w::decompose_spmv(&a, &cfg)?;
        Ok::<_, String>((out.stats.total_volume(), t.elapsed().as_secs_f64()))
    };
    let (fg_vol, fg_s) = run(Model::FineGrain2D)?;
    let (g_vol, g_s) = run(Model::Graph1D)?;
    m.note(
        "fidelity.fg_vs_graph_volume",
        format!("{fg_vol} fine-grain words / {g_vol} graph-1d words (paper: 0.41)"),
    );
    m.note(
        "fidelity.fg_over_graph_time",
        format!("{:.2} ms fine-grain / {:.2} ms graph-1d (paper: ~7.3)", fg_s * 1e3, g_s * 1e3),
    );
    m.put("fidelity.fg_vs_graph_volume", fg_vol as f64 / g_vol.max(1) as f64, "ratio");
    m.put("fidelity.fg_over_graph_time", fg_s / g_s, "ratio");
    Ok(())
}

/// parse -> SpgemmModel::build -> partition -> decode -> SpgemmCommStats
/// -> traffic simulate -> numeric verify, on spgemm-aa's inputs.
fn spgemm_group(spec: &Spec, seed: u64, ops: usize, s: &mut Spans, m: &mut Metrics) -> Result<(Tally, Overhead), String> {
    let inputs = w::mm_pool(spec, seed, ops, false)?;
    let cfg = w::spgemm_config(spec);
    let (mut tally, mut ovh, mut eng) = (Tally::default(), Overhead::default(), EngineTotals::default());
    let mut exact: [Vec<f64>; 3] = Default::default();
    for i in 0..ops {
        let mm = &inputs[i % inputs.len()].mm;
        let t = Instant::now();
        let op = s.open("op.spgemm", None);
        let traced = (|| {
            let a = s.time("sparse.parse", Some(op), || w::parse_mm(mm))?;
            let model = s.time("core.spgemm_build", Some(op), || SpgemmModel::build(&a, &a)).map_err(|e| format!("spgemm build: {e}"))?;
            let r = s.time("partition.partition", Some(op), || partition(model.hypergraph(), cfg.k, cfg.runs, &cfg.partition_config()))?;
            let d = s.time("core.decode", Some(op), || model.decode(&r.partition)).map_err(|e| format!("decode: {e}"))?;
            let stats = s
                .time("core.comm_stats", Some(op), || SpgemmCommStats::compute_with(model.structure(), &d))
                .map_err(|e| format!("comm stats: {e}"))?;
            let report = s.time("traffic.simulate", Some(op), || fgh_traffic::simulate(&a, &a, &d)).map_err(|e| format!("simulate: {e:?}"))?;
            s.time("traffic.verify", Some(op), || fgh_traffic::verify_numeric(&a, &a, &d, w::SPGEMM_REL_TOL))
                .map_err(|e| format!("verify_numeric: {e:?}"))?;
            Ok::<_, String>((model, r, stats, report))
        })();
        s.close(op);
        ovh.traced_s += t.elapsed().as_secs_f64();
        let checked = traced.and_then(|(model, r, stats, report)| {
            if report.total_remote() != r.cutsize || stats.total_volume() != r.cutsize {
                return Err(format!(
                    "remote words {} / volume {} != cutsize {}",
                    report.total_remote(),
                    stats.total_volume(),
                    r.cutsize
                ));
            }
            exact[0].push(model.structure().num_tasks() as f64);
            exact[1].push(report.total_remote() as f64);
            exact[2].push(report.total_dram() as f64);
            eng.add(&r, partition(model.hypergraph(), cfg.k, cfg.runs, &without_fm(&cfg))?.cutsize);
            Ok(r.cutsize)
        });
        let Some(layered) = tally.record(checked, "traced spgemm op") else {
            continue;
        };
        let t = Instant::now();
        let one_call = w::spgemm_op(mm, &cfg);
        ovh.untraced_s += t.elapsed().as_secs_f64();
        tally.record(parity(layered, one_call), "spgemm layer-path parity");
    }
    m.span_medians(
        s,
        &[
            ("sparse.parse_ms", "sparse.parse"),
            ("core.spgemm_build_ms", "core.spgemm_build"),
            ("partition.partition_ms", "partition.partition"),
            ("core.decode_ms", "core.decode"),
            ("core.comm_stats_ms", "core.comm_stats"),
            ("traffic.simulate_ms", "traffic.simulate"),
            ("traffic.verify_ms", "traffic.verify"),
        ],
    );
    m.put("spgemm.tasks", median(&exact[0]), "count");
    m.put("traffic.remote_words", median(&exact[1]), "words");
    m.put("traffic.dram_words", median(&exact[2]), "words");
    eng.report(m);
    Ok((tally, ovh))
}

/// cg-many's set-up through the layer path, then CG solves and standalone
/// multiplies on the one plan.
fn cg_group(spec: &Spec, seed: u64, ops: usize, s: &mut Spans, m: &mut Metrics) -> Result<(Tally, Overhead), String> {
    let inputs = w::cg_inputs(spec, seed, ops)?;
    let cfg = w::spmv_config(spec);
    let (mut tally, mut ovh, mut eng) = (Tally::default(), Overhead::default(), EngineTotals::default());
    let setup = s.open("setup.cg", None);
    let a = s.time("sparse.parse", Some(setup), || w::parse_mm(&inputs.mm))?;
    let model = s.time("core.model_build", Some(setup), || FineGrainModel::build(&a)).map_err(|e| format!("model build: {e}"))?;
    let r = s.time("partition.partition", Some(setup), || partition(model.hypergraph(), cfg.k, cfg.runs, &cfg.partition_config()))?;
    let d = s.time("core.decode", Some(setup), || model.decode(&a, &r.partition)).map_err(|e| format!("decode: {e}"))?;
    let stats = s.time("core.comm_stats", Some(setup), || CommStats::compute(&a, &d)).map_err(|e| format!("comm stats: {e}"))?;
    let plan = s.time("spmv.plan_build", Some(setup), || DistributedSpmv::build(&a, &d)).map_err(|e| format!("plan: {e}"))?;
    s.close(setup);
    let volume = r.cutsize;
    tally.record(
        (stats.total_volume() == volume)
            .then_some(())
            .ok_or_else(|| format!("volume {} != cutsize {volume}", stats.total_volume())),
        "traced cg set-up",
    );
    if m.has("partition.partition_ms") {
        // Another group is the traced workload's; skip the extra
        // no-refinement partitioning of this large matrix.
        eng.add(&r, r.cutsize);
    } else {
        eng.add(&r, partition(model.hypergraph(), cfg.k, cfg.runs, &without_fm(&cfg))?.cutsize);
    }
    let (mut iterations, mut cg_ms, mut words, mut messages) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for i in 0..ops {
        let sys = &inputs.systems[i % inputs.systems.len()];
        let t = Instant::now();
        let op = s.open("op.cg", None);
        let cap = w::cg_iteration_cap(sys.b.len());
        let cg = s.open("spmv.cg", Some(op));
        let sol = conjugate_gradient(&plan, &sys.b, w::CG_TOL, cap);
        s.close(cg);
        cg_ms.push(s.spans[cg].dur_ns() as f64 / 1e6);
        let mut mult = Ok(());
        for _ in 0..MULTIPLIES_PER_OP {
            match s.time("spmv.multiply", Some(op), || plan.multiply(&sys.x_true)) {
                Ok((_, c)) => {
                    words.push(c.total_words() as f64);
                    messages.push(c.total_messages() as f64);
                }
                Err(e) => mult = Err(format!("multiply: {e}")),
            }
        }
        s.close(op);
        ovh.traced_s += t.elapsed().as_secs_f64();
        let checked = sol.map_err(|e| format!("cg: {e}")).and_then(|sol| {
            w::check_solution(&sol, sys, volume)?;
            iterations.push(sol.iterations as f64);
            mult
        });
        if tally.record(checked, "traced cg op").is_none() {
            continue;
        }
        let t = Instant::now();
        let untraced = w::solve_checked(&plan, sys, volume).map(|_| ());
        ovh.untraced_s += t.elapsed().as_secs_f64();
        tally.record(untraced, "untraced cg op");
    }
    m.span_medians(
        s,
        &[
            ("sparse.parse_ms", "sparse.parse"),
            ("core.model_build_ms", "core.model_build"),
            ("partition.partition_ms", "partition.partition"),
            ("core.decode_ms", "core.decode"),
            ("core.comm_stats_ms", "core.comm_stats"),
            ("spmv.plan_build_ms", "spmv.plan_build"),
            ("spmv.multiply_ms", "spmv.multiply"),
        ],
    );
    // Only this group's solves: the spmv group's CG runs on another matrix.
    let (cg_ms, mult_ms, iters) = (median(&cg_ms), median(&s.durations_ms("spmv.multiply")), median(&iterations));
    m.put("spmv.cg_ms", cg_ms, "ms");
    m.put("spmv.cg_iterations", iters, "count");
    m.put("spmv.solver_self_ms", cg_ms - iters * mult_ms, "ms");
    m.put("spmv.words_per_multiply", median(&words), "words");
    m.put("spmv.messages_per_multiply", median(&messages), "count");
    eng.report(m);
    Ok((tally, ovh))
}

/// serve-mixed's request pattern against an in-process daemon, traced on
/// the client side, then the same pattern (fresh seeds) untraced.
fn serve_group(spec: &Spec, seed: u64, ops: usize, s: &mut Spans, m: &mut Metrics) -> Result<(Tally, Overhead), String> {
    let texts = w::serve_texts(spec, seed, ops)?;
    let mut st = w::serve_start()?;
    let (mut tally, mut ovh) = (Tally::default(), Overhead::default());
    let (mut hit_ms, mut miss_ms, mut service_ms, mut overhead_ms) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let untraced_base = 1 << 40;
    for i in 0..ops {
        let (slot, pseed, want_hit) = w::serve_key(i, texts.len(), 1);
        let req = w::serve_request(&texts[slot], spec.k, pseed);
        let t = Instant::now();
        let id = s.open("serve.request", None);
        let resp = st.client.request(&req);
        s.close(id);
        ovh.traced_s += t.elapsed().as_secs_f64();
        let client_ms = s.spans[id].dur_ns() as f64 / 1e6;
        let reply = resp.and_then(|r| w::check_serve_reply(&mut st, &r, pseed, want_hit));
        if let Some(r) = tally.record(reply, "traced serve request") {
            let service = r.elapsed_ns as f64 / 1e6;
            if r.hit { &mut hit_ms } else { &mut miss_ms }.push(client_ms);
            service_ms.push(service);
            overhead_ms.push(client_ms - service);
        }
    }
    for i in 0..ops {
        let (slot, pseed, want_hit) = w::serve_key(i, texts.len(), untraced_base);
        let req = w::serve_request(&texts[slot], spec.k, pseed);
        let t = Instant::now();
        let r = w::serve_op(&mut st, &req, pseed, want_hit);
        ovh.untraced_s += t.elapsed().as_secs_f64();
        tally.record(r, "untraced serve request");
    }
    let stats = st.client.stats()?;
    let count = |k: &str| stats.get(k).and_then(|v| v.as_u64()).unwrap_or(0);
    let (hits, misses, rejected, admitted) =
        (count("cache_hits"), count("cache_misses"), count("rejected_overloaded"), count("admitted"));
    w::serve_stop(st)?;
    m.put("serve.hit_ms", median(&hit_ms), "ms");
    m.put("serve.miss_ms", median(&miss_ms), "ms");
    m.put("serve.service_ms", median(&service_ms), "ms");
    m.put("serve.overhead_ms", median(&overhead_ms), "ms");
    m.note("serve.cache_hit_ratio", format!("{hits} hits / {} lookups", hits + misses));
    m.note("serve.rejected", format!("{rejected} rejected of {} requests ({admitted} admitted)", admitted + rejected));
    m.put("serve.cache_hit_ratio", hits as f64 / (hits + misses).max(1) as f64, "ratio");
    m.put("serve.rejected", rejected as f64, "count");
    Ok((tally, ovh))
}

/// Ops the traced workload's group runs: each traced op also runs its
/// untraced twin (and for partitioning groups a no-refinement partition),
/// so a quarter of the op list keeps the run within `--seconds`.
fn primary_ops(spec: &Spec, seconds: u32) -> usize {
    let n = spec.ops(seconds) / 4;
    match spec.kind {
        Kind::ServeMixed => n.max(10).div_ceil(10) * 10,
        _ => n.max(spec.min_ops.min(5)),
    }
}

/// The share of op time no layer span covers: the self time of every
/// `op.*` root span over their total duration.
fn glue(s: &Spans, m: &mut Metrics) {
    let (mut own, mut total) = (0u64, 0u64);
    for (id, span) in s.spans.iter().enumerate().filter(|(_, sp)| sp.name.starts_with("op.")) {
        own += s.self_ns(id);
        total += span.dur_ns();
    }
    m.note("trace.glue_ratio", format!("{own} ns outside layer spans / {total} ns in op spans"));
    m.put("trace.glue_ratio", own as f64 / total.max(1) as f64, "ratio");
}

pub fn run(traced: Kind, tiny: bool, seed: u64, seconds: u32) -> Result<TraceOut, String> {
    let mut order = vec![traced];
    order.extend(Kind::ALL.into_iter().filter(|&k| k != traced));
    let (mut tally, mut m, mut s) = (Tally::default(), Metrics::default(), Spans::default());
    for kind in order {
        let spec = Spec::of(kind, tiny);
        let ops = if kind == traced {
            primary_ops(&spec, seconds)
        } else if kind == Kind::ServeMixed {
            w::SERVE_PATTERN.len()
        } else {
            SECONDARY_OPS
        };
        let (t, ovh) = match kind {
            Kind::SpmvPipeline => spmv_group(&spec, seed, ops, &mut s, &mut m)?,
            Kind::CgMany => cg_group(&spec, seed, ops, &mut s, &mut m)?,
            Kind::SpgemmAa => spgemm_group(&spec, seed, ops, &mut s, &mut m)?,
            Kind::ServeMixed => serve_group(&spec, seed, ops, &mut s, &mut m)?,
        };
        tally.merge(t);
        if kind == traced {
            m.note(
                "trace.overhead_ratio",
                format!("{:.3} s traced / {:.3} s untraced over {ops} ops", ovh.traced_s, ovh.untraced_s),
            );
            m.put("trace.overhead_ratio", ovh.traced_s / ovh.untraced_s, "ratio");
        }
    }
    glue(&s, &mut m);
    Ok(TraceOut { tally, metrics: m })
}
