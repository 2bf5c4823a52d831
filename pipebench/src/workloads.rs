//! The four workloads: their inputs, one op of each, and the untraced
//! closed-loop run that produces the end-to-end metrics.
//!
//! Each op within a workload is the same kind of op, varied only by the
//! seed its input was generated from, so the latency percentiles describe
//! one distribution rather than the boundaries between op kinds.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use fgh_core::{
    decompose_workload, CommStats, DecomposeConfig, DecompositionOutcome, Model, Workload,
    WorkloadOutcome,
};
use fgh_serve::{ServeClient, ServeConfig, Server, ServerHandle};
use fgh_sparse::{catalog, io, CsrMatrix};
use fgh_spmv::solver::{conjugate_gradient, SolveOutcome};
use fgh_spmv::DistributedSpmv;
use fgh_trace::json::Value;

use crate::stats::{median, min_samples_for, percentile, Tally};

/// CG stops at relative residual `||r|| <= TOL * ||b||`.
pub const CG_TOL: f64 = 1e-8;
/// A converged CG solution must match the manufactured one this closely
/// in every entry (max |x - x_true|).
pub const SOLUTION_BOUND: f64 = 1e-5;
/// SpGEMM numeric replay tolerance (relative, per C element).
pub const SPGEMM_REL_TOL: f64 = 1e-9;
/// Set-up (plus its warm-up op) repeats this often per run; `setup_s` is
/// the median, so one slow set-up does not move it.
pub const SETUP_REPS: usize = 5;
/// Seed of the warm-up input and of cg-many's matrix. It is the same in
/// every run, so set-up does the same work whatever `--seed` is.
pub const FIXED_SEED: u64 = 0x5eed_5eed;
/// Samples every full-size run puts above its `latency_p90_ms`.
pub const P90_BEYOND: usize = 10;
/// Times a run goes through its op list. An op's latency is its fastest
/// pass: on a VM shared with other tenants, cores slow by up to 70% for
/// seconds at a time, and passes several seconds apart rarely all land
/// in such a spell (see `METRICS.md`).
pub const PASSES: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    SpmvPipeline,
    CgMany,
    SpgemmAa,
    ServeMixed,
}

impl Kind {
    pub const ALL: [Kind; 4] = [Kind::SpmvPipeline, Kind::CgMany, Kind::SpgemmAa, Kind::ServeMixed];

    pub fn name(self) -> &'static str {
        match self {
            Kind::SpmvPipeline => "spmv-pipeline",
            Kind::CgMany => "cg-many",
            Kind::SpgemmAa => "spgemm-aa",
            Kind::ServeMixed => "serve-mixed",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }
}

/// A workload's fixed parameters.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub kind: Kind,
    /// Catalog matrix the inputs are generated from.
    pub matrix: &'static str,
    /// Catalog dimension divisor.
    pub scale: u32,
    /// Processor count K.
    pub k: u32,
    /// Most distinct generated inputs the ops cycle through (cg-many:
    /// right-hand sides; serve-mixed: matrices, one per miss).
    pub pool: usize,
    /// Nominal op cost on the reference host (2 CPUs); `--seconds` is
    /// turned into a fixed op count with it, so `wall_s` measures speed
    /// instead of echoing the run length.
    pub nominal_ms: f64,
    /// Fewest ops a run makes: enough for [`P90_BEYOND`] samples above
    /// the p90.
    pub min_ops: usize,
}

impl Spec {
    pub fn of(kind: Kind, tiny: bool) -> Spec {
        let (matrix, scale, k, nominal_ms, pool) = match kind {
            // One matrix per op: generated analogues differ in cost, and
            // a run's median over 32 of them still moved with the seed.
            Kind::SpmvPipeline => ("ken-11", 8, 64, 70.0, 100),
            Kind::CgMany => ("finan512", 4, 64, 55.0, 16),
            Kind::SpgemmAa => ("bcspwr10", 4, 16, 66.0, 100),
            // One matrix per miss: a pass of 100 requests makes 30 misses.
            Kind::ServeMixed => ("ken-11", 8, 64, 70.0, 32),
        };
        if tiny {
            // Smoke-test size: every code path and check, seconds total.
            let (scale, k) = match kind {
                Kind::SpgemmAa => (32, 4),
                _ => (64, 8),
            };
            return Spec {
                kind,
                matrix,
                scale,
                k,
                pool: 3,
                nominal_ms,
                min_ops: 10,
            };
        }
        Spec {
            kind,
            matrix,
            scale,
            k,
            pool,
            nominal_ms,
            min_ops: min_samples_for(0.9, P90_BEYOND),
        }
    }

    /// The fixed op list length for a run of `seconds` ([`PASSES`]
    /// passes over it).
    pub fn ops(&self, seconds: u32) -> usize {
        ((seconds as f64 * 1e3 / (self.nominal_ms * PASSES as f64)).ceil() as usize).max(self.min_ops)
    }

    /// The parameters recorded with every result.
    pub fn to_value(&self, seconds: u32) -> Value {
        let mut m = BTreeMap::new();
        m.insert("workload".into(), Value::Str(self.kind.name().into()));
        m.insert("matrix".into(), Value::Str(self.matrix.into()));
        m.insert("scale".into(), num(self.scale as f64));
        m.insert("k".into(), num(self.k as f64));
        m.insert("pool".into(), num(self.pool as f64));
        m.insert("ops".into(), num(self.ops(seconds) as f64));
        m.insert("passes".into(), num(PASSES as f64));
        m.insert("setup_reps".into(), num(SETUP_REPS as f64));
        m.insert("cg_tol".into(), num(CG_TOL));
        Value::Obj(m)
    }
}

pub fn num(x: f64) -> Value {
    Value::Num(x)
}

/// SplitMix64: derives independent per-input seeds from the run seed.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One generated input: the Matrix Market bytes the program parses, and
/// for the CG workloads a manufactured solution with its right-hand side.
pub struct MmInput {
    pub mm: Vec<u8>,
    pub x_true: Vec<f64>,
    pub b: Vec<f64>,
}

fn generate(spec: &Spec, gen_seed: u64) -> Result<CsrMatrix, String> {
    let entry =
        catalog::by_name(spec.matrix).ok_or_else(|| format!("unknown matrix {}", spec.matrix))?;
    Ok(entry.generate_scaled(spec.scale, gen_seed))
}

fn to_mm(a: &CsrMatrix) -> Result<Vec<u8>, String> {
    let mut mm = Vec::new();
    io::write_matrix_market_to(a, &mut mm).map_err(|e| e.to_string())?;
    Ok(mm)
}

/// A manufactured solution (entries in [-2, 2], seeded) and `b = A x`.
fn manufactured(a: &CsrMatrix, seed: u64) -> Result<(Vec<f64>, Vec<f64>), String> {
    let x: Vec<f64> = (0..a.nrows() as u64)
        .map(|i| (mix(seed ^ i.wrapping_mul(0x2545_f491_4f6c_dd1d)) % 17) as f64 / 4.0 - 2.0)
        .collect();
    let b = a.spmv(&x).map_err(|e| e.to_string())?;
    Ok((x, b))
}

/// One generated matrix of the workload's family as Matrix Market bytes,
/// with a manufactured system when `with_rhs`.
pub fn mm_input(spec: &Spec, gen_seed: u64, with_rhs: bool) -> Result<MmInput, String> {
    let a = generate(spec, gen_seed)?;
    let (x_true, b) = if with_rhs {
        manufactured(&a, mix(gen_seed))?
    } else {
        (Vec::new(), Vec::new())
    };
    Ok(MmInput {
        mm: to_mm(&a)?,
        x_true,
        b,
    })
}

/// The inputs `n` ops cycle through: `min(n, spec.pool)` matrices of the
/// workload's family, each from its own seed.
pub fn mm_pool(spec: &Spec, seed: u64, n: usize, with_rhs: bool) -> Result<Vec<MmInput>, String> {
    (0..n.clamp(1, spec.pool) as u64)
        .map(|slot| mm_input(spec, mix(seed ^ (slot << 32)), with_rhs))
        .collect()
}

pub fn parse_mm(mm: &[u8]) -> Result<CsrMatrix, String> {
    io::parse_matrix_market_bytes::<u32>(mm)
        .map(CsrMatrix::from_coo)
        .map_err(|e| format!("parse: {e}"))
}

pub fn spmv_config(spec: &Spec) -> DecomposeConfig {
    DecomposeConfig::new(Model::FineGrain2D, spec.k)
}

pub fn spgemm_config(spec: &Spec) -> DecomposeConfig {
    DecomposeConfig::new(Model::SpgemmFineGrain, spec.k)
}

pub fn decompose_spmv(a: &CsrMatrix, cfg: &DecomposeConfig) -> Result<DecompositionOutcome, String> {
    decompose_workload(Workload::Spmv(a), cfg)
        .and_then(WorkloadOutcome::into_spmv)
        .map_err(|e| format!("decompose: {e}"))
}

pub fn cg_iteration_cap(n: usize) -> usize {
    n.max(1000)
}

/// CG on a plan, plus the solution and comm-accounting checks.
pub fn solve_checked(plan: &DistributedSpmv, input: &MmInput, volume: u64) -> Result<SolveOutcome, String> {
    let sol = conjugate_gradient(plan, &input.b, CG_TOL, cg_iteration_cap(input.b.len()))
        .map_err(|e| format!("cg: {e}"))?;
    check_solution(&sol, input, volume)?;
    Ok(sol)
}

/// max |x − x_true| within [`SOLUTION_BOUND`], and the words CG moved
/// equal to the plan's volume per iteration.
pub fn check_solution(sol: &SolveOutcome, input: &MmInput, volume: u64) -> Result<(), String> {
    let err = sol
        .x
        .iter()
        .zip(&input.x_true)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max);
    if !(err <= SOLUTION_BOUND) {
        return Err(format!("max |x - x_true| = {err:e} > {SOLUTION_BOUND:e}"));
    }
    let want = volume * sol.iterations as u64;
    if sol.comm.total_words() != want {
        return Err(format!(
            "cg moved {} words, plan volume x iterations = {want}",
            sol.comm.total_words()
        ));
    }
    Ok(())
}

/// One spmv-pipeline op: parse -> decompose -> plan (+ cutsize replay
/// check) -> CG. Returns the partition objective.
pub fn spmv_pipeline_op(input: &MmInput, cfg: &DecomposeConfig) -> Result<u64, String> {
    let a = parse_mm(&input.mm)?;
    let out = decompose_spmv(&a, cfg)?;
    let plan = DistributedSpmv::build(&a, &out.decomposition).map_err(|e| format!("plan: {e}"))?;
    plan.validate_cutsize(out.objective)
        .map_err(|e| format!("cutsize replay: {e}"))?;
    solve_checked(&plan, input, out.objective)?;
    Ok(out.objective)
}

/// One spgemm-aa op: parse -> decompose A·A -> traffic replay ->
/// numeric check. Returns the partition objective.
pub fn spgemm_op(mm: &[u8], cfg: &DecomposeConfig) -> Result<u64, String> {
    let a = parse_mm(mm)?;
    let out = decompose_workload(Workload::Spgemm(&a, &a), cfg)
        .and_then(WorkloadOutcome::into_spgemm)
        .map_err(|e| format!("decompose: {e}"))?;
    let report = fgh_traffic::simulate(&a, &a, &out.decomposition)
        .map_err(|e| format!("simulate: {e:?}"))?;
    if report.total_remote() != out.objective {
        return Err(format!(
            "replayed remote words {} != objective {}",
            report.total_remote(),
            out.objective
        ));
    }
    fgh_traffic::verify_numeric(&a, &a, &out.decomposition, SPGEMM_REL_TOL)
        .map_err(|e| format!("verify_numeric: {e:?}"))?;
    Ok(out.objective)
}

/// cg-many's state: one matrix decomposed and planned once.
pub struct CgState {
    pub plan: DistributedSpmv,
    pub volume: u64,
}

/// cg-many's inputs: one matrix and the manufactured systems on it.
pub struct CgInputs {
    pub mm: Vec<u8>,
    pub systems: Vec<MmInput>,
}

/// The matrix is the same in every run, so its one-off decomposition (and
/// the plan every solve runs on) does not change with `--seed`; only the
/// right-hand sides do. Different finan512 analogues differ by ~15% in
/// solve time, which would drown what this workload measures.
pub fn cg_inputs(spec: &Spec, seed: u64, n: usize) -> Result<CgInputs, String> {
    let a = generate(spec, mix(FIXED_SEED))?;
    let systems = (0..n.clamp(1, spec.pool) as u64)
        .map(|slot| {
            let (x_true, b) = manufactured(&a, mix(seed ^ (slot << 32)))?;
            Ok(MmInput {
                mm: Vec::new(),
                x_true,
                b,
            })
        })
        .collect::<Result<_, String>>()?;
    Ok(CgInputs {
        mm: to_mm(&a)?,
        systems,
    })
}

pub fn cg_setup(mm: &[u8], cfg: &DecomposeConfig) -> Result<CgState, String> {
    let a = parse_mm(mm)?;
    let out = decompose_spmv(&a, cfg)?;
    let stats = CommStats::compute(&a, &out.decomposition).map_err(|e| e.to_string())?;
    if stats.total_volume() != out.objective {
        return Err(format!(
            "volume {} != objective {}",
            stats.total_volume(),
            out.objective
        ));
    }
    let plan = DistributedSpmv::build(&a, &out.decomposition).map_err(|e| format!("plan: {e}"))?;
    Ok(CgState {
        plan,
        volume: out.objective,
    })
}

/// The serve-mixed request pattern: of every ten requests, three send a
/// matrix/seed pair the daemon has not seen (a miss) and seven repeat the
/// latest miss (a hit). At a 70% hit share, p50 sits 20 points inside the
/// hits and p90 20 points inside the misses.
pub const SERVE_PATTERN: [bool; 10] = [false, true, true, false, true, true, true, false, true, true];

/// Misses among the first `n` requests of the pattern.
pub fn serve_misses(n: usize) -> usize {
    (0..n).filter(|&i| !SERVE_PATTERN[i % SERVE_PATTERN.len()]).count()
}

/// Which (input slot, partition seed) request `i` sends, and whether it is
/// designed to hit the plan cache. Each miss takes a fresh seed, so its
/// cache key is new; hits repeat the latest miss.
pub fn serve_key(i: usize, pool: usize, seed_base: u64) -> (usize, u64, bool) {
    let hit = SERVE_PATTERN[i % SERVE_PATTERN.len()];
    let miss_idx = serve_misses(i + 1) - 1;
    (miss_idx % pool, seed_base + miss_idx as u64, hit)
}

/// serve-mixed's inputs for `n` requests: one Matrix Market text per miss
/// (at most `spec.pool`), shipped inline.
pub fn serve_texts(spec: &Spec, seed: u64, n: usize) -> Result<Vec<String>, String> {
    mm_pool(spec, seed, serve_misses(n), false)?
        .into_iter()
        .map(|i| String::from_utf8(i.mm).map_err(|e| e.to_string()))
        .collect()
}

pub fn serve_request(mm_text: &str, k: u32, seed: u64) -> Value {
    let mut doc = BTreeMap::new();
    doc.insert("op".into(), Value::Str("decompose".into()));
    doc.insert("matrix_mm".into(), Value::Str(mm_text.into()));
    doc.insert("model".into(), Value::Str("fine-grain-2d".into()));
    doc.insert("k".into(), num(k as f64));
    doc.insert("seed".into(), num(seed as f64));
    Value::Obj(doc)
}

/// A running daemon with one client connection.
pub struct ServeState {
    handle: ServerHandle,
    pub client: ServeClient,
    /// objective/volume of every miss, keyed by partition seed, so each
    /// hit can be checked against the answer it must repeat.
    answers: BTreeMap<u64, (u64, u64)>,
}

pub fn serve_start() -> Result<ServeState, String> {
    let handle = Server::start(ServeConfig {
        workers: 1,
        queue_capacity: 4,
        cache_bytes: 256 << 20,
        ..ServeConfig::loopback()
    })
    .map_err(|e| format!("serve start: {e}"))?;
    let client = ServeClient::connect_tcp(handle.addr()).map_err(|e| format!("connect: {e}"))?;
    Ok(ServeState {
        handle,
        client,
        answers: BTreeMap::new(),
    })
}

/// Shuts the daemon down and waits for it; an unclean drain is a failure.
pub fn serve_stop(st: ServeState) -> Result<(), String> {
    drop(st.client);
    st.handle.shutdown();
    if st.handle.join().drain_clean {
        Ok(())
    } else {
        Err("daemon drain was not clean".into())
    }
}

/// What one serve request returned.
pub struct ServeReply {
    pub hit: bool,
    pub elapsed_ns: u64,
    pub volume: u64,
}

/// Sends one request and checks its response.
pub fn serve_op(st: &mut ServeState, req: &Value, seed: u64, want_hit: bool) -> Result<ServeReply, String> {
    let resp = st.client.request(req)?;
    check_serve_reply(st, &resp, seed, want_hit)
}

/// The response is `ok` with a full status, its cache outcome is the one
/// the pattern designed, and every hit repeats its miss's objective and
/// volume.
pub fn check_serve_reply(st: &mut ServeState, resp: &Value, seed: u64, want_hit: bool) -> Result<ServeReply, String> {
    if resp.get("ok") != Some(&Value::Bool(true)) {
        return Err(format!("response not ok: {}", resp.to_json()));
    }
    if resp.get("status").and_then(Value::as_str) != Some("full") {
        return Err(format!("status not full: {:?}", resp.get("status")));
    }
    let field = |k: &str| {
        resp.get(k)
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("response lacks {k}"))
    };
    let (objective, volume, elapsed_ns) = (field("objective")?, field("volume")?, field("elapsed_ns")?);
    let hit = resp.get("cache").and_then(Value::as_str) == Some("hit");
    if hit != want_hit {
        return Err(format!("cache hit = {hit}, the pattern designed {want_hit}"));
    }
    if objective != volume {
        return Err(format!("objective {objective} != volume {volume}"));
    }
    if hit {
        if st.answers.get(&seed) != Some(&(objective, volume)) {
            return Err(format!(
                "hit answered {:?}, its miss answered {:?}",
                (objective, volume),
                st.answers.get(&seed)
            ));
        }
    } else {
        st.answers.insert(seed, (objective, volume));
    }
    Ok(ServeReply {
        hit,
        elapsed_ns,
        volume,
    })
}

/// Peak resident set (VmHWM) of this process in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// An untraced run's results.
pub struct RunOut {
    pub tally: Tally,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Times `SETUP_REPS` set-ups (each including its warm-up op) and keeps
/// the last state; the earlier ones are torn down.
fn repeated_setup<S>(
    mut setup: impl FnMut() -> Result<S, String>,
    mut teardown: impl FnMut(S) -> Result<(), String>,
) -> Result<(S, Vec<f64>), String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        if let Some(s) = last.take() {
            teardown(s)?;
        }
        let t = Instant::now();
        last = Some(setup()?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((last.ok_or("no set-up ran")?, times))
}

/// Runs the op list [`PASSES`] times, closed-loop. `op(i, pass)` returns
/// its own latency in ms and its volume; every execution is checked and
/// counted. Returns each op's fastest latency and the volume of one pass.
fn passes(
    n: usize,
    what: &str,
    tally: &mut Tally,
    mut op: impl FnMut(usize, usize) -> (f64, Result<u64, String>),
) -> (Vec<f64>, u64) {
    let mut best = vec![f64::INFINITY; n];
    let mut volume = 0;
    for pass in 0..PASSES {
        for (i, b) in best.iter_mut().enumerate() {
            let (ms, r) = op(i, pass);
            *b = b.min(ms);
            let v = tally.record(r, what).unwrap_or(0);
            if pass == 0 {
                volume += v;
            }
        }
    }
    (best, volume)
}

fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t = Instant::now();
    let r = f();
    (ms(t.elapsed()), r)
}

/// The closed-loop untraced run: one client, the next op only after the
/// previous one completed.
pub fn run(spec: &Spec, seed: u64, seconds: u32) -> Result<RunOut, String> {
    let n = spec.ops(seconds);
    let mut tally = Tally::default();
    let setup_times;
    let (lat, volume) = match spec.kind {
        Kind::SpmvPipeline => {
            let inputs = mm_pool(spec, seed, n, true)?;
            let warm = mm_input(spec, FIXED_SEED, true)?;
            let cfg = spmv_config(spec);
            setup_times = repeated_setup(|| spmv_pipeline_op(&warm, &cfg), |_| Ok(()))?.1;
            passes(n, "spmv-pipeline op", &mut tally, |i, _| {
                timed(|| spmv_pipeline_op(&inputs[i % inputs.len()], &cfg))
            })
        }
        Kind::CgMany => {
            let inputs = cg_inputs(spec, seed, n)?;
            let cfg = spmv_config(spec);
            let (st, times) = repeated_setup(
                || {
                    let st = cg_setup(&inputs.mm, &cfg)?;
                    solve_checked(&st.plan, &inputs.systems[0], st.volume)?;
                    Ok(st)
                },
                |_| Ok(()),
            )?;
            setup_times = times;
            passes(n, "cg-many op", &mut tally, |i, _| {
                let (ms, r) = timed(|| solve_checked(&st.plan, &inputs.systems[i % inputs.systems.len()], st.volume));
                (ms, r.map(|s| s.comm.total_words()))
            })
        }
        Kind::SpgemmAa => {
            let inputs = mm_pool(spec, seed, n, false)?;
            let warm = mm_input(spec, FIXED_SEED, false)?;
            let cfg = spgemm_config(spec);
            setup_times = repeated_setup(|| spgemm_op(&warm.mm, &cfg), |_| Ok(()))?.1;
            passes(n, "spgemm-aa op", &mut tally, |i, _| {
                timed(|| spgemm_op(&inputs[i % inputs.len()].mm, &cfg))
            })
        }
        Kind::ServeMixed => {
            let inputs = serve_texts(spec, seed, n)?;
            let warm = String::from_utf8(mm_input(spec, FIXED_SEED, false)?.mm)
                .map_err(|e| e.to_string())?;
            // The warm-up op is one miss on a seed no timed op uses.
            let warm_seed = u64::MAX >> 12;
            let (mut st, times) = repeated_setup(
                || {
                    let mut st = serve_start()?;
                    serve_op(&mut st, &serve_request(&warm, spec.k, warm_seed), warm_seed, false)?;
                    Ok(st)
                },
                serve_stop,
            )?;
            setup_times = times;
            let out = passes(n, "serve-mixed op", &mut tally, |i, pass| {
                // Each pass takes fresh partition seeds, so its misses miss
                // the cache again.
                let (slot, pseed, want_hit) = serve_key(i, inputs.len(), 1 + ((pass as u64) << 32));
                // Building the request (a copy of the text) is the client's
                // work, not the daemon's; only the round trip is timed.
                let req = serve_request(&inputs[slot], spec.k, pseed);
                let (ms, r) = timed(|| st.client.request(&req));
                let r = r.and_then(|resp| check_serve_reply(&mut st, &resp, pseed, want_hit));
                (ms, r.map(|r| r.volume))
            });
            serve_stop(st)?;
            out
        }
    };
    let metrics = vec![
        ("setup_s", median(&setup_times), "s"),
        ("wall_s", lat.iter().sum::<f64>() / 1e3, "s"),
        ("latency_p50_ms", percentile(&lat, 0.5), "ms"),
        ("latency_p90_ms", percentile(&lat, 0.9), "ms"),
        ("peak_rss_mb", peak_rss_mb(), "MB"),
        ("volume_words", volume as f64, "words"),
        ("ok_ratio", tally.ok_ratio(), "ratio"),
    ];
    Ok(RunOut { tally, metrics })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::samples_beyond;

    #[test]
    fn full_size_runs_put_ten_samples_above_the_p90() {
        for kind in Kind::ALL {
            let spec = Spec::of(kind, false);
            for seconds in [1, 5, 20, 60] {
                let n = spec.ops(seconds);
                assert!(samples_beyond(n, 0.9) >= P90_BEYOND, "{} at {seconds} s: {n} ops", kind.name());
            }
        }
    }
}
