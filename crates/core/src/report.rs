//! Machine-readable metrics reports: the **`fgh-metrics/1`** JSON
//! document.
//!
//! One decomposition run → one self-describing JSON object carrying the
//! request, the exact communication statistics, the engine counters, and
//! (when tracing was on) the full span tree. The CLI's `--metrics-json`
//! flag writes exactly this document; [`validate_metrics_value`] is the
//! schema checker the golden tests and downstream tooling share.
//!
//! # Schema `fgh-metrics/1`
//!
//! ```json
//! {
//!   "schema": "fgh-metrics/1",
//!   "model": "fine-grain-2d",
//!   "k": 4, "epsilon": 0.03, "seed": 1, "runs": 1,
//!   "matrix": {"nrows": 256, "ncols": 256, "nnz": 1216, "index_bits": 32},
//!   "status": "full",
//!   "degraded_reason": null,
//!   "degraded_code": null,
//!   "objective": 104,
//!   "elapsed_ns": 5123456,
//!   "comm": {
//!     "total_volume": 104, "expand_volume": 60, "fold_volume": 44,
//!     "expand_messages": 9, "fold_messages": 7, "total_messages": 16,
//!     "max_messages_per_proc": 5, "max_sent_recv_words": 61,
//!     "load_imbalance_percent": 1.97
//!   },
//!   "engine": {
//!     "bisections": 3, "levels": 9, "contracted_incidences": 3120,
//!     "fm_passes": 40, "fm_moves": 512, "fm_rollbacks": 80,
//!     "wall_truncations": 0, "level_truncations": 0,
//!     "fm_truncations": 0, "byte_truncations": 0,
//!     "cancel_truncations": 0, "parallel_forks": 0,
//!     "phase_ns": {"coarsen": 2100345, "initial": 400123, "refine": 1800456}
//!   },
//!   "trace": [ …fgh-trace/1 span objects… ]
//! }
//! ```
//!
//! Every member above is required. `degraded_reason` (human-readable
//! text) and `degraded_code` (one of the stable
//! [`crate::status::DegradedReason::CODES`]) are strings when `status`
//! is `"degraded"` and `null` otherwise; `trace` is either `null` or a
//! span forest in the `fgh-trace/1` format
//! ([`fgh_trace::Trace::to_value`], validated by
//! [`fgh_trace::validate_trace_value`]). All integer members are
//! non-negative and f64-exact. `engine.phase_ns` breaks the partitioner
//! wall time down by multilevel phase; the three counters are `0` only
//! when a phase genuinely did not run.
//!
//! # Workload members
//!
//! Since the workload-generic API, every document also carries:
//!
//! * `workload` — `"spmv"` or `"spgemm"`.
//! * `matrix_b` — the second operand of a SpGEMM workload (same member
//!   set as `matrix`); `null` for SpMV documents.
//! * `flops` — multiply-task count of the SpGEMM product; `null` for
//!   SpMV documents.
//! * `traffic` — simulated storage-traffic counters from `fgh-traffic`
//!   when the caller ran the simulator, else `null`:
//!   `{"a": {"dram_reads", "remote_reads"}, "b": {...},
//!   "c": {"dram_writes", "remote_writes"}, "total_remote"}`.
//!
//! For SpGEMM documents, `comm.expand_volume` is the A- plus B-expand
//! volume and `comm.fold_volume` the C-fold volume, so the shared member
//! set keeps meaning across workloads.

use std::collections::BTreeMap;

use fgh_partition::EngineStats;
use fgh_sparse::{CsrMatrix, IndexType, IndexWidth};
use fgh_trace::json::Value;
use fgh_trace::validate_trace_value;

use crate::api::{DecomposeConfig, DecompositionOutcome, Outcome, WorkloadKind};
use crate::metrics::CommSummary;
use crate::workload::SpgemmOutcome;

/// The schema identifier stamped into every document.
pub const METRICS_SCHEMA: &str = "fgh-metrics/1";

fn num(n: u64) -> Value {
    // Counters are far below 2^53, so u64→f64 is exact there and merely
    // rounds beyond (the read side validates with `as_u64`).
    Value::Num(n as f64)
}

fn matrix_obj(nrows: u64, ncols: u64, nnz: u64, width: IndexWidth) -> Value {
    let mut matrix = BTreeMap::new();
    matrix.insert("nrows".into(), num(nrows));
    matrix.insert("ncols".into(), num(ncols));
    matrix.insert("nnz".into(), num(nnz));
    matrix.insert("index_bits".into(), num(width.bits() as u64));
    Value::Obj(matrix)
}

fn engine_obj(e: &EngineStats) -> Value {
    let mut engine = BTreeMap::new();
    engine.insert("bisections".into(), num(e.bisections));
    engine.insert("levels".into(), num(e.levels));
    engine.insert("contracted_incidences".into(), num(e.contracted_incidences));
    engine.insert("fm_passes".into(), num(e.fm_passes));
    engine.insert("fm_moves".into(), num(e.fm_moves));
    engine.insert("fm_rollbacks".into(), num(e.fm_rollbacks));
    engine.insert("wall_truncations".into(), num(e.wall_truncations));
    engine.insert("level_truncations".into(), num(e.level_truncations));
    engine.insert("fm_truncations".into(), num(e.fm_truncations));
    engine.insert("byte_truncations".into(), num(e.byte_truncations));
    engine.insert("cancel_truncations".into(), num(e.cancel_truncations));
    engine.insert("parallel_forks".into(), num(e.parallel_forks));
    let mut phase_ns = BTreeMap::new();
    phase_ns.insert("coarsen".into(), num(e.coarsen_nanos));
    phase_ns.insert("initial".into(), num(e.initial_nanos));
    phase_ns.insert("refine".into(), num(e.refine_nanos));
    engine.insert("phase_ns".into(), Value::Obj(phase_ns));
    Value::Obj(engine)
}

fn trace_obj(trace: Option<&fgh_trace::Trace>) -> Value {
    trace.map_or(Value::Null, fgh_trace::Trace::to_value)
}

/// The members both workloads' documents share, read from the request
/// and the outcome — the nine `comm` members included. The caller adds
/// `matrix`, `matrix_b`, `flops`, and `traffic`.
fn document<D, S: CommSummary>(
    cfg: &DecomposeConfig,
    workload: WorkloadKind,
    out: &Outcome<D, S>,
) -> BTreeMap<String, Value> {
    let s = &out.stats;
    let [expand_volume, fold_volume] = s.volumes();
    let [expand_messages, fold_messages] = s.messages();
    let mut comm = BTreeMap::new();
    comm.insert("total_volume".into(), num(s.total_volume()));
    comm.insert("expand_volume".into(), num(expand_volume));
    comm.insert("fold_volume".into(), num(fold_volume));
    comm.insert("expand_messages".into(), num(expand_messages));
    comm.insert("fold_messages".into(), num(fold_messages));
    comm.insert("total_messages".into(), num(s.total_messages()));
    comm.insert(
        "max_messages_per_proc".into(),
        num(s.max_messages_per_proc()),
    );
    comm.insert("max_sent_recv_words".into(), num(s.max_sent_recv_words()));
    comm.insert(
        "load_imbalance_percent".into(),
        Value::Num(s.load_imbalance_percent()),
    );

    let status = &out.status;
    let mut doc = BTreeMap::new();
    doc.insert("schema".into(), Value::Str(METRICS_SCHEMA.into()));
    doc.insert("model".into(), Value::Str(cfg.model.name().into()));
    doc.insert("workload".into(), Value::Str(workload.name().into()));
    doc.insert("k".into(), num(cfg.k as u64));
    doc.insert("epsilon".into(), Value::Num(cfg.epsilon));
    doc.insert("seed".into(), num(cfg.seed));
    doc.insert("runs".into(), num(cfg.runs as u64));
    doc.insert(
        "status".into(),
        Value::Str(
            if status.is_degraded() {
                "degraded"
            } else {
                "full"
            }
            .into(),
        ),
    );
    doc.insert(
        "degraded_reason".into(),
        match status.reason() {
            Some(r) => Value::Str(r.to_string()),
            None => Value::Null,
        },
    );
    doc.insert(
        "degraded_code".into(),
        match status.code() {
            Some(c) => Value::Str(c.into()),
            None => Value::Null,
        },
    );
    doc.insert("objective".into(), num(out.objective));
    let elapsed_ns = out.elapsed.as_nanos().min(u64::MAX as u128) as u64;
    doc.insert("elapsed_ns".into(), num(elapsed_ns));
    doc.insert("comm".into(), Value::Obj(comm));
    doc.insert("engine".into(), engine_obj(&out.engine));
    doc.insert("trace".into(), trace_obj(out.trace.as_ref()));
    doc
}

/// Assembles the `fgh-metrics/1` document for one SpMV decomposition
/// run. The square matrix's order and nonzero count come from the
/// outcome's decomposition.
pub fn metrics_document(cfg: &DecomposeConfig, out: &DecompositionOutcome) -> Value {
    let mut doc = document(cfg, WorkloadKind::Spmv, out);
    let d = &out.decomposition;
    let nnz = d.nonzero_owner.len() as u64;
    doc.insert("matrix".into(), matrix_obj(d.n, d.n, nnz, out.width));
    for member in ["matrix_b", "flops", "traffic"] {
        doc.insert(member.into(), Value::Null);
    }
    Value::Obj(doc)
}

/// [`metrics_document`] serialized to a compact JSON string (what the
/// CLI writes for `--metrics-json`).
pub fn metrics_json(cfg: &DecomposeConfig, out: &DecompositionOutcome) -> String {
    metrics_document(cfg, out).to_json()
}

/// Assembles the `fgh-metrics/1` document for one SpGEMM decomposition
/// run. `a`/`b` must be the operands the outcome was computed from;
/// `traffic` is the simulator's counter object (see the module docs for
/// its member set) when the caller ran `fgh-traffic`, else `None`.
pub fn spgemm_metrics_document<I: IndexType>(
    a: &CsrMatrix<I>,
    b: &CsrMatrix<I>,
    cfg: &DecomposeConfig,
    out: &SpgemmOutcome,
    traffic: Option<&Value>,
) -> Value {
    let mut doc = document(cfg, WorkloadKind::Spgemm, out);
    let operand = |m: &CsrMatrix<I>| {
        matrix_obj(
            m.nrows().as_u64(),
            m.ncols().as_u64(),
            m.nnz() as u64,
            out.width,
        )
    };
    doc.insert("matrix".into(), operand(a));
    doc.insert("matrix_b".into(), operand(b));
    doc.insert("flops".into(), num(out.flops()));
    doc.insert("traffic".into(), traffic.cloned().unwrap_or(Value::Null));
    Value::Obj(doc)
}

/// [`spgemm_metrics_document`] serialized to a compact JSON string.
pub fn spgemm_metrics_json<I: IndexType>(
    a: &CsrMatrix<I>,
    b: &CsrMatrix<I>,
    cfg: &DecomposeConfig,
    out: &SpgemmOutcome,
    traffic: Option<&Value>,
) -> String {
    spgemm_metrics_document(a, b, cfg, out, traffic).to_json()
}

const TOP_MEMBERS: [&str; 18] = [
    "schema",
    "model",
    "workload",
    "k",
    "epsilon",
    "seed",
    "runs",
    "matrix",
    "matrix_b",
    "flops",
    "status",
    "degraded_reason",
    "degraded_code",
    "objective",
    "elapsed_ns",
    "comm",
    "traffic",
    "engine",
];

const MATRIX_MEMBERS: [&str; 4] = ["nrows", "ncols", "nnz", "index_bits"];

const COMM_MEMBERS: [&str; 9] = [
    "total_volume",
    "expand_volume",
    "fold_volume",
    "expand_messages",
    "fold_messages",
    "total_messages",
    "max_messages_per_proc",
    "max_sent_recv_words",
    "load_imbalance_percent",
];

const ENGINE_MEMBERS: [&str; 12] = [
    "bisections",
    "levels",
    "contracted_incidences",
    "fm_passes",
    "fm_moves",
    "fm_rollbacks",
    "wall_truncations",
    "level_truncations",
    "fm_truncations",
    "byte_truncations",
    "cancel_truncations",
    "parallel_forks",
];

const ENGINE_PHASE_MEMBERS: [&str; 3] = ["coarsen", "initial", "refine"];

const TRAFFIC_READ_MEMBERS: [&str; 2] = ["dram_reads", "remote_reads"];
const TRAFFIC_WRITE_MEMBERS: [&str; 2] = ["dram_writes", "remote_writes"];
const TRAFFIC_TOTAL_MEMBERS: [&str; 1] = ["total_remote"];

fn require_counters(
    v: &Value,
    members: &[&str],
    path: &str,
    float_ok: &[&str],
    nested: &[(&str, &[&str])],
) -> Result<(), String> {
    let obj = v.as_obj().ok_or(format!("{path}: expected an object"))?;
    for key in obj.keys() {
        if !members.contains(&key.as_str()) && !nested.iter().any(|(n, _)| n == key) {
            return Err(format!("{path}: unknown member {key:?}"));
        }
    }
    for m in members {
        let val = obj.get(*m).ok_or(format!("{path}.{m}: missing"))?;
        if float_ok.contains(m) {
            val.as_f64()
                .ok_or(format!("{path}.{m}: expected a number"))?;
        } else {
            val.as_u64()
                .ok_or(format!("{path}.{m}: expected a non-negative integer"))?;
        }
    }
    for (m, sub) in nested {
        let val = obj.get(*m).ok_or(format!("{path}.{m}: missing"))?;
        require_counters(val, sub, &format!("{path}.{m}"), &[], &[])?;
    }
    Ok(())
}

/// Validates a parsed JSON value against the `fgh-metrics/1` schema.
/// Checks the exact member sets of the top-level object and its `matrix`
/// / `comm` / `engine` sub-objects, the type of every member, the
/// `status` / `degraded_reason` coupling, and — when `trace` is not null
/// — the embedded `fgh-trace/1` span forest. Returns the first violation
/// as a `path: problem` message.
pub fn validate_metrics_value(v: &Value) -> Result<(), String> {
    let obj = v
        .as_obj()
        .ok_or("metrics: expected an object".to_string())?;
    for key in obj.keys() {
        if !TOP_MEMBERS.contains(&key.as_str()) && key != "trace" {
            return Err(format!("metrics: unknown member {key:?}"));
        }
    }
    match v.get("schema").and_then(|s| s.as_str()) {
        Some(s) if s == METRICS_SCHEMA => {}
        Some(s) => return Err(format!("metrics.schema: unknown schema {s:?}")),
        None => return Err("metrics.schema: missing".to_string()),
    }
    v.get("model")
        .and_then(|m| m.as_str())
        .ok_or("metrics.model: expected a string")?;
    for m in ["k", "seed", "runs", "objective", "elapsed_ns"] {
        v.get(m)
            .and_then(|n| n.as_u64())
            .ok_or(format!("metrics.{m}: expected a non-negative integer"))?;
    }
    v.get("epsilon")
        .and_then(|n| n.as_f64())
        .ok_or("metrics.epsilon: expected a number")?;
    require_counters(
        v.get("matrix").unwrap_or(&Value::Null),
        &MATRIX_MEMBERS,
        "metrics.matrix",
        &[],
        &[],
    )?;
    let workload = v
        .get("workload")
        .and_then(|w| w.as_str())
        .ok_or("metrics.workload: expected a string")?;
    let matrix_b = v.get("matrix_b").ok_or("metrics.matrix_b: missing")?;
    let flops = v.get("flops").ok_or("metrics.flops: missing")?;
    match workload {
        "spmv" => {
            if !matrix_b.is_null() {
                return Err("metrics.matrix_b: must be null for an spmv workload".to_string());
            }
            if !flops.is_null() {
                return Err("metrics.flops: must be null for an spmv workload".to_string());
            }
        }
        "spgemm" => {
            require_counters(matrix_b, &MATRIX_MEMBERS, "metrics.matrix_b", &[], &[])?;
            flops
                .as_u64()
                .ok_or("metrics.flops: expected a non-negative integer")?;
        }
        other => return Err(format!("metrics.workload: unknown workload {other:?}")),
    }
    match v.get("traffic") {
        Some(t) if t.is_null() => {}
        Some(t) => {
            if workload != "spgemm" {
                return Err("metrics.traffic: only spgemm workloads carry traffic".to_string());
            }
            require_counters(
                t,
                &TRAFFIC_TOTAL_MEMBERS,
                "metrics.traffic",
                &[],
                &[
                    ("a", &TRAFFIC_READ_MEMBERS),
                    ("b", &TRAFFIC_READ_MEMBERS),
                    ("c", &TRAFFIC_WRITE_MEMBERS),
                ],
            )?;
        }
        None => return Err("metrics.traffic: missing".to_string()),
    }
    require_counters(
        v.get("comm").unwrap_or(&Value::Null),
        &COMM_MEMBERS,
        "metrics.comm",
        &["load_imbalance_percent"],
        &[],
    )?;
    require_counters(
        v.get("engine").unwrap_or(&Value::Null),
        &ENGINE_MEMBERS,
        "metrics.engine",
        &[],
        &[("phase_ns", &ENGINE_PHASE_MEMBERS)],
    )?;
    let status = v
        .get("status")
        .and_then(|s| s.as_str())
        .ok_or("metrics.status: expected a string")?;
    let reason = v
        .get("degraded_reason")
        .ok_or("metrics.degraded_reason: missing")?;
    let code = v
        .get("degraded_code")
        .ok_or("metrics.degraded_code: missing")?;
    match status {
        "full" if reason.is_null() => {}
        "full" => return Err("metrics.degraded_reason: must be null when full".to_string()),
        "degraded" if reason.as_str().is_some() => {}
        "degraded" => {
            return Err("metrics.degraded_reason: must be a string when degraded".to_string())
        }
        other => return Err(format!("metrics.status: unknown status {other:?}")),
    }
    match (status, code.as_str()) {
        ("full", _) if code.is_null() => {}
        ("full", _) => return Err("metrics.degraded_code: must be null when full".to_string()),
        ("degraded", Some(c)) if crate::status::DegradedReason::CODES.contains(&c) => {}
        ("degraded", Some(c)) => return Err(format!("metrics.degraded_code: unknown code {c:?}")),
        ("degraded", None) => {
            return Err("metrics.degraded_code: must be a string when degraded".to_string())
        }
        _ => {}
    }
    match v.get("trace") {
        Some(t) if t.is_null() => Ok(()),
        Some(t) => validate_trace_value(t),
        None => Err("metrics.trace: missing".to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{DecomposeIndex, Model};
    use crate::workload::{decompose_workload, Workload, WorkloadOutcome};
    use fgh_sparse::gen::{self, ValueMode};
    use fgh_trace::json::parse;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn decompose<I: DecomposeIndex>(
        a: &CsrMatrix<I>,
        cfg: &DecomposeConfig,
    ) -> std::result::Result<crate::api::DecompositionOutcome, crate::FghError> {
        decompose_workload(Workload::Spmv(a), cfg).and_then(WorkloadOutcome::into_spmv)
    }

    fn matrix() -> CsrMatrix {
        gen::grid5(
            12,
            12,
            1.0,
            ValueMode::Ones,
            &mut SmallRng::seed_from_u64(3),
        )
    }

    #[test]
    fn document_round_trips_and_validates() {
        let a = matrix();
        let cfg = DecomposeConfig::new(Model::FineGrain2D, 4).with_trace(true);
        let out = decompose(&a, &cfg).unwrap();
        let text = metrics_json(&cfg, &out);
        let v = parse(&text).unwrap();
        validate_metrics_value(&v).unwrap();
        assert_eq!(v.get("model").unwrap().as_str(), Some("fine-grain-2d"));
        assert_eq!(v.get("k").unwrap().as_u64(), Some(4));
        assert_eq!(
            v.get("comm").unwrap().get("total_volume").unwrap().as_u64(),
            Some(out.stats.total_volume())
        );
        assert!(!v.get("trace").unwrap().is_null(), "trace was requested");
        // The engine always times its phases, so the phase breakdown
        // must be populated, not all-zero.
        let phase = v.get("engine").unwrap().get("phase_ns").unwrap();
        let total: u64 = ["coarsen", "initial", "refine"]
            .iter()
            .map(|p| phase.get(p).unwrap().as_u64().unwrap())
            .sum();
        assert!(total > 0, "phase_ns all zero");
    }

    #[test]
    fn untraced_document_has_null_trace() {
        let a = matrix();
        let cfg = DecomposeConfig::new(Model::Graph1D, 2);
        let out = decompose(&a, &cfg).unwrap();
        let v = parse(&metrics_json(&cfg, &out)).unwrap();
        validate_metrics_value(&v).unwrap();
        assert!(v.get("trace").unwrap().is_null());
    }

    #[test]
    fn validator_rejects_mutations() {
        let a = matrix();
        let cfg = DecomposeConfig::new(Model::FineGrain2D, 2).with_trace(true);
        let out = decompose(&a, &cfg).unwrap();
        let good = metrics_json(&cfg, &out);
        for (needle, replacement, why) in [
            (
                r#""schema":"fgh-metrics/1""#,
                r#""schema":"bogus/9""#,
                "schema",
            ),
            (r#""status":"full""#, r#""status":"great""#, "status"),
            (r#""k":2"#, r#""k":-2"#, "negative k"),
            (r#""fm_moves""#, r#""fm_movez""#, "engine member"),
            (r#""phase_ns""#, r#""phase_nz""#, "phase_ns member"),
            (r#""coarsen""#, r#""coarsed""#, "phase name"),
            (r#""workload":"spmv""#, r#""workload":"sgemv""#, "workload"),
            (
                r#""matrix_b":null"#,
                r#""matrix_b":7"#,
                "spmv matrix_b coupling",
            ),
            (r#""flops":null"#, r#""flops":3"#, "spmv flops coupling"),
            (
                r#""traffic":null"#,
                r#""traffic":{}"#,
                "spmv traffic coupling",
            ),
        ] {
            let bad = good.replace(needle, replacement);
            assert_ne!(good, bad, "mutation {why} did not apply");
            let v = parse(&bad).unwrap();
            assert!(validate_metrics_value(&v).is_err(), "accepted bad {why}");
        }
    }

    fn traffic_fixture() -> Value {
        let side = |r: u64, w: u64, reads: bool| {
            let mut m = BTreeMap::new();
            if reads {
                m.insert("dram_reads".into(), super::num(r));
                m.insert("remote_reads".into(), super::num(w));
            } else {
                m.insert("dram_writes".into(), super::num(r));
                m.insert("remote_writes".into(), super::num(w));
            }
            Value::Obj(m)
        };
        let mut t = BTreeMap::new();
        t.insert("a".into(), side(10, 3, true));
        t.insert("b".into(), side(8, 2, true));
        t.insert("c".into(), side(12, 4, false));
        t.insert("total_remote".into(), super::num(9));
        Value::Obj(t)
    }

    #[test]
    fn spgemm_document_round_trips_and_validates() {
        let a = matrix();
        let cfg = DecomposeConfig::new(Model::SpgemmFineGrain, 4).with_trace(true);
        let out = decompose_workload(Workload::Spgemm(&a, &a), &cfg)
            .unwrap()
            .into_spgemm()
            .unwrap();
        let traffic = traffic_fixture();
        let text = spgemm_metrics_json(&a, &a, &cfg, &out, Some(&traffic));
        let v = parse(&text).unwrap();
        validate_metrics_value(&v).unwrap();
        assert_eq!(v.get("workload").unwrap().as_str(), Some("spgemm"));
        assert_eq!(v.get("model").unwrap().as_str(), Some("spgemm-fine-grain"));
        assert_eq!(v.get("flops").unwrap().as_u64(), Some(out.flops()));
        assert_eq!(
            v.get("matrix_b").unwrap().get("nnz").unwrap().as_u64(),
            Some(a.nnz() as u64)
        );
        assert_eq!(
            v.get("comm").unwrap().get("total_volume").unwrap().as_u64(),
            Some(out.stats.total_volume())
        );
        assert_eq!(
            v.get("traffic")
                .unwrap()
                .get("total_remote")
                .unwrap()
                .as_u64(),
            Some(9)
        );
        assert!(!v.get("trace").unwrap().is_null());

        // Without the simulator the member is null and still validates.
        let v = parse(&spgemm_metrics_json(&a, &a, &cfg, &out, None)).unwrap();
        validate_metrics_value(&v).unwrap();
        assert!(v.get("traffic").unwrap().is_null());
    }

    #[test]
    fn spgemm_validator_rejects_traffic_mutations() {
        let a = matrix();
        let cfg = DecomposeConfig::new(Model::SpgemmFineGrain, 2);
        let out = decompose_workload(Workload::Spgemm(&a, &a), &cfg)
            .unwrap()
            .into_spgemm()
            .unwrap();
        let traffic = traffic_fixture();
        let good = spgemm_metrics_json(&a, &a, &cfg, &out, Some(&traffic));
        parse(&good)
            .ok()
            .map(|v| validate_metrics_value(&v).unwrap())
            .unwrap();
        for (needle, replacement, why) in [
            (r#""total_remote""#, r#""total_remorse""#, "traffic member"),
            (r#""dram_reads""#, r#""dram_reeds""#, "traffic a/b member"),
            (r#""dram_writes""#, r#""dram_rites""#, "traffic c member"),
            (
                r#""workload":"spgemm""#,
                r#""workload":"spmv""#,
                "workload/matrix_b coupling",
            ),
        ] {
            let bad = good.replace(needle, replacement);
            assert_ne!(good, bad, "mutation {why} did not apply");
            let v = parse(&bad).unwrap();
            assert!(validate_metrics_value(&v).is_err(), "accepted bad {why}");
        }
    }
}
