//! A protocol client and the load generator the daemon's resilience is
//! proved against.
//!
//! [`ServeClient`] is the honest client: one frame out, one frame in.
//! [`run_load`] is the hostile one — a deterministic concurrent mix of
//! real decomposition jobs, malformed frames, invalid requests, injected
//! worker panics, and mid-request disconnects, validating every response
//! against the protocol contract (`ok:true` with a full/degraded status,
//! or `ok:false` with a code from [`codes::ALL`]). The daemon passes when
//! every byte it sent back was typed and nothing crashed.

use std::collections::{BTreeMap, BTreeSet};
use std::io::Write;
use std::time::Duration;

use fgh_core::validate_metrics_value;
use fgh_trace::json::Value;

use crate::net::Stream;
use crate::protocol::{codes, read_frame, write_frame, Conn, FrameError};

/// A blocking request/response client for the serve protocol. Its
/// frame buffers live as long as the client.
pub struct ServeClient {
    conn: Conn<Stream>,
}

impl ServeClient {
    /// Connects over TCP (`host:port`).
    pub fn connect_tcp(addr: &str) -> std::io::Result<ServeClient> {
        Self::wrap(Stream::connect_tcp(addr)?)
    }

    /// Connects over a unix-domain socket.
    #[cfg(unix)]
    pub fn connect_unix(path: &std::path::Path) -> std::io::Result<ServeClient> {
        Self::wrap(Stream::connect_unix(path)?)
    }

    fn wrap(stream: Stream) -> std::io::Result<ServeClient> {
        // Decompositions take seconds at most under test budgets; the
        // timeout only bounds a daemon that went silent.
        stream.set_read_timeout(Some(Duration::from_millis(250)))?;
        Ok(ServeClient {
            conn: Conn::new(stream),
        })
    }

    /// Sends one request frame and blocks (up to ~2 minutes) for the
    /// response frame.
    pub fn request(&mut self, v: &Value) -> Result<Value, String> {
        write_frame(&mut self.conn, v).map_err(|e| format!("write: {e}"))?;
        self.read_response()
    }

    /// Blocks for the next response frame (the half of [`request`] used
    /// after a raw send).
    ///
    /// [`request`]: ServeClient::request
    pub fn read_response(&mut self) -> Result<Value, String> {
        let mut idle = 0u32;
        loop {
            match read_frame(&mut self.conn) {
                Ok(v) => return Ok(v),
                Err(FrameError::Idle) => {
                    idle += 1;
                    // ~2 minutes of 250ms idle polls: the job is allowed
                    // to be slow, a silent daemon is not.
                    if idle > 480 {
                        return Err("timed out waiting for a response frame".into());
                    }
                }
                Err(e) => return Err(format!("read: {e}")),
            }
        }
    }

    /// Writes raw bytes onto the connection — the malformed-frame
    /// injection path.
    pub fn send_raw(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.conn.stream.write_all(bytes)?;
        self.conn.stream.flush()
    }

    /// `{"op":"ping"}`.
    pub fn ping(&mut self) -> Result<Value, String> {
        self.request(&op("ping"))
    }

    /// `{"op":"stats"}` — live counters.
    pub fn stats(&mut self) -> Result<Value, String> {
        self.request(&op("stats"))
    }
}

fn op(name: &str) -> Value {
    let mut doc = BTreeMap::new();
    doc.insert("op".into(), Value::Str(name.into()));
    Value::Obj(doc)
}

/// Builds a catalog decompose request value.
pub fn decompose_request(matrix: &str, scale: u32, k: u32, seed: u64) -> Value {
    let mut doc = BTreeMap::new();
    doc.insert("op".into(), Value::Str("decompose".into()));
    doc.insert("matrix".into(), Value::Str(matrix.into()));
    doc.insert("scale".into(), Value::Num(scale as f64));
    doc.insert("k".into(), Value::Num(k as f64));
    doc.insert("seed".into(), Value::Num(seed as f64));
    Value::Obj(doc)
}

/// Builds a catalog SpGEMM decompose body (`B = A`, the `A·A` product).
pub fn spgemm_request(matrix: &str, scale: u32, k: u32, seed: u64) -> Value {
    let mut v = decompose_request(matrix, scale, k, seed);
    if let Value::Obj(doc) = &mut v {
        doc.insert("workload".into(), Value::Str("spgemm".into()));
    }
    v
}

/// Wraps decompose bodies into one `{"op":"batch"}` frame.
pub fn batch_request(bodies: Vec<Value>) -> Value {
    let mut doc = BTreeMap::new();
    doc.insert("op".into(), Value::Str("batch".into()));
    doc.insert("requests".into(), Value::Arr(bodies));
    Value::Obj(doc)
}

/// Load-generator parameters.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Total jobs to issue.
    pub jobs: usize,
    /// Client threads issuing them.
    pub concurrency: usize,
    /// Mix in hostile traffic (malformed frames, disconnects, injected
    /// panics, bad requests). Requires the daemon to run with fault
    /// injection enabled for the panic/stall directives to bite.
    pub inject: bool,
    /// Catalog matrix the honest jobs decompose.
    pub matrix: String,
    /// Catalog scale divisor (larger = smaller matrix = faster jobs).
    pub scale: u32,
}

impl LoadConfig {
    /// A hostile load of `jobs` across `concurrency` client threads.
    pub fn new(jobs: usize, concurrency: usize) -> Self {
        LoadConfig {
            jobs,
            concurrency: concurrency.max(1),
            inject: true,
            matrix: "bcspwr10".into(),
            scale: 64,
        }
    }
}

/// What the load run observed, merged across client threads.
#[derive(Debug, Clone, Default)]
pub struct LoadReport {
    /// Jobs issued.
    pub jobs: u64,
    /// `ok:true` with `status:"full"`.
    pub ok_full: u64,
    /// `ok:true` with `status:"degraded"`.
    pub ok_degraded: u64,
    /// `ok:false` responses by stable error code.
    pub typed_errors: BTreeMap<String, u64>,
    /// Malformed frames deliberately sent.
    pub malformed_sent: u64,
    /// Connections deliberately dropped mid-request.
    pub disconnects_sent: u64,
    /// Jobs sent with `inject:"panic"`.
    pub panics_sent: u64,
    /// Deliberately invalid request objects sent.
    pub bad_requests_sent: u64,
    /// `batch` frames sent (each carrying several decompose bodies).
    pub batches_sent: u64,
    /// Honest requests a client thread sent after an identical one had
    /// been answered in full: with a plan cache that has room, each is a
    /// hit.
    pub repeats_sent: u64,
    /// Connections the daemon refused outright.
    pub connect_failures: u64,
    /// Every response that violated the protocol contract (the pass
    /// criterion is this staying empty).
    pub violations: Vec<String>,
}

impl LoadReport {
    /// `true` when every observed response was protocol-valid and every
    /// connection was accepted.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && self.connect_failures == 0
    }

    fn absorb(&mut self, other: LoadReport) {
        self.jobs += other.jobs;
        self.ok_full += other.ok_full;
        self.ok_degraded += other.ok_degraded;
        for (code, n) in other.typed_errors {
            *self.typed_errors.entry(code).or_insert(0) += n;
        }
        self.malformed_sent += other.malformed_sent;
        self.disconnects_sent += other.disconnects_sent;
        self.panics_sent += other.panics_sent;
        self.bad_requests_sent += other.bad_requests_sent;
        self.batches_sent += other.batches_sent;
        self.repeats_sent += other.repeats_sent;
        self.connect_failures += other.connect_failures;
        self.violations.extend(other.violations);
    }

    /// Classifies a response frame against the protocol contract and
    /// tallies it; contract violations go to [`LoadReport::violations`].
    pub fn record_response(&mut self, v: &Value) {
        match v.get("ok") {
            Some(Value::Bool(true)) => match v.get("status").and_then(Value::as_str) {
                Some("full") => self.ok_full += 1,
                Some("degraded") => {
                    self.ok_degraded += 1;
                    if v.get("degraded_code").and_then(Value::as_str).is_none() {
                        self.violations
                            .push(format!("degraded without a code: {}", v.to_json()));
                    }
                }
                other => self
                    .violations
                    .push(format!("ok:true with status {other:?}: {}", v.to_json())),
            },
            Some(Value::Bool(false)) => {
                let code = v
                    .get("error")
                    .and_then(|e| e.get("code"))
                    .and_then(Value::as_str);
                match code {
                    Some(c) if codes::ALL.contains(&c) => {
                        *self.typed_errors.entry(c.to_string()).or_insert(0) += 1;
                    }
                    other => self
                        .violations
                        .push(format!("untyped error code {other:?}: {}", v.to_json())),
                }
            }
            _ => self
                .violations
                .push(format!("response without ok: {}", v.to_json())),
        }
    }

    /// Classifies a `batch` response: the frame-level contract via
    /// [`LoadReport::record_response`], plus the batch invariants — one
    /// result per request in order, every successful result embedding a
    /// validating `fgh-metrics/1` document, every failed one a typed
    /// error.
    pub fn record_batch_response(&mut self, v: &Value, expected: usize) {
        self.record_response(v);
        if v.get("ok") != Some(&Value::Bool(true)) {
            return; // frame-level typed error, already recorded
        }
        let Some(results) = v.get("results").and_then(Value::as_arr) else {
            self.violations
                .push(format!("batch without results: {}", v.to_json()));
            return;
        };
        if results.len() != expected {
            self.violations.push(format!(
                "batch returned {} results, expected {expected}",
                results.len()
            ));
        }
        for (j, sub) in results.iter().enumerate() {
            match sub.get("ok") {
                Some(Value::Bool(true)) => match sub.get("metrics") {
                    Some(m) => {
                        if let Err(e) = validate_metrics_value(m) {
                            self.violations
                                .push(format!("batch result {j}: invalid metrics: {e}"));
                        }
                    }
                    None => self
                        .violations
                        .push(format!("batch result {j}: missing metrics document")),
                },
                Some(Value::Bool(false)) => {
                    let code = sub
                        .get("error")
                        .and_then(|e| e.get("code"))
                        .and_then(Value::as_str);
                    if !matches!(code, Some(c) if codes::ALL.contains(&c)) {
                        self.violations.push(format!(
                            "batch result {j}: untyped error: {}",
                            sub.to_json()
                        ));
                    }
                }
                _ => self
                    .violations
                    .push(format!("batch result {j} without ok: {}", sub.to_json())),
            }
        }
    }
}

/// What job index `i` does under the hostile mix. Deterministic so the
/// run is reproducible and the assertions can demand each class occurred.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JobKind {
    Honest,
    /// Stall the worker then drop the connection — exercises
    /// disconnect-driven cancellation.
    Disconnect,
    /// `inject:"panic"` — exercises worker containment.
    Panic,
    /// Garbage bytes instead of a frame.
    MalformedFrame,
    /// A well-framed but invalid request object.
    BadRequest,
    /// A `batch` frame mixing SpMV and SpGEMM bodies — exercises the
    /// multi-request path and its embedded metrics documents.
    Batch,
}

fn job_kind(i: usize, inject: bool) -> JobKind {
    if !inject {
        return JobKind::Honest;
    }
    match i % 16 {
        3 => JobKind::MalformedFrame,
        5 => JobKind::Batch,
        7 => JobKind::Panic,
        11 => JobKind::Disconnect,
        13 => JobKind::BadRequest,
        _ => JobKind::Honest,
    }
}

fn is_overloaded(v: &Value) -> bool {
    v.get("ok") == Some(&Value::Bool(false))
        && v.get("error")
            .and_then(|e| e.get("code"))
            .and_then(Value::as_str)
            == Some(codes::OVERLOADED)
}

/// Issues a queued request, honoring `overloaded` sheds with bounded
/// retries — the well-behaved-client reaction to backpressure. Every
/// response (sheds included) is recorded; the first that is not a shed is
/// returned.
fn request_with_retry(
    client: &mut ServeClient,
    v: &Value,
    report: &mut LoadReport,
    label: &str,
) -> Option<Value> {
    for _ in 0..40 {
        match client.request(v) {
            Ok(r) => {
                report.record_response(&r);
                if !is_overloaded(&r) {
                    return Some(r);
                }
                let backoff = r
                    .get("error")
                    .and_then(|e| e.get("retry_after_ms"))
                    .and_then(Value::as_u64)
                    .unwrap_or(50)
                    .min(200);
                std::thread::sleep(Duration::from_millis(backoff));
            }
            Err(e) => {
                report.violations.push(format!("{label}: {e}"));
                return None;
            }
        }
    }
    report
        .violations
        .push(format!("{label}: still overloaded after 40 retries"));
    None
}

/// Runs job `i` of the mix. `answered` holds the (K, seed) pairs of the
/// honest requests this client thread already had answered in full.
fn run_one(
    addr: &str,
    cfg: &LoadConfig,
    i: usize,
    report: &mut LoadReport,
    answered: &mut BTreeSet<(u32, u64)>,
) {
    let mut client = match ServeClient::connect_tcp(addr) {
        Ok(c) => c,
        Err(_) => {
            report.connect_failures += 1;
            return;
        }
    };
    report.jobs += 1;
    match job_kind(i, cfg.inject) {
        JobKind::MalformedFrame => {
            report.malformed_sent += 1;
            // Alternate between an absurd length prefix (must be refused
            // without allocation) and a valid-length garbage payload.
            let bytes: Vec<u8> = if i % 32 == 3 {
                let mut b = u32::MAX.to_le_bytes().to_vec();
                b.extend_from_slice(b"junk");
                b
            } else {
                let mut b = 3u32.to_le_bytes().to_vec();
                b.extend_from_slice(b"{{{");
                b
            };
            if client.send_raw(&bytes).is_err() {
                return; // daemon already hung up — fine
            }
            // The daemon owes at most one typed bad-frame error before
            // closing; a close with no frame is also acceptable.
            if let Ok(v) = client.read_response() {
                report.record_response(&v);
            }
        }
        JobKind::BadRequest => {
            report.bad_requests_sent += 1;
            let bad = if i % 32 == 13 {
                op("teleport") // unknown op
            } else {
                let mut doc = BTreeMap::new();
                doc.insert("op".into(), Value::Str("decompose".into()));
                doc.insert("matrix".into(), Value::Str(cfg.matrix.clone()));
                // k missing: required field
                Value::Obj(doc)
            };
            match client.request(&bad) {
                Ok(v) => report.record_response(&v),
                Err(e) => report.violations.push(format!("bad-request job {i}: {e}")),
            }
        }
        JobKind::Panic => {
            report.panics_sent += 1;
            // lint: checked-cast — `i % 3` is at most 2, well inside u32
            let mut v = decompose_request(&cfg.matrix, cfg.scale, 2 + (i % 3) as u32, i as u64);
            if let Value::Obj(doc) = &mut v {
                doc.insert("inject".into(), Value::Str("panic".into()));
            }
            request_with_retry(&mut client, &v, report, &format!("panic job {i}"));
        }
        JobKind::Disconnect => {
            let mut v = decompose_request(&cfg.matrix, cfg.scale, 2, i as u64);
            if let Value::Obj(doc) = &mut v {
                // Long enough that the drop below lands mid-job and the
                // liveness probe sees the dead socket.
                doc.insert("inject".into(), Value::Str("sleep_ms:2000".into()));
            }
            // Admission first: an immediate `overloaded` shed means the
            // job never reached a worker, so hanging up would cancel
            // nothing — retry until the daemon stays silent (admitted,
            // worker stalling), THEN disconnect mid-job.
            for _ in 0..40 {
                if write_frame(&mut client.conn, &v).is_err() {
                    return;
                }
                match read_frame(&mut client.conn) {
                    Err(FrameError::Idle) => {
                        report.disconnects_sent += 1;
                        drop(client); // mid-request hangup: the daemon must cancel the job
                        return;
                    }
                    Ok(r) if is_overloaded(&r) => {
                        report.record_response(&r);
                        std::thread::sleep(Duration::from_millis(100));
                    }
                    Ok(r) => {
                        // The stall finished before we hung up — still a
                        // response to validate, just not a disconnect.
                        report.record_response(&r);
                        return;
                    }
                    Err(_) => return,
                }
            }
        }
        JobKind::Batch => {
            report.batches_sent += 1;
            let v = batch_request(vec![
                decompose_request(&cfg.matrix, cfg.scale, [2u32, 4][i % 2], (i % 4) as u64),
                spgemm_request(&cfg.matrix, cfg.scale, 2, i as u64),
            ]);
            for _ in 0..40 {
                match client.request(&v) {
                    Ok(r) if is_overloaded(&r) => {
                        report.record_response(&r);
                        std::thread::sleep(Duration::from_millis(100));
                    }
                    Ok(r) => {
                        report.record_batch_response(&r, 2);
                        return;
                    }
                    Err(e) => {
                        report.violations.push(format!("batch job {i}: {e}"));
                        return;
                    }
                }
            }
            report
                .violations
                .push(format!("batch job {i}: still overloaded after 40 retries"));
        }
        JobKind::Honest => {
            let k = [2u32, 4, 8][i % 3];
            // Seeds cycle so identical requests repeat and the plan
            // cache gets real hits.
            let seed = (i % 4) as u64;
            let mut v = decompose_request(&cfg.matrix, cfg.scale, k, seed);
            if cfg.inject && i.is_multiple_of(5) {
                if let Value::Obj(doc) = &mut v {
                    // A small stall builds real queue depth so admission
                    // control actually sheds under concurrency.
                    doc.insert("inject".into(), Value::Str("sleep_ms:40".into()));
                }
            }
            if answered.contains(&(k, seed)) {
                report.repeats_sent += 1;
            }
            let r = request_with_retry(&mut client, &v, report, &format!("honest job {i}"));
            if r.is_some_and(|r| r.get("status").and_then(Value::as_str) == Some("full")) {
                answered.insert((k, seed));
            }
        }
    }
}

/// Hammers a daemon with [`LoadConfig::jobs`] requests across
/// [`LoadConfig::concurrency`] threads and returns the merged,
/// validated observations.
pub fn run_load(addr: &str, cfg: &LoadConfig) -> LoadReport {
    let mut merged = LoadReport::default();
    let handles: Vec<_> = (0..cfg.concurrency)
        .map(|tid| {
            let addr = addr.to_string();
            let cfg = cfg.clone();
            std::thread::spawn(move || {
                let mut report = LoadReport::default();
                let mut answered = BTreeSet::new();
                let mut i = tid;
                while i < cfg.jobs {
                    run_one(&addr, &cfg, i, &mut report, &mut answered);
                    i += cfg.concurrency;
                }
                report
            })
        })
        .collect();
    for h in handles {
        match h.join() {
            Ok(r) => merged.absorb(r),
            Err(_) => merged.violations.push("a client thread panicked".into()),
        }
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(pairs: &[(&str, Value)]) -> Value {
        Value::Obj(
            pairs
                .iter()
                .map(|(k, v)| ((*k).to_string(), v.clone()))
                .collect(),
        )
    }

    #[test]
    fn response_classification() {
        let mut r = LoadReport::default();
        r.record_response(&obj(&[
            ("ok", Value::Bool(true)),
            ("status", Value::Str("full".into())),
        ]));
        r.record_response(&obj(&[
            ("ok", Value::Bool(true)),
            ("status", Value::Str("degraded".into())),
            ("degraded_code", Value::Str("cancelled".into())),
        ]));
        r.record_response(&crate::protocol::error_response(
            codes::OVERLOADED,
            "full",
            Some(100),
        ));
        assert_eq!(r.ok_full, 1);
        assert_eq!(r.ok_degraded, 1);
        assert_eq!(r.typed_errors.get("overloaded"), Some(&1));
        assert!(r.is_clean(), "{:?}", r.violations);

        // Violations: unknown error code, degraded without a code.
        r.record_response(&crate::protocol::error_response("made-up", "x", None));
        r.record_response(&obj(&[
            ("ok", Value::Bool(true)),
            ("status", Value::Str("degraded".into())),
            ("degraded_code", Value::Null),
        ]));
        assert_eq!(r.violations.len(), 2);
        assert!(!r.is_clean());
    }

    #[test]
    fn hostile_mix_is_deterministic_and_covers_all_kinds() {
        let kinds: Vec<JobKind> = (0..64).map(|i| job_kind(i, true)).collect();
        assert!(kinds.contains(&JobKind::MalformedFrame));
        assert!(kinds.contains(&JobKind::Panic));
        assert!(kinds.contains(&JobKind::Disconnect));
        assert!(kinds.contains(&JobKind::BadRequest));
        assert!(kinds.contains(&JobKind::Batch));
        assert!(kinds.iter().filter(|k| **k == JobKind::Honest).count() >= 40);
        assert_eq!(
            kinds,
            (0..64).map(|i| job_kind(i, true)).collect::<Vec<_>>()
        );
        assert!((0..64).all(|i| job_kind(i, false) == JobKind::Honest));
    }
}
