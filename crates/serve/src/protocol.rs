//! The wire protocol: length-prefixed JSON frames, typed requests and
//! responses, and stable error codes.
//!
//! # Framing
//!
//! Every message — request or response — is one *frame*: a 4-byte
//! little-endian payload length followed by that many bytes of UTF-8
//! JSON. Frames larger than [`MAX_FRAME_BYTES`] are rejected without
//! allocation (a garbage length prefix must not OOM the daemon).
//! Connections are strictly request/response: one frame in, one frame
//! out, repeat. A malformed frame (bad length, bad UTF-8, bad JSON)
//! earns a typed [`codes::BAD_FRAME`] error response and closes the
//! connection.
//!
//! Each end of a connection is a [`Conn`]: the stream plus two buffers
//! it keeps for its lifetime. An outgoing frame is serialized in place
//! into one of them, behind a length placeholder that is patched once
//! the JSON is written, and leaves in one write; an incoming payload is
//! read into the other. Neither keeps more than [`FRAME_BUF_RETAIN`]
//! bytes of capacity between frames.
//!
//! # Requests
//!
//! ```json
//! {"op": "decompose", "matrix": "bcspwr10", "scale": 48, "gen_seed": 7,
//!  "model": "fine-grain-2d", "k": 4, "epsilon": 0.03, "seed": 1,
//!  "runs": 1, "budget_ms": 2000, "include_owners": false}
//! ```
//!
//! The matrix is named from the built-in catalog (`matrix` +
//! `scale`/`gen_seed`) or shipped inline as Matrix Market text
//! (`matrix_mm`). `{"op":"ping"}` health-checks; `{"op":"stats"}`
//! returns live counters.
//!
//! A request may carry `"workload": "spgemm"` to partition the SpGEMM
//! hypergraph of `C = A · B` (one vertex per used `A` nonzero, weighted
//! by the multiply tasks that read it) instead of SpMV; the
//! second operand arrives as `matrix_b`/`b_scale`/`b_gen_seed` (catalog)
//! or `matrix_b_mm` (inline), and defaults to `A` itself (`A·A`) when
//! absent. SpGEMM jobs bypass the plan cache.
//!
//! `{"op": "batch", "requests": [...]}` carries up to
//! [`MAX_BATCH_REQUESTS`] decompose bodies (each the same shape as a
//! `decompose` request, minus the `op`) in one frame. The batch is one
//! queued job; the response is `{"ok": true, "status": ..., "results":
//! [...]}` with one entry per request in order, each embedding a
//! validated `fgh-metrics/1` document under `"metrics"`.
//!
//! # Responses
//!
//! Every success carries `"ok": true`, `"status": "full"|"degraded"`,
//! `"degraded_code": null|<code>`, `"degraded_reason": null|<text>`,
//! `"k"`, `"nnz"` (of `A`), `"objective"` (the partitioner's cutsize),
//! `"volume"` (the exact communication volume), `"imbalance"` (percent),
//! `"cache"`, and `"elapsed_ns"`. The rest depends on the path:
//!
//! * An SpMV `decompose` answers from the plan cache: `"cache"` is
//!   `"hit"` or `"miss"`, and nothing else is added except the
//!   `nonzero_owner`/`vec_owner` arrays when `include_owners` was set.
//! * A SpGEMM `decompose` bypasses the cache (`"cache": "bypass"`) and
//!   adds `"workload"`, `"flops"` (multiply tasks), and `"traffic"` (the
//!   storage-traffic replay's counters, or `null` if the replay failed).
//! * Each `batch` entry also bypasses the cache and adds `"workload"` and
//!   `"metrics"`, its `fgh-metrics/1` document; a SpGEMM entry adds
//!   `"flops"` and `"traffic"` as well.
//!
//! Failure: `{"ok": false, "error": {"code": <stable code>,
//! "message": <text>, "retry_after_ms": N?}}` — see [`codes`].

use std::collections::BTreeMap;
use std::io::{Read, Write};

use fgh_core::WorkloadKind;
use fgh_trace::json::{parse, Value};

/// Hard per-frame payload cap (16 MiB). A length prefix beyond this is
/// treated as a malformed frame, not an allocation request.
pub const MAX_FRAME_BYTES: usize = 16 << 20;

/// Capacity a [`Conn`]'s frame buffer keeps between frames (1 MiB). A
/// larger frame grows the buffer for its own duration; the excess is
/// released once it is parsed or sent, so an idle connection never
/// holds on to a frame near [`MAX_FRAME_BYTES`].
pub const FRAME_BUF_RETAIN: usize = 1 << 20;

/// Most decompose bodies one `batch` frame may carry. The batch runs as
/// a single queued job, so the cap bounds how long one queue slot can be
/// held hostage.
pub const MAX_BATCH_REQUESTS: usize = 32;

/// Stable machine-readable error codes carried in failure responses.
/// Like `DegradedReason::CODES`, these are a compatibility contract:
/// codes may be added but never change meaning.
pub mod codes {
    /// The frame itself was malformed (length, UTF-8, or JSON).
    pub const BAD_FRAME: &str = "bad-frame";
    /// The frame parsed but the request is invalid (unknown op, missing
    /// or out-of-range field, unknown matrix/model).
    pub const BAD_REQUEST: &str = "bad-request";
    /// Load shed: the job queue is full. The response carries a
    /// `retry_after_ms` hint.
    pub const OVERLOADED: &str = "overloaded";
    /// The daemon is draining for shutdown and admits no new work.
    pub const SHUTTING_DOWN: &str = "shutting-down";
    /// The worker executing the job panicked; the job is lost but the
    /// daemon and the worker pool survive.
    pub const WORKER_PANIC: &str = "worker-panic";
    /// The chosen model cannot run at the matrix's index width.
    pub const UNSUPPORTED_WIDTH: &str = "unsupported-width";
    /// Any other decomposition failure (typed `FghError` text attached).
    pub const DECOMPOSE_FAILED: &str = "decompose-failed";

    /// Every code, for validators and exhaustive tests.
    pub const ALL: [&str; 7] = [
        BAD_FRAME,
        BAD_REQUEST,
        OVERLOADED,
        SHUTTING_DOWN,
        WORKER_PANIC,
        UNSUPPORTED_WIDTH,
        DECOMPOSE_FAILED,
    ];
}

/// Errors from reading a frame off a connection.
#[derive(Debug)]
pub enum FrameError {
    /// The peer closed the connection cleanly (EOF at a frame boundary).
    Closed,
    /// No frame arrived within the stream's read timeout and no bytes
    /// were consumed — the caller can poll its shutdown flag and retry.
    Idle,
    /// An I/O error mid-frame.
    Io(std::io::Error),
    /// The frame violates the protocol (oversized length, truncated
    /// payload, bad UTF-8, bad JSON, or a mid-frame stall). The message
    /// is safe to echo back.
    Malformed(String),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::Idle => write!(f, "no frame within the read timeout"),
            FrameError::Io(e) => write!(f, "i/o error: {e}"),
            FrameError::Malformed(m) => write!(f, "malformed frame: {m}"),
        }
    }
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Read timeouts tolerated *inside* a frame before the peer is declared
/// stalled. At the daemon's 100ms read timeout this is ~60s of silence
/// mid-frame — far beyond any honest client writing a frame it already
/// started.
const MAX_MIDFRAME_STALLS: u32 = 600;

/// One end of a connection: the byte stream and the two buffers its
/// frames pass through, kept for the connection's lifetime.
pub struct Conn<S> {
    /// The byte stream.
    pub stream: S,
    inbound: Vec<u8>,
    outbound: Vec<u8>,
}

impl<S> Conn<S> {
    /// Wraps a stream; the buffers grow with the first frames.
    pub fn new(stream: S) -> Conn<S> {
        Conn {
            stream,
            inbound: Vec::new(),
            outbound: Vec::new(),
        }
    }

    /// The capacities the inbound and outbound buffers keep between
    /// frames, each at most [`FRAME_BUF_RETAIN`].
    pub fn buffer_capacities(&self) -> (usize, usize) {
        (self.inbound.capacity(), self.outbound.capacity())
    }
}

/// Releases a frame buffer's capacity above [`FRAME_BUF_RETAIN`].
fn release_excess(buf: &mut Vec<u8>) {
    if buf.capacity() > FRAME_BUF_RETAIN {
        buf.clear();
        buf.shrink_to(FRAME_BUF_RETAIN);
    }
}

/// Reads one length-prefixed JSON frame into the connection's inbound
/// buffer. [`FrameError::Closed`] only at a clean frame boundary; EOF
/// mid-frame is [`FrameError::Malformed`]; a read timeout before the
/// first byte is [`FrameError::Idle`].
pub fn read_frame<S: Read>(conn: &mut Conn<S>) -> Result<Value, FrameError> {
    let payload = &mut conn.inbound;
    let frame = read_payload(&mut conn.stream, payload).and_then(|()| {
        let text = std::str::from_utf8(payload)
            .map_err(|e| FrameError::Malformed(format!("payload is not utf-8: {e}")))?;
        parse(text).map_err(|e| FrameError::Malformed(format!("payload is not json: {e}")))
    });
    release_excess(payload);
    frame
}

/// Reads one frame's length prefix, then exactly that many payload
/// bytes into `payload`, replacing what it held.
fn read_payload(r: &mut impl Read, payload: &mut Vec<u8>) -> Result<(), FrameError> {
    let mut stalls = 0u32;
    let mut len_buf = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut len_buf[filled..]) {
            Ok(0) if filled == 0 => return Err(FrameError::Closed),
            Ok(0) => return Err(FrameError::Malformed("eof inside length prefix".into())),
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) if is_timeout(&e) && filled == 0 => return Err(FrameError::Idle),
            Err(e) if is_timeout(&e) => {
                stalls += 1;
                if stalls > MAX_MIDFRAME_STALLS {
                    return Err(FrameError::Malformed("peer stalled mid-frame".into()));
                }
            }
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(FrameError::Malformed(format!(
            "frame length {len} exceeds the {MAX_FRAME_BYTES}-byte cap"
        )));
    }
    payload.clear();
    payload.resize(len, 0);
    let mut got = 0;
    while got < len {
        match r.read(&mut payload[got..]) {
            Ok(0) => return Err(FrameError::Malformed("eof inside payload".into())),
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) if is_timeout(&e) => {
                stalls += 1;
                if stalls > MAX_MIDFRAME_STALLS {
                    return Err(FrameError::Malformed("peer stalled mid-frame".into()));
                }
            }
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(())
}

/// Placeholder for the length prefix while the payload is serialized
/// behind it.
const LEN_PLACEHOLDER: &str = "\0\0\0\0";

/// Writes one length-prefixed JSON frame in a single write. Sent as two
/// writes on a TCP stream, the payload would wait behind the length
/// prefix for the peer's delayed ACK (Nagle's algorithm), about 40 ms.
/// The JSON is serialized in place, in the connection's outbound
/// buffer, behind a length placeholder, which is patched once its
/// length is known.
pub fn write_frame<S: Write>(conn: &mut Conn<S>, v: &Value) -> std::io::Result<()> {
    conn.outbound.clear();
    // An empty buffer is valid UTF-8: it becomes a `String` without a
    // copy or a scan, and keeps its capacity.
    let mut text = String::from_utf8(std::mem::take(&mut conn.outbound)).unwrap_or_default();
    text.push_str(LEN_PLACEHOLDER);
    v.write_json(&mut text);
    let mut frame = text.into_bytes();
    let payload = frame.len() - LEN_PLACEHOLDER.len();
    let len = payload.min(u32::MAX as usize) as u32; // lint: checked-cast — min-clamped
    frame[..LEN_PLACEHOLDER.len()].copy_from_slice(&len.to_le_bytes());
    let sent = conn
        .stream
        .write_all(&frame)
        .and_then(|()| conn.stream.flush());
    conn.outbound = frame;
    release_excess(&mut conn.outbound);
    sent
}

/// Builds a typed failure response: `{"ok": false, "error": {...}}`.
pub fn error_response(code: &str, message: &str, retry_after_ms: Option<u64>) -> Value {
    let mut err = BTreeMap::new();
    err.insert("code".into(), Value::Str(code.into()));
    err.insert("message".into(), Value::Str(message.into()));
    if let Some(ms) = retry_after_ms {
        err.insert("retry_after_ms".into(), Value::Num(ms as f64));
    }
    let mut obj = BTreeMap::new();
    obj.insert("ok".into(), Value::Bool(false));
    obj.insert("error".into(), Value::Obj(err));
    Value::Obj(obj)
}

/// The matrix a decompose request names: a catalog entry (generated
/// deterministically server-side) or inline Matrix Market text.
#[derive(Debug, Clone, PartialEq)]
pub enum MatrixSource {
    /// `{"matrix": name, "scale": s, "gen_seed": seed}`.
    Catalog {
        /// Case-insensitive catalog name.
        name: String,
        /// Dimension divisor (1 = full size).
        scale: u32,
        /// Generator seed.
        gen_seed: u64,
    },
    /// `{"matrix_mm": "<matrix market text>"}`.
    Inline(String),
}

/// A parsed, validated decompose request.
#[derive(Debug, Clone, PartialEq)]
pub struct DecomposeRequest {
    /// Where the matrix comes from.
    pub source: MatrixSource,
    /// The `"workload"` member: `"spmv"` (the default) or `"spgemm"`.
    pub workload: WorkloadKind,
    /// The SpGEMM second operand (`matrix_b` / `matrix_b_mm`). `None`
    /// for SpMV always; `None` for SpGEMM means `B = A` (the `A·A`
    /// product).
    pub source_b: Option<MatrixSource>,
    /// Model name (validated against `Model::from_str` by the caller).
    pub model: String,
    /// Processor count K (>= 1).
    pub k: u32,
    /// Balance tolerance ε.
    pub epsilon: f64,
    /// Partitioner base seed.
    pub seed: u64,
    /// Independent partitioner runs.
    pub runs: usize,
    /// Optional per-request wall budget, milliseconds.
    pub budget_ms: Option<u64>,
    /// Optional per-request byte budget.
    pub budget_bytes: Option<u64>,
    /// Ship the full owner arrays back (off by default: summaries only).
    pub include_owners: bool,
    /// Fault-injection directive (only honored when the daemon runs with
    /// fault injection enabled): `"panic"` makes the worker panic
    /// mid-job, `"sleep_ms:N"` stalls the job.
    pub inject: Option<String>,
}

/// The operations a request frame can carry.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Health check; answered inline by the connection thread.
    Ping,
    /// Live counters; answered inline.
    Stats,
    /// A decomposition job; queued for a worker.
    Decompose(Box<DecomposeRequest>),
    /// Many decompose bodies in one frame; queued as a single job whose
    /// response embeds one `fgh-metrics/1` document per body.
    Batch(Vec<DecomposeRequest>),
}

fn get_u64(v: &Value, key: &str, default: u64) -> Result<u64, String> {
    match v.get(key) {
        None => Ok(default),
        Some(n) => n
            .as_u64()
            .ok_or_else(|| format!("{key}: expected a non-negative integer")),
    }
}

/// Removes `key` from an object, handing over the value it held.
fn take(v: &mut Value, key: &str) -> Option<Value> {
    match v {
        Value::Obj(members) => members.remove(key),
        _ => None,
    }
}

/// Parses one matrix source out of a pair of mutually exclusive keys
/// (`matrix`/`matrix_mm` for the primary, `matrix_b`/`matrix_b_mm` for
/// the SpGEMM second operand). Inline text moves out of `v` rather than
/// being copied, so the daemon holds a shipped matrix once.
fn parse_source(
    v: &mut Value,
    name_key: &str,
    inline_key: &str,
    scale_key: &str,
    seed_key: &str,
) -> Result<Option<MatrixSource>, String> {
    let inline = take(v, inline_key);
    match (v.get(name_key), inline) {
        (Some(_), Some(_)) => Err(format!(
            "{name_key} and {inline_key} are mutually exclusive"
        )),
        (Some(name), None) => Ok(Some(MatrixSource::Catalog {
            name: name
                .as_str()
                .ok_or(format!("{name_key}: expected a string"))?
                .to_string(),
            scale: u32::try_from(get_u64(v, scale_key, 1)?.max(1))
                .map_err(|_| format!("{scale_key}: out of range"))?,
            gen_seed: get_u64(v, seed_key, 1)?,
        })),
        (None, Some(Value::Str(mm))) => Ok(Some(MatrixSource::Inline(mm))),
        (None, Some(_)) => Err(format!("{inline_key}: expected a string")),
        (None, None) => Ok(None),
    }
}

/// Parses one decompose body (the fields of a `decompose` request minus
/// the `op`) — shared between `decompose` and the entries of `batch`.
/// Consumes the body so inline matrix text moves into the request.
pub fn parse_decompose_body(mut v: Value) -> Result<DecomposeRequest, String> {
    let source = parse_source(&mut v, "matrix", "matrix_mm", "scale", "gen_seed")?
        .ok_or("one of matrix / matrix_mm is required")?;
    let workload = match v.get("workload") {
        None => WorkloadKind::Spmv,
        Some(w) => match w.as_str().ok_or("workload: expected a string")? {
            "spmv" => WorkloadKind::Spmv,
            "spgemm" => WorkloadKind::Spgemm,
            other => return Err(format!("workload: unknown workload {other:?}")),
        },
    };
    let source_b = parse_source(&mut v, "matrix_b", "matrix_b_mm", "b_scale", "b_gen_seed")?;
    if workload == WorkloadKind::Spmv && source_b.is_some() {
        return Err("matrix_b is only valid with workload \"spgemm\"".into());
    }
    let k64 = get_u64(&v, "k", 0)?;
    if k64 == 0 {
        return Err("k: required, must be >= 1".into());
    }
    let k = u32::try_from(k64).map_err(|_| "k: out of range")?;
    let epsilon = match v.get("epsilon") {
        None => 0.03,
        Some(e) => {
            let e = e.as_f64().ok_or("epsilon: expected a number")?;
            if !e.is_finite() || e < 0.0 {
                return Err("epsilon: must be finite and >= 0".into());
            }
            e
        }
    };
    let model = v
        .get("model")
        .map(|m| m.as_str().ok_or("model: expected a string"))
        .transpose()?
        .unwrap_or(match workload {
            WorkloadKind::Spmv => "fine-grain-2d",
            WorkloadKind::Spgemm => "spgemm-fine-grain",
        })
        .to_string();
    let runs = get_u64(&v, "runs", 1)?.max(1) as usize; // u64 -> usize is lossless on every supported target
    let budget_ms = v
        .get("budget_ms")
        .map(|n| n.as_u64().ok_or("budget_ms: expected an integer"))
        .transpose()?;
    let budget_bytes = v
        .get("budget_bytes")
        .map(|n| n.as_u64().ok_or("budget_bytes: expected an integer"))
        .transpose()?;
    let include_owners = matches!(v.get("include_owners"), Some(Value::Bool(true)));
    let inject = v
        .get("inject")
        .map(|i| i.as_str().ok_or("inject: expected a string"))
        .transpose()?
        .map(str::to_string);
    Ok(DecomposeRequest {
        source,
        workload,
        source_b,
        model,
        k,
        epsilon,
        seed: get_u64(&v, "seed", 1)?,
        runs,
        budget_ms,
        budget_bytes,
        include_owners,
        inject,
    })
}

/// Parses and validates a request frame. Errors are
/// [`codes::BAD_REQUEST`] material, safe to echo to the client. The
/// frame is consumed: what a request keeps of it (inline matrix text)
/// moves into the request, and the rest is dropped here.
pub fn parse_request(mut v: Value) -> Result<Request, String> {
    match v.get("op").and_then(Value::as_str) {
        Some("ping") => Ok(Request::Ping),
        Some("stats") => Ok(Request::Stats),
        Some("decompose") => Ok(Request::Decompose(Box::new(parse_decompose_body(v)?))),
        Some("batch") => {
            let Some(Value::Arr(entries)) = take(&mut v, "requests") else {
                return Err("requests: expected an array".into());
            };
            if entries.is_empty() {
                return Err("requests: must not be empty".into());
            }
            if entries.len() > MAX_BATCH_REQUESTS {
                return Err(format!(
                    "requests: batch of {} exceeds the {MAX_BATCH_REQUESTS}-request cap",
                    entries.len()
                ));
            }
            entries
                .into_iter()
                .enumerate()
                .map(|(i, e)| parse_decompose_body(e).map_err(|m| format!("requests[{i}]: {m}")))
                .collect::<Result<Vec<_>, _>>()
                .map(Request::Batch)
        }
        Some(other) => Err(format!("op: unknown operation {other:?}")),
        None => Err("op: expected a string".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn obj(pairs: &[(&str, Value)]) -> Value {
        Value::Obj(
            pairs
                .iter()
                .map(|(k, v)| ((*k).to_string(), v.clone()))
                .collect(),
        )
    }

    #[test]
    fn frame_round_trip() {
        let v = obj(&[("op", Value::Str("ping".into()))]);
        let mut out = Conn::new(Vec::new());
        write_frame(&mut out, &v).unwrap();
        let back = read_frame(&mut Conn::new(Cursor::new(out.stream))).unwrap();
        assert_eq!(back, v);
    }

    /// A sink that counts `write` calls, each accepting the whole buffer.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn frame_leaves_in_one_write() {
        for v in [
            obj(&[("op", Value::Str("ping".into()))]),
            obj(&[("pad", Value::Str("x".repeat(100_000)))]),
        ] {
            let mut w = Conn::new(CountingWriter::default());
            write_frame(&mut w, &v).unwrap();
            assert_eq!(w.stream.writes, 1, "one write per frame");
            let mut r = Conn::new(Cursor::new(w.stream.bytes));
            assert_eq!(read_frame(&mut r).unwrap(), v);
        }
    }

    #[test]
    fn conn_frames_are_the_length_then_to_json_in_one_write() {
        let inline = obj(&[
            ("op", Value::Str("decompose".into())),
            (
                "matrix_mm",
                Value::Str("%%MatrixMarket\n2 2 1\n1 1 1.5\n".repeat(5000)),
            ),
            ("k", Value::Num(64.0)),
        ]);
        let mut conn = Conn::new(CountingWriter::default());
        for (i, v) in [
            obj(&[("op", Value::Str("ping".into()))]),
            inline.clone(),
            obj(&[("op", Value::Str("stats".into()))]),
            error_response(codes::BAD_FRAME, "tab\there \"quoted\" \u{1}", None),
            Value::Arr(vec![
                inline,
                Value::Num(-0.5),
                Value::Null,
                Value::Bool(true),
            ]),
            obj(&[]),
        ]
        .iter()
        .enumerate()
        {
            let before = conn.stream.bytes.len();
            write_frame(&mut conn, v).unwrap();
            assert_eq!(conn.stream.writes, i + 1, "one write per frame");
            let text = v.to_json();
            let mut want = (text.len() as u32).to_le_bytes().to_vec();
            want.extend_from_slice(text.as_bytes());
            assert_eq!(&conn.stream.bytes[before..], &want[..], "frame {i}");
        }
    }

    #[test]
    fn conn_reads_each_frame_whole_and_keeps_at_most_the_cap() {
        let long = obj(&[("pad", Value::Str("y".repeat(200_000)))]);
        let short = obj(&[("op", Value::Str("ping".into()))]);
        let oversized = obj(&[("pad", Value::Str("z".repeat(FRAME_BUF_RETAIN + 1)))]);
        let frames = [long, short.clone(), oversized, short];
        let mut wire = Conn::new(Vec::new());
        for v in &frames {
            write_frame(&mut wire, v).unwrap();
        }
        let mut conn = Conn::new(Cursor::new(wire.stream));
        for (i, want) in frames.iter().enumerate() {
            // The short frames follow longer ones: they must parse their
            // own bytes only, not what the longer frame left behind.
            assert_eq!(&read_frame(&mut conn).unwrap(), want, "frame {i}");
            let (inbound, _) = conn.buffer_capacities();
            assert!(inbound <= FRAME_BUF_RETAIN, "frame {i}: {inbound}");
            if i == 1 {
                assert!(inbound >= 200_000, "the long frame's buffer is reused");
            }
        }
        assert!(matches!(read_frame(&mut conn), Err(FrameError::Closed)));
    }

    #[test]
    fn oversized_length_is_malformed_not_alloc() {
        let mut buf = (u32::MAX).to_le_bytes().to_vec();
        buf.extend_from_slice(b"junk");
        match read_frame(&mut Conn::new(Cursor::new(buf))) {
            Err(FrameError::Malformed(m)) => assert!(m.contains("cap")),
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn truncated_and_garbage_frames_are_malformed() {
        // Length says 100 bytes, only 3 present.
        let mut buf = 100u32.to_le_bytes().to_vec();
        buf.extend_from_slice(b"abc");
        assert!(matches!(
            read_frame(&mut Conn::new(Cursor::new(buf))),
            Err(FrameError::Malformed(_))
        ));
        // Valid length, payload is not JSON.
        let mut buf = 3u32.to_le_bytes().to_vec();
        buf.extend_from_slice(b"{{{");
        assert!(matches!(
            read_frame(&mut Conn::new(Cursor::new(buf))),
            Err(FrameError::Malformed(_))
        ));
        // Clean EOF before any byte.
        assert!(matches!(
            read_frame(&mut Conn::new(Cursor::new(Vec::new()))),
            Err(FrameError::Closed)
        ));
    }

    #[test]
    fn parse_decompose_defaults_and_validation() {
        let v = obj(&[
            ("op", Value::Str("decompose".into())),
            ("matrix", Value::Str("bcspwr10".into())),
            ("k", Value::Num(4.0)),
        ]);
        match parse_request(v).unwrap() {
            Request::Decompose(d) => {
                assert_eq!(d.k, 4);
                assert_eq!(d.model, "fine-grain-2d");
                assert_eq!(d.runs, 1);
                assert!(!d.include_owners);
                assert_eq!(
                    d.source,
                    MatrixSource::Catalog {
                        name: "bcspwr10".into(),
                        scale: 1,
                        gen_seed: 1
                    }
                );
            }
            other => panic!("expected Decompose, got {other:?}"),
        }
        // Missing k.
        let v = obj(&[
            ("op", Value::Str("decompose".into())),
            ("matrix", Value::Str("x".into())),
        ]);
        assert!(parse_request(v).unwrap_err().contains("k"));
        // No matrix at all.
        let v = obj(&[
            ("op", Value::Str("decompose".into())),
            ("k", Value::Num(2.0)),
        ]);
        assert!(parse_request(v).is_err());
        // Unknown op.
        let v = obj(&[("op", Value::Str("fly".into()))]);
        assert!(parse_request(v).is_err());
    }

    #[test]
    fn workload_and_second_operand_parse_and_validate() {
        // SpGEMM defaults the model to the task-hypergraph model and
        // accepts a catalog second operand.
        let v = obj(&[
            ("op", Value::Str("decompose".into())),
            ("matrix", Value::Str("bcspwr10".into())),
            ("workload", Value::Str("spgemm".into())),
            ("matrix_b", Value::Str("west0479".into())),
            ("b_scale", Value::Num(4.0)),
            ("b_gen_seed", Value::Num(9.0)),
            ("k", Value::Num(4.0)),
        ]);
        match parse_request(v).unwrap() {
            Request::Decompose(d) => {
                assert_eq!(d.workload, WorkloadKind::Spgemm);
                assert_eq!(d.model, "spgemm-fine-grain");
                assert_eq!(
                    d.source_b,
                    Some(MatrixSource::Catalog {
                        name: "west0479".into(),
                        scale: 4,
                        gen_seed: 9
                    })
                );
            }
            other => panic!("expected Decompose, got {other:?}"),
        }
        // Omitted second operand is the A·A default.
        let v = obj(&[
            ("op", Value::Str("decompose".into())),
            ("matrix", Value::Str("bcspwr10".into())),
            ("workload", Value::Str("spgemm".into())),
            ("k", Value::Num(2.0)),
        ]);
        match parse_request(v).unwrap() {
            Request::Decompose(d) => assert_eq!(d.source_b, None),
            other => panic!("expected Decompose, got {other:?}"),
        }
        // matrix_b under spmv is a contradiction, not silently ignored.
        let v = obj(&[
            ("op", Value::Str("decompose".into())),
            ("matrix", Value::Str("bcspwr10".into())),
            ("matrix_b", Value::Str("west0479".into())),
            ("k", Value::Num(2.0)),
        ]);
        assert!(parse_request(v).unwrap_err().contains("matrix_b"));
        // Unknown workloads are rejected at parse time.
        let v = obj(&[
            ("op", Value::Str("decompose".into())),
            ("matrix", Value::Str("bcspwr10".into())),
            ("workload", Value::Str("fft".into())),
            ("k", Value::Num(2.0)),
        ]);
        assert!(parse_request(v).unwrap_err().contains("workload"));
    }

    #[test]
    fn batch_parses_validates_and_caps() {
        let body = |name: &str| obj(&[("matrix", Value::Str(name.into())), ("k", Value::Num(2.0))]);
        let v = obj(&[
            ("op", Value::Str("batch".into())),
            (
                "requests",
                Value::Arr(vec![body("bcspwr10"), body("west0479")]),
            ),
        ]);
        match parse_request(v).unwrap() {
            Request::Batch(reqs) => {
                assert_eq!(reqs.len(), 2);
                assert_eq!(reqs[1].workload, WorkloadKind::Spmv);
            }
            other => panic!("expected Batch, got {other:?}"),
        }
        // Empty batches and over-cap batches are rejected whole.
        let v = obj(&[
            ("op", Value::Str("batch".into())),
            ("requests", Value::Arr(vec![])),
        ]);
        assert!(parse_request(v).unwrap_err().contains("empty"));
        let v = obj(&[
            ("op", Value::Str("batch".into())),
            (
                "requests",
                Value::Arr(vec![body("bcspwr10"); MAX_BATCH_REQUESTS + 1]),
            ),
        ]);
        assert!(parse_request(v).unwrap_err().contains("cap"));
        // One bad body poisons the frame, with its index in the error.
        let v = obj(&[
            ("op", Value::Str("batch".into())),
            (
                "requests",
                Value::Arr(vec![body("bcspwr10"), obj(&[("k", Value::Num(2.0))])]),
            ),
        ]);
        assert!(parse_request(v).unwrap_err().contains("requests[1]"));
    }

    #[test]
    fn inline_matrices_move_out_of_the_frame() {
        let mm = |n: u32| {
            Value::Str(format!(
                "%%MatrixMarket matrix coordinate real general\n{n} {n} 1\n1 1 1.0\n"
            ))
        };
        let body = || {
            obj(&[
                ("matrix_mm", mm(2)),
                ("matrix_b_mm", mm(3)),
                ("workload", Value::Str("spgemm".into())),
                ("k", Value::Num(2.0)),
            ])
        };
        let text = |v: &Value, key: &str| v.get(key).and_then(Value::as_str).unwrap().as_ptr();
        let inline = |s: &MatrixSource| match s {
            MatrixSource::Inline(mm) => mm.as_ptr(),
            other => panic!("expected inline text, got {other:?}"),
        };
        let mut single = body();
        if let Value::Obj(m) = &mut single {
            m.insert("op".into(), Value::Str("decompose".into()));
        }
        let frame_text = (text(&single, "matrix_mm"), text(&single, "matrix_b_mm"));
        match parse_request(single).unwrap() {
            Request::Decompose(d) => {
                let b = d.source_b.as_ref().map(inline);
                assert_eq!((inline(&d.source), b), (frame_text.0, Some(frame_text.1)));
            }
            other => panic!("expected Decompose, got {other:?}"),
        }
        let batch = obj(&[
            ("op", Value::Str("batch".into())),
            ("requests", Value::Arr(vec![body(), body()])),
        ]);
        let entries = batch.get("requests").and_then(Value::as_arr).unwrap();
        let frame_texts: Vec<_> = entries.iter().map(|e| text(e, "matrix_mm")).collect();
        match parse_request(batch).unwrap() {
            Request::Batch(reqs) => {
                let texts: Vec<_> = reqs.iter().map(|r| inline(&r.source)).collect();
                assert_eq!(texts, frame_texts);
            }
            other => panic!("expected Batch, got {other:?}"),
        }
    }

    #[test]
    fn readme_serving_example_is_a_valid_request() {
        let readme = include_str!("../../../README.md");
        let serving = &readme[readme
            .find("\n## Serving")
            .expect("README has a Serving section")..];
        let block = serving
            .split("```json\n")
            .nth(1)
            .and_then(|rest| rest.split("```").next())
            .expect("the Serving section has a json block");
        let v = parse(block).unwrap_or_else(|e| panic!("README request is not json: {e}"));
        match parse_request(v) {
            Ok(Request::Decompose(_)) => {}
            other => panic!("README request rejected: {other:?}"),
        }
    }

    #[test]
    fn error_response_shape() {
        let e = error_response(codes::OVERLOADED, "queue full", Some(120));
        assert_eq!(e.get("ok"), Some(&Value::Bool(false)));
        let err = e.get("error").unwrap();
        assert_eq!(err.get("code").unwrap().as_str(), Some("overloaded"));
        assert_eq!(err.get("retry_after_ms").unwrap().as_u64(), Some(120));
    }
}
