//! One connection's frame buffers serve every frame it carries: a long
//! frame must leave nothing behind for a shorter one to parse, a frame
//! above the retention cap must not stay resident, and a truncated frame
//! must still earn `bad-frame`. Every response must equal the one a
//! fresh connection gets for the same bytes.

use std::io::Write;
use std::net::{Shutdown, TcpStream};
use std::time::Duration;

use fgh_serve::protocol::{read_frame, write_frame, Conn, FRAME_BUF_RETAIN};
use fgh_serve::server::{ServeConfig, Server};
use fgh_trace::json::Value;

fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// serve-mixed's request: ken-11 at scale 8 as inline Matrix Market
/// text, about 134 KB. A small K keeps the decompose quick.
fn inline_decompose() -> Value {
    let entry = fgh_sparse::catalog::by_name("ken-11").expect("catalog entry");
    let mut mm = Vec::new();
    fgh_sparse::io::write_matrix_market_to(&entry.generate_scaled(8, 1), &mut mm)
        .expect("matrix market text");
    obj(vec![
        ("op", Value::Str("decompose".into())),
        (
            "matrix_mm",
            Value::Str(String::from_utf8(mm).expect("ascii")),
        ),
        ("k", Value::Num(4.0)),
        ("seed", Value::Num(3.0)),
    ])
}

/// What a request sends: a frame, or raw bytes followed by closing the
/// write half.
enum Outgoing {
    Frame(Value),
    Truncated(Vec<u8>),
}

fn connect(addr: &str) -> Conn<TcpStream> {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .expect("read timeout");
    Conn::new(stream)
}

/// Sends one request and returns its response without `elapsed_ns`,
/// the one member that differs between two runs of the same job.
fn exchange(conn: &mut Conn<TcpStream>, send: &Outgoing) -> Value {
    match send {
        Outgoing::Frame(v) => write_frame(conn, v).expect("write"),
        Outgoing::Truncated(bytes) => {
            conn.stream.write_all(bytes).expect("write");
            conn.stream.shutdown(Shutdown::Write).expect("half-close");
        }
    }
    let mut response = read_frame(conn).expect("a response frame");
    if let Value::Obj(members) = &mut response {
        members.remove("elapsed_ns");
    }
    response
}

#[test]
fn one_connection_reuses_its_buffers_for_every_frame() {
    let handle = Server::start(ServeConfig {
        workers: 1,
        // Both runs of the decompose miss, so they answer alike.
        cache_bytes: 0,
        ..ServeConfig::loopback()
    })
    .expect("daemon must start");
    let addr = handle.addr().to_string();

    let ping = || Outgoing::Frame(obj(vec![("op", Value::Str("ping".into()))]));
    let oversized = obj(vec![
        ("op", Value::Str("ping".into())),
        ("pad", Value::Str("x".repeat(FRAME_BUF_RETAIN + 4096))),
    ]);
    // The prefix promises 100 bytes; 10 follow, then the write half closes.
    let mut truncated = 100u32.to_le_bytes().to_vec();
    truncated.extend_from_slice(br#"{"op":"pin"#);
    let sends = [
        ping(),
        Outgoing::Frame(inline_decompose()),
        ping(),
        Outgoing::Frame(oversized),
        Outgoing::Truncated(truncated),
    ];

    let mut conn = connect(&addr);
    let mut reused = Vec::new();
    for (i, send) in sends.iter().enumerate() {
        reused.push(exchange(&mut conn, send));
        let (inbound, outbound) = conn.buffer_capacities();
        if i == 1 {
            // The 134 KB request stays in the outbound buffer for the
            // next frame to reuse.
            assert!(outbound > 100_000, "outbound capacity {outbound}");
        }
        assert!(inbound <= FRAME_BUF_RETAIN, "after frame {i}: {inbound}");
        assert!(outbound <= FRAME_BUF_RETAIN, "after frame {i}: {outbound}");
    }
    for (i, send) in sends.iter().enumerate() {
        let fresh = exchange(&mut connect(&addr), send);
        assert_eq!(
            reused[i], fresh,
            "response {i} differs from a fresh connection's"
        );
    }

    // The pings after longer frames parsed exactly their own bytes.
    let pong = obj(vec![
        ("ok", Value::Bool(true)),
        ("op", Value::Str("ping".into())),
    ]);
    for i in [0, 2, 3] {
        assert_eq!(reused[i], pong, "response {i}");
    }
    assert_eq!(reused[1].get("ok"), Some(&Value::Bool(true)));
    assert_eq!(
        reused[1].get("status").and_then(Value::as_str),
        Some("full")
    );
    // The truncated frame is refused as such, not completed from bytes
    // an earlier, longer frame left in the buffer.
    let error = reused[4].get("error").expect("an error response");
    assert_eq!(error.get("code").and_then(Value::as_str), Some("bad-frame"));
    assert_eq!(
        error.get("message").and_then(Value::as_str),
        Some("eof inside payload")
    );
    drop(conn);

    handle.shutdown();
    let snapshot = handle.join();
    assert!(snapshot.drain_clean, "{snapshot:?}");
    assert_eq!(snapshot.rejected_bad_frame, 2, "{snapshot:?}");
}
