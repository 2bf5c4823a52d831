//! Jobs run inside the daemon's one partitioner pool, forking their
//! recursion subtrees onto idle cores. The forks change only the
//! schedule: a default daemon must answer exactly what a serial one does.

use fgh_core::Parallelism;
use fgh_serve::client::{decompose_request, ServeClient};
use fgh_serve::server::{ServeConfig, Server};
use fgh_trace::json::Value;

/// What one daemon answered, and the pool counters it reported.
struct Answers {
    responses: Vec<Value>,
    threads: u64,
    parallel_forks: u64,
}

/// Sends `requests` in order to a fresh daemon under `parallelism`.
fn answers(parallelism: Parallelism, requests: &[Value]) -> Answers {
    let handle = Server::start(ServeConfig {
        parallelism,
        ..ServeConfig::loopback()
    })
    .expect("daemon must start");
    let mut client = ServeClient::connect_tcp(handle.addr()).expect("connect");
    let responses = requests
        .iter()
        .map(|r| client.request(r).expect("response"))
        .collect();
    let stats = client.stats().expect("stats");
    drop(client);
    handle.shutdown();
    let snapshot = handle.join();
    assert!(snapshot.drain_clean, "{snapshot:?}");
    // The live stats and the final report agree once the jobs are done.
    assert_eq!(
        stats.get("threads").unwrap().as_u64(),
        Some(snapshot.threads)
    );
    assert_eq!(
        stats.get("parallel_forks").unwrap().as_u64(),
        Some(snapshot.parallel_forks)
    );
    Answers {
        responses,
        threads: snapshot.threads,
        parallel_forks: snapshot.parallel_forks,
    }
}

#[test]
fn forked_jobs_answer_exactly_what_serial_jobs_answer() {
    let requests: Vec<Value> = [8, 64]
        .into_iter()
        .map(|k| {
            let mut r = decompose_request("ken-11", 8, k, 3);
            if let Value::Obj(doc) = &mut r {
                doc.insert("include_owners".into(), Value::Bool(true));
            }
            r
        })
        .collect();
    let default = ServeConfig::loopback().parallelism;
    assert_eq!(default, Parallelism::Auto);
    let shared = answers(default, &requests);
    let serial = answers(Parallelism::Serial, &requests);
    for (s, p) in serial.responses.iter().zip(&shared.responses) {
        assert_eq!(p.get("ok"), Some(&Value::Bool(true)), "{}", p.to_json());
        assert_eq!(p.get("status").unwrap().as_str(), Some("full"));
        for member in ["objective", "volume", "nonzero_owner", "vec_owner"] {
            assert!(p.get(member).is_some(), "{member} missing");
            assert_eq!(p.get(member), s.get(member), "{member}");
        }
    }
    assert_eq!((serial.threads, serial.parallel_forks), (1, 0));
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    assert_eq!(shared.threads, cpus as u64);
    if cpus > 1 {
        assert!(
            shared.parallel_forks > 0,
            "a lone job on a {cpus}-wide pool never forked"
        );
    }
}
