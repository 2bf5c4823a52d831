//! `fgh serve` — the partition-as-a-service daemon, plus its load
//! client and self-test harness.
//!
//! Four modes, one subcommand:
//!
//! * **daemon** (default): bind, serve until SIGTERM/SIGINT, drain,
//!   optionally write the final `fgh-serve-metrics/1` report.
//! * **`--self-test`**: start an in-process daemon with fault injection,
//!   hammer it with the hostile load mix, shut it down, and fail unless
//!   everything came back typed and the drain was clean — the CI smoke
//!   job in one flag.
//! * **`--load ADDR`**: run the load generator against an external
//!   daemon.
//! * **`--check-metrics FILE`**: validate a metrics report file against
//!   the schema (CI artifact validation).

use std::time::Duration;

use fgh_serve::client::{LoadConfig, LoadReport};
use fgh_serve::metrics::validate_serve_metrics_value;
use fgh_serve::server::{ServeConfig, Server};
use fgh_serve::{run_load, Listen, ServeSnapshot};

use crate::error::{CmdError, CmdResult};
use crate::opts::Opts;

/// The daemon's flags: [`serve_config`]'s, plus where to write the bound
/// address and the final report.
const DAEMON_FLAGS: &[&str] = &[
    "listen",
    "uds",
    "workers",
    "queue",
    "cache-bytes",
    "drain-ms",
    "max-wall-ms",
    "max-bytes",
    "threads",
    "fault-injection",
    "addr-file",
    "metrics-json",
];

/// `--self-test`'s flags. It always listens on an ephemeral loopback
/// port with faults injected and a fixed drain deadline, so it reads
/// none of the flags that set those.
const SELF_TEST_FLAGS: &[&str] = &[
    "self-test",
    "workers",
    "queue",
    "cache-bytes",
    "max-wall-ms",
    "max-bytes",
    "threads",
    "metrics-json",
    "jobs",
    "concurrency",
    "matrix",
    "scale",
];

/// `--load`'s flags: the load generator's, read by [`load_config`].
const LOAD_FLAGS: &[&str] = &["load", "jobs", "concurrency", "inject", "matrix", "scale"];

pub fn run(args: &[String]) -> CmdResult {
    let all = [
        DAEMON_FLAGS,
        SELF_TEST_FLAGS,
        LOAD_FLAGS,
        &["check-metrics"],
    ]
    .concat();
    let o = Opts::parse(args, &all)?;
    if let Some(path) = o.get("check-metrics") {
        o.only("--check-metrics", &["check-metrics"])?;
        return check_metrics(path);
    }
    if o.has("self-test") {
        o.only("--self-test", SELF_TEST_FLAGS)?;
        return self_test(&o);
    }
    if let Some(addr) = o.get("load") {
        o.only("--load", LOAD_FLAGS)?;
        return load(addr, &o);
    }
    o.only("the daemon", DAEMON_FLAGS)?;
    daemon(&o)
}

fn serve_config(o: &Opts) -> Result<ServeConfig, String> {
    let mut cfg = ServeConfig::loopback();
    cfg.listen = match o.get("uds") {
        #[cfg(unix)]
        Some(path) => Listen::Unix(path.into()),
        #[cfg(not(unix))]
        Some(_) => return Err("--uds is only supported on unix".into()),
        None => Listen::Tcp(o.get("listen").unwrap_or("127.0.0.1:7713").to_string()),
    };
    cfg.workers = o.parse_or("workers", 4usize)?;
    cfg.queue_capacity = o.parse_or("queue", 32usize)?;
    cfg.cache_bytes = o.parse_or("cache-bytes", 8usize << 20)?;
    cfg.drain = Duration::from_millis(o.parse_or("drain-ms", 10_000u64)?);
    cfg.budget_ceiling = o.budget()?;
    // All cores by default: the jobs share one pool that wide, so a lone
    // job forks onto the cores idle workers leave free.
    cfg.parallelism = o.parallelism()?;
    cfg.fault_injection = o.has("fault-injection");
    Ok(cfg)
}

fn write_metrics(path: &str, snapshot: &ServeSnapshot) -> CmdResult {
    let doc = snapshot.to_document();
    validate_serve_metrics_value(&doc)
        .map_err(|e| CmdError::new(1, format!("internal: metrics failed validation: {e}")))?;
    std::fs::write(path, doc.to_json()).map_err(|e| format!("{path}: {e}"))?;
    eprintln!("metrics report written to {path}");
    Ok(())
}

fn print_snapshot(s: &ServeSnapshot) {
    println!("connections:       {}", s.accepted_connections);
    println!(
        "jobs:              {} admitted, {} completed, {} cancelled, {} degraded",
        s.admitted, s.completed, s.cancelled_jobs, s.degraded
    );
    println!(
        "rejections:        {} overloaded, {} bad-request, {} bad-frame, {} shutting-down",
        s.rejected_overloaded,
        s.rejected_bad_request,
        s.rejected_bad_frame,
        s.rejected_shutting_down
    );
    println!(
        "workers:           {} configured, {} panics contained, {} respawned",
        s.workers, s.worker_panics, s.worker_respawns
    );
    println!(
        "threads:           {} shared by all jobs, {} subtrees forked onto another core",
        s.threads, s.parallel_forks
    );
    println!(
        "queue:             capacity {}, peak depth {}",
        s.queue_capacity, s.queue_peak_depth
    );
    println!(
        "cache:             {} hits, {} misses, {} evictions, {} integrity failures",
        s.cache_hits, s.cache_misses, s.cache_evictions, s.cache_integrity_failures
    );
    println!(
        "drain:             {} ({} jobs finished while draining)",
        if s.drain_clean {
            "clean"
        } else {
            "deadline overrun (stragglers cancelled)"
        },
        s.drained_jobs
    );
}

fn daemon(o: &Opts) -> CmdResult {
    let mut cfg = serve_config(o)?;
    cfg.watch_signals = true;
    let handle =
        Server::start(cfg).map_err(|e| CmdError::new(1, format!("failed to start: {e}")))?;
    eprintln!("fgh serve listening on {}", handle.addr());
    // Orchestrators (and the CI smoke job) read the bound address from
    // this file — essential with an ephemeral port.
    if let Some(path) = o.get("addr-file") {
        std::fs::write(path, handle.addr()).map_err(|e| format!("{path}: {e}"))?;
    }
    let snapshot = handle.join();
    eprintln!("fgh serve drained and stopped");
    print_snapshot(&snapshot);
    if let Some(path) = o.get("metrics-json") {
        write_metrics(path, &snapshot)?;
    }
    if snapshot.drain_clean {
        Ok(())
    } else {
        Err(CmdError::new(
            1,
            "drain deadline overrun: in-flight jobs were cancelled",
        ))
    }
}

fn load_config(o: &Opts) -> Result<LoadConfig, String> {
    let mut cfg = LoadConfig::new(
        o.parse_or("jobs", 72usize)?,
        o.parse_or("concurrency", 12usize)?,
    );
    cfg.inject = o.has("inject");
    if let Some(m) = o.get("matrix") {
        cfg.matrix = m.to_string();
    }
    cfg.scale = o.parse_or("scale", 64u32)?;
    Ok(cfg)
}

fn print_report(r: &LoadReport) {
    println!(
        "load:              {} jobs, {} full, {} degraded, {} repeats",
        r.jobs, r.ok_full, r.ok_degraded, r.repeats_sent
    );
    println!(
        "injected:          {} malformed frames, {} disconnects, {} panics, {} bad requests",
        r.malformed_sent, r.disconnects_sent, r.panics_sent, r.bad_requests_sent
    );
    for (code, n) in &r.typed_errors {
        println!("typed error:       {code} x{n}");
    }
    for v in &r.violations {
        println!("VIOLATION:         {v}");
    }
}

fn load(addr: &str, o: &Opts) -> CmdResult {
    let report = run_load(addr, &load_config(o)?);
    print_report(&report);
    if report.is_clean() {
        Ok(())
    } else {
        Err(CmdError::new(
            1,
            format!(
                "load run saw {} protocol violations and {} refused connections",
                report.violations.len(),
                report.connect_failures
            ),
        ))
    }
}

fn self_test(o: &Opts) -> CmdResult {
    let mut cfg = serve_config(o)?;
    // Self-test always runs loopback/ephemeral with faults enabled and a
    // deliberately small queue so admission control is actually exercised.
    cfg.listen = Listen::Tcp("127.0.0.1:0".into());
    cfg.fault_injection = true;
    cfg.queue_capacity = cfg.queue_capacity.min(8);
    cfg.drain = Duration::from_secs(30);
    let handle =
        Server::start(cfg).map_err(|e| CmdError::new(1, format!("failed to start: {e}")))?;
    eprintln!("self-test daemon on {}", handle.addr());

    let mut lc = load_config(o)?;
    lc.inject = true;
    let report = run_load(handle.addr(), &lc);
    handle.shutdown();
    let snapshot = handle.join();

    print_report(&report);
    print_snapshot(&snapshot);
    if let Some(path) = o.get("metrics-json") {
        write_metrics(path, &snapshot)?;
    }

    let mut failures: Vec<String> = Vec::new();
    if !report.is_clean() {
        failures.push(format!(
            "{} protocol violations, {} refused connections",
            report.violations.len(),
            report.connect_failures
        ));
    }
    if !snapshot.drain_clean {
        failures.push("drain deadline overrun".into());
    }
    if report.disconnects_sent > 0 && snapshot.cancelled_jobs == 0 {
        failures.push("disconnects were injected but no job was cancelled".to_string());
    }
    if report.panics_sent > 0 && snapshot.worker_panics == 0 {
        failures.push("panics were injected but none was contained".to_string());
    }
    if report.repeats_sent > 0 && snapshot.cache_byte_cap > 0 && snapshot.cache_hits == 0 {
        failures.push("answered requests were repeated but no plan-cache hit was served".into());
    }
    if snapshot.cache_integrity_failures > 0 {
        failures.push(format!(
            "{} plan-cache hits failed their integrity check on honest traffic",
            snapshot.cache_integrity_failures
        ));
    }
    if failures.is_empty() {
        println!("self-test:         PASS");
        Ok(())
    } else {
        Err(CmdError::new(
            1,
            format!("self-test FAILED: {}", failures.join("; ")),
        ))
    }
}

fn check_metrics(path: &str) -> CmdResult {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let v = fgh_trace::json::parse(&text).map_err(|e| format!("{path}: not valid json: {e}"))?;
    validate_serve_metrics_value(&v).map_err(|e| format!("{path}: {e}"))?;
    println!("{path}: valid fgh-serve-metrics/1");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgh_core::Parallelism;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn self_test_passes_end_to_end() {
        let dir = std::env::temp_dir().join("fgh_cli_serve_test");
        std::fs::create_dir_all(&dir).unwrap();
        let metrics = dir.join("serve-metrics.json");
        let metrics_s = metrics.to_str().unwrap();
        run(&args(&format!(
            "--self-test --jobs 48 --concurrency 8 --workers 3 --metrics-json {metrics_s}"
        )))
        .unwrap();
        // And the artifact validator accepts what self-test wrote.
        run(&args(&format!("--check-metrics {metrics_s}"))).unwrap();
    }

    #[test]
    fn serve_config_shares_all_cores_unless_threads_is_given() {
        let parse = |s: &str| Opts::parse(&args(s), DAEMON_FLAGS).unwrap();
        let cfg = serve_config(&parse("--workers 4")).unwrap();
        assert_eq!(cfg.parallelism, Parallelism::Auto);
        let cfg = serve_config(&parse("--threads 1")).unwrap();
        assert_eq!(cfg.parallelism, Parallelism::Threads(1));
        assert_eq!(
            cfg.parallelism.resolved(),
            1,
            "--threads 1 runs jobs serially"
        );
        let cfg = serve_config(&parse("--threads 2")).unwrap();
        assert_eq!(cfg.parallelism, Parallelism::Threads(2));
    }

    #[test]
    fn each_mode_rejects_flags_it_does_not_read() {
        // A flag another mode reads would otherwise be silently ignored.
        for (line, flag) in [
            (
                "--check-metrics serve-metrics.json --workers 9 --fault-injection",
                "--workers",
            ),
            ("--self-test --jobs 4 --listen 127.0.0.1:0", "--listen"),
            ("--self-test --jobs 4 --inject", "--inject"),
            ("--load 127.0.0.1:9 --workers 2", "--workers"),
        ] {
            let e = run(&args(line)).unwrap_err();
            assert_eq!(e.code, 2, "{line}: {}", e.msg);
            assert!(e.msg.contains(flag), "{line}: {}", e.msg);
        }
    }

    #[test]
    fn check_metrics_rejects_garbage() {
        let dir = std::env::temp_dir().join("fgh_cli_serve_test");
        std::fs::create_dir_all(&dir).unwrap();
        let bad = dir.join("bad-metrics.json");
        std::fs::write(&bad, "{\"schema\":\"bogus/9\"}").unwrap();
        assert!(run(&args(&format!("--check-metrics {}", bad.display()))).is_err());
        assert!(run(&args("--check-metrics /nonexistent/metrics.json")).is_err());
    }
}
