//! Tiny-scale smoke run of all four workloads, untraced and traced, with
//! every per-op check enabled: each run must be correct and report
//! exactly the metrics `BENCHMARK.json` names, with their units.

use std::process::Command;

use fgh_trace::json::{parse, Value};

const WORKLOADS: [&str; 4] = ["spmv-pipeline", "cg-many", "spgemm-aa", "serve-mixed"];

fn bench_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    parse(&std::fs::read_to_string(path).expect("BENCHMARK.json beside the bench")).expect("valid json")
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let doc = bench_json();
    let list = doc.get(section).and_then(Value::as_arr).expect("section");
    list.iter()
        .map(|m| {
            let s = |k| m.get(k).and_then(Value::as_str).expect(k).to_string();
            (s("name"), s("unit"))
        })
        .collect()
}

fn run(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_fgh-pipebench"))
        .args(args)
        .output()
        .expect("spawn the benchmark")
}

fn result(workload: &str, trace: &str) -> Value {
    let out = run(&["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace, "--tiny"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} trace={trace}: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    parse(stdout.lines().last().expect("a result line")).expect("result line is json")
}

#[test]
fn every_workload_is_correct_and_reports_its_declared_metrics() {
    let declared_workloads: Vec<String> = bench_json()
        .get("workloads")
        .and_then(Value::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).expect("name").to_string())
        .collect();
    assert_eq!(declared_workloads, WORKLOADS);
    for workload in WORKLOADS {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let r = result(workload, trace);
            let keys: Vec<&String> = r.as_obj().expect("object").keys().collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            assert_eq!(r.get("correct"), Some(&Value::Bool(true)), "{workload} trace={trace}");
            assert!(r.get("attempted").and_then(Value::as_u64).expect("attempted") >= 1);
            assert_eq!(r.get("failed").and_then(Value::as_u64), Some(0));
            let metrics = r.get("metrics").and_then(Value::as_obj).expect("metrics");
            let want = declared(section);
            assert_eq!(metrics.len(), want.len(), "{workload} trace={trace}: {:?}", metrics.keys());
            for (name, unit) in want {
                let m = metrics.get(&name).unwrap_or_else(|| panic!("{workload}: {name} missing"));
                assert_eq!(m.get("unit").and_then(Value::as_str), Some(unit.as_str()), "{name}");
                let v = m.get("value").and_then(Value::as_f64).expect("numeric value");
                assert!(v.is_finite(), "{workload}: {name} = {v}");
                if section == "end_to_end" {
                    assert!(v > 0.0, "{workload}: end-to-end {name} must never be 0");
                }
            }
        }
    }
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [
        &["--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"][..],
        &["--workload", "cg-many", "--seed", "1", "--seconds", "1", "--trace", "2"],
        &["--workload", "cg-many", "--seconds", "1", "--trace", "0"],
        &["--workload", "cg-many", "--seed", "1", "--seconds", "0", "--trace", "0"],
    ] {
        let out = run(args);
        assert!(!out.status.success(), "{args:?} succeeded");
        assert!(!String::from_utf8_lossy(&out.stdout).contains("\"correct\""), "{args:?}");
    }
}
