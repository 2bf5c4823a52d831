//! Steadiness tooling: repeat a workload over consecutive seeds and
//! summarize each metric by median and quartiles; compare two such sets
//! against the bounds in `BENCHMARK.json`.

use std::collections::BTreeMap;
use std::process::Command;

use fgh_trace::json::{parse, Value};

use crate::stats::{median, quartiles, spread};
use crate::workloads::{Kind, Spec};
use crate::{git_sha, host_cpus, Flags};

/// One metric's values across the runs of a set.
#[derive(Default)]
struct Series {
    unit: String,
    values: Vec<f64>,
}

fn summarize(series: &BTreeMap<String, Series>) -> Value {
    let mut out = BTreeMap::new();
    for (name, s) in series {
        let mut m = BTreeMap::new();
        m.insert("unit".into(), Value::Str(s.unit.clone()));
        // Python's statistics.median, which `compare` and readers use.
        let q = quartiles(&s.values);
        m.insert("median".into(), Value::Num(q.map_or_else(|| median(&s.values), |q| q.1)));
        if let Some((q1, q2, q3)) = q {
            m.insert("q1".into(), Value::Num(q1));
            m.insert("q2".into(), Value::Num(q2));
            m.insert("q3".into(), Value::Num(q3));
            m.insert("spread".into(), Value::Num(spread(&s.values).unwrap_or(0.0)));
        }
        m.insert("values".into(), Value::Arr(s.values.iter().map(|&v| Value::Num(v)).collect()));
        out.insert(name.clone(), Value::Obj(m));
    }
    Value::Obj(out)
}

/// Runs one benchmark child process and returns its result line.
fn child(args: &[String]) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe).args(args).output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "run {args:?} exited {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let last = stdout.lines().last().ok_or("no output")?;
    parse(last)
}

pub fn steady(args: &[String]) -> Result<(), String> {
    let f = Flags::parse(args, &["tiny"])?;
    let which: String = f.get("workload", None)?;
    let runs: u64 = f.get("runs", Some(10))?;
    let first_seed: u64 = f.get("first-seed", Some(1))?;
    let seconds: u32 = match f.values.get("seconds") {
        Some(_) => f.get("seconds", None)?,
        None => run_seconds(&f.get("bench", Some("BENCHMARK.json".to_string()))?)?,
    };
    let trace: u8 = f.get("trace", Some(0))?;
    let kinds: Vec<Kind> = if which == "all" {
        Kind::ALL.to_vec()
    } else {
        vec![Kind::parse(&which).ok_or_else(|| format!("unknown workload {which:?}"))?]
    };
    let mut workloads = BTreeMap::new();
    let mut incorrect = 0;
    for kind in kinds {
        let mut series: BTreeMap<String, Series> = BTreeMap::new();
        let mut results = Vec::new();
        for seed in first_seed..first_seed + runs {
            let mut a: Vec<String> = ["--workload", kind.name(), "--seed", &seed.to_string()]
                .map(String::from)
                .to_vec();
            a.extend(["--seconds".into(), seconds.to_string(), "--trace".into(), trace.to_string()]);
            if f.has("tiny") {
                a.push("--tiny".into());
            }
            let r = child(&a)?;
            let correct = r.get("correct") == Some(&Value::Bool(true));
            eprintln!("{} seed {seed}: correct={correct}", kind.name());
            if !correct {
                incorrect += 1;
            }
            for (name, m) in r.get("metrics").and_then(Value::as_obj).into_iter().flatten() {
                let s = series.entry(name.clone()).or_default();
                s.unit = m.get("unit").and_then(Value::as_str).unwrap_or("").into();
                s.values.push(m.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN));
            }
            let mut run = BTreeMap::new();
            run.insert("seed".into(), Value::Num(seed as f64));
            run.insert("result".into(), r);
            results.push(Value::Obj(run));
        }
        println!("{} ({runs} runs, seeds {first_seed}..{}):", kind.name(), first_seed + runs - 1);
        println!("  {:<30} {:>14} {:>14} {:>14} {:>8}", "metric", "q1", "median", "q3", "spread");
        for (name, s) in &series {
            let (q1, q2, q3) = quartiles(&s.values).unwrap_or((f64::NAN, median(&s.values), f64::NAN));
            let sp = 100.0 * spread(&s.values).unwrap_or(f64::NAN);
            println!("  {name:<30} {q1:>14.4} {q2:>14.4} {q3:>14.4} {sp:>7.2}% {}", s.unit);
        }
        let mut w = BTreeMap::new();
        w.insert("params".into(), Spec::of(kind, f.has("tiny")).to_value(seconds));
        w.insert("runs".into(), Value::Arr(results));
        w.insert("summary".into(), summarize(&series));
        workloads.insert(kind.name().to_string(), Value::Obj(w));
    }
    let mut meta = BTreeMap::new();
    meta.insert("host_cpus".into(), Value::Num(host_cpus() as f64));
    meta.insert("git_sha".into(), Value::Str(git_sha()));
    meta.insert("first_seed".into(), Value::Num(first_seed as f64));
    meta.insert("runs".into(), Value::Num(runs as f64));
    meta.insert("seconds".into(), Value::Num(seconds as f64));
    meta.insert("trace".into(), Value::Num(trace as f64));
    let mut doc = BTreeMap::new();
    doc.insert("meta".into(), Value::Obj(meta));
    doc.insert("workloads".into(), Value::Obj(workloads));
    if let Some(path) = f.values.get("out") {
        std::fs::write(path, Value::Obj(doc).to_json()).map_err(|e| format!("{path}: {e}"))?;
    }
    if incorrect > 0 {
        return Err(format!("{incorrect} run(s) reported correct: false"));
    }
    Ok(())
}

/// `run_seconds` of `BENCHMARK.json`: the run length `steady` defaults to.
fn run_seconds(path: &str) -> Result<u32, String> {
    load(path)?
        .get("run_seconds")
        .and_then(Value::as_u64)
        .and_then(|s| u32::try_from(s).ok())
        .ok_or_else(|| format!("{path}: no run_seconds"))
}

/// `better` direction and bound of every metric `BENCHMARK.json` names.
fn bounds(path: &str) -> Result<BTreeMap<String, (bool, Option<f64>)>, String> {
    let doc = load(path)?;
    let mut out = BTreeMap::new();
    for section in ["end_to_end", "per_layer"] {
        for m in doc.get(section).and_then(Value::as_arr).into_iter().flatten() {
            let name = m.get("name").and_then(Value::as_str).ok_or("metric without name")?;
            let lower = m.get("better").and_then(Value::as_str) != Some("higher");
            out.insert(name.to_string(), (lower, m.get("bound").and_then(Value::as_f64)));
        }
    }
    Ok(out)
}

fn load(path: &str) -> Result<Value, String> {
    parse(&std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?)
}

/// Compares set B against set A metric by metric: the change of B's
/// median over A's (positive = worse), and each set's spread, against
/// the metric's bound. Fails when a bounded metric got worse by more than
/// its bound, when either set spreads wider than it (`setup_s` aside: its
/// spread is not held to its bound, only its median), when B lacks a
/// workload or metric that A has, or when any run of either set reported
/// `correct: false`.
pub fn compare(args: &[String]) -> Result<(), String> {
    let f = Flags::parse(args, &[])?;
    let [a_path, b_path] = f.positional.as_slice() else {
        return Err("compare needs two result files".into());
    };
    let bench: String = f.get("bench", Some("BENCHMARK.json".to_string()))?;
    let bounds = bounds(&bench)?;
    let (a, b) = (load(a_path)?, load(b_path)?);
    let mut failures = 0;
    let stat = |v: &Value, k: &str| v.get(k).and_then(Value::as_f64).unwrap_or(f64::NAN);
    for (set, doc) in [("A", &a), ("B", &b)] {
        for (wname, w) in doc.get("workloads").and_then(Value::as_obj).into_iter().flatten() {
            for run in w.get("runs").and_then(Value::as_arr).into_iter().flatten() {
                if run.get("result").and_then(|r| r.get("correct")) != Some(&Value::Bool(true)) {
                    println!("{set} {wname} seed {:?}: INCORRECT", run.get("seed").and_then(Value::as_u64));
                    failures += 1;
                }
            }
        }
    }
    for (wname, wa) in a.get("workloads").and_then(Value::as_obj).into_iter().flatten() {
        let Some(wb) = b.get("workloads").and_then(|w| w.get(wname)) else {
            println!("{wname}: MISSING from B");
            failures += 1;
            continue;
        };
        println!("{wname}:");
        println!(
            "  {:<30} {:>14} {:>14} {:>9} {:>9} {:>9} {:>7}",
            "metric", "median A", "median B", "worse", "spread A", "spread B", "bound"
        );
        for (name, sa) in wa.get("summary").and_then(Value::as_obj).into_iter().flatten() {
            let Some(sb) = wb.get("summary").and_then(|s| s.get(name)) else {
                println!("  {name:<30} MISSING from B");
                failures += 1;
                continue;
            };
            let (lower, bound) = bounds.get(name).copied().unwrap_or((true, None));
            let (ma, mb) = (stat(sa, "median"), stat(sb, "median"));
            let change = (mb - ma) / ma.abs();
            let worse = if lower { change } else { -change };
            let (spa, spb) = (stat(sa, "spread"), stat(sb, "spread"));
            let mut verdict = "";
            if let Some(bd) = bound {
                if worse > bd {
                    verdict = "WORSE";
                } else if name != "setup_s" && (spa > bd || spb > bd) {
                    verdict = "UNSTEADY";
                }
            }
            if !verdict.is_empty() {
                failures += 1;
            }
            println!(
                "  {name:<30} {ma:>14.4} {mb:>14.4} {:>8.2}% {:>8.2}% {:>8.2}% {:>7} {verdict}",
                100.0 * worse,
                100.0 * spa,
                100.0 * spb,
                bound.map_or("-".to_string(), |b| format!("{:.0}%", 100.0 * b)),
            );
        }
    }
    if failures > 0 {
        Err(format!("{failures} metric(s) outside their bounds"))
    } else {
        Ok(())
    }
}
