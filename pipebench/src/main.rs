//! pipebench — the pipeline benchmark of the fine-grain hypergraph
//! decomposition stack.
//!
//! ```text
//! pipebench --workload W --seed N --seconds S --trace 0|1 [--tiny]
//! pipebench steady --workload W|all [--runs 10] [--first-seed 1] [--seconds S] [--trace 0|1] [--tiny] [--out FILE] [--bench BENCHMARK.json]
//! pipebench compare A.json B.json [--bench BENCHMARK.json]
//! ```
//!
//! A run generates its inputs from `--seed` before anything is timed (the
//! program sees only Matrix Market bytes), runs the workload's fixed op
//! list closed-loop with one client, checks every op's output, and prints
//! as its last stdout line `{"correct", "attempted", "failed", "metrics"}`.
//! `--trace 0` reports the end-to-end metrics, `--trace 1` runs the
//! layer-by-layer traced run and reports the per-layer metrics.
//! `steady` repeats runs in child processes over consecutive seeds and
//! prints each metric's median and quartiles; `compare` sets two such
//! files side by side against the bounds in `BENCHMARK.json`.
//! `METRICS.md` beside this crate defines every metric.

mod spans;
mod stats;
mod steady;
mod traced;
mod workloads;

use std::collections::BTreeMap;
use std::process::ExitCode;

use fgh_trace::json::Value;

use stats::Tally;
use workloads::{Kind, Spec};

/// Parsed command-line flags (`--name value` pairs and bare switches).
pub struct Flags {
    pub values: BTreeMap<String, String>,
    pub positional: Vec<String>,
}

impl Flags {
    pub fn parse(args: &[String], switches: &[&str]) -> Result<Flags, String> {
        let mut values = BTreeMap::new();
        let mut positional = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.strip_prefix("--") {
                Some(name) if switches.contains(&name) => {
                    values.insert(name.to_string(), "1".to_string());
                }
                Some(name) => {
                    let v = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                    values.insert(name.to_string(), v.clone());
                }
                None => positional.push(a.clone()),
            }
        }
        Ok(Flags { values, positional })
    }

    pub fn get<T: std::str::FromStr>(&self, name: &str, default: Option<T>) -> Result<T, String> {
        match self.values.get(name) {
            Some(v) => v.parse().map_err(|_| format!("--{name}: bad value {v:?}")),
            None => default.ok_or_else(|| format!("--{name} is required")),
        }
    }

    pub fn has(&self, name: &str) -> bool {
        self.values.contains_key(name)
    }
}

/// The commit the benchmark was built from, read from `.git` when the
/// working directory is a git checkout; `unknown` otherwise.
pub fn git_sha() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let sha = read(".git/HEAD").and_then(|head| match head.trim().strip_prefix("ref: ") {
        None => Some(head.trim().to_string()),
        Some(r) => read(&format!(".git/{r}")).map(|s| s.trim().to_string()).or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        }),
    });
    sha.unwrap_or_else(|| "unknown".into())
}

pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn metric(value: f64, unit: &str) -> Value {
    let mut m = BTreeMap::new();
    m.insert("value".into(), Value::Num(value));
    m.insert("unit".into(), Value::Str(unit.into()));
    Value::Obj(m)
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_line<'a>(tally: Tally, correct: bool, metrics: impl Iterator<Item = (&'a str, f64, &'a str)>) -> String {
    let mut doc = BTreeMap::new();
    doc.insert("correct".into(), Value::Bool(correct));
    doc.insert("attempted".into(), Value::Num(tally.attempted as f64));
    doc.insert("failed".into(), Value::Num(tally.failed as f64));
    doc.insert(
        "metrics".into(),
        Value::Obj(metrics.map(|(n, v, u)| (n.to_string(), metric(v, u))).collect()),
    );
    Value::Obj(doc).to_json()
}

fn run_once(args: &[String]) -> Result<(), String> {
    let f = Flags::parse(args, &["tiny"])?;
    let name: String = f.get("workload", None)?;
    let kind = Kind::parse(&name).ok_or_else(|| {
        format!(
            "unknown workload {name:?} (one of {})",
            Kind::ALL.map(Kind::name).join(", ")
        )
    })?;
    let seed: u64 = f.get("seed", None)?;
    let seconds: u32 = f.get("seconds", None)?;
    let trace = match f.get::<u8>("trace", Some(0))? {
        0 => false,
        1 => true,
        t => return Err(format!("--trace must be 0 or 1, got {t}")),
    };
    if seconds == 0 {
        return Err("--seconds must be >= 1".into());
    }
    let tiny = f.has("tiny");
    let spec = Spec::of(kind, tiny);

    let mut meta = BTreeMap::new();
    meta.insert("host_cpus".into(), Value::Num(host_cpus() as f64));
    meta.insert("git_sha".into(), Value::Str(git_sha()));
    meta.insert("seed".into(), Value::Num(seed as f64));
    meta.insert("seconds".into(), Value::Num(seconds as f64));
    meta.insert("trace".into(), Value::Bool(trace));
    meta.insert("params".into(), spec.to_value(seconds));
    println!("meta {}", Value::Obj(meta).to_json());

    if trace {
        let out = traced::run(kind, tiny, seed, seconds)?;
        for note in &out.metrics.notes {
            println!("base: {note}");
        }
        for (name, (v, unit)) in &out.metrics.values {
            println!("{name:<32} {v:>14.4} {unit}");
        }
        let ok = out.tally.failed == 0 && out.tally.attempted > 0;
        let values = out.metrics.values.iter().map(|(n, (v, u))| (*n, *v, *u));
        println!("{}", result_line(out.tally, ok, values));
    } else {
        let out = workloads::run(&spec, seed, seconds)?;
        println!("ops: {} attempted, {} failed", out.tally.attempted, out.tally.failed);
        for (name, v, unit) in &out.metrics {
            println!("{name:<32} {v:>14.4} {unit}");
        }
        let ok = out.tally.failed == 0 && out.tally.attempted > 0;
        println!("{}", result_line(out.tally, ok, out.metrics.iter().copied()));
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let r = match args.first().map(String::as_str) {
        Some("steady") => steady::steady(&args[1..]),
        Some("compare") => steady::compare(&args[1..]),
        _ => run_once(&args),
    };
    match r {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("pipebench: {e}");
            ExitCode::FAILURE
        }
    }
}
