//! `fgh partition` — decompose a matrix and optionally write the mapping.

use std::io::Write;

use fgh_core::{decompose_workload_any, Decomposition, WorkloadAny, WorkloadOutcome};

use crate::commands::{finish_outcome, load_matrix_any};
use crate::error::CmdResult;
use crate::opts::{Opts, DECOMPOSE_FLAGS};

pub fn run(args: &[String]) -> CmdResult {
    let o = Opts::parse(
        args,
        &[DECOMPOSE_FLAGS, &["k", "strict", "out", "metrics-json"]].concat(),
    )?;
    let path = o.one_positional("matrix.mtx")?;
    let a = load_matrix_any(path)?;
    let cfg = o.decompose_config(o.parse_required("k")?)?;
    let out = finish_outcome(
        decompose_workload_any(WorkloadAny::Spmv(&a), &cfg).and_then(WorkloadOutcome::into_spmv),
        o.has("strict"),
    )?;

    if let Some(trace) = &out.trace {
        eprint!("{}", trace.render());
    }

    println!(
        "matrix:            {path} ({} rows, {} nnz)",
        a.nrows(),
        a.nnz()
    );
    println!("model:             {}", cfg.model.name());
    println!("index width:       {} bits", out.width.bits());
    println!("processors:        {}", cfg.k);
    println!("objective:         {}", out.objective);
    println!(
        "comm volume:       {} words ({:.4} scaled by M)",
        out.stats.total_volume(),
        out.stats.scaled_total_volume()
    );
    println!(
        "  expand:          {} words, {} messages",
        out.stats.expand_volume, out.stats.expand_messages
    );
    println!(
        "  fold:            {} words, {} messages",
        out.stats.fold_volume, out.stats.fold_messages
    );
    println!("max sent/proc:     {} words", out.stats.max_sent_words());
    println!(
        "msgs/proc:         avg {:.2}, max {}",
        out.stats.avg_messages_per_proc(),
        out.stats.max_messages_per_proc()
    );
    println!(
        "load imbalance:    {:.2}%",
        out.stats.load_imbalance_percent()
    );
    println!("partition time:    {:.3}s", out.elapsed.as_secs_f64());
    match out.status.reason() {
        Some(r) => println!("status:            degraded ({}): {r}", r.code()),
        None => println!("status:            full"),
    }

    if let Some(out_path) = o.get("out") {
        write_mapping(&out.decomposition, out_path)?;
        println!("mapping written:   {out_path}");
    }
    if let Some(json_path) = o.get("metrics-json") {
        let doc = fgh_core::metrics_json(&cfg, &out) + "\n";
        std::fs::write(json_path, doc).map_err(|e| format!("{json_path}: {e}"))?;
        println!("metrics written:   {json_path}");
    }
    Ok(())
}

/// Writes a decomposition as a plain-text mapping file:
/// line 1: `k n nnz`; then `n` vector-owner lines; then `nnz`
/// nonzero-owner lines (CSR order).
pub fn write_mapping(d: &Decomposition, path: &str) -> Result<(), String> {
    let f = std::fs::File::create(path).map_err(|e| format!("{path}: {e}"))?;
    let mut w = std::io::BufWriter::new(f);
    let io_err = |e: std::io::Error| format!("{path}: {e}");
    writeln!(w, "{} {} {}", d.k, d.n, d.nonzero_owner.len()).map_err(io_err)?;
    for &p in &d.vec_owner {
        writeln!(w, "{p}").map_err(io_err)?;
    }
    for &p in &d.nonzero_owner {
        writeln!(w, "{p}").map_err(io_err)?;
    }
    w.flush().map_err(io_err)
}

/// Reads a mapping file written by [`write_mapping`].
#[cfg_attr(not(test), allow(dead_code))]
pub fn read_mapping(path: &str) -> Result<Decomposition, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut lines = text.lines();
    let header = lines.next().ok_or_else(|| format!("{path}: empty file"))?;
    let mut it = header.split_whitespace();
    let parse = |t: Option<&str>, what: &str| -> Result<u64, String> {
        t.ok_or_else(|| format!("{path}: missing {what}"))?
            .parse()
            .map_err(|e| format!("{path}: bad {what}: {e}"))
    };
    let k = u32::try_from(parse(it.next(), "k")?).map_err(|_| format!("{path}: k out of range"))?;
    let n = parse(it.next(), "n")?;
    let nnz = usize::try_from(parse(it.next(), "nnz")?)
        .map_err(|_| format!("{path}: nnz out of range"))?;
    let mut nums = lines.map(|l| l.trim().parse::<u32>());
    let mut take = |count: usize, what: &str| -> Result<Vec<u32>, String> {
        (0..count)
            .map(|_| {
                nums.next()
                    .ok_or_else(|| format!("{path}: truncated {what}"))?
                    .map_err(|e| format!("{path}: bad {what}: {e}"))
            })
            .collect()
    };
    let vec_owner = take(n as usize, "vector owners")?;
    let nonzero_owner = take(nnz, "nonzero owners")?;
    Ok(Decomposition {
        k,
        n,
        nonzero_owner,
        vec_owner,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mapping_roundtrip() {
        let d = Decomposition {
            k: 3,
            n: 2,
            nonzero_owner: vec![0, 2, 1],
            vec_owner: vec![2, 0],
        };
        let dir = std::env::temp_dir().join("fgh_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("map.txt");
        let path = path.to_str().unwrap();
        write_mapping(&d, path).unwrap();
        let back = read_mapping(path).unwrap();
        assert_eq!(back, d);
    }

    #[test]
    fn read_mapping_rejects_garbage() {
        let dir = std::env::temp_dir().join("fgh_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.txt");
        std::fs::write(&path, "2 2\n0\n").unwrap();
        assert!(read_mapping(path.to_str().unwrap()).is_err());
        std::fs::write(&path, "2 2 2\n0\n1\nxyz\n1\n").unwrap();
        assert!(read_mapping(path.to_str().unwrap()).is_err());
    }
}
