//! `fgh gen` — write catalog analogues as MatrixMarket files.

use std::path::PathBuf;

use crate::error::CmdResult;
use crate::opts::Opts;

pub fn run(args: &[String]) -> CmdResult {
    let o = Opts::parse(args, &["scale", "seed", "out"])?;
    let which = o.one_positional("matrix name or 'all'")?.to_string();
    let scale: u32 = o.parse_or("scale", 8)?;
    let seed: u64 = o.parse_or("seed", 1)?;
    let out_dir = PathBuf::from(o.get("out").unwrap_or("."));
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;

    let entries = if which.eq_ignore_ascii_case("all") {
        fgh_sparse::catalog::catalog()
    } else {
        vec![fgh_sparse::catalog::by_name(&which)
            .ok_or_else(|| format!("unknown catalog matrix {which:?}"))?]
    };

    for entry in entries {
        let a = entry.generate_scaled(scale, seed);
        let path = out_dir.join(format!("{}_s{scale}.mtx", entry.name));
        fgh_sparse::io::write_matrix_market(&a, &path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!(
            "wrote {} ({} rows, {} nonzeros)",
            path.display(),
            a.nrows(),
            a.nnz()
        );
    }
    Ok(())
}
