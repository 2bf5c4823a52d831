//! `fgh` — command-line front end for the fine-grain hypergraph
//! decomposition library.
//!
//! ```text
//! fgh gen <name|all> [--scale N] [--seed N] [--out DIR]
//! fgh stats <matrix.mtx>
//! fgh partition <matrix.mtx> --k K [--model MODEL] [--epsilon E]
//!               [--seed N] [--runs N] [--out parts.txt]
//! fgh spmv <matrix.mtx> --k K [--model MODEL] [--parallel]
//! fgh spgemm <A.mtx> [B.mtx] --k K [--model MODEL]
//! fgh compare <matrix.mtx> --k K [--seed N]
//! fgh convert <matrix.mtx> [--model MODEL] [--out FILE]
//! fgh spy <matrix.mtx> [--width N] [--k K --model MODEL]
//! fgh serve [--listen ADDR | --uds PATH] [--workers N] [--queue N]
//! ```
//!
//! A flag the subcommand does not read is a bad-input error (exit 2).
//! `spy` and `serve` check per mode: `spy` without `--k` reads only
//! `--width`, and each `serve` mode reads only its own flags.
//!
//! `MODEL` is one of `graph-1d`, `hypergraph-1d-colnet`,
//! `hypergraph-1d-rownet`, `fine-grain-2d` (default), `checkerboard-2d`,
//! `mondriaan-2d`, `jagged-2d` (short aliases like `graph`, `finegrain`,
//! `mondriaan` work too).

mod commands;
mod error;
mod opts;

use std::process::ExitCode;

use error::CmdError;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match args.split_first() {
        Some((c, r)) => (c.as_str(), r),
        None => {
            eprint!("{}", usage());
            return ExitCode::from(2);
        }
    };
    let result = match cmd {
        "gen" => commands::gen::run(rest),
        "stats" => commands::stats::run(rest),
        "partition" => commands::partition::run(rest),
        "serve" => commands::serve::run(rest),
        "spgemm" => commands::spgemm::run(rest),
        "spmv" => commands::spmv::run(rest),
        "spy" => commands::spy::run(rest),
        "compare" => commands::compare::run(rest),
        "convert" => commands::convert::run(rest),
        "help" | "--help" | "-h" => {
            print!("{}", usage());
            return ExitCode::SUCCESS;
        }
        other => Err(CmdError::new(
            2,
            format!("unknown command {other:?}\n\n{}", usage()),
        )),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {}", e.msg);
            ExitCode::from(e.code)
        }
    }
}

fn usage() -> &'static str {
    "fgh - fine-grain hypergraph sparse matrix decomposition\n\
     \n\
     usage:\n\
     \x20 fgh gen <name|all> [--scale N] [--seed N] [--out DIR]\n\
     \x20     generate Table-1 catalog analogues as MatrixMarket files\n\
     \x20 fgh stats <matrix.mtx>\n\
     \x20     print the matrix properties Table 1 reports\n\
     \x20 fgh partition <matrix.mtx> --k K [--model M] [--epsilon E] [--seed N]\n\
     \x20               [--runs N] [--out parts.txt] [--max-wall-ms N]\n\
     \x20               [--strict] [--trace] [--metrics-json FILE]\n\
     \x20     decompose for K processors; optionally write the mapping\n\
     \x20 fgh spmv <matrix.mtx> --k K [--model M] [--parallel] [--max-wall-ms N] [--strict]\n\
     \x20          [--trace]\n\
     \x20     decompose, execute one distributed y = Ax, verify and report\n\
     \x20 fgh spgemm <A.mtx> [B.mtx] --k K [--model M] [--strict] [--trace]\n\
     \x20            [--metrics-json FILE]\n\
     \x20     partition the SpGEMM hypergraph of C = A*B (B omitted = A*A; one\n\
     \x20     vertex per used A nonzero, weighted by the flops that read it),\n\
     \x20     replay the storage traffic, and verify that measured remote\n\
     \x20     words equal the model-predicted volume\n\
     \x20 fgh compare <matrix.mtx> --k K [--seed N]\n\
     \x20     run every model on the matrix and print a comparison table\n\
     \x20 fgh convert <matrix.mtx> [--model M] [--out FILE]\n\
     \x20     export the model as .hgr (PaToH/hMETIS) or .graph (MeTiS)\n\
     \x20 fgh spy <matrix.mtx> [--width N] [--k K --model M]\n\
     \x20     ASCII spy plot, optionally with a decomposition ownership map\n\
     \x20 fgh serve [--listen ADDR | --uds PATH] [--workers N] [--queue N]\n\
     \x20           [--drain-ms N] [--cache-bytes N] [--fault-injection]\n\
     \x20           [--metrics-json FILE] [--addr-file FILE]\n\
     \x20     run the partition daemon until SIGTERM, then drain and report\n\
     \x20 fgh serve --self-test [--jobs N] [--concurrency N] [--metrics-json FILE]\n\
     \x20     in-process daemon + hostile load mix; exit 0 only on a clean run\n\
     \x20 fgh serve --load ADDR [--jobs N] [--concurrency N] [--inject]\n\
     \x20     run the load generator against a running daemon\n\
     \x20 fgh serve --check-metrics FILE\n\
     \x20     validate an fgh-serve-metrics/1 report file\n\
     \n\
     models: graph-1d | hypergraph-1d-colnet | hypergraph-1d-rownet |\n\
     \x20       fine-grain-2d (default) | checkerboard-2d | mondriaan-2d | jagged-2d |\n\
     \x20       spgemm-fine-grain (spgemm workload only, its default)\n\
     \n\
     common flags:\n\
     \x20 --threads N       partitioner thread count (default: all cores; serve\n\
     \x20                   shares them among its jobs, each forking onto the\n\
     \x20                   cores the other workers leave idle, and N = 1 runs\n\
     \x20                   every job serially); results are bit-identical for every N\n\
     \x20 --parallel        (spmv) execute with one thread per processor\n\
     \x20 --max-wall-ms N   wall-clock budget for the partitioner; when it\n\
     \x20                   trips, the best partition found is returned\n\
     \x20 --max-bytes N     working-set byte budget for the partitioner;\n\
     \x20                   exceeding it truncates descent, never aborts\n\
     \x20 --strict          reject degraded outcomes (infeasible balance,\n\
     \x20                   exhausted budget) instead of warning on stderr\n\
     \x20 --trace           record per-phase spans and print the span tree\n\
     \x20                   (durations + counters) on stderr\n\
     \x20 --metrics-json F  (partition) write the run as an fgh-metrics/1\n\
     \x20                   JSON document (comm + engine stats + trace)\n\
     \n\
     exit codes: 0 ok (degraded outcomes warn on stderr) | 1 internal error |\n\
     \x20 2 bad input | 3 infeasible under --strict | 4 budget exhausted under --strict |\n\
     \x20 5 model has no big-index (u64) path for this matrix (use graph-1d,\n\
     \x20   hypergraph-1d-colnet, hypergraph-1d-rownet, or fine-grain-2d)\n"
}
