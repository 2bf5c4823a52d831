//! `fgh convert` — export a matrix's decomposition model as a standard
//! partitioning-tool input file (`.hgr` for PaToH/hMETIS, `.graph` for
//! MeTiS), enabling cross-checks against the original tools.

use fgh_core::models::{ColumnNetModel, FineGrainModel, RowNetModel, StandardGraphModel};

use crate::commands::load_matrix;
use crate::error::CmdResult;
use crate::opts::Opts;

pub fn run(args: &[String]) -> CmdResult {
    let o = Opts::parse(args, &["model", "out"])?;
    let path = o.one_positional("matrix.mtx")?;
    let a = load_matrix(path)?;
    let model = o.get("model").unwrap_or("fine-grain-2d");
    let out = o
        .get("out")
        .map(String::from)
        .unwrap_or_else(|| default_name(path, model));

    match model {
        "fine-grain-2d" => {
            let m = FineGrainModel::build(&a).map_err(|e| e.to_string())?;
            fgh_hypergraph::io::write_hgr(m.hypergraph(), &out).map_err(|e| e.to_string())?;
            println!(
                "wrote {out}: fine-grain hypergraph, |V|={} |N|={} pins={}",
                m.hypergraph().num_vertices(),
                m.hypergraph().num_nets(),
                m.hypergraph().num_pins()
            );
        }
        "hypergraph-1d-colnet" => {
            let m = ColumnNetModel::build(&a).map_err(|e| e.to_string())?;
            fgh_hypergraph::io::write_hgr(m.hypergraph(), &out).map_err(|e| e.to_string())?;
            println!(
                "wrote {out}: column-net hypergraph, |V|={} |N|={}",
                m.hypergraph().num_vertices(),
                m.hypergraph().num_nets()
            );
        }
        "hypergraph-1d-rownet" => {
            let m = RowNetModel::build(&a).map_err(|e| e.to_string())?;
            fgh_hypergraph::io::write_hgr(m.hypergraph(), &out).map_err(|e| e.to_string())?;
            println!(
                "wrote {out}: row-net hypergraph, |V|={} |N|={}",
                m.hypergraph().num_vertices(),
                m.hypergraph().num_nets()
            );
        }
        "graph-1d" => {
            let m = StandardGraphModel::build(&a).map_err(|e| e.to_string())?;
            fgh_graph::io::write_metis(m.graph(), &out).map_err(|e| e.to_string())?;
            println!(
                "wrote {out}: standard graph model, n={} m={}",
                m.graph().n(),
                m.graph().num_edges()
            );
        }
        other => return Err(format!("cannot export model {other:?} (no file format)").into()),
    }
    Ok(())
}

fn default_name(matrix_path: &str, model: &str) -> String {
    let stem = std::path::Path::new(matrix_path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("matrix");
    let ext = if model == "graph-1d" { "graph" } else { "hgr" };
    format!("{stem}.{model}.{ext}")
}
