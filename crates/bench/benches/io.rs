//! File format throughput: Matrix Market, `.hgr`, and METIS `.graph`
//! round trips through in-memory buffers, and the serve protocol's JSON.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use fgh_core::models::{FineGrainModel, StandardGraphModel};
use fgh_trace::json::{self, Value};
use std::hint::black_box;

fn bench_io(c: &mut Criterion) {
    let entry = fgh_sparse::catalog::by_name("bcspwr10").expect("catalog");
    let a = entry.generate_scaled(8, 1);

    let mut mm = Vec::new();
    fgh_sparse::io::write_matrix_market_to(&a, &mut mm).expect("write");
    let fg = FineGrainModel::build(&a).expect("square");
    let mut hgr = Vec::new();
    fgh_hypergraph::io::write_hgr_to(fg.hypergraph(), &mut hgr).expect("write");
    let gm = StandardGraphModel::build(&a).expect("square");
    let mut metis = Vec::new();
    fgh_graph::io::write_metis_to(gm.graph(), &mut metis).expect("write");

    let mut group = c.benchmark_group("io_read");
    group.throughput(Throughput::Bytes(mm.len() as u64));
    group.bench_function("matrix_market", |b| {
        b.iter(|| {
            black_box(
                fgh_sparse::io::read_matrix_market_from(black_box(mm.as_slice())).expect("parse"),
            )
        })
    });
    group.throughput(Throughput::Bytes(hgr.len() as u64));
    group.bench_function("hgr", |b| {
        b.iter(|| {
            black_box(fgh_hypergraph::io::read_hgr_from(black_box(hgr.as_slice())).expect("parse"))
        })
    });
    group.throughput(Throughput::Bytes(metis.len() as u64));
    group.bench_function("metis_graph", |b| {
        b.iter(|| {
            black_box(fgh_graph::io::read_metis_from(black_box(metis.as_slice())).expect("parse"))
        })
    });
    group.finish();

    let mut group = c.benchmark_group("io_write");
    group.bench_function("matrix_market", |b| {
        b.iter(|| {
            let mut buf = Vec::with_capacity(mm.len());
            fgh_sparse::io::write_matrix_market_to(black_box(&a), &mut buf).expect("write");
            black_box(buf)
        })
    });
    group.finish();
}

/// The serve protocol's JSON: a decompose request carrying ken-11 at
/// scale 8 as inline Matrix Market text (about 134 KB, one escaped
/// newline per line), serialized and parsed back. Informational; no gate.
fn bench_json(c: &mut Criterion) {
    let entry = fgh_sparse::catalog::by_name("ken-11").expect("catalog");
    let mut mm = Vec::new();
    fgh_sparse::io::write_matrix_market_to(&entry.generate_scaled(8, 1), &mut mm).expect("write");
    let text = String::from_utf8(mm).expect("matrix market text is ascii");
    let request = Value::Obj(
        [
            ("op", Value::Str("decompose".into())),
            ("matrix_mm", Value::Str(text)),
            ("model", Value::Str("fine-grain-2d".into())),
            ("k", Value::Num(64.0)),
            ("seed", Value::Num(1.0)),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect(),
    );
    let doc = request.to_json();

    let mut group = c.benchmark_group("json");
    group.throughput(Throughput::Bytes(doc.len() as u64));
    group.bench_function("to_json_decompose_request", |b| {
        b.iter(|| black_box(black_box(&request).to_json()))
    });
    group.bench_function("parse_decompose_request", |b| {
        b.iter(|| black_box(json::parse(black_box(&doc)).expect("parse")))
    });
    group.finish();
}

criterion_group!(benches, bench_io, bench_json);
criterion_main!(benches);
