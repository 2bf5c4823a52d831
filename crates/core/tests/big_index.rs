//! The big-index (`u64`) path end to end: streaming Matrix Market input →
//! width selection → decomposition → validation.
//!
//! The CI-sized tests exercise every stage of the wide path on small
//! band patterns (same code, small parameters); the `#[ignore]`d test at
//! the bottom runs a pattern whose fine-grain hypergraph genuinely
//! exceeds `u32::MAX` pins and needs tens of GB of RAM.

use fgh_core::{
    decompose_workload, decompose_workload_any, Budget, DecomposeConfig, Model, Workload,
    WorkloadAny, WorkloadOutcome,
};
use fgh_sparse::gen::BigPattern;
use fgh_sparse::{AnyCsrMatrix, CsrMatrix, IndexWidth};

/// Streams a band pattern through the Matrix Market writer and the
/// width-erased parser, compressing to CSR.
fn roundtrip_pattern(p: &BigPattern) -> AnyCsrMatrix {
    let mut buf = Vec::new();
    p.write_matrix_market_pattern(&mut buf).unwrap();
    fgh_sparse::io::parse_matrix_market_bytes_any(&buf).unwrap()
}

#[test]
fn ci_sized_pattern_decomposes_on_both_paths_identically() {
    let p = BigPattern::new(600, &[1, 7, 40]);
    let any = roundtrip_pattern(&p);
    assert_eq!(any.nnz() as u64, p.nnz());
    // Small instance: the parser keeps it on the fast path.
    assert_eq!(any.width(), IndexWidth::U32);

    let cfg = DecomposeConfig::new(Model::FineGrain2D, 4);
    let erased = decompose_workload_any(WorkloadAny::Spmv(&any), &cfg)
        .and_then(WorkloadOutcome::into_spmv)
        .unwrap();

    // Force the identical instance through the wide path.
    let wide = any.convert_width(IndexWidth::U64).unwrap();
    let a64 = wide.as_u64().unwrap();
    let out = decompose_workload(Workload::Spmv(a64), &cfg)
        .and_then(WorkloadOutcome::into_spmv)
        .unwrap();
    assert_eq!(out.width, IndexWidth::U64);
    out.decomposition.validate(a64).unwrap();
    // ... and across the width-erased entry point.
    let erased_wide = decompose_workload_any(WorkloadAny::Spmv(&wide), &cfg)
        .and_then(WorkloadOutcome::into_spmv)
        .unwrap();
    assert_eq!(erased_wide.width, IndexWidth::U64);

    assert_eq!(erased.decomposition, out.decomposition);
    assert_eq!(erased.decomposition, erased_wide.decomposition);
    assert_eq!(erased.objective, out.objective);
}

#[test]
fn wide_byte_budget_truncates_but_stays_valid() {
    let p = BigPattern::new(400, &[1, 13]);
    let a64: CsrMatrix<u64> = p.to_csr().unwrap();
    let cfg = DecomposeConfig::new(Model::FineGrain2D, 4).with_budget(Budget::bytes(1));
    let out = decompose_workload(Workload::Spmv(&a64), &cfg)
        .and_then(WorkloadOutcome::into_spmv)
        .unwrap();
    out.decomposition.validate(&a64).unwrap();
    assert!(out.engine.byte_truncations > 0);
    assert!(out.status.is_degraded());
}

#[test]
fn oversized_pattern_selects_u64_without_materializing() {
    // nnz ≈ 5n ≈ 2.15e9, fine-grain pins ≈ 4.3e9 > u32::MAX: the matrix
    // itself fits 32-bit indices, but the fine-grain hypergraph does not —
    // exactly the case `IndexWidth::select` exists for. The arithmetic is
    // O(1); nothing is allocated.
    let p = BigPattern::new(430_000_000, &[1, 2]);
    assert!(p.n() < u64::from(u32::MAX));
    assert!(p.fine_grain_pins() > u64::from(u32::MAX));
    assert_eq!(p.width(), IndexWidth::U64);
    assert_eq!(
        IndexWidth::select(p.n(), p.n(), p.nnz()),
        IndexWidth::U64,
        "select must route the hypergraph-overflow case wide"
    );

    // A pattern whose order itself overflows u32 refuses narrow
    // materialization with a typed error (and would pick u64 anyway).
    let huge = BigPattern::new(1 << 33, &[]);
    assert_eq!(huge.width(), IndexWidth::U64);
    assert!(huge.to_csr::<u32>().is_err());
}

/// The real thing: > u32::MAX fine-grain pins, streamed to disk, parsed
/// back at width `u64`, decomposed under a byte budget, validated.
/// Needs roughly 60–100 GB of RAM and hours of wall clock — run manually
/// with `cargo test -p fgh-core --test big_index -- --ignored`.
#[test]
#[ignore = "needs ~100 GB RAM; exercises > u32::MAX hypergraph pins for real"]
fn huge_pattern_roundtrips_on_the_wide_path() {
    let p = BigPattern::new(430_000_000, &[1, 2]);
    assert!(p.fine_grain_pins() > u64::from(u32::MAX));

    let dir = std::env::temp_dir().join("fgh_big_index");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("huge.mtx");
    let f = std::fs::File::create(&path).unwrap();
    p.write_matrix_market_pattern(std::io::BufWriter::new(f))
        .unwrap();

    let any = fgh_sparse::io::read_matrix_market_any(&path).unwrap();
    assert_eq!(any.width(), IndexWidth::U64);

    // A byte budget keeps the multilevel driver from building the full
    // level hierarchy; the result is truncated-but-valid, never an abort.
    let cfg = DecomposeConfig::new(Model::FineGrain2D, 8).with_budget(Budget::bytes(64 << 30));
    let out = decompose_workload_any(WorkloadAny::Spmv(&any), &cfg)
        .and_then(WorkloadOutcome::into_spmv)
        .unwrap();
    assert_eq!(out.width, IndexWidth::U64);
    let a64 = any.as_u64().unwrap();
    out.decomposition.validate(a64).unwrap();
    std::fs::remove_file(&path).ok();
}
