//! Differential tests of the streaming Matrix Market parser against the
//! retained in-memory legacy parser (`io::legacy`): on every input —
//! randomly generated documents, mutilated documents, and the curated
//! corpus under `tests/corpus/` — the two must agree: both reject, or
//! both accept with identical matrices. The same bytes read through a
//! small-buffered reader, where lines straddle buffer fills, and from a
//! file must give the same result as the in-memory entry points.

use std::io::BufReader;

use fgh_sparse::io::{
    legacy, parse_matrix_market_bytes, parse_matrix_market_bytes_any, read_matrix_market_any,
    read_matrix_market_from,
};
use fgh_sparse::{AnyCsrMatrix, CooMatrix, CsrMatrix, SparseError};
use proptest::prelude::*;

/// Renders a syntactically well-formed coordinate document: random field
/// (real / integer / pattern), random symmetry (symmetric only when
/// square, entries kept lower-triangular), optional comments and blank
/// lines, in-bounds 1-based entries.
fn documents() -> impl Strategy<Value = String> {
    // flags bit 0: symmetric, bit 1: leading comment + blank line.
    (1u32..=15, 1u32..=15, 0u8..3, 0u8..4).prop_flat_map(|(nr, nc, field_idx, flags)| {
        let field = ["real", "integer", "pattern"][field_idx as usize];
        let comment = flags & 2 != 0;
        // Symmetric storage requires a square matrix.
        let (nr, nc, sym) = if flags & 1 != 0 {
            (nr, nr, true)
        } else {
            (nr, nc, false)
        };
        let entry = (1..=nr, 1..=nc, -50i32..50);
        proptest::collection::vec(entry, 0..=30).prop_map(move |mut entries| {
            if sym {
                // Keep the stored triangle lower: i >= j.
                for e in &mut entries {
                    if e.0 < e.1 {
                        std::mem::swap(&mut e.0, &mut e.1);
                    }
                }
            }
            // Coordinates must be unique: repeating a position would
            // let the declared nnz exceed the matrix capacity, which
            // the streaming parser rejects up front.
            entries.sort_by_key(|e| (e.0, e.1));
            entries.dedup_by_key(|e| (e.0, e.1));
            let mut doc = format!(
                "%%MatrixMarket matrix coordinate {field} {}\n",
                if sym { "symmetric" } else { "general" }
            );
            if comment {
                doc.push_str("% a comment line\n\n");
            }
            doc.push_str(&format!("{nr} {nc} {}\n", entries.len()));
            for (i, j, v) in entries {
                match field {
                    "pattern" => doc.push_str(&format!("{i} {j}\n")),
                    "integer" => doc.push_str(&format!("{i} {j} {v}\n")),
                    _ => doc.push_str(&format!("{i} {j} {}\n", v as f64 * 0.5)),
                }
            }
            doc
        })
    })
}

/// The line a positioned parse error points at.
fn error_line(e: &SparseError) -> Option<u64> {
    match e {
        SparseError::ParseAt { line, .. } => Some(*line),
        _ => None,
    }
}

/// Both parsers on the same bytes: agree on accept/reject, and on the
/// parsed matrix when accepting. The reader entry point behind a
/// `cap`-byte buffer returns exactly what the bytes entry point does.
fn assert_parity(data: &[u8], cap: usize, what: &str) {
    let streaming = parse_matrix_market_bytes::<u32>(data);
    let buffered = read_matrix_market_from(BufReader::with_capacity(cap, data));
    assert_eq!(
        buffered, streaming,
        "{what}: reader path differs at capacity {cap}"
    );
    let oracle = legacy::read_matrix_market_from(data);
    match (streaming, oracle) {
        (Ok(new), Ok(old)) => assert_eq!(new, old, "{what}: parsers accept different matrices"),
        (Err(new), Err(old)) => assert_eq!(
            error_line(&new),
            error_line(&old),
            "{what}: parsers reject at different lines: {new} / {old}"
        ),
        (new, old) => panic!(
            "{what}: parsers disagree: streaming {:?}, legacy {:?}",
            new.map(|m| m.nnz()),
            old.map(|m| m.nnz())
        ),
    }
}

proptest! {
    /// Well-formed documents: identical matrices from both parsers, the
    /// width-erased entry point picks the fast path with the same
    /// content, and the small-buffered reader agrees.
    #[test]
    fn streaming_matches_legacy_on_generated_documents(doc in documents(), cap in 1usize..16) {
        let data = doc.as_bytes();
        let new: CooMatrix = parse_matrix_market_bytes(data).unwrap_or_else(|e| panic!("streaming rejected {doc:?}: {e}"));
        let old = legacy::read_matrix_market_from(data).expect("well-formed");
        prop_assert_eq!(&new, &old);
        match parse_matrix_market_bytes_any(data).expect("well-formed") {
            AnyCsrMatrix::U32(m) => prop_assert_eq!(&m, &CsrMatrix::try_from_coo(old).unwrap()),
            AnyCsrMatrix::U64(_) => prop_assert!(false, "small doc must stay u32"),
        }
        let buffered = read_matrix_market_from(BufReader::with_capacity(cap, data));
        prop_assert_eq!(buffered.expect("well-formed"), new);
    }

    /// Mutilated documents: truncate at an arbitrary byte. The parsers
    /// must still agree — both reject, or both accept the same prefix
    /// (truncation can leave a shorter-but-valid document only when it
    /// cuts exactly at the declared nnz, which both must treat alike).
    #[test]
    fn streaming_matches_legacy_on_truncated_documents(
        doc in documents(),
        cut in 0usize..400,
        cap in 1usize..16,
    ) {
        let data = doc.as_bytes();
        let cut = cut.min(data.len());
        assert_parity(&data[..cut], cap, "truncated document");
    }

    /// Byte corruption: overwrite one byte with random garbage.
    #[test]
    fn streaming_matches_legacy_on_corrupted_documents(
        doc in documents(),
        pos in 0usize..400,
        byte in 0u8..128,
        cap in 1usize..16,
    ) {
        let mut data = doc.into_bytes();
        if data.is_empty() {
            return Ok(());
        }
        let pos = pos % data.len();
        data[pos] = byte;
        assert_parity(&data, cap, "corrupted document");
    }
}

/// Every curated corpus file — lenient banners, garbled banners, bad
/// values, out-of-bounds entries, huge dimensions, truncations — gets the
/// same verdict and the same matrix from both parsers, and read in place
/// by the width-erased file reader, the same result as its bytes get from
/// the width-erased bytes entry point.
#[test]
fn corpus_files_agree() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/corpus");
    let mut seen = 0;
    for entry in std::fs::read_dir(&dir).expect("tests/corpus must exist") {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("mtx") {
            continue;
        }
        let data = std::fs::read(&path).unwrap();
        let name = path.file_name().unwrap().to_str().unwrap();
        assert_parity(&data, 3, name);
        assert_eq!(
            read_matrix_market_any(&path),
            parse_matrix_market_bytes_any(&data),
            "{name}: file and bytes entry points disagree"
        );
        seen += 1;
    }
    assert!(seen >= 10, "corpus unexpectedly small: {seen} files");
}
