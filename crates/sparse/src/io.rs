//! Matrix Market (`.mtx`) I/O.
//!
//! Supports the `matrix coordinate` format with `real`, `integer`, and
//! `pattern` fields and `general`, `symmetric`, and `skew-symmetric`
//! symmetry qualifiers — enough to read every matrix the paper evaluates
//! straight from the UF/SuiteSparse collection when available.
//!
//! ## Streaming architecture
//!
//! A private line-fed state machine builds the COO matrix directly from
//! byte slices, never materializing the text. One driver feeds it from any
//! [`BufRead`]: it slices lines out of the reader's own buffer and copies
//! only a line that straddles two buffer fills, so memory stays
//! O(longest line). Every entry point goes through that driver:
//!
//! * [`parse_matrix_market_bytes`] and [`read_matrix_market_from`] hand it
//!   their input as is — an in-memory slice is one buffer fill, so
//!   nothing is copied;
//! * [`read_matrix_market`] opens the file behind a 64 KiB [`BufReader`];
//! * [`read_matrix_market_any`] and [`parse_matrix_market_bytes_any`] stop
//!   the driver at the size line, select the index width with
//!   [`IndexWidth::select`], then parse again from the start at that width
//!   and compress to an [`AnyCsrMatrix`].
//!
//! Every structural error carries the 1-based line number where it was
//! detected, as the historical in-memory parser reported it. That parser
//! survives as [`legacy`] — a deliberately naive oracle the test suite
//! diffs the streaming parser against.

use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Cursor, ErrorKind, Read, Seek, Write};
use std::ops::ControlFlow;
use std::path::Path;

use crate::index::{IndexType, IndexWidth};
use crate::{AnyCsrMatrix, CooMatrix, CsrMatrix, Result, SparseError};

/// The value field declared in the Matrix Market header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MmField {
    /// Real floating-point values.
    Real,
    /// Integer values (read as `f64`).
    Integer,
    /// Pattern only — entries have no value; we store `1.0`.
    Pattern,
}

/// The symmetry qualifier declared in the Matrix Market header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MmSymmetry {
    /// All entries stored explicitly.
    General,
    /// Lower triangle stored; `(i, j)` implies `(j, i)` with equal value.
    Symmetric,
    /// Lower triangle stored; `(i, j)` implies `(j, i)` with negated value.
    SkewSymmetric,
}

// Cap the speculative preallocation: a hostile header may declare a huge
// nnz and then supply no entries, which must not OOM the process.
const MAX_PREALLOC: usize = 1 << 20;

enum MmState {
    ExpectHeader,
    ExpectSize {
        field: MmField,
        symmetry: MmSymmetry,
    },
    Entries,
}

/// The streaming Matrix Market parser: a state machine fed one line at a
/// time as raw bytes by [`feed_lines`]. The COO matrix is built
/// incrementally — no intermediate text or token buffers outlive a single
/// line.
struct MmParser<I: IndexType> {
    state: MmState,
    field: MmField,
    symmetry: MmSymmetry,
    nnz: usize,
    seen: usize,
    last_line: u64,
    coo: CooMatrix<I>,
}

impl<I: IndexType> MmParser<I> {
    /// A fresh parser expecting the banner line.
    fn new() -> Self {
        MmParser {
            state: MmState::ExpectHeader,
            field: MmField::Real,
            symmetry: MmSymmetry::General,
            nnz: 0,
            seen: 0,
            last_line: 0,
            coo: CooMatrix::new(I::ZERO, I::ZERO),
        }
    }

    /// Once the size line has been consumed, the narrowest index width
    /// able to hold the declared matrix's fine-grain hypergraph (symmetry
    /// expansion can double the stored entry count, which the pin estimate
    /// must survive).
    fn width(&self) -> Option<IndexWidth> {
        if !matches!(self.state, MmState::Entries) {
            return None;
        }
        let nnz = self.nnz as u64;
        let nnz = if self.symmetry == MmSymmetry::General {
            nnz
        } else {
            nnz.saturating_mul(2)
        };
        let (nrows, ncols) = (self.coo.nrows().as_u64(), self.coo.ncols().as_u64());
        Some(IndexWidth::select(nrows, ncols, nnz))
    }

    /// Feeds one input line (without its terminator). `no` is the 1-based
    /// line number used in error reports.
    fn feed_line(&mut self, no: u64, line: &[u8]) -> Result<()> {
        let at = |msg: String| SparseError::ParseAt { line: no, msg };
        // Invalid UTF-8 surfaces like the BufRead::lines() failure the
        // historical parser produced, keeping error variants stable.
        let text = std::str::from_utf8(line)
            .map_err(|_| SparseError::Io("stream did not contain valid UTF-8".into()))?;
        let t = text.trim();
        match self.state {
            MmState::ExpectHeader => {
                if t.is_empty() {
                    return Ok(());
                }
                let (field, symmetry) = parse_header(text, no)?;
                self.state = MmState::ExpectSize { field, symmetry };
                Ok(())
            }
            MmState::ExpectSize { field, symmetry } => {
                if t.is_empty() || t.starts_with('%') {
                    return Ok(());
                }
                // Parse dimensions and nnz as u64 first, then narrow with
                // a typed error: a 5-billion-row header must surface as
                // `TooLarge`, not as a confusing "bad rows" parse failure
                // or a silent truncation.
                let mut it = t.split_whitespace();
                let nrows_raw = parse_num::<u64>(it.next(), "rows", no)?;
                let ncols_raw = parse_num::<u64>(it.next(), "cols", no)?;
                let nnz_raw = parse_num::<u64>(it.next(), "nnz", no)?;
                let nrows = I::checked(nrows_raw, "row count")?;
                let ncols = I::checked(ncols_raw, "column count")?;
                let nnz = usize::try_from(nnz_raw).map_err(|_| SparseError::TooLarge {
                    what: "nonzero count",
                    value: nnz_raw,
                    max: usize::MAX as u64,
                })?;
                if it.next().is_some() {
                    return Err(at("size line has extra fields".into()));
                }
                let stored_max = (nrows_raw as u128) * (ncols_raw as u128);
                if nnz as u128 > stored_max {
                    return Err(at(format!(
                        "declared {nnz} entries exceed the {nrows_raw} x {ncols_raw} capacity {stored_max}"
                    )));
                }
                let want = if symmetry == MmSymmetry::General {
                    nnz
                } else {
                    nnz.saturating_mul(2)
                };
                self.field = field;
                self.symmetry = symmetry;
                self.nnz = nnz;
                self.last_line = no;
                self.coo = CooMatrix::with_capacity(nrows, ncols, want.min(MAX_PREALLOC));
                self.state = MmState::Entries;
                Ok(())
            }
            MmState::Entries => {
                if t.is_empty() || t.starts_with('%') {
                    return Ok(());
                }
                self.last_line = no;
                if self.seen == self.nnz {
                    return Err(at(format!("more entries than the declared {}", self.nnz)));
                }
                let mut it = t.split_whitespace();
                let i_raw = parse_num::<u64>(it.next(), "row index", no)?;
                let j_raw = parse_num::<u64>(it.next(), "col index", no)?;
                if i_raw == 0 || j_raw == 0 {
                    return Err(at("matrix market indices are 1-based".into()));
                }
                let v = match self.field {
                    MmField::Pattern => 1.0,
                    MmField::Real | MmField::Integer => it
                        .next()
                        .ok_or_else(|| SparseError::ParseAt {
                            line: no,
                            msg: "missing value".into(),
                        })?
                        .parse::<f64>()
                        .map_err(|e| SparseError::ParseAt {
                            line: no,
                            msg: format!("bad value: {e}"),
                        })?,
                };
                if it.next().is_some() {
                    return Err(at("entry line has extra fields".into()));
                }
                let i = I::from_u64_checked(i_raw - 1)
                    .ok_or_else(|| at(format!("row index {i_raw} exceeds {} range", I::NAME)))?;
                let j = I::from_u64_checked(j_raw - 1)
                    .ok_or_else(|| at(format!("col index {j_raw} exceeds {} range", I::NAME)))?;
                self.coo.push(i, j, v).map_err(|e| at(e.to_string()))?;
                match self.symmetry {
                    MmSymmetry::General => {}
                    MmSymmetry::Symmetric => {
                        if i != j {
                            self.coo.push(j, i, v).map_err(|e| at(e.to_string()))?;
                        }
                    }
                    MmSymmetry::SkewSymmetric => {
                        if i == j {
                            return Err(at("skew-symmetric matrix with diagonal entry".into()));
                        }
                        self.coo.push(j, i, -v).map_err(|e| at(e.to_string()))?;
                    }
                }
                self.seen += 1;
                Ok(())
            }
        }
    }

    /// Consumes the parser at EOF, returning the COO matrix or the
    /// structural error an incomplete stream implies.
    fn finish(self) -> Result<CooMatrix<I>> {
        match self.state {
            MmState::ExpectHeader => Err(SparseError::Parse("empty file".into())),
            MmState::ExpectSize { .. } => Err(SparseError::Parse("missing size line".into())),
            MmState::Entries => {
                if self.seen != self.nnz {
                    return Err(SparseError::ParseAt {
                        line: self.last_line,
                        msg: format!("declared {} entries, found {}", self.nnz, self.seen),
                    });
                }
                Ok(self.coo)
            }
        }
    }
}

/// The one line driver: hands `f` each line of `input` with its 1-based
/// number, stripped of its `\n` and of one trailing `\r` (CRLF input),
/// until EOF or until `f` breaks. Lines are sliced out of the reader's
/// buffer; only a line that straddles two fills is copied. The final
/// fragment counts as a line even without a terminator.
fn feed_lines(
    mut input: impl BufRead,
    mut f: impl FnMut(u64, &[u8]) -> Result<ControlFlow<()>>,
) -> Result<()> {
    let mut carry: Vec<u8> = Vec::new();
    let mut no = 0u64;
    loop {
        let buf = match input.fill_buf() {
            Ok([]) => break,
            Ok(buf) => buf,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        };
        let filled = buf.len();
        let mut lines = buf.split(|&b| b == b'\n');
        // What follows the fill's last `\n` may continue in the next fill.
        let tail = lines.next_back().unwrap_or_default();
        for line in lines {
            no += 1;
            let flow = if carry.is_empty() {
                f(no, trim_cr(line))?
            } else {
                carry.extend_from_slice(line);
                let flow = f(no, trim_cr(&carry))?;
                carry.clear();
                flow
            };
            if flow.is_break() {
                return Ok(());
            }
        }
        carry.extend_from_slice(tail);
        input.consume(filled);
    }
    if !carry.is_empty() {
        // An unterminated last line: nothing follows for a break to skip.
        let _ = f(no + 1, trim_cr(&carry))?;
    }
    Ok(())
}

fn trim_cr(line: &[u8]) -> &[u8] {
    match line.split_last() {
        Some((&b'\r', head)) => head,
        _ => line,
    }
}

/// Parses a whole document at an explicit width.
fn parse<I: IndexType>(input: impl BufRead) -> Result<CooMatrix<I>> {
    let mut p = MmParser::new();
    feed_lines(input, |no, line| {
        p.feed_line(no, line).map(ControlFlow::Continue)
    })?;
    p.finish()
}

/// Reads `input` only as far as the size line and returns the index width
/// its header selects.
fn scan_width(input: impl BufRead) -> Result<IndexWidth> {
    // At u64 every declared dimension reaches width selection unnarrowed.
    let mut p = MmParser::<u64>::new();
    feed_lines(input, |no, line| {
        p.feed_line(no, line)?;
        Ok(match p.width() {
            Some(_) => ControlFlow::Break(()),
            None => ControlFlow::Continue(()),
        })
    })?;
    if let Some(width) = p.width() {
        return Ok(width);
    }
    // EOF before the size line: finish() names what is missing.
    p.finish()?;
    Err(SparseError::Parse("missing size line".into()))
}

/// Parses `input` at the width its header selects and compresses it,
/// summing duplicates (see [`CsrMatrix::try_from_coo`]).
fn parse_any(mut input: impl BufRead + Seek) -> Result<AnyCsrMatrix> {
    let width = scan_width(&mut input)?;
    input.rewind()?;
    Ok(match width {
        IndexWidth::U32 => AnyCsrMatrix::U32(CsrMatrix::try_from_coo(parse(input)?)?),
        IndexWidth::U64 => AnyCsrMatrix::U64(CsrMatrix::try_from_coo(parse(input)?)?),
    })
}

/// Opens a file behind the 64 KiB buffer the driver reads it through.
fn open(path: impl AsRef<Path>) -> Result<BufReader<File>> {
    Ok(BufReader::with_capacity(64 * 1024, File::open(path)?))
}

/// Parses a complete in-memory Matrix Market document at an explicit
/// width, without copying it.
pub fn parse_matrix_market_bytes<I: IndexType>(data: &[u8]) -> Result<CooMatrix<I>> {
    parse(data)
}

/// Parses an in-memory Matrix Market document into CSR at the index width
/// its header selects (see [`read_matrix_market_any`]).
pub fn parse_matrix_market_bytes_any(data: &[u8]) -> Result<AnyCsrMatrix> {
    parse_any(Cursor::new(data))
}

/// Reads a Matrix Market file from disk into COO format at the default
/// `u32` width. See [`read_matrix_market_any`] for automatic width
/// selection.
pub fn read_matrix_market(path: impl AsRef<Path>) -> Result<CooMatrix> {
    parse(open(path)?)
}

/// Reads a Matrix Market file from disk into CSR, selecting the index
/// width from its header: `u32` when the fine-grain hypergraph fits 32-bit
/// ids, `u64` otherwise. The header is scanned first (the driver stops at
/// the size line), then the file is parsed once at the selected width and
/// compressed, summing duplicate entries.
pub fn read_matrix_market_any(path: impl AsRef<Path>) -> Result<AnyCsrMatrix> {
    parse_any(open(path)?)
}

/// Reads Matrix Market data from any buffered reader at the default `u32`
/// width; lines are sliced out of the reader's own buffer.
///
/// The parser is strict about structure (every error carries the 1-based
/// line number where it was detected) but lenient about presentation:
/// banner keywords are case-insensitive, and blank lines or trailing
/// whitespace anywhere — including before EOF — are tolerated.
pub fn read_matrix_market_from(reader: impl BufRead) -> Result<CooMatrix> {
    parse(reader)
}

/// Writes a CSR matrix to a Matrix Market file (`general real` coordinate
/// format).
pub fn write_matrix_market<I: IndexType>(a: &CsrMatrix<I>, path: impl AsRef<Path>) -> Result<()> {
    let file = File::create(path)?;
    write_matrix_market_to(a, BufWriter::new(file))
}

/// Writes a CSR matrix as Matrix Market data to any writer.
pub fn write_matrix_market_to<I: IndexType>(a: &CsrMatrix<I>, mut w: impl Write) -> Result<()> {
    writeln!(w, "%%MatrixMarket matrix coordinate real general")?;
    writeln!(w, "% written by fgh-sparse")?;
    writeln!(w, "{} {} {}", a.nrows(), a.ncols(), a.nnz())?;
    for (i, j, v) in a.iter() {
        writeln!(w, "{} {} {}", i.as_u64() + 1, j.as_u64() + 1, fmt_f64(v))?;
    }
    w.flush()?;
    Ok(())
}

fn fmt_f64(v: f64) -> String {
    // Shortest representation that round-trips.
    let mut s = format!("{v}");
    if !s.contains('.') && !s.contains('e') && !s.contains("inf") && !s.contains("NaN") {
        s.push_str(".0");
    }
    s
}

// lint: checked-index — tokens.len() == 5 is checked before any fixed-position access
fn parse_header(line: &str, line_no: u64) -> Result<(MmField, MmSymmetry)> {
    let err = |msg: String| SparseError::ParseAt { line: line_no, msg };
    // Banner keywords are matched case-insensitively (files in the wild
    // use `%%MatrixMarket`, `%%matrixmarket`, and everything in between).
    let tokens: Vec<String> = line
        .split_whitespace()
        .map(|t| t.to_ascii_lowercase())
        .collect();
    if tokens.len() != 5
        || tokens[0] != "%%matrixmarket"
        || tokens[1] != "matrix"
        || tokens[2] != "coordinate"
    {
        return Err(err(format!(
            "unsupported header: {line:?} (only `matrix coordinate` is supported)"
        )));
    }
    let field = match tokens[3].as_str() {
        "real" => MmField::Real,
        "integer" => MmField::Integer,
        "pattern" => MmField::Pattern,
        other => return Err(err(format!("unsupported field type {other:?}"))),
    };
    let symmetry = match tokens[4].as_str() {
        "general" => MmSymmetry::General,
        "symmetric" => MmSymmetry::Symmetric,
        "skew-symmetric" => MmSymmetry::SkewSymmetric,
        other => return Err(err(format!("unsupported symmetry {other:?}"))),
    };
    Ok((field, symmetry))
}

fn parse_num<T: std::str::FromStr>(token: Option<&str>, what: &str, line: u64) -> Result<T> {
    token
        .ok_or_else(|| SparseError::ParseAt {
            line,
            msg: format!("missing {what}"),
        })?
        .parse::<T>()
        .map_err(|_| SparseError::ParseAt {
            line,
            msg: format!("bad {what}: {token:?}"),
        })
}

/// The historical in-memory parser, retained verbatim as a differential
/// oracle: the proptest suite checks that the streaming parser produces
/// byte-identical matrices and identically positioned errors. Not part of
/// the supported API.
#[doc(hidden)]
pub mod legacy {
    use super::*;

    /// The pre-streaming `read_matrix_market_from`, `u32`-only.
    pub fn read_matrix_market_from(reader: impl Read) -> Result<CooMatrix> {
        let mut lines = BufReader::new(reader).lines().zip(1u64..);
        let at = |line: u64, msg: String| SparseError::ParseAt { line, msg };

        let (header, header_line) = loop {
            match lines.next() {
                Some((line, no)) => {
                    let line = line?;
                    if !line.trim().is_empty() {
                        break (line, no);
                    }
                }
                None => return Err(SparseError::Parse("empty file".into())),
            }
        };

        let (field, symmetry) = parse_header(&header, header_line)?;

        let (size_line, size_line_no) = loop {
            match lines.next() {
                Some((line, no)) => {
                    let line = line?;
                    let t = line.trim();
                    if t.is_empty() || t.starts_with('%') {
                        continue;
                    }
                    break (line, no);
                }
                None => return Err(SparseError::Parse("missing size line".into())),
            }
        };

        let mut it = size_line.split_whitespace();
        let nrows = u32::checked(parse_num(it.next(), "rows", size_line_no)?, "row count")?;
        let ncols = u32::checked(parse_num(it.next(), "cols", size_line_no)?, "column count")?;
        let nnz_raw: u64 = parse_num(it.next(), "nnz", size_line_no)?;
        let nnz = usize::try_from(nnz_raw).map_err(|_| SparseError::TooLarge {
            what: "nonzero count",
            value: nnz_raw,
            max: usize::MAX as u64,
        })?;
        if it.next().is_some() {
            return Err(at(size_line_no, "size line has extra fields".into()));
        }
        let stored_max = (nrows as u128) * (ncols as u128);
        if nnz as u128 > stored_max {
            return Err(at(
                size_line_no,
                format!(
                    "declared {nnz} entries exceed the {nrows} x {ncols} capacity {stored_max}"
                ),
            ));
        }

        let want = if symmetry == MmSymmetry::General {
            nnz
        } else {
            nnz.saturating_mul(2)
        };
        let mut coo = CooMatrix::with_capacity(nrows, ncols, want.min(MAX_PREALLOC));
        let mut seen = 0usize;
        let mut last_line = size_line_no;
        for (line, no) in lines {
            let line = line?;
            let t = line.trim();
            if t.is_empty() || t.starts_with('%') {
                continue;
            }
            last_line = no;
            if seen == nnz {
                return Err(at(no, format!("more entries than the declared {nnz}")));
            }
            let mut it = t.split_whitespace();
            let i_raw: u64 = parse_num(it.next(), "row index", no)?;
            let j_raw: u64 = parse_num(it.next(), "col index", no)?;
            if i_raw == 0 || j_raw == 0 {
                return Err(at(no, "matrix market indices are 1-based".into()));
            }
            let v = match field {
                MmField::Pattern => 1.0,
                MmField::Real | MmField::Integer => it
                    .next()
                    .ok_or_else(|| at(no, "missing value".into()))?
                    .parse::<f64>()
                    .map_err(|e| at(no, format!("bad value: {e}")))?,
            };
            if it.next().is_some() {
                return Err(at(no, "entry line has extra fields".into()));
            }
            let i = u32::from_u64_checked(i_raw - 1)
                .ok_or_else(|| at(no, format!("row index {i_raw} exceeds u32 range")))?;
            let j = u32::from_u64_checked(j_raw - 1)
                .ok_or_else(|| at(no, format!("col index {j_raw} exceeds u32 range")))?;
            coo.push(i, j, v).map_err(|e| at(no, e.to_string()))?;
            match symmetry {
                MmSymmetry::General => {}
                MmSymmetry::Symmetric => {
                    if i != j {
                        coo.push(j, i, v).map_err(|e| at(no, e.to_string()))?;
                    }
                }
                MmSymmetry::SkewSymmetric => {
                    if i == j {
                        return Err(at(no, "skew-symmetric matrix with diagonal entry".into()));
                    }
                    coo.push(j, i, -v).map_err(|e| at(no, e.to_string()))?;
                }
            }
            seen += 1;
        }
        if seen != nnz {
            return Err(at(
                last_line,
                format!("declared {nnz} entries, found {seen}"),
            ));
        }
        Ok(coo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_general_real() {
        let data = "%%MatrixMarket matrix coordinate real general\n\
                    % a comment\n\
                    3 3 2\n\
                    1 1 1.5\n\
                    3 2 -2.0\n";
        let coo = read_matrix_market_from(data.as_bytes()).unwrap();
        let a = CsrMatrix::from_coo(coo);
        assert_eq!(a.nnz(), 2);
        assert_eq!(a.get(0, 0), Some(1.5));
        assert_eq!(a.get(2, 1), Some(-2.0));
    }

    #[test]
    fn read_symmetric_expands() {
        let data = "%%MatrixMarket matrix coordinate real symmetric\n\
                    2 2 2\n\
                    1 1 4.0\n\
                    2 1 7.0\n";
        let a = CsrMatrix::from_coo(read_matrix_market_from(data.as_bytes()).unwrap());
        assert_eq!(a.nnz(), 3);
        assert_eq!(a.get(0, 1), Some(7.0));
        assert_eq!(a.get(1, 0), Some(7.0));
    }

    #[test]
    fn read_skew_symmetric() {
        let data = "%%MatrixMarket matrix coordinate real skew-symmetric\n\
                    2 2 1\n\
                    2 1 3.0\n";
        let a = CsrMatrix::from_coo(read_matrix_market_from(data.as_bytes()).unwrap());
        assert_eq!(a.get(1, 0), Some(3.0));
        assert_eq!(a.get(0, 1), Some(-3.0));
    }

    #[test]
    fn read_pattern() {
        let data = "%%MatrixMarket matrix coordinate pattern general\n\
                    2 3 2\n\
                    1 3\n\
                    2 1\n";
        let a = CsrMatrix::from_coo(read_matrix_market_from(data.as_bytes()).unwrap());
        assert_eq!(a.get(0, 2), Some(1.0));
        assert_eq!(a.get(1, 0), Some(1.0));
    }

    #[test]
    fn oversized_dimensions_are_typed_errors() {
        // 5e9 rows parses as u64 but does not fit u32: the reader must
        // report TooLarge, not a generic parse failure or a truncation.
        let data = "%%MatrixMarket matrix coordinate real general\n\
                    5000000000 3 1\n\
                    1 1 1.0\n";
        match read_matrix_market_from(data.as_bytes()) {
            Err(SparseError::TooLarge { what, value, .. }) => {
                assert_eq!(what, "row count");
                assert_eq!(value, 5_000_000_000);
            }
            other => panic!("expected TooLarge, got {other:?}"),
        }
        let data = "%%MatrixMarket matrix coordinate real general\n\
                    3 5000000000 1\n\
                    1 1 1.0\n";
        assert!(matches!(
            read_matrix_market_from(data.as_bytes()),
            Err(SparseError::TooLarge {
                what: "column count",
                ..
            })
        ));
        // A non-numeric field is still a positioned parse error.
        let data = "%%MatrixMarket matrix coordinate real general\n\
                    x 3 1\n";
        assert!(matches!(
            read_matrix_market_from(data.as_bytes()),
            Err(SparseError::ParseAt { line: 2, .. })
        ));
    }

    #[test]
    fn u64_width_accepts_oversized_dimensions() {
        // The same 5-billion-row header parses fine on the big path.
        let data = "%%MatrixMarket matrix coordinate real general\n\
                    5000000000 3 1\n\
                    4999999999 2 1.0\n";
        let coo = parse_matrix_market_bytes::<u64>(data.as_bytes()).unwrap();
        assert_eq!(coo.nrows(), 5_000_000_000);
        assert_eq!(coo.nnz(), 1);
        assert_eq!(coo.iter().next(), Some((4_999_999_998, 1, 1.0)));
    }

    #[test]
    fn any_selects_width_from_header() {
        let small = "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1.0\n";
        let any = parse_matrix_market_bytes_any(small.as_bytes()).unwrap();
        assert_eq!(any.width(), IndexWidth::U32);
        // CSR row pointers are dense in rows, so the oversized dimension
        // is the column count.
        let big = "%%MatrixMarket matrix coordinate real general\n\
                   3 5000000000 1\n\
                   1 1 1.0\n";
        let any = parse_matrix_market_bytes_any(big.as_bytes()).unwrap();
        assert_eq!(any.width(), IndexWidth::U64);
        assert_eq!(any.ncols(), 5_000_000_000);
    }

    #[test]
    fn reject_bad_header() {
        assert!(read_matrix_market_from(
            "%%MatrixMarket matrix array real general\n1 1\n1.0\n".as_bytes()
        )
        .is_err());
        assert!(read_matrix_market_from("not a header\n".as_bytes()).is_err());
        assert!(read_matrix_market_from("".as_bytes()).is_err());
    }

    #[test]
    fn reject_wrong_count() {
        let data = "%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1.0\n";
        assert!(read_matrix_market_from(data.as_bytes()).is_err());
    }

    #[test]
    fn reject_zero_based_index() {
        let data = "%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 1.0\n";
        assert!(read_matrix_market_from(data.as_bytes()).is_err());
    }

    #[test]
    fn reject_out_of_bounds() {
        let data = "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n";
        assert!(read_matrix_market_from(data.as_bytes()).is_err());
    }

    #[test]
    fn banner_case_insensitive_and_trailing_blanks_tolerated() {
        let data = "%%MATRIXMARKET MATRIX COORDINATE REAL GENERAL\n\
                    2 2 1\n\
                    1 1 3.5   \n\
                    \n\
                    \t\n";
        let coo = read_matrix_market_from(data.as_bytes()).unwrap();
        assert_eq!(coo.nnz(), 1);
    }

    #[test]
    fn count_mismatch_is_line_numbered() {
        let data = "%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1.0\n2 2 1.0\n";
        match read_matrix_market_from(data.as_bytes()) {
            Err(SparseError::ParseAt { line, msg }) => {
                assert_eq!(line, 4, "should point at the last entry line");
                assert!(msg.contains("declared 3"), "{msg}");
            }
            other => panic!("expected line-numbered parse error, got {other:?}"),
        }
    }

    #[test]
    fn excess_entries_rejected_at_offending_line() {
        let data = "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1.0\n2 2 1.0\n";
        match read_matrix_market_from(data.as_bytes()) {
            Err(SparseError::ParseAt { line, .. }) => assert_eq!(line, 4),
            other => panic!("expected line-numbered parse error, got {other:?}"),
        }
    }

    #[test]
    fn extra_fields_on_entry_line_rejected() {
        let data = "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1.0 7\n";
        match read_matrix_market_from(data.as_bytes()) {
            Err(SparseError::ParseAt { line, msg }) => {
                assert_eq!(line, 3);
                assert!(msg.contains("extra fields"), "{msg}");
            }
            other => panic!("expected line-numbered parse error, got {other:?}"),
        }
    }

    #[test]
    fn hostile_nnz_declaration_does_not_preallocate() {
        // Declares far more entries than the dimensions can hold.
        let data = "%%MatrixMarket matrix coordinate real general\n2 2 999999999999\n1 1 1.0\n";
        assert!(read_matrix_market_from(data.as_bytes()).is_err());
        // Declares a large-but-plausible nnz, then supplies one entry:
        // must fail with a count mismatch, not exhaust memory up front.
        let data =
            "%%MatrixMarket matrix coordinate real general\n100000 100000 4000000000\n1 1 1.0\n";
        assert!(matches!(
            read_matrix_market_from(data.as_bytes()),
            Err(SparseError::ParseAt { .. })
        ));
    }

    #[test]
    fn chunk_boundary_straddling_lines() {
        // A one-byte buffer: every line straddles buffer fills.
        let data = "%%MatrixMarket matrix coordinate real general\r\n3 3 2\n1 1 1.5\n3 2 -2.0";
        let a = read_matrix_market_from(BufReader::with_capacity(1, data.as_bytes())).unwrap();
        let b = read_matrix_market_from(data.as_bytes()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn missing_final_newline_and_crlf_tolerated() {
        let unix = "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1.0";
        let dos = "%%MatrixMarket matrix coordinate real general\r\n2 2 1\r\n1 1 1.0\r\n";
        let a = read_matrix_market_from(unix.as_bytes()).unwrap();
        let b = read_matrix_market_from(dos.as_bytes()).unwrap();
        assert_eq!(a, b);
        let c = parse_matrix_market_bytes::<u32>(unix.as_bytes()).unwrap();
        assert_eq!(a, c);
    }

    #[test]
    fn streaming_matches_legacy_on_basics() {
        for data in [
            "%%MatrixMarket matrix coordinate real general\n3 3 2\n1 1 1.5\n3 2 -2.0\n",
            "%%MatrixMarket matrix coordinate real symmetric\n2 2 2\n1 1 4.0\n2 1 7.0\n",
            "%%MatrixMarket matrix coordinate pattern general\n2 3 2\n1 3\n2 1\n",
        ] {
            let new = read_matrix_market_from(data.as_bytes()).unwrap();
            let old = legacy::read_matrix_market_from(data.as_bytes()).unwrap();
            assert_eq!(new, old);
        }
    }

    #[test]
    fn header_peek() {
        // The scan stops at the size line: the entry after it is never read.
        let data =
            "%%MatrixMarket matrix coordinate pattern symmetric\n% c\n10 10 7\nnot an entry\n";
        assert_eq!(scan_width(data.as_bytes()).unwrap(), IndexWidth::U32);
        // Symmetric storage doubles the effective nnz for width selection.
        let data = "%%MatrixMarket matrix coordinate pattern symmetric\n50000 50000 1200000000\n";
        assert_eq!(scan_width(data.as_bytes()).unwrap(), IndexWidth::U64);
        let data = "%%MatrixMarket matrix coordinate pattern general\n50000 50000 1200000000\n";
        assert_eq!(scan_width(data.as_bytes()).unwrap(), IndexWidth::U32);
        assert!(scan_width(&b"%%MatrixMarket matrix coordinate real general\n"[..]).is_err());
    }

    #[test]
    fn write_read_roundtrip() {
        let a: CsrMatrix = CsrMatrix::from_coo(
            CooMatrix::from_triplets(3, 4, vec![(0, 0, 1.25), (1, 3, -7.0), (2, 2, 1e-9)]).unwrap(),
        );
        let mut buf = Vec::new();
        write_matrix_market_to(&a, &mut buf).unwrap();
        let b = CsrMatrix::from_coo(read_matrix_market_from(buf.as_slice()).unwrap());
        assert_eq!(a, b);
    }

    #[test]
    fn file_roundtrip() {
        let a: CsrMatrix = CsrMatrix::identity(5);
        let dir = std::env::temp_dir().join("fgh_sparse_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("id5.mtx");
        write_matrix_market(&a, &path).unwrap();
        let b = CsrMatrix::from_coo(read_matrix_market(&path).unwrap());
        assert_eq!(a, b);
        // The buffered reader, the header scan and the width-erased reader
        // agree on the same file.
        let c = read_matrix_market_from(BufReader::new(File::open(&path).unwrap())).unwrap();
        assert_eq!(b.to_coo(), c);
        assert_eq!(scan_width(open(&path).unwrap()).unwrap(), IndexWidth::U32);
        assert_eq!(read_matrix_market_any(&path).unwrap(), AnyCsrMatrix::U32(b));
    }
}
