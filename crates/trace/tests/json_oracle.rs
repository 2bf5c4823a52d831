//! The oracle of `fgh_trace::json`'s word-at-a-time string scanner.
//!
//! The writer and the parser find the next byte a JSON string cannot
//! carry as is (a quote, a backslash or a control byte) eight bytes at a
//! time. The references below are the byte-at-a-time forms they
//! replaced: the per-char escaper with the `to_string` number writer, and
//! the parser's string path that stepped one byte per iteration. The
//! serializer must stay byte-identical to them, parsing must round-trip,
//! and every malformed string must fail with the reference's message,
//! byte offset included, since the daemon's `bad-frame` echoes it.
//!
//! The exhaustive tests place each terminator class at every offset
//! 0–16 and after every run length 0–17, so it lands in every lane of a
//! word and on both sides of each word boundary. `PROPTEST_CASES` sizes
//! the random mixtures.

use std::collections::BTreeMap;

use fgh_trace::json::{parse, Value};
use proptest::collection::vec;
use proptest::prelude::*;

/// The per-char escaper the run-copying writer replaced.
fn escape_per_char(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// The number writer that formatted through a temporary `String`.
fn number_via_string(n: f64, out: &mut String) {
    if !n.is_finite() {
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() <= 9_007_199_254_740_992.0 {
        out.push_str(&(n as i64).to_string());
    } else {
        out.push_str(&n.to_string());
    }
}

/// The serializer built from the two reference writers.
fn reference_to_json(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Num(n) => number_via_string(*n, out),
        Value::Str(s) => escape_per_char(s, out),
        Value::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                reference_to_json(item, out);
            }
            out.push(']');
        }
        Value::Obj(m) => {
            out.push('{');
            for (i, (k, v)) in m.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                escape_per_char(k, out);
                out.push(':');
                reference_to_json(v, out);
            }
            out.push('}');
        }
    }
}

/// The parser's string path as it was before the scanner, one byte per
/// step, with the document-level whitespace and trailing-data checks of
/// `parse`. It accepts documents that are one string literal.
struct ReferenceParser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl ReferenceParser<'_> {
    fn parse(text: &str) -> Result<Value, String> {
        let mut p = ReferenceParser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        assert_eq!(
            p.peek(),
            Some(b'"'),
            "the reference parses string documents"
        );
        let v = p.string().map(Value::Str)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        match self.bump() {
            Some(got) if got == b => Ok(()),
            Some(got) => Err(format!(
                "expected {:?} at byte {}, got {:?}",
                b as char,
                self.pos - 1,
                got as char
            )),
            None => Err(format!("expected {:?}, got end of input", b as char)),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            out.push_str(&self.text[start..self.pos]);
            match self.bump() {
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000C}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let cp = self.hex4()?;
                        let c = if (0xD800..0xDC00).contains(&cp) {
                            if self.bytes.get(self.pos..self.pos + 2) != Some(b"\\u") {
                                return Err(format!("lone surrogate at byte {}", self.pos));
                            }
                            self.pos += 2;
                            let lo = self.hex4()?;
                            if !(0xDC00..0xE000).contains(&lo) {
                                return Err(format!("bad surrogate pair at byte {}", self.pos));
                            }
                            char::from_u32(0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00))
                        } else {
                            char::from_u32(cp)
                        };
                        match c {
                            Some(c) => out.push(c),
                            None => return Err(format!("bad code point at byte {}", self.pos)),
                        }
                    }
                    _ => return Err(format!("bad escape at byte {}", self.pos)),
                },
                Some(_) => return Err(format!("control byte in string at byte {}", self.pos - 1)),
                None => return Err("unterminated string".to_string()),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let mut cp: u32 = 0;
        for _ in 0..4 {
            let d = match self.bump() {
                Some(b @ b'0'..=b'9') => u32::from(b - b'0'),
                Some(b @ b'a'..=b'f') => u32::from(b - b'a') + 10,
                Some(b @ b'A'..=b'F') => u32::from(b - b'A') + 10,
                _ => return Err(format!("bad \\u escape at byte {}", self.pos)),
            };
            cp = cp * 16 + d;
        }
        Ok(cp)
    }
}

/// The terminator classes: quote, backslash, every control byte, and
/// 0x7f, the first byte above the control range, which must pass.
fn classes() -> Vec<char> {
    let mut c: Vec<char> = vec!['"', '\\'];
    c.extend((0u8..0x20).map(char::from));
    c.push('\u{7f}');
    c
}

/// `n` plain ASCII bytes; none needs an escape. It includes the bytes
/// one above the quote and the backslash and the space, the neighbours a
/// borrow from a flagged lane would flag falsely if the scanner trusted
/// any lane above its first hit.
fn filler(n: usize) -> String {
    const PLAIN: &[u8] = b"#] abcXYZ019{}!~";
    (0..n).map(|i| char::from(PLAIN[i % PLAIN.len()])).collect()
}

/// `s` escaped by both writers must agree byte for byte, and the parser
/// must give `s` back wherever the document starts.
fn assert_escapes_and_round_trips(s: &str, lead: usize) {
    let doc = Value::Str(s.to_string()).to_json();
    let mut want = String::new();
    escape_per_char(s, &mut want);
    assert_eq!(doc, want, "to_json of {s:?}");
    let padded = format!("{}{doc}", " ".repeat(lead));
    assert_eq!(parse(&padded), Ok(Value::Str(s.to_string())), "{padded:?}");
}

/// A raw document must parse to the reference's value, or fail with the
/// reference's exact message.
fn assert_parses_like_reference(doc: &str) {
    assert_eq!(parse(doc), ReferenceParser::parse(doc), "{doc:?}");
}

#[test]
fn every_class_at_every_offset_and_run_length() {
    for c in classes() {
        for offset in 0..=16 {
            for run in 0..=17 {
                // Two terminators: the scan starts at the string's first
                // byte and again right after the first terminator.
                let s = format!("{}{c}{}{c}z", filler(offset), filler(run));
                assert_escapes_and_round_trips(&s, offset);
                // The same bytes raw inside a literal: a raw quote ends it
                // early, a raw backslash starts an escape, a raw control
                // byte is an error, 0x7f is plain.
                let lead = " ".repeat(offset);
                let body = format!("{}{c}{}", filler(run), filler(3));
                assert_parses_like_reference(&format!("{lead}\"{body}\""));
                // The terminator as the last byte, the literal unclosed.
                assert_parses_like_reference(&format!("{lead}\"{}{c}", filler(run)));
                assert_parses_like_reference(&format!("{lead}\"{}", filler(run)));
            }
        }
    }
}

#[test]
fn multibyte_scalars_straddling_word_boundaries() {
    for scalar in ["é", "π", "—", "€", "한", "😀", "\u{10FFFF}"] {
        for offset in 0..=16 {
            for c in ['"', '\\', '\n', '\u{1}', '\u{1f}', '\u{7f}', 'a'] {
                // The scalar covers every position relative to a word
                // boundary, with a terminator right behind it and one a
                // word further on.
                let s = format!(
                    "{}{scalar}{c}{scalar}{scalar}{}{c}",
                    filler(offset),
                    filler(7)
                );
                assert_escapes_and_round_trips(&s, offset % 3);
                let raw = format!("\"{}{scalar}{c}{scalar}{}\"", filler(offset), filler(9));
                assert_parses_like_reference(&raw);
            }
        }
    }
}

#[test]
fn malformed_strings_fail_with_the_reference_message() {
    let bad = [
        "\u{1}",          // raw control byte
        "\n",             // raw newline
        "\\x",            // bad escape
        "\\",             // escape cut off by the end of input
        "\\u12G4",        // bad \u digit
        "\\u12",          // \u cut off
        "\\ud83d",        // lone high surrogate at the end
        "\\ud83dxyz",     // lone high surrogate before plain text
        "\\ud83d\\u0041", // high surrogate paired with a non-low
        "\\udc00",        // lone low surrogate: no code point
    ];
    for offset in 0..=16 {
        for b in bad {
            for close in ["\"", ""] {
                let doc = format!(
                    "{}\"{}{b}{}{close}",
                    " ".repeat(offset),
                    filler(offset),
                    filler(2)
                );
                let got = parse(&doc);
                assert!(got.is_err(), "{doc:?} parsed as {got:?}");
                assert_parses_like_reference(&doc);
            }
        }
        // Unterminated at every length.
        assert_parses_like_reference(&format!("\"{}", filler(offset)));
    }
}

#[test]
fn numbers_write_like_the_to_string_writer() {
    let mut values = vec![
        0.0,
        -0.0,
        1.0,
        -1.0,
        42.0,
        1e15,
        9_007_199_254_740_992.0,
        -9_007_199_254_740_992.0,
        9_007_199_254_740_994.0,
        1e300,
        -1e300,
        0.5,
        -3.25,
        1e-7,
        0.1 + 0.2,
        f64::MIN_POSITIVE,
        f64::MAX,
        f64::MIN,
        f64::EPSILON,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ];
    values.extend((0..64).map(|e| 2f64.powi(e)));
    values.extend((0..64).map(|e| -(2f64.powi(e)) - 1.0));
    for n in values {
        let mut want = String::new();
        number_via_string(n, &mut want);
        assert_eq!(Value::Num(n).to_json(), want, "{n:?}");
    }
}

/// One piece of a random string: its text, and the bytes it stands for
/// raw inside a literal (escape sequences included, some malformed).
const PIECES: &[(&str, &str)] = &[
    ("a", "a"),
    ("plain text", "plain text"),
    ("0123456789 -.e+", "0123456789 -.e+"),
    ("#", "#"),
    ("]", "]"),
    ("\"", "\\\""),
    ("\\", "\\\\"),
    ("\n", "\\n"),
    ("\t", "\\t"),
    ("\r", "\\r"),
    ("\u{0}", "\\u0000"),
    ("\u{1f}", "\\u001F"),
    ("\u{7f}", "\u{7f}"),
    ("/", "\\/"),
    ("é", "é"),
    ("—", "—"),
    ("😀", "\\ud83d\\ude00"),
    ("😀", "😀"),
    ("A", "\\u0041"),
    ("x", "\\x"),
    ("!", "\\ud83d"),
    ("\u{1}", "\u{1}"),
    ("\"", "\""),
];

fn pieces() -> impl Strategy<Value = Vec<usize>> {
    vec(0..PIECES.len(), 0..48)
}

/// A random JSON value: strings from `PIECES` and numbers from random
/// bits, nested one level.
fn value_from(picks: &[usize], bits: &[u64]) -> Value {
    let text = |from: usize, to: usize| -> String {
        picks[from.min(picks.len())..to.min(picks.len())]
            .iter()
            .map(|&i| PIECES[i].0)
            .collect()
    };
    let mut obj = BTreeMap::new();
    for (i, &b) in bits.iter().enumerate() {
        let n = match b % 3 {
            0 => f64::from_bits(b),
            1 => (b >> 11) as f64 - (1u64 << 52) as f64,
            _ => (b % 100_000) as f64 / 8.0,
        };
        obj.insert(
            text(i, i + 3),
            Value::Arr(vec![Value::Num(n), Value::Str(text(i + 1, i + 9))]),
        );
    }
    obj.insert(text(0, picks.len()), Value::Null);
    Value::Obj(obj)
}

proptest! {
    /// Random mixtures of every class: the writer matches the per-char
    /// escaper and parse inverts it.
    #[test]
    fn random_strings_escape_and_round_trip(picks in pieces(), lead in 0usize..9) {
        let s: String = picks.iter().map(|&i| PIECES[i].0).collect();
        assert_escapes_and_round_trips(&s, lead);
    }

    /// The same mixtures raw inside a literal, escape sequences and
    /// malformed bytes included: the parser matches the reference, value
    /// or message.
    #[test]
    fn random_raw_literals_parse_like_the_reference(picks in pieces(), close in 0u8..2) {
        let body: String = picks.iter().map(|&i| PIECES[i].1).collect();
        let doc = format!("\"{body}{}", if close == 1 { "\"" } else { "" });
        assert_parses_like_reference(&doc);
    }

    /// Whole documents with numbers and nested strings serialize exactly
    /// as the reference serializer does, and parse back.
    #[test]
    fn random_values_serialize_like_the_reference(
        picks in pieces(),
        bits in vec(0u64..u64::MAX, 0..12),
    ) {
        let v = value_from(&picks, &bits);
        let mut want = String::new();
        reference_to_json(&v, &mut want);
        let doc = v.to_json();
        assert_eq!(doc, want);
        let back = parse(&doc).expect("the writer's output parses");
        assert_eq!(back.to_json(), doc);
    }
}
