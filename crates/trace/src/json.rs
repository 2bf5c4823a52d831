//! A minimal JSON value, writer helpers, and recursive-descent parser.
//!
//! The workspace builds offline with no registry access, so the trace
//! exporter and its schema tests cannot lean on serde. This module is the
//! small, dependency-free subset they need: enough JSON to *emit* the
//! documented trace/metrics schemas and to *parse them back* for
//! validation in tests and tooling. Numbers are kept as `f64`, which is
//! exact for every integer the exporter emits (durations and counters are
//! far below 2^53 in practice); [`Value::as_u64`] rejects values that
//! lost precision.

use std::collections::BTreeMap;

/// A parsed JSON value. Objects preserve no duplicate keys (last wins)
/// and iterate in key order, which keeps comparisons deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object.
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// Member lookup on an object; `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer, if it is one
    /// exactly (rejects negatives, fractions, and values beyond 2^53).
    pub fn as_u64(&self) -> Option<u64> {
        let n = self.as_f64()?;
        if n < 0.0 || n.fract() != 0.0 || n > 9_007_199_254_740_992.0 {
            return None;
        }
        Some(n as u64)
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// `true` for `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Serializes to a compact JSON string ([`parse`]'s inverse on
    /// documents this crate emits).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }

    /// Appends the compact JSON form to `out`: [`Value::to_json`] into a
    /// buffer the caller keeps.
    pub fn write_json(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(n) => write_number(*n, out),
            Value::Str(s) => write_escaped(s, out),
            Value::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_json(out);
                }
                out.push(']');
            }
            Value::Obj(m) => {
                out.push('{');
                for (i, (k, v)) in m.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write_json(out);
                }
                out.push('}');
            }
        }
    }
}

/// Writes a number: f64-exact integers print without a fraction so they
/// survive [`Value::as_u64`] round trips; non-finite values (which JSON
/// cannot represent) degrade to `null`. Both forms format straight into
/// `out`; writing to a `String` cannot fail.
fn write_number(n: f64, out: &mut String) {
    use std::fmt::Write;
    if !n.is_finite() {
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() <= 9_007_199_254_740_992.0 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

/// Every byte of a word set to `b`.
const fn lanes(b: u8) -> u64 {
    u64::from_ne_bytes([b; 8])
}

/// The offset of the first byte at or after `from` that a JSON string
/// cannot carry as is — a quote, a backslash or a control byte below
/// 0x20 — or `bytes.len()` if there is none. It tests eight bytes per
/// step: in each lane, `lane - c` borrows into the lane's high bit
/// exactly when the lane is below `c`, so a lane below 0x20, or one
/// equal to a quote or backslash once XORed to zero, sets that bit.
/// `& !w` drops lanes at or above 0x80, which is every byte of a
/// multibyte UTF-8 scalar. A borrow only crosses into a higher lane out
/// of a lane that was itself flagged, so the lowest flagged lane is
/// exact.
fn next_special(bytes: &[u8], from: usize) -> usize {
    let rest = bytes.get(from..).unwrap_or_default();
    let (words, tail) = rest.as_chunks::<8>();
    for (n, word) in words.iter().enumerate() {
        let w = u64::from_le_bytes(*word);
        let hits = (w.wrapping_sub(lanes(0x20))
            | (w ^ lanes(b'"')).wrapping_sub(lanes(1))
            | (w ^ lanes(b'\\')).wrapping_sub(lanes(1)))
            & !w
            & lanes(0x80);
        if hits != 0 {
            // Little-endian: the lowest lane is the earliest byte.
            return from + 8 * n + hits.trailing_zeros() as usize / 8;
        }
    }
    let scanned = from + 8 * words.len();
    tail.iter()
        .position(|&b| b < 0x20 || b == b'"' || b == b'\\')
        .map_or(bytes.len(), |i| scanned + i)
}

/// Appends `s` to `out` as a JSON string literal (quotes included).
/// Every byte that needs an escape is ASCII, so the runs between them
/// start and end on char boundaries and are copied whole.
fn write_escaped(s: &str, out: &mut String) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let bytes = s.as_bytes();
    out.reserve(s.len() + 2);
    out.push('"');
    let mut plain = 0;
    loop {
        let i = next_special(bytes, plain);
        out.push_str(&s[plain..i]);
        let Some(&b) = bytes.get(i) else { break };
        plain = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                out.push_str("\\u00");
                out.push(char::from(HEX[usize::from(b >> 4)]));
                out.push(char::from(HEX[usize::from(b & 0xf)]));
            }
        }
    }
    out.push('"');
}

/// Parses a JSON document. Returns a message with a byte offset on error.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    /// The document; plain runs of strings and numbers are sliced from it.
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
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

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        let end = self.pos + word.len();
        if self.bytes.get(self.pos..end) == Some(word.as_bytes()) {
            self.pos = end;
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        if self.depth >= MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH}"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b) => Err(format!("unexpected {:?} at byte {}", b as char, self.pos)),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        self.depth += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => break,
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos - 1)),
            }
        }
        self.depth -= 1;
        Ok(Value::Arr(items))
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        self.depth += 1;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => break,
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos - 1)),
            }
        }
        self.depth -= 1;
        Ok(Value::Obj(map))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: a run of plain bytes. It ends at an ASCII byte
            // or the end of input, so it slices on char boundaries.
            self.pos = next_special(self.bytes, start);
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
                        // Surrogate pairs: combine a high surrogate with
                        // the following \uXXXX low surrogate.
                        let c = if (0xD800..0xDC00).contains(&cp) {
                            if self.bytes.get(self.pos..self.pos + 2) != Some(b"\\u") {
                                return Err(format!("lone surrogate at byte {}", self.pos));
                            }
                            self.pos += 2;
                            let lo = self.hex4()?;
                            if !(0xDC00..0xE000).contains(&lo) {
                                return Err(format!("bad surrogate pair at byte {}", self.pos));
                            }
                            let combined = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                            char::from_u32(combined)
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

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        // Only ASCII bytes were consumed, so the slice is on char boundaries.
        let text = &self.text[start..self.pos];
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| format!("invalid number {text:?} at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_basic_document() {
        let v = parse(r#"{"a": [1, 2.5, null, true], "b": {"c": "x\n\"y\""}}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 4);
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[0].as_u64(), Some(1));
        assert_eq!(
            v.get("b").unwrap().get("c").unwrap().as_str(),
            Some("x\n\"y\"")
        );
    }

    /// The per-char escaper `write_escaped` replaced: its oracle.
    fn write_escaped_per_char(s: &str, out: &mut String) {
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

    #[test]
    fn escape_round_trips() {
        let mut pieces: Vec<String> = (0u8..0x20).map(|b| char::from(b).to_string()).collect();
        pieces.extend(
            [
                "\"",
                "\\",
                "\u{7f}",
                "é",
                "π",
                "—",
                "😀",
                "plain",
                "",
                "\\\"",
                "\\u0041",
                "a\"b\\c\nd\te\u{0001}π — ok",
            ]
            .map(String::from),
        );
        // Every piece, every ordered pair of pieces, and all of them.
        let mut inputs = pieces.clone();
        for a in &pieces {
            inputs.extend(pieces.iter().map(|b| format!("{a}{b}")));
        }
        inputs.push(pieces.concat());
        for s in &inputs {
            let (mut runs, mut per_char) = (String::new(), String::new());
            write_escaped(s, &mut runs);
            write_escaped_per_char(s, &mut per_char);
            // Byte-identical to the per-char escaper, and parse inverts it.
            assert_eq!(runs, per_char, "{s:?}");
            let doc = Value::Str(s.clone()).to_json();
            assert_eq!(parse(&doc), Ok(Value::Str(s.clone())), "{doc}");
        }
    }

    #[test]
    fn unicode_escapes() {
        let v = parse(r#""é😀""#).unwrap();
        assert_eq!(v.as_str(), Some("é😀"));
        assert!(parse(r#""\ud83d""#).is_err(), "lone surrogate");
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("[1] trailing").is_err());
        assert!(parse(r#"{"a" 1}"#).is_err());
        assert!(parse(&("[".repeat(1000) + &"]".repeat(1000))).is_err());
    }

    #[test]
    fn as_u64_guards_precision() {
        assert_eq!(parse("3").unwrap().as_u64(), Some(3));
        assert_eq!(parse("3.5").unwrap().as_u64(), None);
        assert_eq!(parse("-3").unwrap().as_u64(), None);
        assert_eq!(parse("1e300").unwrap().as_u64(), None);
    }
}
