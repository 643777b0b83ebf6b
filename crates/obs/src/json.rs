//! A minimal JSON object parser and writer for trace lines.
//!
//! Trace consumers (`lens --trace`, the CSV/Gantt views) only ever see
//! flat objects whose values are strings, numbers, or `null` — the schema
//! in [`crate::event`]. This parser handles exactly that subset plus the
//! standard string escapes, keeping the crate dependency-free. It is not
//! a general JSON parser: nested objects and arrays are rejected.
//!
//! [`ObjectWriter`] is the producing side: every flat-object line in the
//! workspace (trace events, the dataflow checkpoint journal) is written
//! through it, so escaping and number formatting are identical across
//! producers and `parse_object` round-trips them exactly.
//!
//! Durable journals (the store journal, blob headers, the service WAL)
//! additionally *seal* each line: [`ObjectWriter::finish_sealed`] appends
//! a trailing `sum` field holding the FNV-1a-64 checksum of the line as
//! it would have been without that field, and [`check_seal`] verifies it
//! on read. A flipped bit anywhere in a sealed line is detected instead
//! of silently replayed — the store-corruption failure mode cached
//! pipelines are most exposed to.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// FNV-1a-64 offset basis (same family as the store's content keys).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0100_0000_01b3;

/// FNV-1a-64 over `text` — the workspace's dependency-free,
/// toolchain-stable checksum. Used for sealed journal lines and blob
/// payload sums; not cryptographic, chosen for byte-stability.
#[must_use]
pub fn fnv64(text: &str) -> u64 {
    fnv64_chunks([text])
}

/// [`fnv64`] of the concatenation of `chunks`, without building it.
#[must_use]
pub fn fnv64_chunks<'a>(chunks: impl IntoIterator<Item = &'a str>) -> u64 {
    let mut h = FNV_OFFSET;
    for chunk in chunks {
        for &b in chunk.as_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
    }
    h
}

/// Incremental writer for one flat JSON object line.
///
/// Fields appear in insertion order. Strings are escaped exactly as
/// [`parse_object`] expects; numbers use `f64`'s shortest-round-trip
/// display so values survive a write/parse cycle bit-for-bit.
#[derive(Debug)]
pub struct ObjectWriter {
    buf: String,
    first: bool,
}

impl Default for ObjectWriter {
    fn default() -> Self {
        Self::new()
    }
}

impl ObjectWriter {
    /// Start an empty object.
    #[must_use]
    pub fn new() -> Self {
        Self {
            buf: String::from("{"),
            first: true,
        }
    }

    fn key(&mut self, key: &str) {
        if !self.first {
            self.buf.push(',');
        }
        self.first = false;
        push_json_str(&mut self.buf, key);
        self.buf.push(':');
    }

    /// Append a string field (quoted, escaped).
    pub fn str_field(&mut self, key: &str, value: &str) {
        self.key(key);
        push_json_str(&mut self.buf, value);
    }

    /// Append a numeric field with shortest-round-trip formatting.
    ///
    /// Trace numbers are always finite; a non-finite value would corrupt
    /// downstream views, so it is clamped to `0` (and flagged in debug
    /// builds).
    pub fn num_field(&mut self, key: &str, value: f64) {
        debug_assert!(value.is_finite(), "trace numbers must be finite");
        self.key(key);
        if value.is_finite() {
            let _ = write!(self.buf, "{value}");
        } else {
            self.buf.push('0');
        }
    }

    /// Append an integer field (no fractional formatting).
    pub fn int_field(&mut self, key: &str, value: u64) {
        self.key(key);
        let _ = write!(self.buf, "{value}");
    }

    /// Append an explicit `null` field.
    pub fn null_field(&mut self, key: &str) {
        self.key(key);
        self.buf.push_str("null");
    }

    /// Append a field whose value is pre-serialized JSON.
    ///
    /// The escape hatch for report objects that embed arrays or nested
    /// objects (`lens --json`, `BENCH_profile.json`): the caller is
    /// responsible for `raw` being valid JSON. Lines containing raw
    /// fields are no longer flat, so [`parse_object`] will reject them —
    /// use only for artifacts that are not trace lines.
    pub fn raw_field(&mut self, key: &str, raw: &str) {
        self.key(key);
        self.buf.push_str(raw);
    }

    /// Append an integer-or-`null` field.
    pub fn opt_int_field(&mut self, key: &str, value: Option<u64>) {
        self.key(key);
        match value {
            Some(v) => {
                let _ = write!(self.buf, "{v}");
            }
            None => self.buf.push_str("null"),
        }
    }

    /// Close the object and return the line (no trailing newline).
    #[must_use]
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }

    /// Close the object with a trailing `sum` checksum field.
    ///
    /// The checksum is [`fnv64`] over the line exactly as [`finish`]
    /// (Self::finish) would have produced it, written as 16 lowercase hex
    /// digits (a string field: the parser reads numbers as `f64`, which
    /// cannot carry 64 bits). [`check_seal`] inverts this.
    #[must_use]
    pub fn finish_sealed(mut self) -> String {
        let mut unsealed = self.buf.clone();
        unsealed.push('}');
        let sum = fnv64(&unsealed);
        self.str_field("sum", &format!("{sum:016x}"));
        self.finish()
    }
}

/// Outcome of verifying a line's trailing `sum` seal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Seal {
    /// The line ends in a `sum` field that matches its content.
    Valid,
    /// The line has no well-formed trailing `sum` field (pre-seal
    /// formats land here; callers decide whether that is acceptable).
    Absent,
    /// The line ends in a `sum` field that does NOT match its content —
    /// the line was corrupted after it was written.
    Mismatch,
}

/// Verify the trailing `sum` field written by
/// [`ObjectWriter::finish_sealed`].
///
/// Purely textual: the checksum covers the exact serialized bytes, so no
/// parse is needed (and a line too corrupt to parse still classifies).
#[must_use]
pub fn check_seal(line: &str) -> Seal {
    let Some(body) = line.strip_suffix("\"}") else {
        return Seal::Absent;
    };
    if body.len() < 16 {
        return Seal::Absent;
    }
    let split = body.len() - 16;
    if !body.is_char_boundary(split) {
        return Seal::Absent;
    }
    let (head, hex) = body.split_at(split);
    if !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
        return Seal::Absent;
    }
    let unsealed = if let Some(prefix) = head.strip_suffix(",\"sum\":\"") {
        let mut u = prefix.to_string();
        u.push('}');
        u
    } else if head == "{\"sum\":\"" {
        String::from("{}")
    } else {
        return Seal::Absent;
    };
    match u64::from_str_radix(hex, 16) {
        Ok(sum) if sum == fnv64(&unsealed) => Seal::Valid,
        _ => Seal::Mismatch,
    }
}

/// Append a JSON string literal (quoted, escaped) to `out`.
fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A value in a parsed trace line.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A JSON string.
    Str(String),
    /// A JSON number (always read as `f64`).
    Num(f64),
    /// JSON `null`.
    Null,
}

impl Value {
    /// The string payload, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Self::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    #[must_use]
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Self::Num(n) => Some(*n),
            _ => None,
        }
    }
}

/// Why a trace line failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What was wrong with the line.
    pub message: String,
    /// Byte offset within the line where the problem was noticed.
    pub at: usize,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} (at byte {})", self.message, self.at)
    }
}

impl std::error::Error for ParseError {}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn err<T>(&self, message: &str) -> Result<T, ParseError> {
        Err(ParseError {
            message: message.to_string(),
            at: self.pos,
        })
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t')) {
            self.pos += 1;
        }
    }

    fn consume(&mut self, b: u8) -> Result<(), ParseError> {
        self.skip_ws();
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(&format!("expected '{}'", b as char))
        }
    }

    fn parse_string(&mut self) -> Result<String, ParseError> {
        self.consume(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return self.err("unterminated string"),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let mut code: u32 = 0;
                        for _ in 0..4 {
                            let Some(h) = self.bump().and_then(|b| (b as char).to_digit(16)) else {
                                return self.err("bad \\u escape");
                            };
                            code = code * 16 + h;
                        }
                        // Trace writers only emit \u for control chars
                        // (< 0x20), so surrogate pairs cannot occur.
                        let Some(c) = char::from_u32(code) else {
                            return self.err("invalid \\u code point");
                        };
                        out.push(c);
                    }
                    _ => return self.err("bad escape"),
                },
                Some(b) if b < 0x80 => out.push(b as char),
                Some(b) => {
                    // Re-decode a UTF-8 multi-byte sequence starting at b.
                    let start = self.pos - 1;
                    let width = match b {
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        0xF0..=0xF7 => 4,
                        _ => return self.err("invalid UTF-8 in string"),
                    };
                    let end = start + width;
                    let Some(chunk) = self.bytes.get(start..end) else {
                        return self.err("truncated UTF-8 in string");
                    };
                    let Ok(s) = std::str::from_utf8(chunk) else {
                        return self.err("invalid UTF-8 in string");
                    };
                    out.push_str(s);
                    self.pos = end;
                }
            }
        }
    }

    fn parse_value(&mut self) -> Result<Value, ParseError> {
        self.skip_ws();
        match self.peek() {
            Some(b'"') => Ok(Value::Str(self.parse_string()?)),
            Some(b'n') => {
                if self.bytes[self.pos..].starts_with(b"null") {
                    self.pos += 4;
                    Ok(Value::Null)
                } else {
                    self.err("expected null")
                }
            }
            Some(b'-' | b'0'..=b'9') => {
                let start = self.pos;
                while matches!(
                    self.peek(),
                    Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
                ) {
                    self.pos += 1;
                }
                let text =
                    std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|_| ParseError {
                        message: "invalid number bytes".to_string(),
                        at: start,
                    })?;
                text.parse::<f64>().map(Value::Num).map_err(|_| ParseError {
                    message: format!("invalid number '{text}'"),
                    at: start,
                })
            }
            _ => self.err("expected a string, number, or null"),
        }
    }
}

/// Parse one trace line into its key/value map.
///
/// # Errors
/// Returns [`ParseError`] if the line is not a flat JSON object of
/// string/number/null values.
pub fn parse_object(line: &str) -> Result<BTreeMap<String, Value>, ParseError> {
    let mut c = Cursor {
        bytes: line.as_bytes(),
        pos: 0,
    };
    let mut map = BTreeMap::new();
    c.consume(b'{')?;
    c.skip_ws();
    if c.peek() == Some(b'}') {
        c.pos += 1;
    } else {
        loop {
            c.skip_ws();
            let key = c.parse_string()?;
            c.consume(b':')?;
            let value = c.parse_value()?;
            map.insert(key, value);
            c.skip_ws();
            match c.bump() {
                Some(b',') => continue,
                Some(b'}') => break,
                _ => return c.err("expected ',' or '}'"),
            }
        }
    }
    c.skip_ws();
    if c.pos != c.bytes.len() {
        return c.err("trailing bytes after object");
    }
    Ok(map)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, SpanId};

    #[test]
    fn parses_every_event_kind() {
        let events = [
            Event::SpanStart {
                id: SpanId(1),
                parent: None,
                name: "batch".into(),
                t: 0.0,
            },
            Event::SpanEnd {
                id: SpanId(1),
                t: 12.5,
            },
            Event::Task {
                span: Some(SpanId(1)),
                task: "t0".into(),
                worker: 3,
                start: 0.25,
                end: 1.5,
                attempts: 1,
            },
            Event::Counter {
                name: "oom".into(),
                delta: 1.0,
                total: 4.0,
                t: 2.0,
            },
            Event::Gauge {
                name: "util".into(),
                value: 0.875,
                t: 2.0,
            },
            Event::Observe {
                name: "recycles".into(),
                value: 3.0,
                t: 2.0,
            },
            Event::Lineage {
                name: "lineage/settled".into(),
                task: "acme:c1:t0".into(),
                t: 2.5,
            },
        ];
        for e in &events {
            let obj = parse_object(&e.to_json_line()).expect("parse");
            assert!(obj.contains_key("event"), "{e:?}");
        }
    }

    #[test]
    fn numbers_round_trip_exactly() {
        let v = 0.1 + 0.2;
        let line = Event::Gauge {
            name: "x".into(),
            value: v,
            t: 1.0 / 3.0,
        }
        .to_json_line();
        let obj = parse_object(&line).expect("parse");
        assert_eq!(obj["value"].as_num(), Some(v));
        assert_eq!(obj["t"].as_num(), Some(1.0 / 3.0));
    }

    #[test]
    fn strings_unescape() {
        let line = Event::Gauge {
            name: "a\"b\\c\nd\u{1}é".into(),
            value: 1.0,
            t: 0.0,
        }
        .to_json_line();
        let obj = parse_object(&line).expect("parse");
        assert_eq!(obj["name"].as_str(), Some("a\"b\\c\nd\u{1}é"));
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(parse_object("").is_err());
        assert!(parse_object("{").is_err());
        assert!(parse_object("{\"a\":1").is_err());
        assert!(parse_object("{\"a\":[1]}").is_err());
        assert!(parse_object("{\"a\":1}x").is_err());
        assert!(parse_object("{\"a\":tru}").is_err());
    }

    #[test]
    fn empty_object_is_fine() {
        assert!(parse_object("{}").expect("parse").is_empty());
    }

    #[test]
    fn object_writer_round_trips_through_the_parser() {
        let mut w = ObjectWriter::new();
        w.str_field("event", "task_done");
        w.str_field("task", "a\"b\\c\nd");
        w.int_field("worker", 42);
        w.num_field("start", 0.1 + 0.2);
        w.opt_int_field("span", None);
        let line = w.finish();
        let obj = parse_object(&line).expect("parse");
        assert_eq!(obj["event"].as_str(), Some("task_done"));
        assert_eq!(obj["task"].as_str(), Some("a\"b\\c\nd"));
        assert_eq!(obj["worker"].as_num(), Some(42.0));
        assert_eq!(obj["start"].as_num(), Some(0.1 + 0.2));
        assert_eq!(obj["span"], Value::Null);
    }

    #[test]
    fn empty_writer_produces_empty_object() {
        assert_eq!(ObjectWriter::new().finish(), "{}");
    }

    #[test]
    fn sealed_lines_verify_and_still_parse() {
        let mut w = ObjectWriter::new();
        w.str_field("event", "put");
        w.int_field("seq", 7);
        w.num_field("cost", 0.1 + 0.2);
        let line = w.finish_sealed();
        assert_eq!(check_seal(&line), Seal::Valid);
        let obj = parse_object(&line).expect("sealed lines stay flat JSON");
        assert_eq!(obj["event"].as_str(), Some("put"));
        assert_eq!(obj["cost"].as_num(), Some(0.1 + 0.2));
        assert_eq!(obj["sum"].as_str().map(str::len), Some(16));
    }

    #[test]
    fn sealed_empty_object_verifies() {
        let line = ObjectWriter::new().finish_sealed();
        assert_eq!(check_seal(&line), Seal::Valid);
        assert_eq!(parse_object(&line).expect("parse").len(), 1);
    }

    #[test]
    fn any_single_byte_flip_in_a_sealed_line_is_caught_or_harmless() {
        let mut w = ObjectWriter::new();
        w.str_field("event", "put");
        w.str_field("key", "00ff00ff00ff00ff00ff00ff00ff00ff");
        w.int_field("seq", 3);
        let line = w.finish_sealed();
        let sum_start = line.len() - 2 - 16;
        for i in 0..line.len() {
            for bit in 0..8 {
                let mut bytes = line.clone().into_bytes();
                bytes[i] ^= 1u8 << bit;
                let Ok(flipped) = String::from_utf8(bytes) else {
                    continue; // non-UTF8 lines never reach check_seal
                };
                match check_seal(&flipped) {
                    Seal::Valid => {
                        // Only a flip inside the sum hex that preserves
                        // its value (case flip of a-f) can stay Valid:
                        // the sealed content itself is untouched.
                        assert!(i >= sum_start, "content flip at {i} bit {bit} passed");
                        assert_eq!(&flipped[..sum_start], &line[..sum_start]);
                    }
                    Seal::Mismatch => {}
                    Seal::Absent => {
                        // The flip destroyed the seal's framing; callers
                        // treat framed-but-unverifiable lines as corrupt
                        // by checking for a `sum` key in the parse.
                    }
                }
            }
        }
    }

    #[test]
    fn unsealed_lines_report_absent() {
        assert_eq!(check_seal("{}"), Seal::Absent);
        assert_eq!(check_seal("{\"event\":\"put\"}"), Seal::Absent);
        assert_eq!(check_seal("not json at all"), Seal::Absent);
        assert_eq!(check_seal(""), Seal::Absent);
    }

    #[test]
    fn tampered_seal_reports_mismatch() {
        let mut w = ObjectWriter::new();
        w.str_field("event", "put");
        let line = w.finish_sealed();
        let tampered = line.replace("\"event\":\"put\"", "\"event\":\"get\"");
        assert_eq!(check_seal(&tampered), Seal::Mismatch);
    }

    #[test]
    fn fnv64_is_pinned() {
        // Sealed journals persist across versions; a silent change to
        // the checksum would quarantine every existing store.
        assert_eq!(fnv64(""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv64("a"), fnv64("b"));
        assert_eq!(fnv64("foobar"), 0x8594_4171_f739_67e8);
        // Chunk boundaries do not show in the digest.
        assert_eq!(fnv64_chunks(["fo", "", "obar"]), fnv64("foobar"));
        assert_eq!(fnv64_chunks([]), fnv64(""));
    }
}
