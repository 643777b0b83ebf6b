//! A minimal flat-object JSON parser and writer for trace and log lines.
//!
//! Every line the workspace reads back — trace events ([`crate::event`]),
//! the checkpoint journal, the store journal and blob headers, the service
//! WAL, stage payloads — is a flat object of strings, numbers and `null`.
//! This module handles exactly that subset plus the standard string
//! escapes, keeping the crate dependency-free; nested objects and arrays
//! are rejected.
//!
//! [`parse_object`] returns a borrowed [`Object`]: fields in line order,
//! keys and strings borrowed from the line unless they hold a `\` escape.
//! A repeated key reads as its last value. Numbers are parsed eagerly, so
//! a malformed one rejects the line even in a field nobody reads. Readers
//! take fields through one accessor set ([`Object::str`], `num`, `uint`,
//! `opt_uint`, `flag`) whose [`FieldError`] messages every reader reports.
//!
//! [`ObjectWriter`] is the producing side: every flat-object line is
//! written through it, so escaping and number formatting are identical
//! across producers and `parse_object` round-trips them exactly. Durable
//! journals (the store journal, blob headers, the service WAL) *seal* each
//! line: [`ObjectWriter::finish_sealed`] appends a `sum` field holding the
//! FNV-1a-64 checksum of the line as it would have been without it, and
//! [`check_seal`] verifies it on read, so a flipped bit is detected instead
//! of silently replayed.

use std::borrow::Cow;
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
    /// The checksum is [`fnv64`] over the line exactly as
    /// [`finish`](Self::finish) would have produced it, written as 16 lowercase hex
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

/// A value in a parsed line.
#[derive(Debug, Clone, PartialEq)]
pub enum Value<'a> {
    /// A JSON string, borrowed from the line unless it held an escape.
    Str(Cow<'a, str>),
    /// A JSON number (always read as `f64`).
    Num(f64),
    /// JSON `null`.
    Null,
}

impl Value<'_> {
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

    /// The numeric payload as an unsigned integer, if it is finite,
    /// integral and in `0..=2^53` (the range where every integer is an
    /// exact `f64`). Readers of id, worker and attempt fields use this
    /// instead of an `as` cast, which would read `-1` as 0, `1.9` as 1
    /// and `1e30` as `u64::MAX`.
    #[must_use]
    pub fn as_uint(&self) -> Option<u64> {
        const MAX_EXACT: f64 = 9_007_199_254_740_992.0; // 2^53
        match *self {
            Self::Num(n) if n.fract() == 0.0 && (0.0..=MAX_EXACT).contains(&n) => Some(n as u64),
            _ => None,
        }
    }
}

/// One parsed line: its fields in line order, borrowed from the line.
#[derive(Debug)]
pub struct Object<'a> {
    fields: Vec<(Cow<'a, str>, Value<'a>)>,
}

/// Why [`Object`]'s typed accessors refused a field. `Display` gives the
/// message the trace and checkpoint-journal readers report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FieldError {
    /// The key is absent or its value is not a string.
    MissingString(String),
    /// The key is absent or its value is not a number.
    MissingNumber(String),
    /// The value is not an integer in `0..=2^53` and the target type.
    NotAnInteger(String),
    /// The value is a number other than 0 or 1.
    NotAFlag(String),
}

impl std::fmt::Display for FieldError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::MissingString(key) => write!(f, "missing string field '{key}'"),
            Self::MissingNumber(key) => write!(f, "missing numeric field '{key}'"),
            Self::NotAnInteger(key) => write!(f, "field '{key}' is not an integer in range"),
            Self::NotAFlag(key) => write!(f, "field '{key}' is not 0 or 1"),
        }
    }
}

/// Readers whose errors are plain messages take `?` on an accessor.
impl From<FieldError> for String {
    fn from(e: FieldError) -> Self {
        e.to_string()
    }
}

impl<'a> Object<'a> {
    /// The value of `key` — its last one if the key repeats, as a map
    /// insert would keep.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value<'a>> {
        self.fields
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// Whether `key` appears in the line.
    #[must_use]
    pub fn contains_key(&self, key: &str) -> bool {
        self.get(key).is_some()
    }

    /// Every field in line order, repeated keys included.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value<'a>)> {
        self.fields.iter().map(|(k, v)| (&**k, v))
    }

    /// A string field; [`FieldError::MissingString`] if it is absent or
    /// not a string.
    pub fn str(&self, key: &str) -> Result<&str, FieldError> {
        self.get(key)
            .and_then(Value::as_str)
            .ok_or_else(|| FieldError::MissingString(key.to_owned()))
    }

    /// A numeric field; [`FieldError::MissingNumber`] if it is absent or
    /// not a number.
    pub fn num(&self, key: &str) -> Result<f64, FieldError> {
        self.get(key)
            .and_then(Value::as_num)
            .ok_or_else(|| FieldError::MissingNumber(key.to_owned()))
    }

    /// An integer field: finite, integral, in `0..=2^53`
    /// ([`Value::as_uint`]) and in `T`'s range — never a saturating cast.
    /// [`FieldError::MissingNumber`] if it is absent,
    /// [`FieldError::NotAnInteger`] if it is anything but such a number.
    pub fn uint<T: TryFrom<u64>>(&self, key: &str) -> Result<T, FieldError> {
        let value = self
            .get(key)
            .ok_or_else(|| FieldError::MissingNumber(key.to_owned()))?;
        value
            .as_uint()
            .and_then(|n| T::try_from(n).ok())
            .ok_or_else(|| FieldError::NotAnInteger(key.to_owned()))
    }

    /// [`uint`](Self::uint), except that absent or `null` is `None`.
    pub fn opt_uint<T: TryFrom<u64>>(&self, key: &str) -> Result<Option<T>, FieldError> {
        match self.get(key) {
            None | Some(Value::Null) => Ok(None),
            Some(_) => self.uint(key).map(Some),
        }
    }

    /// A boolean written as the number 0 or 1;
    /// [`FieldError::NotAFlag`] for any other number.
    pub fn flag(&self, key: &str) -> Result<bool, FieldError> {
        match self.num(key)? {
            0.0 => Ok(false),
            1.0 => Ok(true),
            _ => Err(FieldError::NotAFlag(key.to_owned())),
        }
    }
}

/// Why a line failed to parse.
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
    line: &'a str,
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
        self.line.as_bytes().get(self.pos).copied()
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

    /// A string, borrowed from the line when its closing quote comes
    /// before any `\`; otherwise (an escape, or no closing quote) it is
    /// unescaped into an owned copy.
    fn parse_string(&mut self) -> Result<Cow<'a, str>, ParseError> {
        self.consume(b'"')?;
        let rest = &self.line.as_bytes()[self.pos..];
        match rest.iter().position(|&b| b == b'"' || b == b'\\') {
            Some(n) if rest[n] == b'"' => {
                let text = &self.line[self.pos..self.pos + n];
                self.pos += n + 1;
                Ok(Cow::Borrowed(text))
            }
            _ => self.unescape().map(Cow::Owned),
        }
    }

    /// The rest of a string whose opening quote is consumed.
    fn unescape(&mut self) -> Result<String, ParseError> {
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
                Some(_) => {
                    // A multi-byte character: the cursor only ever stops
                    // on a character boundary of the `&str` line.
                    let start = self.pos - 1;
                    let c = self.line[start..].chars().next().unwrap_or_default();
                    out.push(c);
                    self.pos = start + c.len_utf8();
                }
            }
        }
    }

    fn parse_value(&mut self) -> Result<Value<'a>, ParseError> {
        self.skip_ws();
        match self.peek() {
            Some(b'"') => Ok(Value::Str(self.parse_string()?)),
            Some(b'n') => {
                if self.line.as_bytes()[self.pos..].starts_with(b"null") {
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
                // Every byte scanned is ASCII, so the slice is on
                // character boundaries.
                let text = &self.line[start..self.pos];
                text.parse::<f64>().map(Value::Num).map_err(|_| ParseError {
                    message: format!("invalid number '{text}'"),
                    at: start,
                })
            }
            _ => self.err("expected a string, number, or null"),
        }
    }
}

/// Parse one line into its borrowed [`Object`].
///
/// # Errors
/// Returns [`ParseError`] if the line is not a flat JSON object of
/// string/number/null values.
pub fn parse_object(line: &str) -> Result<Object<'_>, ParseError> {
    let mut c = Cursor { line, pos: 0 };
    let mut fields = Vec::with_capacity(8);
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
            fields.push((key, value));
            c.skip_ws();
            match c.bump() {
                Some(b',') => continue,
                Some(b'}') => break,
                _ => return c.err("expected ',' or '}'"),
            }
        }
    }
    c.skip_ws();
    if c.pos != c.line.len() {
        return c.err("trailing bytes after object");
    }
    Ok(Object { fields })
}

#[cfg(test)]
mod reference {
    //! The map-building parser this module replaced, kept verbatim as
    //! the oracle for the differential test below.

    use super::ParseError;
    use std::collections::BTreeMap;

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

        /// The numeric payload as an unsigned integer, if it is finite,
        /// integral and in `0..=2^53` (the range where every integer is an
        /// exact `f64`). Readers of id, worker and attempt fields use this
        /// instead of an `as` cast, which would read `-1` as 0, `1.9` as 1
        /// and `1e30` as `u64::MAX`.
        #[must_use]
        pub fn as_uint(&self) -> Option<u64> {
            const MAX_EXACT: f64 = 9_007_199_254_740_992.0; // 2^53
            match *self {
                Self::Num(n) if n.fract() == 0.0 && (0.0..=MAX_EXACT).contains(&n) => {
                    Some(n as u64)
                }
                _ => None,
            }
        }
    }

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
                                let Some(h) = self.bump().and_then(|b| (b as char).to_digit(16))
                                else {
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
                    let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|_| {
                        ParseError {
                            message: "invalid number bytes".to_string(),
                            at: start,
                        }
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
            let line = e.to_json_line();
            assert!(
                parse_object(&line).expect("parse").contains_key("event"),
                "{e:?}"
            );
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
        assert_eq!(obj.num("value"), Ok(v));
        assert_eq!(obj.num("t"), Ok(1.0 / 3.0));
    }

    #[test]
    fn as_uint_accepts_only_exact_non_negative_integers() {
        let two_53 = 9_007_199_254_740_992.0;
        for (n, want) in [(0.0, Some(0)), (7.0, Some(7)), (two_53, Some(1 << 53))] {
            assert_eq!(Value::Num(n).as_uint(), want, "{n}");
        }
        for n in [-1.0, 1.9, 0.5, two_53 * 2.0, 1e30, f64::INFINITY, f64::NAN] {
            assert_eq!(Value::Num(n).as_uint(), None, "{n}");
        }
        assert_eq!(Value::Str("3".into()).as_uint(), None);
        assert_eq!(Value::Null.as_uint(), None);
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
        assert_eq!(obj.str("name"), Ok("a\"b\\c\nd\u{1}é"));
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
        assert_eq!(parse_object("{}").expect("parse").iter().count(), 0);
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
        assert_eq!(obj.str("event"), Ok("task_done"));
        assert_eq!(obj.str("task"), Ok("a\"b\\c\nd"));
        assert_eq!(obj.uint::<usize>("worker"), Ok(42));
        assert_eq!(obj.num("start"), Ok(0.1 + 0.2));
        assert_eq!(obj.get("span"), Some(&Value::Null));
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
        assert_eq!(obj.str("event"), Ok("put"));
        assert_eq!(obj.num("cost"), Ok(0.1 + 0.2));
        assert_eq!(obj.str("sum").map(str::len), Ok(16));
    }

    #[test]
    fn sealed_empty_object_verifies() {
        let line = ObjectWriter::new().finish_sealed();
        assert_eq!(check_seal(&line), Seal::Valid);
        assert_eq!(parse_object(&line).expect("parse").iter().count(), 1);
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

    #[test]
    fn unescaped_strings_are_borrowed_and_escaped_ones_owned() {
        let obj = parse_object(r#"{"plain":"abc é","esc":"a\nb","k\"q":1}"#).expect("parse");
        let kinds: Vec<bool> = obj
            .fields
            .iter()
            .map(|(k, _)| matches!(k, Cow::Borrowed(_)))
            .collect();
        assert_eq!(kinds, [true, true, false]);
        assert!(matches!(
            obj.get("plain"),
            Some(Value::Str(Cow::Borrowed("abc é")))
        ));
        assert!(matches!(obj.get("esc"), Some(Value::Str(Cow::Owned(s))) if s == "a\nb"));
        assert_eq!(obj.num("k\"q"), Ok(1.0));
    }

    #[test]
    fn a_repeated_key_reads_as_its_last_value() {
        let obj = parse_object(r#"{"a":1,"b":"x","a":"two","a":null}"#).expect("parse");
        assert_eq!(obj.get("a"), Some(&Value::Null));
        assert_eq!(obj.iter().count(), 4, "every field is kept in line order");
        assert_eq!(obj.iter().map(|(k, _)| k).collect::<String>(), "abaa");
        let obj = parse_object(r#"{"a":"one","a":2}"#).expect("parse");
        assert_eq!(obj.num("a"), Ok(2.0));
        assert!(obj.str("a").is_err());
    }

    #[test]
    fn accessors_report_the_readers_messages_word_for_word() {
        let obj =
            parse_object(r#"{"s":"x","n":2.5,"i":7,"neg":-1,"big":1e30,"z":null,"f0":0,"f1":1}"#)
                .expect("parse");
        let msg = |e: FieldError| e.to_string();
        assert_eq!(obj.str("s"), Ok("x"));
        assert_eq!(
            obj.str("n").map_err(msg),
            Err("missing string field 'n'".into())
        );
        assert_eq!(
            obj.str("gone").map_err(msg),
            Err("missing string field 'gone'".into())
        );
        assert_eq!(obj.num("n"), Ok(2.5));
        assert_eq!(
            obj.num("z").map_err(msg),
            Err("missing numeric field 'z'".into())
        );
        assert_eq!(obj.uint::<u8>("i"), Ok(7));
        assert_eq!(
            obj.uint::<u32>("gone").map_err(msg),
            Err("missing numeric field 'gone'".into())
        );
        for key in ["n", "neg", "big", "s", "z"] {
            let want = format!("field '{key}' is not an integer in range");
            assert_eq!(obj.uint::<u64>(key).map_err(msg), Err(want), "{key}");
        }
        let huge = parse_object(r#"{"w":300,"x":4294967296}"#).expect("parse");
        assert_eq!(
            huge.uint::<u8>("w"),
            Err(FieldError::NotAnInteger("w".into()))
        );
        assert_eq!(huge.uint::<u16>("w"), Ok(300));
        assert_eq!(
            huge.uint::<u32>("x"),
            Err(FieldError::NotAnInteger("x".into()))
        );
        assert_eq!(obj.opt_uint::<u64>("z"), Ok(None));
        assert_eq!(obj.opt_uint::<u64>("gone"), Ok(None));
        assert_eq!(obj.opt_uint::<u64>("i"), Ok(Some(7)));
        assert_eq!(
            obj.opt_uint::<u64>("neg"),
            Err(FieldError::NotAnInteger("neg".into()))
        );
        assert_eq!(obj.flag("f0"), Ok(false));
        assert_eq!(obj.flag("f1"), Ok(true));
        assert_eq!(obj.flag("i"), Err(FieldError::NotAFlag("i".into())));
        assert_eq!(obj.flag("s"), Err(FieldError::MissingNumber("s".into())));
        assert_eq!(
            String::from(FieldError::NotAFlag("i".into())),
            "field 'i' is not 0 or 1"
        );
    }

    /// SplitMix64, the seeded stream behind the differential corpus.
    struct Mix(u64);

    impl Mix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn pick<'s>(&mut self, from: &[&'s str]) -> &'s str {
            from[self.below(from.len())]
        }
    }

    /// One line of every schema the workspace writes, as `(key, raw
    /// JSON value)` fields: the seven trace events, the checkpoint
    /// journal, the store journal and blob header, the service WAL, the
    /// stage payloads and a pair call.
    fn schemas() -> Vec<Vec<(&'static str, String)>> {
        let s = |v: &str| format!("\"{v}\"");
        let hex = s("00ff00ff00ff00ff00ff00ff00ff00ff");
        let sum = s("0123456789abcdef");
        let n = |v: f64| format!("{v}");
        vec![
            vec![
                ("event", s("span_start")),
                ("id", n(1.0)),
                ("parent", "null".into()),
                ("name", s("batch")),
                ("t", n(0.0)),
            ],
            vec![("event", s("span_end")), ("id", n(1.0)), ("t", n(12.5))],
            vec![
                ("event", s("task")),
                ("span", n(1.0)),
                ("task", s("DVU_00042/model_3")),
                ("worker", n(3.0)),
                ("start", n(0.25)),
                ("end", n(1.0 / 3.0)),
                ("attempts", n(1.0)),
            ],
            vec![
                ("event", s("counter")),
                ("name", s("cache/hit")),
                ("delta", n(1.0)),
                ("total", n(4.0)),
                ("t", n(2.0)),
            ],
            vec![
                ("event", s("gauge")),
                ("name", s("util")),
                ("value", n(0.1 + 0.2)),
                ("t", n(2.0)),
            ],
            vec![
                ("event", s("observe")),
                ("name", s("recycles")),
                ("value", n(3.0)),
                ("t", n(1e-7)),
            ],
            vec![
                ("event", s("lineage")),
                ("name", s("lineage/settled")),
                ("task", s("acme:c1:t0")),
                ("t", n(2.5)),
            ],
            vec![
                ("event", s("task_done")),
                ("task", s("a")),
                ("worker", n(5.0)),
                ("start", n(0.5)),
                ("end", n(30.25)),
                ("attempts", n(2.0)),
            ],
            vec![
                ("event", s("task_carryover")),
                ("task", s("DVU_00117/model_1")),
            ],
            vec![
                ("event", s("put")),
                ("key", hex.clone()),
                ("stage", s("feature_gen")),
                ("preset", s("Genome")),
                ("content", s("MKVLY")),
                ("sum", sum.clone()),
            ],
            vec![
                ("event", s("evict")),
                ("key", hex.clone()),
                ("sum", sum.clone()),
            ],
            vec![
                ("store", s("summitfold")),
                ("version", n(2.0)),
                ("key", hex),
                ("stage", s("inference")),
                ("preset", s("p")),
                ("content", s("ACDEF")),
                ("lines", n(3.0)),
                ("psum", sum.clone()),
                ("sum", sum.clone()),
            ],
            vec![
                ("event", s("open")),
                ("label", s("svc")),
                ("workers", n(4.0)),
                ("depth", n(64.0)),
                ("sum", sum.clone()),
            ],
            vec![
                ("event", s("tenant")),
                ("name", s("acme")),
                ("weight", n(1.5)),
                ("priority", n(2.0)),
                ("quota", n(1e3)),
                ("cached", n(1.0)),
                ("sum", sum.clone()),
            ],
            vec![
                ("event", s("admit")),
                ("tenant", s("acme")),
                ("campaign", s("c1")),
                ("arrival", n(0.75)),
                ("tasks", n(12.0)),
                ("sum", sum.clone()),
            ],
            vec![
                ("event", s("reject")),
                ("tenant", s("acme")),
                ("kind", s("quota")),
                ("sum", sum.clone()),
            ],
            vec![
                ("event", s("settle")),
                ("task", s("acme:c1:t0")),
                ("cost", n(1234.5)),
                ("worker", n(0.0)),
                ("start", n(0.0)),
                ("end", n(99.125)),
                ("attempts", n(1.0)),
                ("sum", sum),
            ],
            vec![
                ("target_id", s("DVU_1")),
                ("length", n(120.0)),
                ("richness", n(0.875)),
                ("neff", n(31.5)),
                ("coverage", n(0.9)),
                ("has_templates", n(0.0)),
            ],
            vec![
                ("target_id", s("DVU_1")),
                ("model", n(3.0)),
                ("recycles", n(4.0)),
                ("converged", n(1.0)),
                ("ptms", n(0.61)),
                ("plddt_mean", n(88.2)),
                ("peak_mem_bytes", n(1.6e10)),
            ],
            vec![
                ("id", s("DVU_1")),
                ("residues", s("MKV")),
                ("ca", s("0 0 0;3.8 0 0;7.6 0 0")),
                ("sidechain", s("1 1 1;2 2 2;3 3 3")),
                ("plddt", "null".into()),
            ],
            vec![
                ("pair_id", s("A/B")),
                ("iscore", n(0.42)),
                ("truly_interacts", n(0.0)),
                ("gpu_seconds", n(77.0)),
            ],
        ]
    }

    const NUMBERS: [&str; 24] = [
        "-0",
        "1e5",
        "1.",
        "+1",
        "--1",
        "1e400",
        "-1e400",
        "0.1",
        "1E-3",
        ".5",
        "01",
        "1e",
        "-",
        "9007199254740993",
        "1.5e308",
        "5e-324",
        "123456789012345678901234567890",
        "1e-400",
        "2.5e+3",
        "1.0.0",
        "0x10",
        "1-2",
        "7",
        "-12.75",
    ];

    const STRINGS: [&str; 22] = [
        r#""""#,
        r#""\"""#,
        r#""\\""#,
        r#""\/""#,
        r#""a\nb\tc\rd""#,
        r#""\b\f""#,
        r#""\u0001\u001f""#,
        r#""éÿ""#,
        r#""\u12""#,
        r#""\ud800""#,
        r#""\x""#,
        r#""\""#,
        r#""é中😀""#,
        r#""tab	raw""#,
        r#""unterminated"#,
        r#""a"b""#,
        "null",
        "nul",
        "true",
        "[1]",
        "{}",
        r#""ABC""#,
    ];

    /// One line drawn from the corpus: a schema line, then structural
    /// mutations (value swaps, escapes, repeated keys, whitespace) and
    /// byte-level ones (flips, truncations).
    fn corpus_line(rng: &mut Mix, schemas: &[Vec<(&'static str, String)>]) -> String {
        let mut fields: Vec<(String, String)> = schemas[rng.below(schemas.len())]
            .iter()
            .map(|(k, v)| (format!("\"{k}\""), v.clone()))
            .collect();
        for _ in 0..rng.below(3) {
            let i = rng.below(fields.len());
            match rng.below(5) {
                0 => fields[i].1 = rng.pick(&NUMBERS).to_owned(),
                1 => fields[i].1 = rng.pick(&STRINGS).to_owned(),
                2 => {
                    let (num, text) = (rng.pick(&NUMBERS), rng.pick(&STRINGS));
                    let value = rng.pick(&[num, text, "null", "0", "1"]);
                    let repeat = (fields[i].0.clone(), value.to_owned());
                    fields.push(repeat);
                }
                3 => fields[i].0 = rng.pick(&STRINGS).to_owned(),
                _ => {
                    let j = rng.below(fields.len());
                    fields.swap(i, j);
                }
            }
        }
        let ws = |rng: &mut Mix| match rng.below(300) {
            0..=9 => " ",
            10..=19 => "\t",
            20..=24 => "  \t",
            25 => "\n",
            26 => "\r",
            _ => "",
        };
        let mut line = String::new();
        line.push_str(ws(rng));
        line.push('{');
        for (i, (k, v)) in fields.iter().enumerate() {
            if i > 0 {
                line.push_str(ws(rng));
                line.push(',');
            }
            for part in [ws(rng), k.as_str(), ws(rng), ":", ws(rng), v.as_str()] {
                line.push_str(part);
            }
        }
        line.push_str(ws(rng));
        line.push('}');
        line.push_str(ws(rng));
        match rng.below(6) {
            0 => {
                let mut bytes = line.into_bytes();
                let i = rng.below(bytes.len());
                bytes[i] ^= 1 << rng.below(8);
                String::from_utf8_lossy(&bytes).into_owned()
            }
            1 => {
                let mut cut = rng.below(line.len() + 1);
                while !line.is_char_boundary(cut) {
                    cut -= 1;
                }
                line.truncate(cut);
                line
            }
            _ => line,
        }
    }

    fn same_value(new: &Value<'_>, old: &reference::Value) -> bool {
        let same = match (new, old) {
            (Value::Str(a), reference::Value::Str(b)) => a == b,
            (Value::Num(a), reference::Value::Num(b)) => a.to_bits() == b.to_bits(),
            (Value::Null, reference::Value::Null) => true,
            _ => false,
        };
        same && new.as_str() == old.as_str()
            && new.as_num().map(f64::to_bits) == old.as_num().map(f64::to_bits)
            && new.as_uint() == old.as_uint()
    }

    #[test]
    fn borrowed_parser_matches_the_map_building_reference_line_for_line() {
        let schemas = schemas();
        let mut rng = Mix(0x5EED_0030);
        let (mut ok, mut err, mut repeats) = (0, 0, 0);
        for _ in 0..2400 {
            let line = corpus_line(&mut rng, &schemas);
            match (parse_object(&line), reference::parse_object(&line)) {
                (Ok(obj), Ok(map)) => {
                    ok += 1;
                    let keys: std::collections::BTreeSet<&str> =
                        obj.iter().map(|(k, _)| k).collect();
                    assert_eq!(keys.len(), map.len(), "{line}");
                    repeats += usize::from(obj.iter().count() > keys.len());
                    for (key, old) in &map {
                        let new = obj
                            .get(key)
                            .unwrap_or_else(|| panic!("{key} missing: {line}"));
                        assert!(same_value(new, old), "{key}: {new:?} vs {old:?} in {line}");
                    }
                }
                (Err(new), Err(old)) => {
                    err += 1;
                    assert_eq!(new, old, "{line}");
                }
                (new, old) => panic!("{line:?}: {new:?} vs {old:?}"),
            }
        }
        // The corpus exercises both outcomes and repeated keys.
        assert!(ok >= 600 && err >= 600, "ok {ok}, err {err}");
        assert!(repeats >= 100, "{repeats} lines with a repeated key");
    }
}
