//! Minimal, dependency-free JSON: an escape-correct writer and a small
//! recursive-descent value parser.
//!
//! The offline dependency policy excludes `serde`, yet three layers of the
//! workspace speak JSON: the experiment harness emits machine-readable
//! bench records, the HTTP service (`aod-serve`) parses request bodies and
//! streams responses, and [`crate::wire`] defines the stable serialization
//! of discovery types. This module is the single implementation they all
//! share, replacing the previous per-call-site `format!` emitters (which
//! broke on strings containing `"` or `\`).
//!
//! Design notes:
//!
//! * **Writer** ([`JsonObject`] / [`JsonArray`] / [`escape_into`]): append
//!   style with automatic commas; every string goes through the escaper, so
//!   output is well-formed for any input. Numbers use [`fmt_f64`] — Rust's
//!   shortest round-trip `Display` — so `parse` ∘ `write` is the identity
//!   on finite values (integral floats print without a decimal point,
//!   matching hand-written `"n":7` style output).
//! * **Parser** ([`JsonValue::parse`]): full JSON value grammar (objects,
//!   arrays, strings with `\uXXXX` incl. surrogate pairs, numbers, bools,
//!   null), object key order preserved, bounded nesting depth, byte-offset
//!   error reporting. Numbers are stored as `f64` — ample for every counter
//!   and config knob in this workspace.
//!
//! ```
//! use aod_core::json::{JsonObject, JsonValue};
//!
//! let mut obj = JsonObject::new();
//! obj.str("name", "say \"hi\"").num_u64("rows", 9).bool("ok", true);
//! let text = obj.finish();
//! let back = JsonValue::parse(&text).unwrap();
//! assert_eq!(back.get("name").unwrap().as_str(), Some("say \"hi\""));
//! assert_eq!(back.get("rows").unwrap().as_u64(), Some(9));
//! ```

use std::fmt;

/// Maximum nesting depth [`JsonValue::parse`] accepts (arrays/objects).
const MAX_DEPTH: usize = 64;

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Appends `s` to `out` with all JSON string escapes applied (no
/// surrounding quotes): `"`/`\` are backslash-escaped, control characters
/// become `\n`-style shorthands or `\u00XX`.
pub fn escape_into(out: &mut String, s: &str) {
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// `s` as a complete JSON string token (escaped, with quotes).
pub fn quoted(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    escape_into(&mut out, s);
    out.push('"');
    out
}

/// Formats a float as a JSON number: shortest representation that parses
/// back to the same `f64` (Rust's `Display`), integral values without a
/// decimal point. Non-finite values (which JSON cannot represent) become
/// `null`.
pub fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Append-style writer for one JSON object; fields keep insertion order.
#[derive(Debug, Default)]
pub struct JsonObject {
    buf: String,
}

impl JsonObject {
    /// An empty object writer.
    pub fn new() -> JsonObject {
        JsonObject::default()
    }

    fn key(&mut self, key: &str) -> &mut String {
        if !self.buf.is_empty() {
            self.buf.push(',');
        }
        self.buf.push('"');
        escape_into(&mut self.buf, key);
        self.buf.push_str("\":");
        &mut self.buf
    }

    /// Adds a string field (value escaped).
    pub fn str(&mut self, key: &str, value: &str) -> &mut JsonObject {
        self.key(key);
        self.buf.push('"');
        escape_into(&mut self.buf, value);
        self.buf.push('"');
        self
    }

    /// Adds an unsigned integer field.
    pub fn num_u64(&mut self, key: &str, value: u64) -> &mut JsonObject {
        self.key(key).push_str(&value.to_string());
        self
    }

    /// Adds a float field (see [`fmt_f64`] for the format).
    pub fn num_f64(&mut self, key: &str, value: f64) -> &mut JsonObject {
        let text = fmt_f64(value);
        self.key(key).push_str(&text);
        self
    }

    /// Adds a boolean field.
    pub fn bool(&mut self, key: &str, value: bool) -> &mut JsonObject {
        self.key(key).push_str(if value { "true" } else { "false" });
        self
    }

    /// Adds a `null` field.
    pub fn null(&mut self, key: &str) -> &mut JsonObject {
        self.key(key).push_str("null");
        self
    }

    /// Adds a pre-serialized JSON value verbatim (nested objects/arrays, or
    /// numbers that must keep a specific formatting). The caller vouches
    /// that `raw` is well-formed JSON.
    pub fn raw(&mut self, key: &str, raw: &str) -> &mut JsonObject {
        self.key(key).push_str(raw);
        self
    }

    /// Adds `value` as an integer when present, `null` otherwise.
    pub fn opt_u64(&mut self, key: &str, value: Option<u64>) -> &mut JsonObject {
        match value {
            Some(v) => self.num_u64(key, v),
            None => self.null(key),
        }
    }

    /// The finished `{...}` text.
    pub fn finish(&self) -> String {
        format!("{{{}}}", self.buf)
    }
}

/// Append-style writer for one JSON array.
#[derive(Debug, Default)]
pub struct JsonArray {
    buf: String,
}

impl JsonArray {
    /// An empty array writer.
    pub fn new() -> JsonArray {
        JsonArray::default()
    }

    fn sep(&mut self) -> &mut String {
        if !self.buf.is_empty() {
            self.buf.push(',');
        }
        &mut self.buf
    }

    /// Appends a string element (escaped).
    pub fn push_str(&mut self, value: &str) -> &mut JsonArray {
        self.sep();
        self.buf.push('"');
        escape_into(&mut self.buf, value);
        self.buf.push('"');
        self
    }

    /// Appends an unsigned integer element.
    pub fn push_u64(&mut self, value: u64) -> &mut JsonArray {
        self.sep().push_str(&value.to_string());
        self
    }

    /// Appends a pre-serialized JSON value verbatim.
    pub fn push_raw(&mut self, raw: &str) -> &mut JsonArray {
        self.sep().push_str(raw);
        self
    }

    /// The finished `[...]` text.
    pub fn finish(&self) -> String {
        format!("[{}]", self.buf)
    }
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

/// A parsed JSON value. Object fields keep their document order; numbers
/// are `f64`.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Number(f64),
    /// A string (escapes already decoded).
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, as ordered `(key, value)` pairs.
    Object(Vec<(String, JsonValue)>),
}

/// A parse failure: what went wrong and the byte offset it was noticed at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

impl JsonValue {
    /// Parses one complete JSON document (trailing garbage is an error).
    pub fn parse(input: &str) -> Result<JsonValue, JsonError> {
        let mut p = Parser {
            text: input,
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after JSON value"));
        }
        Ok(value)
    }

    /// Object field lookup (first match; `None` on non-objects too).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, when this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, when this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(v) => Some(*v),
            _ => None,
        }
    }

    /// The numeric payload as an exact unsigned integer (rejects
    /// fractional or negative numbers).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Number(v) if *v >= 0.0 && v.fract() == 0.0 && *v <= 2f64.powi(53) => {
                Some(*v as u64)
            }
            _ => None,
        }
    }

    /// The boolean payload, when this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, when this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The ordered fields, when this is an object.
    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Object(fields) => Some(fields),
            _ => None,
        }
    }

    /// `true` for `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, JsonValue::Null)
    }

    /// Re-serializes the value through the escape-correct writer. Numbers
    /// print via [`fmt_f64`], so `parse` ∘ `to_json` is idempotent: one
    /// round trip canonicalizes formatting, further trips are bytewise
    /// fixed points.
    pub fn to_json(&self) -> String {
        match self {
            JsonValue::Null => "null".to_string(),
            JsonValue::Bool(b) => b.to_string(),
            JsonValue::Number(v) => fmt_f64(*v),
            JsonValue::String(s) => quoted(s),
            JsonValue::Array(items) => {
                let mut arr = JsonArray::new();
                for item in items {
                    arr.push_raw(&item.to_json());
                }
                arr.finish()
            }
            JsonValue::Object(fields) => {
                let mut obj = JsonObject::new();
                for (k, v) in fields {
                    obj.raw(k, &v.to_json());
                }
                obj.finish()
            }
        }
    }
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_string(),
            offset: self.pos,
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8, what: &str) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(what))
        }
    }

    fn value(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
        }
    }

    fn literal(&mut self, text: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        text.parse::<f64>()
            .map(JsonValue::Number)
            .map_err(|_| self.err("invalid number"))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"', "expected string")?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{08}'),
                        Some(b'f') => out.push('\u{0c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let ch = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: expect \uXXXX low half.
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.eat(b'u', "expected low surrogate")?;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                    char::from_u32(code)
                                        .ok_or_else(|| self.err("invalid surrogate pair"))?
                                } else {
                                    return Err(self.err("unpaired surrogate"));
                                }
                            } else if (0xDC00..0xE000).contains(&hi) {
                                return Err(self.err("unpaired low surrogate"));
                            } else {
                                char::from_u32(hi).ok_or_else(|| self.err("invalid \\u escape"))?
                            };
                            out.push(ch);
                            continue; // hex4 already advanced past the digits
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => {
                    // Copy the run of unescaped bytes up to the next `"`,
                    // `\` or control byte as one slice. Those delimiters
                    // are ASCII, so the run ends on a char boundary.
                    let end = self.bytes[self.pos..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                        .map_or(self.bytes.len(), |n| self.pos + n);
                    let run = self
                        .text
                        .get(self.pos..end)
                        .ok_or_else(|| self.err("invalid UTF-8"))?;
                    out.push_str(run);
                    self.pos = end;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v: u32 = 0;
        for _ in 0..4 {
            let d = match self.peek() {
                Some(b @ b'0'..=b'9') => u32::from(b - b'0'),
                Some(b @ b'a'..=b'f') => u32::from(b - b'a') + 10,
                Some(b @ b'A'..=b'F') => u32::from(b - b'A') + 10,
                _ => return Err(self.err("expected 4 hex digits")),
            };
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn array(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        self.eat(b'[', "expected array")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        self.eat(b'{', "expected object")?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':', "expected `:`")?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(fields));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    #[test]
    fn writer_escapes_everything() {
        let mut obj = JsonObject::new();
        obj.str("k\"ey", "line\nquote\" back\\slash\ttab \u{1} high✓");
        let text = obj.finish();
        assert_eq!(
            text,
            "{\"k\\\"ey\":\"line\\nquote\\\" back\\\\slash\\ttab \\u0001 high✓\"}"
        );
        // And the parser inverts the escaping exactly.
        let back = JsonValue::parse(&text).unwrap();
        assert_eq!(
            back.get("k\"ey").unwrap().as_str(),
            Some("line\nquote\" back\\slash\ttab \u{1} high✓")
        );
    }

    #[test]
    fn writer_builds_nested_documents() {
        let mut inner = JsonArray::new();
        inner.push_u64(1).push_str("two").push_raw("null");
        let mut obj = JsonObject::new();
        obj.num_f64("pi", 3.25)
            .bool("ok", false)
            .null("none")
            .opt_u64("some", Some(7))
            .opt_u64("nope", None)
            .raw("items", &inner.finish());
        assert_eq!(
            obj.finish(),
            "{\"pi\":3.25,\"ok\":false,\"none\":null,\"some\":7,\"nope\":null,\"items\":[1,\"two\",null]}"
        );
    }

    #[test]
    fn floats_round_trip_bytewise() {
        for v in [0.0, 1.0, 0.1, 1.0 / 3.0, 123456.789, 1e-9, -2.5] {
            let text = fmt_f64(v);
            let back = JsonValue::parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{text}");
            // Integral floats print as integers.
            if v.fract() == 0.0 {
                assert!(!text.contains('.'), "{text}");
            }
        }
        assert_eq!(fmt_f64(f64::NAN), "null");
        assert_eq!(fmt_f64(f64::INFINITY), "null");
    }

    #[test]
    fn parser_handles_the_grammar() {
        let v =
            JsonValue::parse(r#" { "a": [1, -2.5, 1e3], "b": {"c": true, "d": null}, "s": "x" } "#)
                .unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap()[2].as_f64(),
            Some(1000.0)
        );
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_bool(), Some(true));
        assert!(v.get("b").unwrap().get("d").unwrap().is_null());
        assert_eq!(v.get("s").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn parser_decodes_unicode_escapes() {
        let v = JsonValue::parse(r#""aA é 😀""#).unwrap();
        assert_eq!(v.as_str(), Some("aA é 😀"));
        assert!(JsonValue::parse(r#""\ud83d""#).is_err()); // unpaired high
        assert!(JsonValue::parse(r#""\ude00""#).is_err()); // unpaired low
    }

    #[test]
    fn parser_rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "tru",
            "1 2",
            "\"unterminated",
            "{\"a\":1,}",
            "nul",
            "--1",
        ] {
            assert!(JsonValue::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn parser_bounds_depth() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(JsonValue::parse(&deep).is_err());
        let ok = "[".repeat(40) + &"]".repeat(40);
        assert!(JsonValue::parse(&ok).is_ok());
    }

    #[test]
    fn as_u64_is_exact() {
        assert_eq!(JsonValue::Number(7.0).as_u64(), Some(7));
        assert_eq!(JsonValue::Number(7.5).as_u64(), None);
        assert_eq!(JsonValue::Number(-1.0).as_u64(), None);
        assert_eq!(JsonValue::Number(1e300).as_u64(), None);
    }

    #[test]
    fn reserialization_is_a_fixed_point() {
        let text = r#"{"a":[1,2.5,"x\n"],"b":{"c":null},"d":true}"#;
        let once = JsonValue::parse(text).unwrap().to_json();
        let twice = JsonValue::parse(&once).unwrap().to_json();
        assert_eq!(once, twice);
        assert_eq!(once, text);
    }

    /// Characters generated strings are drawn from: the string delimiters
    /// and escape letters, control characters, and multi-byte and non-BMP
    /// characters.
    const ALPHABET: &[char] = &[
        '"',
        '\\',
        '/',
        'u',
        'd',
        '8',
        'a',
        ' ',
        '\n',
        '\r',
        '\t',
        '\u{0}',
        '\u{8}',
        '\u{c}',
        '\u{1f}',
        '\u{7f}',
        'é',
        '日',
        '\u{ffff}',
        '\u{10000}',
        '😀',
        '\u{10ffff}',
    ];

    fn generated_string(codes: &[u32]) -> String {
        codes
            .iter()
            .map(|&c| match char::from_u32(c % 0x11_0000) {
                Some(ch) if c % 4 == 0 => ch,
                _ => ALPHABET[c as usize % ALPHABET.len()],
            })
            .collect()
    }

    /// `s` as a JSON string token, each character spelled the way
    /// `styles` picks: raw where JSON allows it, a short escape where one
    /// exists, or else `\uXXXX` (a surrogate pair beyond the BMP).
    fn spelled(s: &str, styles: &[u8]) -> String {
        let mut out = String::from("\"");
        for (k, ch) in s.chars().enumerate() {
            let short = match ch {
                '"' => Some("\\\""),
                '\\' => Some("\\\\"),
                '/' => Some("\\/"),
                '\u{8}' => Some("\\b"),
                '\u{c}' => Some("\\f"),
                '\n' => Some("\\n"),
                '\r' => Some("\\r"),
                '\t' => Some("\\t"),
                _ => None,
            };
            match (styles[k % styles.len()], short) {
                (0, _) if ch >= ' ' && ch != '"' && ch != '\\' => out.push(ch),
                (1, Some(escape)) => out.push_str(escape),
                (style, _) => {
                    for unit in ch.encode_utf16(&mut [0; 2]) {
                        if style % 2 == 0 {
                            out.push_str(&format!("\\u{unit:04x}"));
                        } else {
                            out.push_str(&format!("\\u{unit:04X}"));
                        }
                    }
                }
            }
        }
        out.push('"');
        out
    }

    /// Tokens arbitrary documents are built from: the JSON structure,
    /// literal and number spellings, escapes, and multi-byte characters.
    const TOKENS: &[&str] = &[
        "{", "}", "[", "]", ",", ":", "\"", "\"", "\\", "\\u", "\\ud83d", "\\ude00", "u", "0", "7",
        "-", ".", "e", "E", "+", "true", "fals", "null", " ", "\n", "\u{1}", "é", "😀",
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        #[test]
        fn strings_round_trip_through_every_spelling(
            codes in vec(0u32..u32::MAX, 0..200),
            styles in vec(0u8..4, 1..16),
        ) {
            let s = generated_string(&codes);
            let want = Ok(JsonValue::String(s.clone()));
            prop_assert_eq!(JsonValue::parse(&quoted(&s)), want.clone());
            prop_assert_eq!(JsonValue::parse(&spelled(&s, &styles)), want);
        }

        #[test]
        fn arbitrary_text_never_panics(
            picks in vec(0usize..TOKENS.len(), 0..120),
            codes in vec(0u32..u32::MAX, 0..40),
        ) {
            let doc: String = picks.iter().map(|&k| TOKENS[k]).collect();
            let _ = JsonValue::parse(&doc);
            let _ = JsonValue::parse(&format!("\"{doc}"));
            let _ = JsonValue::parse(&generated_string(&codes));
        }
    }

    #[test]
    fn a_one_mebibyte_string_body_parses() {
        // Just under the serve layer's 1 MiB body cap: one string of raw
        // text broken up by escapes. Decoding is linear in its length.
        let mut value = String::new();
        while value.len() < 900_000 {
            value.push_str("plain text, \"quotes\", back\\slashes,\ttabs, é 日 😀; ");
        }
        let body = format!("{{\"name\":{}}}", quoted(&value));
        assert!(body.len() < 1 << 20, "{} bytes", body.len());
        let parsed = JsonValue::parse(&body).expect("a well-formed body");
        assert_eq!(
            parsed.get("name").and_then(JsonValue::as_str),
            Some(value.as_str())
        );
    }
}
