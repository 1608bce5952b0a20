//! A minimal JSON document builder *and parser* (the build environment is
//! offline, so no serde): enough to emit batch results and benchmark
//! reports as machine-readable, stably ordered JSON — and, since the
//! `gts-serve` wire protocol is newline-delimited JSON, to read such
//! documents back. [`Json::parse`] accepts the full value grammar of RFC
//! 8259 (escapes including `\uXXXX` surrogate pairs, exponent-form
//! numbers, arbitrary nesting up to a depth guard) and round-trips with
//! [`Json::compact`]; the escape battery below pins the behaviour down
//! character class by character class.

use std::fmt::Write as _;

/// Why a JSON text failed to parse: a message and the byte offset it
/// refers to.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Human-readable description of the problem.
    pub msg: String,
    /// Byte offset into the input where the problem was detected.
    pub at: usize,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for JsonError {}

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (emitted without a fraction).
    Int(i64),
    /// A float (emitted via Rust's shortest round-trip formatting; NaN and
    /// infinities render as `null` per JSON's number grammar).
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Appends `key: value` to an object (panics on non-objects — a
    /// builder misuse, not a data error).
    pub fn set(&mut self, key: &str, value: impl Into<Json>) -> &mut Json {
        match self {
            Json::Obj(fields) => fields.push((key.to_owned(), value.into())),
            other => panic!("Json::set on non-object {other:?}"),
        }
        self
    }

    /// Renders with two-space indentation and a trailing newline (the
    /// format of `gts batch` and `gts client` reports).
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out.push('\n');
        out
    }

    /// Renders compactly on one line.
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None);
        out
    }

    /// Parses a JSON text (one value, optionally surrounded by
    /// whitespace). Integers that fit an `i64` parse as [`Json::Int`];
    /// every other number parses as [`Json::Float`].
    pub fn parse(src: &str) -> Result<Json, JsonError> {
        let mut p = Parser { bytes: src.as_bytes(), pos: 0 };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after the value"));
        }
        Ok(v)
    }

    /// Object field lookup (first match; `None` on missing keys and
    /// non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer payload (ints directly; floats only when exactly
    /// representable — out-of-range floats return `None` rather than a
    /// silently saturated value).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(i) => Some(*i),
            // The upper bound is exclusive: 2^63 itself is a valid f64
            // but not a valid i64.
            Json::Float(f)
                if f.fract() == 0.0
                    && *f >= -9_223_372_036_854_775_808.0
                    && *f < 9_223_372_036_854_775_808.0 =>
            {
                Some(*f as i64)
            }
            _ => None,
        }
    }

    /// The non-negative integer payload.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_i64().and_then(|i| u64::try_from(i).ok())
    }

    /// The numeric payload, widened to `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The items, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// `true` iff this is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    fn write(&self, out: &mut String, indent: Option<usize>) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Float(f) => {
                if f.is_finite() {
                    let mut num = format!("{f}");
                    // `2f64` formats as "2"; keep the value visibly floating.
                    if !num.contains('.') && !num.contains('e') {
                        num.push_str(".0");
                    }
                    out.push_str(&num);
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => write_seq(out, indent, '[', ']', items.len(), |out, i, ind| {
                items[i].write(out, ind);
            }),
            Json::Obj(fields) => write_seq(out, indent, '{', '}', fields.len(), |out, i, ind| {
                write_escaped(out, &fields[i].0);
                out.push_str(": ");
                fields[i].1.write(out, ind);
            }),
        }
    }
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize, Option<usize>),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if let Some(level) = indent {
            out.push('\n');
            out.push_str(&"  ".repeat(level + 1));
        }
        item(out, i, indent.map(|l| l + 1));
        if i + 1 < len {
            out.push(',');
            if indent.is_none() {
                out.push(' ');
            }
        }
    }
    if let Some(level) = indent {
        out.push('\n');
        out.push_str(&"  ".repeat(level));
    }
    out.push(close);
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Nesting guard: deeper documents than this are rejected rather than
/// risking a stack overflow on hostile wire input.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: impl Into<String>) -> JsonError {
        JsonError { msg: msg.into(), at: self.pos }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("document nests too deeply"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    self.skip_ws();
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(self.err("expected `,` or `]` in array")),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut fields = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    self.skip_ws();
                    let val = self.value(depth + 1)?;
                    fields.push((key, val));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Json::Obj(fields));
                        }
                        _ => return Err(self.err("expected `,` or `}` in object")),
                    }
                }
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(self.err(format!("unexpected byte 0x{other:02x}"))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: copy the longest escape-free UTF-8 run at once.
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            if self.pos > start {
                let chunk = std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8 in string"))?;
                out.push_str(chunk);
            }
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // High surrogate: a `\uXXXX` low surrogate
                                // must follow; the pair decodes together.
                                if self.peek() != Some(b'\\') {
                                    return Err(self.err("lone high surrogate"));
                                }
                                self.pos += 1;
                                self.expect(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid surrogate pair"))?
                            } else if (0xDC00..0xE000).contains(&hi) {
                                return Err(self.err("lone low surrogate"));
                            } else {
                                char::from_u32(hi).ok_or_else(|| self.err("invalid codepoint"))?
                            };
                            out.push(c);
                        }
                        other => return Err(self.err(format!("bad escape `\\{}`", other as char))),
                    }
                }
                Some(_) => return Err(self.err("raw control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let b = self.peek().ok_or_else(|| self.err("truncated \\u escape"))?;
            let d = (b as char).to_digit(16).ok_or_else(|| self.err("bad hex in \\u escape"))?;
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number");
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Json::Int(i));
            }
        }
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| JsonError { msg: format!("bad number `{text}`"), at: start })
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<i64> for Json {
    fn from(i: i64) -> Json {
        Json::Int(i)
    }
}

impl From<u64> for Json {
    fn from(i: u64) -> Json {
        Json::Int(i as i64)
    }
}

impl From<usize> for Json {
    fn from(i: usize) -> Json {
        Json::Int(i as i64)
    }
}

impl From<f64> for Json {
    fn from(f: f64) -> Json {
        Json::Float(f)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_owned())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl From<Vec<Json>> for Json {
    fn from(items: Vec<Json>) -> Json {
        Json::Arr(items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_documents() {
        let mut doc = Json::obj();
        doc.set("name", "baseline").set("n", 3u64).set("ok", true);
        doc.set("items", Json::Arr(vec![Json::Int(1), Json::Null]));
        assert_eq!(
            doc.compact(),
            r#"{"name": "baseline", "n": 3, "ok": true, "items": [1, null]}"#
        );
        let pretty = doc.pretty();
        assert!(pretty.contains("\n  \"name\": \"baseline\","), "{pretty}");
        assert!(pretty.ends_with("}\n"));
    }

    #[test]
    fn escapes_strings() {
        let j = Json::Str("a\"b\\c\n\u{1}".into());
        assert_eq!(j.compact(), "\"a\\\"b\\\\c\\n\\u0001\"");
    }

    #[test]
    fn floats_render_as_numbers() {
        assert_eq!(Json::Float(1.5).compact(), "1.5");
        assert_eq!(Json::Float(2.0).compact(), "2.0");
        assert_eq!(Json::Float(f64::NAN).compact(), "null");
    }

    // ---- The wire-format battery: since `gts-serve` ships these
    // documents over TCP, writing and parsing must agree byte-for-byte on
    // every character class. ----

    fn roundtrip(j: &Json) {
        let compact = Json::parse(&j.compact()).unwrap_or_else(|e| panic!("{e}: {}", j.compact()));
        assert_eq!(&compact, j, "compact roundtrip of {}", j.compact());
        let pretty = Json::parse(&j.pretty()).unwrap();
        assert_eq!(&pretty, j, "pretty roundtrip of {}", j.pretty());
    }

    #[test]
    fn every_control_character_roundtrips() {
        for c in 0u32..0x20 {
            let s = format!("a{}b", char::from_u32(c).unwrap());
            let j = Json::Str(s.clone());
            let rendered = j.compact();
            // Control characters never appear raw in the rendering.
            assert!(rendered.chars().all(|c| c as u32 >= 0x20), "raw control char in {rendered:?}");
            roundtrip(&j);
        }
    }

    #[test]
    fn unicode_strings_roundtrip() {
        for s in [
            "plain ascii",
            "ümlaut and ⊑ and ∃",
            "astral 🚀🧬 plane",
            "\u{7f}", // DEL is not escaped by JSON but must survive
            "mixed \" quote \\ back \n newline \u{0} nul 🚀",
            "ends with backslash \\",
            "\u{e000}\u{fffd}", // private use + replacement char
        ] {
            roundtrip(&Json::Str(s.into()));
        }
    }

    #[test]
    fn u_escapes_parse_including_surrogate_pairs() {
        assert_eq!(Json::parse(r#""\u0041""#).unwrap(), Json::Str("A".into()));
        assert_eq!(Json::parse(r#""\u00e9""#).unwrap(), Json::Str("\u{e9}".into()));
        assert_eq!(Json::parse(r#""\u00E9""#).unwrap(), Json::Str("\u{e9}".into()));
        // U+1F680 encodes as the surrogate pair D83D DE80.
        assert_eq!(Json::parse(r#""\ud83d\ude80""#).unwrap(), Json::Str("\u{1f680}".into()));
        // The solidus escape is legal even though we never emit it.
        assert_eq!(Json::parse(r#""a\/b""#).unwrap(), Json::Str("a/b".into()));
    }

    #[test]
    fn malformed_strings_are_rejected() {
        for bad in [
            r#""\ud83d""#,      // lone high surrogate
            r#""\ude80""#,      // lone low surrogate
            r#""\ud83dA""#,     // high surrogate + non-surrogate
            r#""\uZZZZ""#,      // bad hex
            r#""\u00""#,        // truncated hex
            r#""\q""#,          // unknown escape
            r#""unterminated"#, // no closing quote
            "\"raw\u{1}ctl\"",  // raw control character
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn numbers_parse_and_roundtrip() {
        assert_eq!(Json::parse("0").unwrap(), Json::Int(0));
        assert_eq!(Json::parse("-42").unwrap(), Json::Int(-42));
        assert_eq!(Json::parse("9223372036854775807").unwrap(), Json::Int(i64::MAX));
        assert_eq!(Json::parse("1.5").unwrap(), Json::Float(1.5));
        assert_eq!(Json::parse("-2.5e3").unwrap(), Json::Float(-2500.0));
        assert_eq!(Json::parse("1E2").unwrap(), Json::Float(100.0));
        for j in [Json::Int(i64::MIN), Json::Int(i64::MAX), Json::Float(0.1), Json::Float(-1e300)] {
            roundtrip(&j);
        }
        // Integral floats outside the i64 range must not saturate
        // through as_i64 (2^63 parses as a float, not an i64).
        assert_eq!(Json::parse("9223372036854775808").unwrap().as_i64(), None);
        assert_eq!(Json::Float(1e19).as_i64(), None);
        assert_eq!(Json::Float(-1e19).as_i64(), None);
        assert_eq!(Json::Float(9000.0).as_i64(), Some(9000));
        assert_eq!(Json::Float(-9.223372036854776e18).as_i64(), Some(i64::MIN));
    }

    #[test]
    fn documents_roundtrip() {
        let mut inner = Json::obj();
        inner.set("labels", Json::Arr(vec!["a\nb".into(), Json::Null, Json::Bool(false)]));
        let mut doc = Json::obj();
        doc.set("op", "analyze").set("v", 1u64).set("nested", inner);
        doc.set("empty_obj", Json::obj()).set("empty_arr", Json::Arr(vec![]));
        roundtrip(&doc);
        // Parsed fields are reachable through the accessors.
        let parsed = Json::parse(&doc.compact()).unwrap();
        assert_eq!(parsed.get("op").and_then(Json::as_str), Some("analyze"));
        assert_eq!(parsed.get("v").and_then(Json::as_u64), Some(1));
        assert_eq!(
            parsed
                .get("nested")
                .and_then(|n| n.get("labels"))
                .and_then(Json::as_arr)
                .map(<[Json]>::len),
            Some(3)
        );
        assert!(parsed.get("missing").is_none());
    }

    #[test]
    fn malformed_documents_are_rejected() {
        for bad in [
            "",
            "  ",
            "{",
            "}",
            "[1,",
            "[1 2]",
            "{\"a\":}",
            "{\"a\" 1}",
            "{a: 1}",
            "tru",
            "nulll",
            "1 2",
            "{} []",
            "--1",
            "+1",
            "0x10",
            "NaN",
            "Infinity",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
        // The depth guard trips instead of overflowing the stack.
        let deep = "[".repeat(5000) + &"]".repeat(5000);
        let err = Json::parse(&deep).unwrap_err();
        assert!(err.msg.contains("deeply"), "{err}");
    }

    #[test]
    fn whitespace_and_duplicate_keys_follow_the_grammar() {
        let j = Json::parse(" \r\n\t{ \"a\" : [ 1 , 2 ] } \n").unwrap();
        assert_eq!(j.get("a").and_then(Json::as_arr).map(<[Json]>::len), Some(2));
        // Duplicate keys are preserved in order; `get` returns the first.
        let dup = Json::parse(r#"{"k": 1, "k": 2}"#).unwrap();
        assert_eq!(dup.get("k").and_then(Json::as_i64), Some(1));
    }
}
