//! A minimal JSON value model, parser, and canonical emitter.
//!
//! Specs, run outcomes and traces are written and read here, and the
//! committed report and trace digests are taken over these bytes, so the
//! scenario layer owns its JSON format instead of leaving it to a
//! serializer: a strict recursive-descent parser with line/column errors
//! and an emitter whose output is *canonical* — object keys keep their
//! authored order, floats render in Rust's shortest-round-trip form —
//! so `parse(emit(v)) == v` and `emit(parse(s)) == s` for emitted `s`.
//! The spec round-trip property tests lean on exactly that.

use std::fmt::Write as _;

/// A JSON document.
///
/// Numbers are `f64` (JSON has one number type); object members keep
/// their authored order so emission is deterministic and diffable.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in authored member order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on an object; `None` on missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is a whole number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value as object members, if it is one.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// Renders the canonical compact form.
    pub fn emit(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Renders an indented human-friendly form (2-space indent) — what
    /// the committed `scenarios/` files use.
    pub fn emit_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_num(out, *n),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                let mut a = ArrWriter::open(out);
                for v in items {
                    v.write(a.item());
                }
                a.close();
            }
            Json::Obj(members) => {
                let mut o = ObjWriter::open(out);
                for (k, v) in members {
                    v.write(o.key(k));
                }
                o.close();
            }
        }
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        let pad = |out: &mut String, d: usize| {
            for _ in 0..d {
                out.push_str("  ");
            }
        };
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, v) in items.iter().enumerate() {
                    pad(out, depth + 1);
                    v.write_pretty(out, depth + 1);
                    if i + 1 < items.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                pad(out, depth);
                out.push(']');
            }
            Json::Obj(members) if !members.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in members.iter().enumerate() {
                    pad(out, depth + 1);
                    write_str(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, depth + 1);
                    if i + 1 < members.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                pad(out, depth);
                out.push('}');
            }
            other => other.write(out),
        }
    }
}

/// Canonical number rendering: integers without a trailing `.0`, other
/// values in shortest-round-trip form. `parse(emit(n))` recovers the
/// exact bits either way. JSON has no NaN/infinity and the parser never
/// produces them (overflowing literals are rejected), but a
/// programmatically constructed non-finite value must still emit *valid*
/// JSON — it becomes `null`, matching `JSON.stringify` semantics.
pub(crate) fn write_num(out: &mut String, n: f64) {
    if !n.is_finite() {
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 1e15 {
        // Exact below 10^15; `-0.0` renders as `0`.
        if n < 0.0 {
            out.push('-');
        }
        write_digits(out, n.abs() as u64);
    } else {
        let _ = write!(out, "{n:?}");
    }
}

/// An integer, rendered exactly as [`write_num`] renders `v as f64`: its
/// digits below 10^15, where that conversion is exact, and the float's
/// rendering from there on.
#[inline]
pub(crate) fn write_int(out: &mut String, v: u64) {
    if v < 1_000_000_000_000_000 {
        write_digits(out, v);
    } else {
        write_num(out, v as f64);
    }
}

/// `00` through `99`: the digit pairs [`write_digits`] copies.
const DIGIT_PAIRS: &[u8; 200] = b"\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// The decimal digits of `v`, two at a time from [`DIGIT_PAIRS`] into a
/// stack buffer, then pushed one by one: for a number's few digits that
/// costs less than validating them as UTF-8 and copying the slice.
#[inline]
fn write_digits(out: &mut String, mut v: u64) {
    let mut buf = [0u8; 20];
    let mut start = buf.len();
    for slot in buf.rchunks_exact_mut(2) {
        let pair = (v % 100) as usize * 2;
        slot.copy_from_slice(DIGIT_PAIRS.get(pair..pair + 2).unwrap_or(b"00"));
        start -= 2;
        v /= 100;
        if v == 0 {
            break;
        }
    }
    // The last pair written may start with a zero digit that is not the
    // only digit.
    if start + 1 < buf.len() && buf.get(start) == Some(&b'0') {
        start += 1;
    }
    for &digit in buf.get(start..).unwrap_or_default() {
        out.push(char::from(digit));
    }
}

fn needs_escape(b: u8) -> bool {
    b == b'"' || b == b'\\' || b < 0x20
}

/// A JSON string literal.
#[inline(always)]
fn write_str(out: &mut String, s: &str) {
    out.push('"');
    write_escaped(out, s);
    out.push('"');
}

/// A JSON string's body. A string that needs no escaping is copied in
/// one append. Always inlined: for a literal — every key and fixed value
/// the trace writers pass — the escape check then folds away at compile
/// time and the copy becomes a constant-length store.
#[inline(always)]
fn write_escaped(out: &mut String, s: &str) {
    if s.bytes().any(needs_escape) {
        write_escaped_runs(out, s);
    } else {
        out.push_str(s);
    }
}

/// [`write_escaped`] for a string that needs escaping: each run of bytes
/// between escapes is copied in one append. Every byte that needs an
/// escape is ASCII, so a run never splits a character.
#[cold]
fn write_escaped_runs(out: &mut String, s: &str) {
    let mut rest = s;
    while let Some(at) = rest.bytes().position(needs_escape) {
        let (clean, tail) = rest.split_at(at);
        out.push_str(clean);
        let mut chars = tail.chars();
        match chars.next() {
            Some('"') => out.push_str("\\\""),
            Some('\\') => out.push_str("\\\\"),
            Some('\n') => out.push_str("\\n"),
            Some('\r') => out.push_str("\\r"),
            Some('\t') => out.push_str("\\t"),
            Some(c) => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            None => {}
        }
        rest = chars.as_str();
    }
    out.push_str(rest);
}

/// Streams one compact JSON array into a `String`, item by item — the
/// array syntax [`Json::emit`] itself writes through (see [`ObjWriter`]).
pub(crate) struct ArrWriter<'a> {
    out: &'a mut String,
    empty: bool,
}

impl<'a> ArrWriter<'a> {
    pub(crate) fn open(out: &'a mut String) -> ArrWriter<'a> {
        out.push('[');
        ArrWriter { out, empty: true }
    }

    /// Writes the separator before the next item; the caller writes the
    /// item.
    pub(crate) fn item(&mut self) -> &mut String {
        if !self.empty {
            self.out.push(',');
        }
        self.empty = false;
        self.out
    }

    pub(crate) fn close(self) {
        self.out.push(']');
    }
}

/// Streams one compact JSON object into a `String`, member by member —
/// the object syntax [`Json::emit`] itself writes through, so a caller
/// that renders straight to text (the trace writers) produces the same
/// bytes as building the tree and emitting it. Its member writers are
/// always inlined, so a literal key costs three constant-length appends
/// (see [`write_escaped`]).
pub(crate) struct ObjWriter<'a> {
    out: &'a mut String,
    empty: bool,
}

impl<'a> ObjWriter<'a> {
    pub(crate) fn open(out: &'a mut String) -> ObjWriter<'a> {
        out.push('{');
        ObjWriter { out, empty: true }
    }

    /// Writes `key` and its separators; the caller writes the value.
    #[inline(always)]
    pub(crate) fn key(&mut self, key: &str) -> &mut String {
        self.out.push_str(if self.empty { "\"" } else { ",\"" });
        self.empty = false;
        write_escaped(self.out, key);
        self.out.push_str("\":");
        self.out
    }

    #[inline(always)]
    pub(crate) fn num(&mut self, key: &str, v: f64) -> &mut Self {
        write_num(self.key(key), v);
        self
    }

    /// An integer member, rendered as [`ni`] renders it.
    #[inline(always)]
    pub(crate) fn int(&mut self, key: &str, v: u64) -> &mut Self {
        write_int(self.key(key), v);
        self
    }

    #[inline(always)]
    pub(crate) fn str(&mut self, key: &str, v: &str) -> &mut Self {
        write_str(self.key(key), v);
        self
    }

    #[inline(always)]
    pub(crate) fn bool(&mut self, key: &str, v: bool) -> &mut Self {
        self.key(key).push_str(if v { "true" } else { "false" });
        self
    }

    pub(crate) fn close(&mut self) {
        self.out.push('}');
    }
}

/// A parse failure with its position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
    /// What went wrong.
    pub msg: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON error at {}:{}: {}", self.line, self.col, self.msg)
    }
}

impl std::error::Error for JsonError {}

/// Parses one JSON document; trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos < p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: impl Into<String>) -> JsonError {
        let (mut line, mut col) = (1usize, 1usize);
        for &b in &self.bytes[..self.pos.min(self.bytes.len())] {
            if b == b'\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
        }
        JsonError {
            line,
            col,
            msg: msg.into(),
        }
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
            Err(self.err(format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(format!("unexpected character '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(format!("expected '{word}'")))
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
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
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii digits");
        match text.parse::<f64>() {
            // A literal like `1e999` parses to infinity; admitting it
            // would let a non-finite value into `Json::Num` and break
            // the emitter's validity guarantee, so reject it here.
            Ok(v) if v.is_finite() => Ok(Json::Num(v)),
            Ok(_) => Err(self.err(format!("number '{text}' overflows f64"))),
            Err(_) => Err(self.err(format!("malformed number '{text}'"))),
        }
    }

    /// Reads the four hex digits of one `\u` escape's code unit.
    fn hex4(&mut self) -> Result<u32, JsonError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("non-ascii \\u escape"))?;
        let unit = u32::from_str_radix(hex, 16).map_err(|_| self.err("malformed \\u escape"))?;
        self.pos += 4;
        Ok(unit)
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
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
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let unit = self.hex4()?;
                            let code = match unit {
                                // RFC 8259: non-BMP characters arrive as a
                                // UTF-16 surrogate pair of \u escapes (what
                                // serde_json and JSON.stringify emit).
                                0xD800..=0xDBFF => {
                                    if self.peek() != Some(b'\\') {
                                        return Err(self.err("lone high surrogate"));
                                    }
                                    self.pos += 1;
                                    if self.peek() != Some(b'u') {
                                        return Err(self.err("lone high surrogate"));
                                    }
                                    self.pos += 1;
                                    let low = self.hex4()?;
                                    if !(0xDC00..=0xDFFF).contains(&low) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00)
                                }
                                0xDC00..=0xDFFF => return Err(self.err("lone low surrogate")),
                                bmp => bmp,
                            };
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid \\u code point"))?,
                            );
                        }
                        other => {
                            return Err(self.err(format!("unknown escape '\\{}'", other as char)))
                        }
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    let c = rest.chars().next().expect("peeked non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut members: Vec<(String, Json)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            if members.iter().any(|(k, _)| *k == key) {
                return Err(self.err(format!("duplicate key \"{key}\"")));
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }
}

/// Convenience constructors for canonical emission.
pub fn obj(members: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// A string value.
pub fn s(v: &str) -> Json {
    Json::Str(v.to_string())
}

/// A number value.
pub fn n(v: f64) -> Json {
    Json::Num(v)
}

/// An integer number value.
pub fn ni(v: u64) -> Json {
    Json::Num(v as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse("true").unwrap(), Json::Bool(true));
        assert_eq!(parse(" 42 ").unwrap(), Json::Num(42.0));
        assert_eq!(parse("-2.5e2").unwrap(), Json::Num(-250.0));
        assert_eq!(parse("\"hi\\n\"").unwrap(), Json::Str("hi\n".to_string()));
    }

    #[test]
    fn parses_nested_structures() {
        let doc = r#"{"a": [1, {"b": null}, "x"], "c": false}"#;
        let v = parse(doc).unwrap();
        assert_eq!(v.get("c"), Some(&Json::Bool(false)));
        let arr = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[1].get("b"), Some(&Json::Null));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "tru",
            "1 2",
            "{\"a\":1,\"a\":2}",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn errors_carry_position() {
        let err = parse("{\n  \"a\": tru\n}").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.msg.contains("true"));
    }

    #[test]
    fn emit_parse_roundtrip() {
        let v = obj(vec![
            ("name", s("x")),
            ("rate", n(1.5)),
            ("count", ni(7)),
            ("flags", Json::Arr(vec![Json::Bool(true), Json::Null])),
            ("nested", obj(vec![("k", s("v \"quoted\"\n"))])),
        ]);
        let compact = v.emit();
        assert_eq!(parse(&compact).unwrap(), v);
        // Emission of a parse of an emission is a fixed point.
        assert_eq!(parse(&compact).unwrap().emit(), compact);
        let pretty = v.emit_pretty();
        assert_eq!(parse(&pretty).unwrap(), v);
    }

    #[test]
    fn integers_emit_without_fraction() {
        assert_eq!(ni(120).emit(), "120");
        assert_eq!(n(0.5).emit(), "0.5");
        assert_eq!(n(-3.0).emit(), "-3");
    }

    /// The number rendering before integers had their own digit path:
    /// every integral value below 10^15 through `i64`'s formatter,
    /// everything else through `f64`'s.
    fn reference_num(n: f64) -> String {
        if !n.is_finite() {
            "null".to_string()
        } else if n.fract() == 0.0 && n.abs() < 1e15 {
            format!("{}", n as i64)
        } else {
            format!("{n:?}")
        }
    }

    /// The string escaping before clean runs were copied whole: one
    /// character at a time.
    fn reference_str(s: &str) -> String {
        let mut out = String::from('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }

    #[test]
    fn integers_render_as_their_float_would() {
        for v in [
            0,
            9,
            10,
            99,
            100,
            (1 << 53) - 1,
            999_999_999_999_999,
            1_000_000_000_000_000,
            u64::MAX,
        ] {
            let (mut int, mut num) = (String::new(), String::new());
            write_int(&mut int, v);
            write_num(&mut num, v as f64);
            assert_eq!(int, num, "{v}");
            assert_eq!(int, reference_num(v as f64), "{v}");
        }
        for n in [
            -0.0,
            -1.0,
            -99.0,
            -999_999_999_999_999.0,
            -1e15,
            0.5,
            -1.5,
            1e-9,
            1e21,
            f64::NAN,
        ] {
            let mut out = String::new();
            write_num(&mut out, n);
            assert_eq!(out, reference_num(n), "{n:?}");
        }
    }

    #[test]
    fn strings_escape_as_the_char_by_char_escaper_does() {
        for s in [
            "",
            "t_us",
            "\"",
            "\\",
            "\n",
            "\r",
            "\t",
            "\u{1}",
            "\u{1f}",
            "\u{7f}",
            "a \"quoted\" \\path\\\n",
            "\t\r\n\"\\\u{1}\u{1f}",
            "héllo wörld",
            "日本語\n\"引用\"",
            "😀\u{1}😀",
        ] {
            let mut out = String::new();
            write_str(&mut out, s);
            assert_eq!(out, reference_str(s), "{s:?}");
            assert_eq!(parse(&out), Ok(Json::Str(s.to_string())), "{s:?}");
        }
    }

    #[test]
    fn overflowing_numbers_are_rejected_not_infinity() {
        for bad in ["1e999", "-1e999", "1e308000"] {
            let err = parse(bad).unwrap_err();
            assert!(err.msg.contains("overflow"), "{bad}: {err}");
        }
        // Large-but-finite still parses.
        assert_eq!(parse("1e308").unwrap(), Json::Num(1e308));
    }

    #[test]
    fn non_finite_values_emit_valid_json() {
        assert_eq!(n(f64::INFINITY).emit(), "null");
        assert_eq!(n(f64::NEG_INFINITY).emit(), "null");
        assert_eq!(n(f64::NAN).emit(), "null");
        // The emitted document stays parseable.
        assert!(parse(&Json::Arr(vec![n(f64::NAN)]).emit()).is_ok());
    }

    #[test]
    fn surrogate_pairs_decode_to_non_bmp_chars() {
        // RFC 8259 escaped emoji — what serde_json / JSON.stringify emit.
        assert_eq!(
            parse(r#""\ud83d\ude00""#).unwrap(),
            Json::Str("😀".to_string())
        );
        // And the character round-trips through the emitter raw.
        let v = Json::Str("😀".to_string());
        assert_eq!(parse(&v.emit()).unwrap(), v);
        // Lone or malformed surrogates are errors, not panics.
        for bad in [r#""\ud83d""#, r#""\ud83dx""#, r#""\ud83dA""#, r#""\ude00""#] {
            assert!(parse(bad).is_err(), "{bad} should fail");
        }
    }
}
