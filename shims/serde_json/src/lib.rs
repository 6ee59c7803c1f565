//! Offline stand-in for `serde_json`: all of JSON this workspace needs.
//!
//! One owned value tree ([`Value`]), a writer ([`to_string`],
//! [`to_string_pretty`]) and a recursive-descent parser ([`from_str`])
//! with escape sequences, `\uXXXX` surrogate pairs and exponent-form
//! numbers. There is no derive machinery: a crate that puts a type on
//! disk builds and reads its `Value` itself.
//!
//! Integers stay exact up to `u64` / `i64`; floats print through Rust's
//! shortest-roundtrip formatter, so they read back bit for bit. Non-finite floats are written as `null`, as the
//! registry crate does. Nesting deeper than 128 arrays / objects (the
//! registry crate's recursion limit) is refused with an error rather
//! than overflowing the parser's stack.

use std::fmt;

/// Deepest array / object nesting [`from_str`] accepts.
const MAX_DEPTH: usize = 128;

/// A JSON value.
///
/// Object fields keep insertion order (a `Vec` of pairs, like
/// `serde_json`'s `preserve_order` mode), so a document is written in
/// the order its builder listed the fields.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Number(Number),
    String(String),
    Array(Vec<Value>),
    Object(Vec<(String, Value)>),
}

/// A JSON number, keeping integers exact.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Number {
    PosInt(u64),
    NegInt(i64),
    Float(f64),
}

impl Number {
    /// The number as a `u64`, when it is a non-negative integer.
    #[must_use]
    pub fn as_u64(self) -> Option<u64> {
        match self {
            Number::PosInt(n) => Some(n),
            Number::NegInt(n) => u64::try_from(n).ok(),
            Number::Float(_) => None,
        }
    }

    /// The number as an `f64` (integers convert).
    #[must_use]
    pub fn as_f64(self) -> f64 {
        match self {
            Number::PosInt(n) => n as f64,
            Number::NegInt(n) => n as f64,
            Number::Float(f) => f,
        }
    }
}

impl Value {
    #[must_use]
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(pairs) => Some(pairs),
            _ => None,
        }
    }

    #[must_use]
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// A non-negative integer; a float, even an integral one, is `None`.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) => n.as_u64(),
            _ => None,
        }
    }

    /// Any number, as an `f64`.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(n.as_f64()),
            _ => None,
        }
    }

    /// The first field named `key`, when `self` is an object.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object()
            .and_then(|pairs| pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v))
    }
}

impl From<u64> for Value {
    fn from(n: u64) -> Self {
        Value::Number(Number::PosInt(n))
    }
}

impl From<u32> for Value {
    fn from(n: u32) -> Self {
        Value::from(u64::from(n))
    }
}

impl From<f64> for Value {
    fn from(f: f64) -> Self {
        Value::Number(Number::Float(f))
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::String(s.to_string())
    }
}

impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Self {
        v.map_or(Value::Null, Into::into)
    }
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(items: Vec<T>) -> Self {
        Value::Array(items.into_iter().map(Into::into).collect())
    }
}

/// A parse error: what was wrong and at which byte.
#[derive(Debug, Clone)]
pub struct Error {
    msg: String,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for Error {}

/// Write a value as compact JSON.
#[must_use]
pub fn to_string(value: &Value) -> String {
    let mut out = String::new();
    write_value(&mut out, value, None, 0);
    out
}

/// Write a value as 2-space-indented JSON.
#[must_use]
pub fn to_string_pretty(value: &Value) -> String {
    let mut out = String::new();
    write_value(&mut out, value, Some(2), 0);
    out
}

/// Parse JSON text into a value.
///
/// # Errors
/// Malformed text, trailing characters, or nesting deeper than 128.
pub fn from_str(s: &str) -> Result<Value, Error> {
    let mut parser = Parser {
        text: s,
        pos: 0,
        depth: 0,
    };
    parser.skip_ws();
    let value = parser.parse_value()?;
    parser.skip_ws();
    if parser.pos != parser.text.len() {
        return Err(Error {
            msg: format!("trailing characters at byte {}", parser.pos),
        });
    }
    Ok(value)
}

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

fn write_value(out: &mut String, value: &Value, indent: Option<usize>, depth: usize) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Number(n) => write_number(out, *n),
        Value::String(s) => write_string(out, s),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_value(out, item, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push(']');
        }
        Value::Object(pairs) => {
            if pairs.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, v)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_string(out, k);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, v, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push('}');
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * depth {
            out.push(' ');
        }
    }
}

fn write_number(out: &mut String, n: Number) {
    match n {
        Number::PosInt(u) => out.push_str(&u.to_string()),
        Number::NegInt(i) => out.push_str(&i.to_string()),
        Number::Float(f) if f.is_finite() => {
            // Rust's Display is shortest-roundtrip; make integral floats
            // visibly floats ("1.0", like serde_json).
            let s = f.to_string();
            out.push_str(&s);
            if !s.contains(['.', 'e', 'E']) {
                out.push_str(".0");
            }
        }
        // serde_json has no representation for NaN/inf; it writes null.
        Number::Float(_) => out.push_str("null"),
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
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
    out.push('"');
}

// ---------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------

struct Parser<'a> {
    text: &'a str,
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn err(&self, msg: &str) -> Error {
        Error {
            msg: format!("{msg} at byte {}", self.pos),
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn consume_literal(&mut self, lit: &str) -> bool {
        if self.text[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn literal(&mut self, lit: &str, value: Value) -> Result<Value, Error> {
        if self.consume_literal(lit) {
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.parse_string().map(Value::String),
            Some(b'[' | b'{') if self.depth == MAX_DEPTH => {
                Err(self.err("recursion limit exceeded"))
            }
            Some(b'[') => self.nested(Self::parse_array),
            Some(b'{') => self.nested(Self::parse_object),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.parse_number(),
            Some(b) => Err(self.err(&format!("unexpected character `{}`", b as char))),
        }
    }

    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value, Error>) -> Result<Value, Error> {
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn parse_array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.parse_value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(pairs));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
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
                    let simple = match self.peek() {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'b') => '\u{08}',
                        Some(b'f') => '\u{0c}',
                        Some(b'u') => {
                            self.pos += 1;
                            out.push(self.parse_unicode_escape()?);
                            continue;
                        }
                        _ => return Err(self.err("invalid escape")),
                    };
                    out.push(simple);
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run up to the next quote or escape.
                    let rest = &self.text[self.pos..];
                    let run = rest.find(['"', '\\']).unwrap_or(rest.len());
                    out.push_str(&rest[..run]);
                    self.pos += run;
                }
            }
        }
    }

    /// The character of a `\u` escape whose `XXXX` starts at `pos`,
    /// joining a surrogate pair.
    fn parse_unicode_escape(&mut self) -> Result<char, Error> {
        let hi = self.parse_hex4()?;
        let c = if (0xD800..0xDC00).contains(&hi) {
            if !self.consume_literal("\\u") {
                return Err(self.err("expected low surrogate"));
            }
            let lo = self.parse_hex4()?;
            if !(0xDC00..0xE000).contains(&lo) {
                return Err(self.err("invalid low surrogate"));
            }
            char::from_u32(0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00))
        } else {
            char::from_u32(hi)
        };
        c.ok_or_else(|| self.err("invalid unicode escape"))
    }

    fn parse_hex4(&mut self) -> Result<u32, Error> {
        if self.pos + 4 > self.text.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = (self.text.get(self.pos..self.pos + 4))
            .ok_or_else(|| self.err("invalid \\u escape"))?;
        let v = u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn digits(&mut self) {
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        self.digits();
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            self.digits();
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits();
        }
        let text = &self.text[start..self.pos];
        if !is_float {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::Number(Number::PosInt(u)));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Number(Number::NegInt(i)));
            }
        }
        text.parse::<f64>()
            .map(|f| Value::Number(Number::Float(f)))
            .map_err(|_| Error {
                msg: format!("invalid number `{text}`"),
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn float(f: f64) -> Value {
        Value::Number(Number::Float(f))
    }

    #[test]
    fn scalars_write_like_serde_json() {
        assert_eq!(to_string(&Value::Bool(true)), "true");
        assert_eq!(to_string(&Value::Number(Number::PosInt(42))), "42");
        assert_eq!(to_string(&Value::Number(Number::NegInt(-7))), "-7");
        assert_eq!(to_string(&float(1.5)), "1.5");
        assert_eq!(to_string(&float(2.0)), "2.0");
        assert_eq!(to_string(&float(f64::NAN)), "null");
        let s = Value::String("hi\n\"there\"".into());
        assert_eq!(to_string(&s), r#""hi\n\"there\"""#);
    }

    #[test]
    fn scalars_parse() {
        assert_eq!(from_str("42").unwrap().as_u64(), Some(42));
        assert_eq!(from_str("-7").unwrap().as_u64(), None);
        assert_eq!(from_str("1e3").unwrap(), float(1000.0));
        assert_eq!(from_str("1e3").unwrap().as_u64(), None);
        assert_eq!(from_str("7").unwrap().as_f64(), Some(7.0));
        let s = from_str(r#""aA😀b""#).unwrap();
        assert_eq!(s.as_str(), Some("aA\u{1F600}b"));
    }

    #[test]
    fn nested_documents_roundtrip() {
        let text = "[[0.0,1.5],{\"a\":[],\"b\":null}]";
        assert_eq!(to_string(&from_str(text).unwrap()), text);
    }

    #[test]
    fn pretty_format_is_indented() {
        let v = Value::Object(vec![(
            "a".into(),
            Value::Array(vec![
                Value::Number(Number::PosInt(1)),
                Value::Number(Number::PosInt(2)),
            ]),
        )]);
        assert_eq!(to_string_pretty(&v), "{\n  \"a\": [\n    1,\n    2\n  ]\n}");
    }

    #[test]
    fn exact_u64_integers_survive() {
        let big = (1u64 << 53) + 1;
        let s = to_string(&Value::Number(Number::PosInt(big)));
        assert_eq!(from_str(&s).unwrap().as_u64(), Some(big));
    }

    #[test]
    fn parse_errors_are_reported_not_panicked() {
        for bad in ["", "12x", "[1,2", "tru", "\"abc", "{\"a\"}", "\"\\ud83d\""] {
            assert!(from_str(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn nesting_past_the_limit_is_an_error_not_a_stack_overflow() {
        let at_limit = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(from_str(&at_limit).is_ok());
        let objects = format!("{}1{}", "{\"k\":".repeat(MAX_DEPTH), "}".repeat(MAX_DEPTH));
        assert!(from_str(&objects).is_ok());
        let past = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        let err = from_str(&past).unwrap_err().to_string();
        assert_eq!(err, format!("recursion limit exceeded at byte {MAX_DEPTH}"));
        let hostile = "[".repeat(65_536);
        assert!(from_str(&hostile)
            .unwrap_err()
            .to_string()
            .contains("recursion limit"));
    }
}
