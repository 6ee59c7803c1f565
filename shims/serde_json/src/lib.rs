//! Offline stand-in for `serde_json`: all of JSON this workspace needs.
//!
//! One owned value tree ([`Value`]), a writer ([`to_string`],
//! [`to_string_pretty`]) and the workspace's one JSON reader
//! ([`Reader`]): a borrowing pull tokenizer with escape sequences,
//! `\uXXXX` surrogate pairs and exponent-form numbers. [`from_str`] is
//! the tree builder over it; the wire's request decoder and the trace
//! reader walk it directly. There is no derive
//! machinery: a crate that puts a type on disk builds and reads its
//! `Value` itself.
//!
//! Integers stay exact up to `u64` / `i64`; floats print through Rust's
//! shortest-roundtrip formatter, so they read back bit for bit.
//! Non-finite floats are written as `null`, as the registry crate does.
//! Nesting deeper than 128 arrays / objects (the registry crate's
//! recursion limit) is refused with an error rather than overflowing
//! the stack. The reader sits on the wire path, so nothing in this
//! crate may panic on any input.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo)]
#![deny(clippy::indexing_slicing, clippy::unreachable, clippy::unimplemented)]
#![deny(clippy::string_slice)]

use std::borrow::Cow;
use std::fmt;

/// Deepest array / object nesting the [`Reader`] accepts.
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

/// Parse JSON text into a value: the tree builder over [`Reader`].
///
/// # Errors
/// Malformed text, trailing characters, or nesting deeper than 128.
pub fn from_str(s: &str) -> Result<Value, Error> {
    let mut reader = Reader::new(s);
    let value = reader.value()?;
    reader.end()?;
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
// Reader
// ---------------------------------------------------------------------

/// The one JSON reader: a pull tokenizer over borrowed text. Each read
/// skips the whitespace before its token and validates what it steps
/// over, so any walk of a whole document refuses exactly the text
/// [`from_str`] refuses, at the same byte and in the same words. The
/// wire's request decoder calls it from another crate on the submit
/// path, so the steps it runs per token are marked `#[inline]`.
pub struct Reader<'a> {
    text: &'a str,
    /// Rests on a character boundary only: it steps over whole ASCII
    /// tokens, or to the next `"` / `\`, which never occur inside a
    /// multi-byte character.
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `text`.
    #[must_use]
    pub fn new(text: &'a str) -> Self {
        Reader {
            text,
            pos: 0,
            depth: 0,
        }
    }

    fn byte(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    /// The next byte past any whitespace, not consumed.
    #[inline]
    pub fn peek(&mut self) -> Option<u8> {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.byte() {
            self.pos += 1;
        }
        self.byte()
    }

    fn err(&self, msg: &str) -> Error {
        Error {
            msg: format!("{msg} at byte {}", self.pos),
        }
    }

    /// Step over `b` if it is the next byte (no whitespace skipped).
    fn eat(&mut self, b: u8) -> bool {
        let hit = self.byte() == Some(b);
        self.pos += usize::from(hit);
        hit
    }

    #[inline(always)]
    fn expect(&mut self, b: u8) -> Result<(), Error> {
        self.peek();
        if self.eat(b) {
            return Ok(());
        }
        Err(self.err(&format!("expected `{}`", b as char)))
    }

    fn rest(&self) -> &'a str {
        self.text.get(self.pos..).unwrap_or("")
    }

    /// Nothing but whitespace may follow the one top-level value.
    pub fn end(&mut self) -> Result<(), Error> {
        let next = self.peek();
        next.map_or(Ok(()), |_| Err(self.err("trailing characters")))
    }

    /// Advance to the next `"` or `\` (or the end) and return what was
    /// stepped over.
    #[inline]
    fn plain_run(&mut self) -> &'a str {
        let rest = self.rest();
        let len = rest
            .bytes()
            .position(|b| b == b'"' || b == b'\\')
            .unwrap_or(rest.len());
        self.pos += len;
        rest.get(..len).unwrap_or("")
    }

    /// A string token: borrowed from the text unless it holds an
    /// escape.
    #[inline(always)]
    pub fn string(&mut self) -> Result<Cow<'a, str>, Error> {
        self.expect(b'"')?;
        let mut out = Cow::Borrowed(self.plain_run());
        loop {
            match self.byte() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let c = self.escape()?;
                    out.to_mut().push(c);
                }
                Some(_) => out.to_mut().push_str(self.plain_run()),
            }
        }
    }

    /// The character an escape sequence stands for; `pos` is just past
    /// the backslash.
    fn escape(&mut self) -> Result<char, Error> {
        let c = match self.byte() {
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
                let hi = self.hex4()?;
                let code = if (0xD800..0xDC00).contains(&hi) {
                    // Surrogate pair: expect the \uXXXX low half.
                    if !self.rest().starts_with("\\u") {
                        return Err(self.err("expected low surrogate"));
                    }
                    self.pos += 2;
                    let lo = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&lo) {
                        return Err(self.err("invalid low surrogate"));
                    }
                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                } else {
                    hi
                };
                return char::from_u32(code).ok_or_else(|| self.err("invalid unicode escape"));
            }
            _ => return Err(self.err("invalid escape")),
        };
        self.pos += 1;
        Ok(c)
    }

    /// The four hex digits of a `\u` escape.
    fn hex4(&mut self) -> Result<u32, Error> {
        if self.pos + 4 > self.text.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = self.text.get(self.pos..self.pos + 4);
        let v = hex.and_then(|h| h.chars().try_fold(0, |v, c| Some(v << 4 | c.to_digit(16)?)));
        let v = v.ok_or_else(|| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    /// Step over a run of digits; whether there was one.
    fn digits(&mut self) -> bool {
        let from = self.pos;
        while self.byte().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        self.pos > from
    }

    /// A number token, integers kept exact: `u64`, else `i64`, else
    /// (and for fraction / exponent forms) `f64`. As in registry
    /// `serde_json`, `-0` is the float `-0.0`, a literal past `f64`'s
    /// range is refused, and so is one off JSON's grammar: `0` is a whole
    /// integer part (`007` reads `0`, then fails), and a `.` or exponent
    /// needs digits (`1.`, `1e`).
    #[inline]
    pub fn number(&mut self) -> Result<Number, Error> {
        self.peek();
        let start = self.pos;
        self.eat(b'-');
        let mut well_formed = self.eat(b'0') || self.digits();
        let mut is_float = false;
        if self.eat(b'.') {
            is_float = true;
            well_formed &= self.digits();
        }
        if self.eat(b'e') || self.eat(b'E') {
            is_float = true;
            let _ = self.eat(b'+') || self.eat(b'-');
            well_formed &= self.digits();
        }
        let text = self.text.get(start..self.pos).unwrap_or("");
        if well_formed && !is_float {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Number::PosInt(u));
            }
            match text.parse::<i64>() {
                Ok(0) => return Ok(Number::Float(-0.0)),
                Ok(i) => return Ok(Number::NegInt(i)),
                Err(_) => {}
            }
        }
        match text.parse::<f64>() {
            Ok(f) if well_formed && f.is_finite() => Ok(Number::Float(f)),
            Ok(_) if well_formed => Err(self.err("number out of range")),
            _ => Err(Error {
                msg: format!("invalid number `{text}`"),
            }),
        }
    }

    /// Step over `token` if the text, past whitespace, goes on with it.
    pub fn eat_token(&mut self, token: &str) -> bool {
        self.peek();
        let hit = self.rest().starts_with(token);
        self.pos += if hit { token.len() } else { 0 };
        hit
    }

    /// A number, or a `null` / `true` / `false` literal.
    fn scalar(&mut self) -> Result<Value, Error> {
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') if self.eat_token("null") => Ok(Value::Null),
            Some(b't') if self.eat_token("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_token("false") => Ok(Value::Bool(false)),
            Some(b'n' | b't' | b'f') => Err(self.err("invalid literal")),
            Some(b'-' | b'0'..=b'9') => self.number().map(Value::Number),
            Some(b) => Err(self.err(&format!("unexpected character `{}`", b as char))),
        }
    }

    /// Walk the array or object that opens at the next byte: `each`
    /// gets the reader at every element's value, with its key in an
    /// object, and must step over the value. An open bracket deeper
    /// than 128, counted from the outermost one this reader entered, is
    /// refused, so a recursive walk never runs deep on the stack.
    pub fn container(
        &mut self,
        mut each: impl FnMut(&mut Self, Option<Cow<'a, str>>) -> Result<(), Error>,
    ) -> Result<(), Error> {
        let close = match self.peek() {
            Some(b'[') => b']',
            Some(b'{') => b'}',
            _ => return Err(self.err("expected `[` or `{`")),
        };
        if self.depth == MAX_DEPTH {
            return Err(self.err("recursion limit exceeded"));
        }
        self.depth += 1;
        self.pos += 1;
        if self.peek() != Some(close) {
            loop {
                let key = if close == b'}' {
                    let key = self.string()?;
                    self.expect(b':')?;
                    Some(key)
                } else {
                    None
                };
                each(self, key)?;
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b) if b == close => break,
                    _ => return Err(self.err(&format!("expected `,` or `{}`", close as char))),
                }
            }
        }
        self.pos += 1;
        self.depth -= 1;
        Ok(())
    }

    /// Validate and step over one value of any shape.
    #[inline]
    pub fn skip_value(&mut self) -> Result<(), Error> {
        match self.peek() {
            Some(b'[' | b'{') => self.container(|r, _| r.skip_value()),
            Some(b'"') => self.string().map(drop),
            _ => self.scalar().map(drop),
        }
    }

    /// Read one value of any shape as a tree.
    pub fn value(&mut self) -> Result<Value, Error> {
        Ok(match self.peek() {
            Some(b'[') => {
                let mut items = Vec::new();
                self.container(|r, _| {
                    items.push(r.value()?);
                    Ok(())
                })?;
                Value::Array(items)
            }
            Some(b'{') => {
                let mut pairs = Vec::new();
                self.container(|r, key| {
                    pairs.push((key.unwrap_or_default().into(), r.value()?));
                    Ok(())
                })?;
                Value::Object(pairs)
            }
            Some(b'"') => Value::String(self.string()?.into_owned()),
            _ => self.scalar()?,
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
        for bad in [
            "",
            "12x",
            "[1,2",
            "tru",
            "\"abc",
            "{\"a\"}",
            "\"\\ud83d\"",
            "\"\\u+0e9\"",
        ] {
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
        let mut skipper = Reader::new(&past);
        assert_eq!(skipper.skip_value().unwrap_err().to_string(), err);
        let hostile = "[".repeat(65_536);
        assert!(from_str(&hostile)
            .unwrap_err()
            .to_string()
            .contains("recursion limit"));
    }

    #[test]
    fn numbers_follow_the_registry_grammar() {
        // `-0` is the float -0.0, not the integer 0.
        let zero = from_str("-0").unwrap();
        assert_eq!(zero.as_f64().map(f64::to_bits), Some((-0.0f64).to_bits()));
        assert_eq!(zero.as_u64(), None);
        // A literal past f64's range is refused, not read as infinity.
        for lit in ["1e999", "-1e999", &"9".repeat(400)] {
            let err = from_str(lit).unwrap_err().to_string();
            assert_eq!(err, format!("number out of range at byte {}", lit.len()));
        }
        assert_eq!(from_str("1e-999").unwrap(), float(0.0));
        // Integers stay exact as far as u64 / i64 reach, then are floats.
        let min = Value::Number(Number::NegInt(i64::MIN));
        assert_eq!(from_str("-9223372036854775808").unwrap(), min);
        assert_eq!(
            from_str("18446744073709551616").unwrap(),
            float(2f64.powi(64))
        );
        // Off the grammar, as the registry crate refuses them: a
        // leading zero, an empty fraction, integer part or exponent.
        for lit in ["007", "-01", "00", "01.5", r#"{"a":01}"#, "[1.]"] {
            assert!(from_str(lit).is_err(), "{lit}");
        }
        for lit in ["1.", "-1.e5", "-.5", "-", "1e", "1e+", "2E-"] {
            let err = from_str(lit).unwrap_err().to_string();
            assert_eq!(err, format!("invalid number `{lit}`"));
        }
        for (lit, v) in [
            ("0", 0.0),
            ("-0.5", -0.5),
            ("10", 10.0),
            ("1E+2", 100.0),
            ("0e0", 0.0),
        ] {
            assert_eq!(from_str(lit).unwrap().as_f64(), Some(v), "{lit}");
        }
    }

    #[test]
    fn the_reader_borrows_plain_strings_and_skips_what_it_is_told_to() {
        let text = r#" {"a":"plain", "b":"esc\u0061ped","c":[1,{"d":[]}],"e":-2} "#;
        let mut r = Reader::new(text);
        let mut seen = Vec::new();
        r.container(|r, key| {
            let key = key.unwrap_or_default();
            seen.push(match r.peek() {
                Some(b'"') => {
                    let s = r.string()?;
                    format!("{key}={s} borrowed={}", matches!(s, Cow::Borrowed(_)))
                }
                Some(b'[') => r.skip_value().map(|()| format!("{key} skipped"))?,
                _ => format!("{key}={:?}", r.number()?),
            });
            Ok(())
        })
        .unwrap();
        r.end().unwrap();
        assert_eq!(
            seen,
            [
                "a=plain borrowed=true",
                "b=escaped borrowed=false",
                "c skipped",
                "e=NegInt(-2)"
            ]
        );
    }
}
