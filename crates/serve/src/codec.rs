//! The submit hot path's codec: a borrowed pull decoder for request
//! lines and a preformatted encoder for submit acks.
//!
//! A request line is decoded in one pass over its bytes, field by
//! field: the walk validates the whole line as JSON (so a malformed
//! line is refused exactly where a tree parser would refuse it, with
//! the same explanation), keeps only the five values a request can
//! mean anything by — `cmd`, `cycles`, `class`, `id`, `arrival`, first
//! occurrence each — and skips everything else without building it. A
//! string is borrowed from the line unless it carries an escape;
//! nesting is walked with an explicit stack, so hostile depth costs
//! bytes of heap, never call stack. Nothing here can panic on any
//! input.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo)]
#![deny(clippy::indexing_slicing, clippy::unreachable, clippy::unimplemented)]

use crate::protocol::{field_u64, parse_class, Request, Response};
use serde_json::Number;
use std::borrow::Cow;

/// What a successful submit reports: the task's id, the admission
/// queue depth including it, and the shard it was routed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Ack {
    pub id: u64,
    pub depth: u64,
    pub shard: u64,
}

impl Ack {
    /// The ack as the generic response it is on the wire.
    pub fn response(self) -> Response {
        Response::Ok(vec![
            field_u64("id", self.id),
            field_u64("depth", self.depth),
            field_u64("shard", self.shard),
        ])
    }

    /// Append the ack's wire line — byte for byte what
    /// [`Ack::response`] encodes to, plus the newline — to `out`.
    pub fn push_line(self, out: &mut Vec<u8>) {
        out.extend_from_slice(b"{\"ok\":true,\"id\":");
        push_u64(out, self.id);
        out.extend_from_slice(b",\"depth\":");
        push_u64(out, self.depth);
        out.extend_from_slice(b",\"shard\":");
        push_u64(out, self.shard);
        out.extend_from_slice(b"}\n");
    }
}

/// Append `v` in decimal.
fn push_u64(out: &mut Vec<u8>, mut v: u64) {
    // 20 digits hold `u64::MAX`.
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        if let Some(slot) = digits.get_mut(at) {
            *slot = b'0' + (v % 10) as u8;
        }
        v /= 10;
        if v == 0 || at == 0 {
            break;
        }
    }
    out.extend_from_slice(digits.get(at..).unwrap_or(&[]));
}

/// The value found under one of the keys a request reads.
enum Field<'a> {
    Str(Cow<'a, str>),
    Num(Number),
    /// Present, but neither a string nor a number.
    Other,
}

/// Position in the line being decoded. `pos` only ever rests on a
/// character boundary: it steps over whole ASCII tokens, or to the next
/// `"` / `\`, which never occur inside a multi-byte character.
struct Cursor<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn err(&self, msg: &str) -> String {
        format!("invalid JSON: {msg} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn rest(&self) -> &'a str {
        self.text.get(self.pos..).unwrap_or("")
    }

    fn literal(&mut self, lit: &str) -> Result<(), String> {
        if self.rest().starts_with(lit) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.err("invalid literal"))
        }
    }

    /// Nothing but whitespace may follow the one top-level value.
    fn end(&mut self) -> Result<(), String> {
        self.skip_ws();
        if self.pos == self.text.len() {
            Ok(())
        } else {
            Err(format!(
                "invalid JSON: trailing characters at byte {}",
                self.pos
            ))
        }
    }

    /// Advance to the next `"` or `\` (or the end) and return what was
    /// stepped over.
    fn plain_run(&mut self) -> &'a str {
        let rest = self.rest();
        let len = rest
            .bytes()
            .position(|b| b == b'"' || b == b'\\')
            .unwrap_or(rest.len());
        self.pos += len;
        rest.get(..len).unwrap_or("")
    }

    /// A string token: borrowed from the line unless it holds an
    /// escape.
    fn string(&mut self) -> Result<Cow<'a, str>, String> {
        self.eat(b'"')?;
        let plain = self.plain_run();
        if self.peek() == Some(b'"') {
            self.pos += 1;
            return Ok(Cow::Borrowed(plain));
        }
        let mut out = plain.to_owned();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(Cow::Owned(out));
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                Some(_) => out.push_str(self.plain_run()),
            }
        }
    }

    /// The character an escape sequence stands for; `pos` is just past
    /// the backslash.
    fn escape(&mut self) -> Result<char, String> {
        let c = match self.peek() {
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

    fn hex4(&mut self) -> Result<u32, String> {
        if self.pos + 4 > self.text.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let v = self
            .text
            .get(self.pos..self.pos + 4)
            .and_then(|hex| u32::from_str_radix(hex, 16).ok())
            .ok_or_else(|| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn digits(&mut self) {
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
    }

    /// A number token, integers kept exact: `u64`, else `i64`, else (and
    /// for fraction / exponent forms) `f64`.
    fn number(&mut self) -> Result<Number, String> {
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
        let text = self.text.get(start..self.pos).unwrap_or("");
        if !is_float {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Number::PosInt(u));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Number::NegInt(i));
            }
        }
        text.parse::<f64>()
            .map(Number::Float)
            .map_err(|_| format!("invalid JSON: invalid number `{text}`"))
    }

    /// An object key and its colon.
    fn key(&mut self) -> Result<Cow<'a, str>, String> {
        self.skip_ws();
        let key = self.string()?;
        self.skip_ws();
        self.eat(b':')?;
        Ok(key)
    }

    /// Validate and step over one value of any shape. Containers are
    /// tracked on an explicit stack (one byte per open bracket), so the
    /// depth a line can reach is bounded by its length, not by the
    /// thread's stack.
    fn skip_value(&mut self) -> Result<(), String> {
        let mut open: Vec<u8> = Vec::new();
        loop {
            self.skip_ws();
            match self.peek() {
                None => return Err(self.err("unexpected end of input")),
                Some(b'n') => self.literal("null")?,
                Some(b't') => self.literal("true")?,
                Some(b'f') => self.literal("false")?,
                Some(b'"') => {
                    self.string()?;
                }
                Some(b'-' | b'0'..=b'9') => {
                    self.number()?;
                }
                Some(bracket @ (b'[' | b'{')) => {
                    self.pos += 1;
                    self.skip_ws();
                    let close = if bracket == b'[' { b']' } else { b'}' };
                    if self.peek() == Some(close) {
                        self.pos += 1;
                    } else {
                        open.push(bracket);
                        if bracket == b'{' {
                            self.key()?;
                        }
                        continue;
                    }
                }
                Some(b) => {
                    return Err(self.err(&format!("unexpected character `{}`", b as char)));
                }
            }
            // A value just ended: close every container it completes,
            // or move on to the enclosing container's next element.
            loop {
                let Some(&top) = open.last() else {
                    return Ok(());
                };
                self.skip_ws();
                match (top, self.peek()) {
                    (_, Some(b',')) => {
                        self.pos += 1;
                        if top == b'{' {
                            self.key()?;
                        }
                        break;
                    }
                    (b'[', Some(b']')) | (b'{', Some(b'}')) => {
                        self.pos += 1;
                        open.pop();
                    }
                    (b'[', _) => return Err(self.err("expected `,` or `]`")),
                    _ => return Err(self.err("expected `,` or `}`")),
                }
            }
        }
    }

    /// One value under a key the request reads.
    fn field(&mut self) -> Result<Field<'a>, String> {
        self.skip_ws();
        Ok(match self.peek() {
            Some(b'"') => Field::Str(self.string()?),
            Some(b'-' | b'0'..=b'9') => Field::Num(self.number()?),
            _ => {
                self.skip_value()?;
                Field::Other
            }
        })
    }
}

/// The five values a request line can mean anything by, first
/// occurrence each.
#[derive(Default)]
struct Fields<'a> {
    cmd: Option<Field<'a>>,
    cycles: Option<Field<'a>>,
    class: Option<Field<'a>>,
    id: Option<Field<'a>>,
    arrival: Option<Field<'a>>,
}

impl<'a> Fields<'a> {
    fn slot(&mut self, key: &str) -> Option<&mut Option<Field<'a>>> {
        Some(match key {
            "cmd" => &mut self.cmd,
            "cycles" => &mut self.cycles,
            "class" => &mut self.class,
            "id" => &mut self.id,
            "arrival" => &mut self.arrival,
            _ => return None,
        })
    }
}

/// Walk a whole line: `None` when it is valid JSON but not an object.
fn fields(line: &str) -> Result<Option<Fields<'_>>, String> {
    let mut c = Cursor { text: line, pos: 0 };
    c.skip_ws();
    if c.peek() != Some(b'{') {
        c.skip_value()?;
        c.end()?;
        return Ok(None);
    }
    c.pos += 1;
    c.skip_ws();
    let mut found = Fields::default();
    if c.peek() == Some(b'}') {
        c.pos += 1;
    } else {
        loop {
            let key = c.key()?;
            match found.slot(&key) {
                Some(slot @ None) => *slot = Some(c.field()?),
                _ => c.skip_value()?,
            }
            c.skip_ws();
            match c.peek() {
                Some(b',') => c.pos += 1,
                Some(b'}') => {
                    c.pos += 1;
                    break;
                }
                _ => return Err(c.err("expected `,` or `}`")),
            }
        }
    }
    c.end()?;
    Ok(Some(found))
}

impl Field<'_> {
    fn number(&self) -> Option<Number> {
        match self {
            Field::Num(n) => Some(*n),
            _ => None,
        }
    }
}

/// Decode one request line.
///
/// # Errors
/// Describes the malformation; the server wraps this in a
/// `bad_request` response.
pub(crate) fn decode_request(line: &str) -> Result<Request, String> {
    let Some(found) = fields(line)? else {
        return Err("request is not a JSON object".into());
    };
    let cmd = match &found.cmd {
        Some(Field::Str(s)) => s.as_ref(),
        Some(_) => return Err("`cmd` must be a string".into()),
        None => return Err("request missing `cmd`".into()),
    };
    match cmd {
        "submit" => {
            let cycles = match &found.cycles {
                Some(f) => f
                    .number()
                    .and_then(Number::as_u64)
                    .ok_or("`cycles` must be a positive integer")?,
                None => return Err("submit missing `cycles`".into()),
            };
            let class = match &found.class {
                Some(Field::Str(s)) => parse_class(s)?,
                Some(_) => return Err("`class` must be a string".into()),
                None => return Err("submit missing `class`".into()),
            };
            let id = match &found.id {
                Some(f) => Some(
                    f.number()
                        .and_then(Number::as_u64)
                        .ok_or("`id` must be a non-negative integer")?,
                ),
                None => None,
            };
            let arrival = match &found.arrival {
                Some(f) => Some(
                    f.number()
                        .map(Number::as_f64)
                        .ok_or("`arrival` must be a number")?,
                ),
                None => None,
            };
            Ok(Request::Submit {
                id,
                cycles,
                class,
                arrival,
            })
        }
        "stats" => Ok(Request::Stats),
        "drain" => Ok(Request::Drain),
        "trace" => Ok(Request::Trace),
        "trace_stream" => Ok(Request::TraceStream),
        "health" => Ok(Request::Health),
        "ping" => Ok(Request::Ping),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(format!("unknown cmd `{other}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{encode_command, value_f64, value_u64};
    use proptest::prelude::*;
    use proptest::TestRng;
    use rand::Rng;
    use serde_json::Value;

    /// The tree parser `parse_request` was before this module: build
    /// the whole line as a `Value`, then read five fields out of it.
    /// Kept as the oracle the pull decoder must agree with on every
    /// line — same request, or word for word the same explanation.
    fn tree_parse(line: &str) -> Result<Request, String> {
        let v = serde_json::from_str(line).map_err(|e| format!("invalid JSON: {e}"))?;
        if v.as_object().is_none() {
            return Err("request is not a JSON object".into());
        }
        let cmd = match v.get("cmd") {
            Some(Value::String(s)) => s.as_str(),
            Some(_) => return Err("`cmd` must be a string".into()),
            None => return Err("request missing `cmd`".into()),
        };
        match cmd {
            "submit" => {
                let cycles = match v.get("cycles") {
                    Some(n) => value_u64(n).ok_or("`cycles` must be a positive integer")?,
                    None => return Err("submit missing `cycles`".into()),
                };
                let class = match v.get("class") {
                    Some(Value::String(s)) => parse_class(s)?,
                    Some(_) => return Err("`class` must be a string".into()),
                    None => return Err("submit missing `class`".into()),
                };
                let id = match v.get("id") {
                    Some(n) => Some(value_u64(n).ok_or("`id` must be a non-negative integer")?),
                    None => None,
                };
                let arrival = match v.get("arrival") {
                    Some(n) => Some(value_f64(n).ok_or("`arrival` must be a number")?),
                    None => None,
                };
                Ok(Request::Submit {
                    id,
                    cycles,
                    class,
                    arrival,
                })
            }
            "stats" => Ok(Request::Stats),
            "drain" => Ok(Request::Drain),
            "trace" => Ok(Request::Trace),
            "trace_stream" => Ok(Request::TraceStream),
            "health" => Ok(Request::Health),
            "ping" => Ok(Request::Ping),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!("unknown cmd `{other}`")),
        }
    }

    fn pick<'a>(rng: &mut TestRng, from: &[&'a str]) -> &'a str {
        from[rng.gen_range(0..from.len())]
    }

    /// A JSON string token for `text`, sometimes with every character
    /// spelled as a `\uXXXX` escape (surrogate pairs included).
    fn quoted(rng: &mut TestRng, text: &str) -> String {
        if rng.gen_bool(0.8) {
            return format!("\"{text}\"");
        }
        let mut units = [0u16; 2];
        let escaped: String = text
            .chars()
            .flat_map(|c| c.encode_utf16(&mut units).to_vec())
            .map(|unit| format!("\\u{unit:04x}"))
            .collect();
        format!("\"{escaped}\"")
    }

    const NUMBERS: &[&str] = &[
        "0",
        "1",
        "7",
        "007",
        "1000000000",
        "18446744073709551615",
        "18446744073709551616",
        "-1",
        "-0",
        "-9223372036854775808",
        "-9223372036854775809",
        "1.5",
        "2.0",
        "1.",
        "1e9",
        "1E3",
        "2e-3",
        "1e+2",
        "1e999",
        "-1e999",
        "-",
        "1e",
        "--1",
        "0x10",
    ];
    const STRINGS: &[&str] = &[
        "interactive",
        "non_interactive",
        "batch",
        "warp",
        "",
        "submit",
        "stats",
        "drain",
        "trace",
        "trace_stream",
        "health",
        "ping",
        "shutdown",
        "fly",
        "caf\u{e9}",
        "\u{1F600}",
        "12",
    ];
    /// Raw value tokens no generator above produces: other types,
    /// nesting, escapes (valid and not), and plain damage.
    const ODDITIES: &[&str] = &[
        "null",
        "true",
        "false",
        "nul",
        "[]",
        "{}",
        "[1,2,[3,{\"a\":[]}]]",
        "{\"cmd\":\"drain\"}",
        "[1,]",
        "{\"a\"}",
        "{\"a\":1,}",
        "\"a\\nb\\t\\\"c\\\\\\/\\b\\f\\r\"",
        "\"\\u00e9\"",
        "\"\\ud83d\\ude00\"",
        "\"\\ud83d\"",
        "\"\\ud83dx\"",
        "\"\\ud83d\\u0041\"",
        "\"\\udc00\"",
        "\"\\u12\"",
        "\"\\u+123\"",
        "\"\\uzzzz\"",
        "\"\\x\"",
        "\"open",
        "",
        "?",
        "'single'",
    ];
    const KEYS: &[&str] = &[
        "cmd", "cycles", "class", "id", "arrival", "x", "note", "CMD", "cmd ", "",
    ];

    fn value(rng: &mut TestRng, key: &str) -> String {
        let text = match (key, rng.gen_range(0..10)) {
            ("cmd", 0..=5) => pick(rng, &STRINGS[5..14]),
            ("cmd", 6) => "submit",
            ("class", 0..=6) => pick(rng, &STRINGS[..5]),
            (_, 7) => pick(rng, STRINGS),
            ("cycles" | "id" | "arrival", 0..=3) => return pick(rng, &NUMBERS[..5]).to_owned(),
            ("cycles" | "id" | "arrival", 4..=6) | (_, 8) => return pick(rng, NUMBERS).to_owned(),
            _ => return pick(rng, ODDITIES).to_owned(),
        };
        quoted(rng, text)
    }

    fn space(rng: &mut TestRng) -> &'static str {
        pick(rng, &["", "", "", " ", "  ", "\t", "\r", " \t "])
    }

    /// One request-shaped line: the five keys a request reads plus
    /// strangers, in any order, with duplicates, any whitespace the
    /// grammar allows, and values of every kind — usually an object,
    /// now and then cut short or followed by junk.
    struct RequestLine;

    impl Strategy for RequestLine {
        type Value = String;

        fn sample(&self, rng: &mut TestRng) -> String {
            let mut line = format!("{}{{", space(rng));
            // Most lines are submits with the required fields present.
            let mut keys: Vec<&str> = if rng.gen_bool(0.7) {
                vec!["cmd", "cycles", "class"]
            } else {
                Vec::new()
            };
            for optional in ["id", "arrival"] {
                if rng.gen_bool(0.4) {
                    keys.push(optional);
                }
            }
            for _ in 0..rng.gen_range(0..4) {
                keys.push(pick(rng, KEYS));
            }
            for i in (1..keys.len()).rev() {
                keys.swap(i, rng.gen_range(0..=i));
            }
            for (i, key) in keys.iter().enumerate() {
                let comma = if i == 0 { "" } else { "," };
                let (a, b, c, d) = (space(rng), space(rng), space(rng), space(rng));
                let (name, val) = (quoted(rng, key), value(rng, key));
                line += &format!("{comma}{a}{name}{b}:{c}{val}{d}");
            }
            line += "}";
            line += space(rng);
            let mut bytes = line.into_bytes();
            match rng.gen_range(0..20) {
                0 => bytes.truncate(rng.gen_range(0..=bytes.len())),
                1 => bytes.extend_from_slice(pick(rng, &["x", "{}", ",", "]"]).as_bytes()),
                _ => {}
            }
            // A truncation may have cut a character in half.
            String::from_utf8_lossy(&bytes).into_owned()
        }
    }

    /// Bytes as a hostile peer might send them: JSON punctuation,
    /// digits, letters, controls and non-UTF-8, lossily decoded the way
    /// the framer hands lines over.
    struct HostileLine;

    impl Strategy for HostileLine {
        type Value = String;

        fn sample(&self, rng: &mut TestRng) -> String {
            const ALPHABET: &[u8] =
                b"{}[]\":,\\ \t-+.eE0123456789truefalsnucmdyi_\x00\x1f\x7f\xc3\xa9\xff\xf0\x9f";
            let bytes: Vec<u8> = (0..rng.gen_range(0..48))
                .map(|_| ALPHABET[rng.gen_range(0..ALPHABET.len())])
                .collect();
            String::from_utf8_lossy(&bytes).into_owned()
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(20_000))]

        #[test]
        fn prop_decoder_agrees_with_the_tree_parser_on_request_shaped_lines(
            line in RequestLine,
        ) {
            prop_assert_eq!(decode_request(&line), tree_parse(&line), "line {:?}", line);
        }

        #[test]
        fn prop_decoder_agrees_with_the_tree_parser_on_hostile_bytes(line in HostileLine) {
            prop_assert_eq!(decode_request(&line), tree_parse(&line), "line {:?}", line);
        }

        #[test]
        fn prop_ack_line_is_the_generic_encoding(
            id in 0u64..=u64::MAX,
            depth in 0u64..=u64::MAX,
            shard in 0u64..=u64::MAX,
            small in 0u64..1_000,
        ) {
            for ack in [Ack { id, depth, shard }, Ack { id: small, depth: small / 7, shard: small % 4 }] {
                let mut line = Vec::new();
                ack.push_line(&mut line);
                prop_assert_eq!(
                    String::from_utf8(line).unwrap(),
                    ack.response().encode() + "\n"
                );
            }
        }
    }

    #[test]
    fn generated_lines_reach_every_outcome() {
        // Guards the generators above against rotting into all-errors:
        // among the first cases there must be submits that decode,
        // bare commands, and lines refused at each layer.
        let mut seen = std::collections::BTreeSet::new();
        for case in 0..2_000 {
            let line = RequestLine.sample(&mut TestRng::for_case("coverage", case));
            let outcome = decode_request(&line);
            if let Ok(Request::Submit { id, .. }) = &outcome {
                seen.insert(format!("submit id={}", id.is_some()));
            }
            seen.insert(match outcome {
                Ok(Request::Submit { arrival, .. }) => {
                    format!("submit arrival={}", arrival.is_some())
                }
                Ok(_) => "bare command".to_owned(),
                Err(e) => e.split([' ', ':']).take(2).collect::<Vec<_>>().join(" "),
            });
        }
        for want in [
            "submit id=false",
            "submit id=true",
            "submit arrival=false",
            "submit arrival=true",
            "bare command",
            "invalid JSON",
            "request missing",
            "`cmd` must",
            "`cycles` must",
            "`class` must",
            "`id` must",
            "`arrival` must",
            "unknown cmd",
            "unknown class",
            "submit missing",
        ] {
            assert!(
                seen.contains(want),
                "no generated line hit `{want}`: {seen:?}"
            );
        }
    }

    #[test]
    fn extremes_encode_and_every_bare_command_decodes() {
        let mut line = Vec::new();
        Ack {
            id: u64::MAX,
            depth: 0,
            shard: 10,
        }
        .push_line(&mut line);
        assert_eq!(
            line,
            b"{\"ok\":true,\"id\":18446744073709551615,\"depth\":0,\"shard\":10}\n"
        );
        for (cmd, want) in [
            ("stats", Request::Stats),
            ("drain", Request::Drain),
            ("trace", Request::Trace),
            ("trace_stream", Request::TraceStream),
            ("health", Request::Health),
            ("ping", Request::Ping),
            ("shutdown", Request::Shutdown),
        ] {
            assert_eq!(decode_request(&encode_command(cmd)), Ok(want));
            let spaced = format!(" {{ \"pad\" : [ 1 , {{ }} ] , \"cmd\" : \"{cmd}\" }} ");
            assert_eq!(decode_request(&spaced), tree_parse(&spaced));
        }
    }

    #[test]
    fn first_occurrence_of_a_key_wins_and_strangers_are_skipped() {
        let line = r#"{"x":{"cmd":"drain"},"cmd":"submit","cmd":"stats","cycles":5,"cycles":"no","class":"batch","id":null}"#;
        assert_eq!(decode_request(line), tree_parse(line));
        assert_eq!(
            decode_request(line),
            Err("`id` must be a non-negative integer".into())
        );
        let line = r#"{"c\u006dd":"submit","cycles":5,"class":"b\u0061tch","arrival":-0}"#;
        assert_eq!(
            decode_request(line),
            Ok(Request::Submit {
                id: None,
                cycles: 5,
                class: dvfs_model::TaskClass::Batch,
                arrival: Some(0.0),
            })
        );
    }

    /// Nesting a recursive parser would overflow its stack on is walked
    /// on the heap: refused (or accepted) by the grammar, never by the
    /// thread's stack.
    #[test]
    fn hostile_nesting_depth_costs_heap_not_stack() {
        let deep = "[".repeat(60_000);
        assert!(decode_request(&deep).unwrap_err().contains("invalid JSON"));
        let balanced = format!(
            "{{\"x\":{}{},\"cmd\":\"ping\"}}",
            "[{\"k\":".repeat(20_000),
            "}]".repeat(20_000)
        );
        assert_eq!(
            decode_request(&balanced),
            Err("invalid JSON: unexpected character `}` at byte 120005".into())
        );
        let closed = format!(
            "{{\"x\":{}1{},\"cmd\":\"ping\"}}",
            "[{\"k\":".repeat(20_000),
            "}]".repeat(20_000)
        );
        assert_eq!(decode_request(&closed), Ok(Request::Ping));
    }
}
