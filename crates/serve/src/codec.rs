//! The submit hot path's codec: a borrowed pull decoder for request
//! lines and a preformatted encoder for submit acks.
//!
//! A request line is decoded in one pass over its bytes, field by
//! field, on the shim's [`serde_json::Reader`]: the walk validates the
//! whole line as JSON (so a malformed line is refused exactly where the
//! tree parser refuses it, with the same explanation), keeps only the
//! five values a request can mean anything by — `cmd`, `cycles`,
//! `class`, `id`, `arrival`, first occurrence each — and skips
//! everything else without building it. A string is borrowed from the
//! line unless it carries an escape. Nesting deeper than 128 arrays /
//! objects, counted from the request's own braces, is refused, as the
//! tree parser refuses it. Nothing here can panic on any input.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo)]
#![deny(clippy::indexing_slicing, clippy::unreachable, clippy::unimplemented)]
#![deny(clippy::string_slice)]

use crate::protocol::{field_u64, parse_class, unknown, Request, Response};
use dvfs_trace::num::write_u64;
use serde_json::{Number, Reader};
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
        write_u64(out, self.id);
        out.extend_from_slice(b",\"depth\":");
        write_u64(out, self.depth);
        out.extend_from_slice(b",\"shard\":");
        write_u64(out, self.shard);
        out.extend_from_slice(b"}\n");
    }
}

/// The value found under one of the keys a request reads.
enum Field<'a> {
    Str(Cow<'a, str>),
    Num(Number),
    /// Present, but neither a string nor a number.
    Other,
}

impl<'a> Field<'a> {
    /// Read the value at the reader's position.
    fn read(r: &mut Reader<'a>) -> Result<Self, serde_json::Error> {
        Ok(match r.peek() {
            Some(b'"') => Field::Str(r.string()?),
            Some(b'-' | b'0'..=b'9') => Field::Num(r.number()?),
            _ => {
                r.skip_value()?;
                Field::Other
            }
        })
    }

    fn number(&self) -> Option<Number> {
        match self {
            Field::Num(n) => Some(*n),
            _ => None,
        }
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
fn fields(line: &str) -> Result<Option<Fields<'_>>, serde_json::Error> {
    let mut r = Reader::new(line);
    let mut found = (r.peek() == Some(b'{')).then(Fields::default);
    match &mut found {
        Some(found) => r.container(|r, key| {
            match key.as_deref().and_then(|key| found.slot(key)) {
                Some(slot @ None) => *slot = Some(Field::read(r)?),
                _ => r.skip_value()?,
            }
            Ok(())
        })?,
        None => r.skip_value()?,
    }
    r.end()?;
    Ok(found)
}

/// Decode one request line.
///
/// # Errors
/// Describes the malformation; the server wraps this in a
/// `bad_request` response.
pub(crate) fn decode_request(line: &str) -> Result<Request, String> {
    let Some(found) = fields(line).map_err(|e| format!("invalid JSON: {e}"))? else {
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
        other => Err(unknown("cmd", other)),
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
            other => Err(unknown("cmd", other)),
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

    /// The number rules the decoder shares with the tree parser: `-0`
    /// is the float `-0.0`, so it is no id, and a literal past `f64`'s
    /// range is refused as a number before any field sees it.
    #[test]
    fn minus_zero_is_no_id_and_an_overflowing_literal_is_no_arrival() {
        for (line, want) in [
            (
                r#"{"cmd":"submit","cycles":5,"class":"batch","id":-0}"#,
                "`id` must be a non-negative integer",
            ),
            (
                r#"{"cmd":"submit","cycles":5,"class":"batch","arrival":1e999}"#,
                "invalid JSON: number out of range at byte 58",
            ),
        ] {
            assert_eq!(decode_request(line), Err(want.into()));
            assert_eq!(decode_request(line), tree_parse(line));
        }
    }

    /// One depth rule for both readers: 128 arrays / objects, counted
    /// from the request's own braces. A line nested deeper is refused at
    /// the bracket that crosses the limit, whatever follows it.
    #[test]
    fn nesting_past_128_is_refused_at_the_bracket_that_crosses_it() {
        for depth in [127, 128, 129, 40_001] {
            let nest = depth - 1;
            let line = format!(
                "{{\"cmd\":\"ping\",\"x\":{}{}}}",
                "[".repeat(nest),
                "]".repeat(nest)
            );
            let want = if depth <= 128 {
                Ok(Request::Ping)
            } else {
                Err("invalid JSON: recursion limit exceeded at byte 145".into())
            };
            assert_eq!(decode_request(&line), want, "depth {depth}");
            assert_eq!(decode_request(&line), tree_parse(&line), "depth {depth}");
        }
        let deep = "[".repeat(60_000);
        assert_eq!(
            decode_request(&deep),
            Err("invalid JSON: recursion limit exceeded at byte 128".into())
        );
        let crossed = Err("invalid JSON: recursion limit exceeded at byte 384".into());
        let balanced = format!(
            "{{\"x\":{}{},\"cmd\":\"ping\"}}",
            "[{\"k\":".repeat(20_000),
            "}]".repeat(20_000)
        );
        assert_eq!(decode_request(&balanced), crossed);
        let closed = format!(
            "{{\"x\":{}1{},\"cmd\":\"ping\"}}",
            "[{\"k\":".repeat(20_000),
            "}]".repeat(20_000)
        );
        assert_eq!(decode_request(&closed), crossed);
    }
}
