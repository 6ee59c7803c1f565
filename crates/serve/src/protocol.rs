//! The newline-delimited JSON wire protocol.
//!
//! Every request and response is one JSON object on one line. Requests
//! carry a `"cmd"` discriminator; responses carry `"ok"`. A malformed
//! line yields a `bad_request` error response and the connection stays
//! open — a misbehaving client can never take the server down.
//!
//! Requests:
//!
//! ```text
//! {"cmd":"submit","cycles":N,"class":"interactive"|"non_interactive"|"batch"
//!                 [,"id":N][,"arrival":S]}
//! {"cmd":"stats"}        → metrics registry snapshot
//! {"cmd":"drain"}        → run the buffered workload, return the report
//! {"cmd":"trace"}        → accumulated lifecycle trace as JSONL lines
//! {"cmd":"trace_stream"} → drain-and-forget the trace incrementally
//! {"cmd":"health"}       → runtime health snapshot (one JSON document)
//! {"cmd":"ping"}         → liveness probe
//! {"cmd":"shutdown"}     → graceful stop: drain, flush the trace file, exit
//! ```
//!
//! Responses: `{"ok":true, ...}` or
//! `{"ok":false,"kind":"bad_request"|"overloaded"|"shutting_down"|"internal","error":"..."}`.
//!
//! Shard-aware fields (servers running more than one engine shard):
//!
//! * `submit` acks carry `"shard"` — the shard the task was routed to.
//! * `stats` carries `"shards"` and a `"shard_stats"` array (per shard:
//!   `shard`, `queue_depth`, `pending_tasks`, `sim_now_s`,
//!   `migrations_out`, `migrations_in`, and `migration_rate` — tasks
//!   moved out of plus into the shard per task it admitted) alongside
//!   the merged totals, which include `"migrations"` and the
//!   service-wide `"migration_rate"` (migrations per admitted task).
//!   It is served without a worker round-trip: `queue_depth` reads the
//!   admission queues live, while the engine-side values (backlog,
//!   `pending_tasks`, `sim_now_s`) are as of each worker's last
//!   command, so the reactor serves `stats` inline and it never waits
//!   behind a running `drain`.
//! * `drain` carries `"shards"` and a `"shard_reports"` array (per
//!   shard: `shard`, `completed`, `total_cost`, `active_energy_joules`,
//!   `total_turnaround_s`, `makespan_s`); the top-level fields are the
//!   merge over shards in deterministic shard order.
//! * `trace` carries `"count"`, `"dropped"`, and an `"events"` array of
//!   JSONL strings — the exact lines a `--trace-out` file holds, so the
//!   two are byte-identical (tracing must be enabled server-side).
//! * `trace_stream` carries the same `"count"`/`"dropped"`/`"events"`
//!   shape plus `"streamed"` (total events streamed so far), but each
//!   call returns only events not yet streamed and then forgets them
//!   server-side, so repeated calls bound memory on long paced runs.
//!   Concatenating every `trace_stream` chunk of a drained replay round
//!   reproduces the one-shot `trace` output byte-for-byte.
//! * `health` carries `"degraded"`, `"worker_stalled"`, a per-shard
//!   `"heartbeats"` array (last-progress age, command-channel depth and
//!   dequeue age, per-command service times), a `"stages"` object of
//!   per-stage latency histogram snapshots, a `"reactor"` object of
//!   event-loop stats, and trace-ring drop counts. Like `stats`, it is
//!   computed from lock-free published slots and leaf-locked metrics
//!   only — no worker fan-out — so the reactor serves it inline on the
//!   fast path.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo)]
#![deny(clippy::indexing_slicing, clippy::unreachable, clippy::unimplemented)]

use dvfs_model::TaskClass;
use serde::{Number, Value};

/// Encode a value, degrading to a hand-built `internal` error line if
/// the encoder ever fails. It cannot for the values this module builds,
/// but the wire path must not be able to panic, so the impossible case
/// becomes a well-formed error response instead of an `expect`.
fn encode_or_internal(obj: &Value) -> String {
    serde_json::to_string(obj).unwrap_or_else(|_| {
        "{\"ok\":false,\"kind\":\"internal\",\"error\":\"encoding failed\"}".to_string()
    })
}

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Submit one task for scheduling.
    Submit {
        /// Client-chosen id; the server assigns one when absent.
        id: Option<u64>,
        /// Work size in CPU cycles (`L_k`).
        cycles: u64,
        /// Scheduling class.
        class: TaskClass,
        /// Explicit arrival time in seconds (replay mode); paced mode
        /// stamps the submission with the current sim time instead.
        arrival: Option<f64>,
    },
    /// Fetch the metrics registry snapshot.
    Stats,
    /// Run everything buffered so far and report cost/latency totals.
    Drain,
    /// Fetch the accumulated lifecycle trace as JSONL lines.
    Trace,
    /// Incrementally drain-and-forget the trace: return only events not
    /// yet streamed, then drop them server-side.
    TraceStream,
    /// Snapshot the runtime health plane (heartbeats, stage histograms,
    /// reactor loop stats) as one JSON document.
    Health,
    /// Liveness probe.
    Ping,
    /// Graceful shutdown: drain, flush the trace file, stop.
    Shutdown,
}

/// Error classes a client can dispatch on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The request line failed to parse or validate.
    BadRequest,
    /// Admission control shed the task; retry with backoff.
    Overloaded,
    /// The server is draining; no new work accepted.
    ShuttingDown,
    /// The server failed internally; the request may be retried.
    Internal,
}

impl ErrorKind {
    /// Wire name.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorKind::BadRequest => "bad_request",
            ErrorKind::Overloaded => "overloaded",
            ErrorKind::ShuttingDown => "shutting_down",
            ErrorKind::Internal => "internal",
        }
    }

    fn from_str(s: &str) -> Option<Self> {
        Some(match s {
            "bad_request" => ErrorKind::BadRequest,
            "overloaded" => ErrorKind::Overloaded,
            "shutting_down" => ErrorKind::ShuttingDown,
            "internal" => ErrorKind::Internal,
            _ => return None,
        })
    }
}

/// A server response: payload fields on success, kind + message on
/// failure.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// `{"ok":true}` plus the given payload fields.
    Ok(Vec<(String, Value)>),
    /// `{"ok":false,"kind":...,"error":...}`.
    Err {
        /// Machine-readable class.
        kind: ErrorKind,
        /// Human-readable detail.
        message: String,
    },
}

impl Response {
    /// An empty success.
    #[must_use]
    pub fn ok() -> Self {
        Response::Ok(Vec::new())
    }

    /// A failure of `kind`.
    #[must_use]
    pub fn err(kind: ErrorKind, message: impl Into<String>) -> Self {
        Response::Err {
            kind,
            message: message.into(),
        }
    }

    /// Whether this is a success.
    #[must_use]
    pub fn is_ok(&self) -> bool {
        matches!(self, Response::Ok(_))
    }

    /// Payload field by name (success only).
    #[must_use]
    pub fn field(&self, name: &str) -> Option<&Value> {
        match self {
            Response::Ok(fields) => fields.iter().find(|(k, _)| k == name).map(|(_, v)| v),
            Response::Err { .. } => None,
        }
    }

    /// Encode as one wire line (no trailing newline).
    #[must_use]
    pub fn encode(&self) -> String {
        let obj = match self {
            Response::Ok(fields) => {
                let mut pairs = vec![("ok".to_string(), Value::Bool(true))];
                pairs.extend(fields.iter().cloned());
                Value::Object(pairs)
            }
            Response::Err { kind, message } => Value::Object(vec![
                ("ok".to_string(), Value::Bool(false)),
                ("kind".to_string(), Value::String(kind.as_str().to_string())),
                ("error".to_string(), Value::String(message.clone())),
            ]),
        };
        encode_or_internal(&obj)
    }

    /// Append the wire line and its newline to a connection's output
    /// bytes. A reply that lands on an empty buffer too small for it (a
    /// multi-megabyte trace, typically alone in its batch) is adopted,
    /// not copied.
    pub fn push_line(&self, out: &mut Vec<u8>) {
        let line = self.encode();
        if out.is_empty() && line.len() >= out.capacity() {
            *out = line.into_bytes();
        } else {
            out.extend_from_slice(line.as_bytes());
        }
        out.push(b'\n');
    }

    /// Decode a wire line (client side).
    ///
    /// # Errors
    /// Describes the malformation.
    pub fn decode(line: &str) -> Result<Self, String> {
        let v: Value = serde_json::from_str(line).map_err(|e| e.to_string())?;
        let Some(obj) = v.as_object() else {
            return Err("response is not a JSON object".into());
        };
        match v.get("ok") {
            Some(Value::Bool(true)) => Ok(Response::Ok(
                obj.iter().filter(|(k, _)| k != "ok").cloned().collect(),
            )),
            Some(Value::Bool(false)) => {
                let kind = match v.get("kind") {
                    Some(Value::String(s)) => {
                        ErrorKind::from_str(s).ok_or_else(|| format!("unknown error kind `{s}`"))?
                    }
                    _ => return Err("error response missing `kind`".into()),
                };
                let message = match v.get("error") {
                    Some(Value::String(s)) => s.clone(),
                    _ => String::new(),
                };
                Ok(Response::Err { kind, message })
            }
            _ => Err("response missing boolean `ok`".into()),
        }
    }
}

/// Convenience: a `u64` payload field.
#[must_use]
pub fn field_u64(name: &str, v: u64) -> (String, Value) {
    (name.to_string(), Value::Number(Number::PosInt(v)))
}

/// Convenience: an `f64` payload field.
#[must_use]
pub fn field_f64(name: &str, v: f64) -> (String, Value) {
    (name.to_string(), Value::Number(Number::Float(v)))
}

/// A number as a `u64`, when it is a non-negative integer.
pub(crate) fn number_u64(n: Number) -> Option<u64> {
    match n {
        Number::PosInt(n) => Some(n),
        Number::NegInt(n) => u64::try_from(n).ok(),
        Number::Float(_) => None,
    }
}

/// A number as an `f64`.
pub(crate) fn number_f64(n: Number) -> f64 {
    match n {
        Number::PosInt(n) => n as f64,
        Number::NegInt(n) => n as f64,
        Number::Float(f) => f,
    }
}

/// Read a `u64` out of a payload value.
#[must_use]
pub fn value_u64(v: &Value) -> Option<u64> {
    match v {
        Value::Number(n) => number_u64(*n),
        _ => None,
    }
}

/// Read an `f64` out of a payload value.
#[must_use]
pub fn value_f64(v: &Value) -> Option<f64> {
    match v {
        Value::Number(n) => Some(number_f64(*n)),
        _ => None,
    }
}

pub(crate) fn parse_class(s: &str) -> Result<TaskClass, String> {
    match s {
        "interactive" => Ok(TaskClass::Interactive),
        "non_interactive" => Ok(TaskClass::NonInteractive),
        "batch" => Ok(TaskClass::Batch),
        other => Err(format!(
            "unknown class `{other}` (expected interactive|non_interactive|batch)"
        )),
    }
}

/// Wire name of a task class.
#[must_use]
pub fn class_name(class: TaskClass) -> &'static str {
    match class {
        TaskClass::Interactive => "interactive",
        TaskClass::NonInteractive => "non_interactive",
        TaskClass::Batch => "batch",
    }
}

/// Parse one request line — in one pass over its bytes, without
/// building a JSON tree (see the `codec` module).
///
/// # Errors
/// Describes the malformation; the server wraps this in a
/// `bad_request` response.
pub fn parse_request(line: &str) -> Result<Request, String> {
    crate::codec::decode_request(line)
}

/// Encode a submit request line for a task (client side; no trailing
/// newline).
#[must_use]
pub fn encode_submit(
    id: Option<u64>,
    cycles: u64,
    class: TaskClass,
    arrival: Option<f64>,
) -> String {
    let mut pairs = vec![("cmd".to_string(), Value::String("submit".to_string()))];
    if let Some(id) = id {
        pairs.push(field_u64("id", id));
    }
    pairs.push(field_u64("cycles", cycles));
    pairs.push((
        "class".to_string(),
        Value::String(class_name(class).to_string()),
    ));
    if let Some(a) = arrival {
        pairs.push(field_f64("arrival", a));
    }
    encode_or_internal(&Value::Object(pairs))
}

/// Encode a bare command request line (`stats`, `drain`, `trace`,
/// `trace_stream`, `health`, `ping`, `shutdown`).
#[must_use]
pub fn encode_command(cmd: &str) -> String {
    encode_or_internal(&Value::Object(vec![(
        "cmd".to_string(),
        Value::String(cmd.to_string()),
    )]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submit_roundtrip() {
        let line = encode_submit(Some(7), 1_000_000, TaskClass::Interactive, Some(1.5));
        let req = parse_request(&line).unwrap();
        assert_eq!(
            req,
            Request::Submit {
                id: Some(7),
                cycles: 1_000_000,
                class: TaskClass::Interactive,
                arrival: Some(1.5),
            }
        );
        // Optional fields may be omitted.
        let req = parse_request(r#"{"cmd":"submit","cycles":5,"class":"batch"}"#).unwrap();
        assert_eq!(
            req,
            Request::Submit {
                id: None,
                cycles: 5,
                class: TaskClass::Batch,
                arrival: None,
            }
        );
    }

    #[test]
    fn bare_commands_parse() {
        for (cmd, want) in [
            ("stats", Request::Stats),
            ("drain", Request::Drain),
            ("trace", Request::Trace),
            ("trace_stream", Request::TraceStream),
            ("health", Request::Health),
            ("ping", Request::Ping),
            ("shutdown", Request::Shutdown),
        ] {
            assert_eq!(parse_request(&encode_command(cmd)).unwrap(), want);
        }
    }

    #[test]
    fn malformed_requests_explain_themselves() {
        assert!(parse_request("not json")
            .unwrap_err()
            .contains("invalid JSON"));
        assert!(parse_request("[1,2]")
            .unwrap_err()
            .contains("not a JSON object"));
        assert!(parse_request(r#"{"x":1}"#)
            .unwrap_err()
            .contains("missing `cmd`"));
        assert!(parse_request(r#"{"cmd":"fly"}"#)
            .unwrap_err()
            .contains("unknown cmd"));
        assert!(parse_request(r#"{"cmd":"submit","class":"batch"}"#)
            .unwrap_err()
            .contains("missing `cycles`"));
        assert!(
            parse_request(r#"{"cmd":"submit","cycles":5,"class":"warp"}"#)
                .unwrap_err()
                .contains("unknown class")
        );
        assert!(
            parse_request(r#"{"cmd":"submit","cycles":-3,"class":"batch"}"#)
                .unwrap_err()
                .contains("positive integer")
        );
    }

    #[test]
    fn response_roundtrip() {
        let ok = Response::Ok(vec![field_u64("id", 3), field_f64("cost", 1.25)]);
        let line = ok.encode();
        assert_eq!(Response::decode(&line).unwrap(), ok);
        assert_eq!(value_u64(ok.field("id").unwrap()), Some(3));
        assert_eq!(value_f64(ok.field("cost").unwrap()), Some(1.25));

        let err = Response::err(ErrorKind::Overloaded, "queue full");
        let back = Response::decode(&err.encode()).unwrap();
        assert_eq!(back, err);
        assert!(!back.is_ok());
    }
}
