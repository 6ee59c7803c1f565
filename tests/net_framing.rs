//! Wire-level framing tests shared across both `dvfs-serve` front-ends.
//!
//! [`dvfs_net::framing::edge_cases`] is the single table of NDJSON
//! framing scenarios — partial lines across reads, multiple lines per
//! read, oversized-line rejection and recovery, mid-line disconnects,
//! CRLF and blank lines. `dvfs-net`'s unit tests drive it straight
//! through a [`dvfs_net::LineFramer`]; here the same byte chunks are
//! replayed over live Unix sockets against *both* backends (`threads`
//! and `reactor`), asserting each scenario draws exactly the expected
//! response sequence and leaves the server healthy.
//!
//! Also pinned here: the connection budget sheds on accept with the
//! explicit `overloaded` wire response on both backends, pipelined
//! submit batches are answered in order, a replayed drain report is
//! byte-identical between the two front-ends, mixed batches (a slow
//! command between submits, a `stats` and an oversized line behind a
//! deferred one, a `shutdown` mid-batch) are answered in wire order, a
//! `stats` is answered while another connection's `drain` runs, a paced
//! server makes submits wait for a full queue's worker instead of
//! shedding them, and — the differential — one mixed request script
//! cut at seeded random chunk boundaries draws the same response stream
//! from both, as do three such scripts on three connections under a
//! seeded random interleaving.

use dvfs_net::framing::{edge_cases, Expect};
use dvfs_serve::client::Connection;
use dvfs_serve::protocol::{encode_command, encode_submit, value_u64, ErrorKind, Response};
use dvfs_serve::{
    serve, Endpoint, Mode, NetBackend, SchedulerConfig, ServerConfig, ServerHandle, MAX_LINE_BYTES,
};
use dvfs_suite::model::TaskClass;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::Value;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

const BACKENDS: [NetBackend; 2] = [NetBackend::Threads, NetBackend::Reactor];

fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "dvfs-net-framing-{}-{name}.sock",
        std::process::id()
    ))
}

fn start(net: NetBackend, name: &str, max_connections: usize) -> ServerHandle {
    let cfg = ServerConfig {
        net,
        max_connections,
        scheduler: SchedulerConfig {
            cores: 2,
            ..SchedulerConfig::default()
        },
        ..ServerConfig::new(Endpoint::Unix(scratch(name)))
    };
    serve(cfg).expect("server binds")
}

fn connect(handle: &ServerHandle) -> UnixStream {
    let Endpoint::Unix(path) = handle.endpoint() else {
        panic!("tests bind unix endpoints");
    };
    UnixStream::connect(path).expect("connects")
}

fn read_response(reader: &mut BufReader<UnixStream>) -> Response {
    let mut line = String::new();
    let n = reader.read_line(&mut line).expect("reads response line");
    assert!(n > 0, "server closed before responding");
    Response::decode(line.trim()).expect("response decodes")
}

fn ping_ok(handle: &ServerHandle) {
    let mut conn = Connection::open(handle.endpoint()).expect("fresh connection");
    let resp = conn.round_trip(&encode_command("ping")).expect("ping");
    assert!(resp.is_ok(), "server unhealthy: {resp:?}");
}

#[test]
fn framing_edge_cases_on_the_wire_for_both_backends() {
    for net in BACKENDS {
        let handle = start(net, &format!("edge-{}", net.name()), 64);
        for case in edge_cases(MAX_LINE_BYTES) {
            let stream = connect(&handle);
            let mut reader = BufReader::new(stream.try_clone().expect("clone"));
            let mut writer = &stream;
            for chunk in &case.chunks {
                writer.write_all(chunk).expect("chunk writes");
                writer.flush().expect("chunk flushes");
                // Give the server a chance to observe this chunk on its
                // own read so partial-line scenarios really arrive
                // split (best-effort; framing must not depend on it).
                std::thread::sleep(Duration::from_millis(20));
            }
            for want in &case.want {
                let resp = read_response(&mut reader);
                match want {
                    Expect::Line(text) if *text == encode_command("ping") => {
                        assert!(resp.is_ok(), "[{net:?}] {}: {resp:?}", case.name);
                    }
                    Expect::Line(_) => {
                        assert_eq!(
                            resp_kind(&resp),
                            Some(ErrorKind::BadRequest),
                            "[{net:?}] {}: non-JSON line must draw bad_request: {resp:?}",
                            case.name
                        );
                    }
                    Expect::Oversized => {
                        let Response::Err { kind, message } = &resp else {
                            panic!("[{net:?}] {}: oversized must error: {resp:?}", case.name);
                        };
                        assert_eq!(*kind, ErrorKind::BadRequest, "{}", case.name);
                        assert!(
                            message.contains("exceeds"),
                            "[{net:?}] {}: {message}",
                            case.name
                        );
                    }
                }
            }
            // Whether the case ends mid-line (`leftover`) or cleanly,
            // hanging up must not wedge the server: the fragment is
            // dropped without a response and fresh connections serve.
            drop(reader);
            drop(stream);
            ping_ok(&handle);
        }
        handle.shutdown();
        handle.wait();
    }
}

#[test]
fn connection_budget_sheds_on_accept_with_explicit_response() {
    for net in BACKENDS {
        let handle = start(net, &format!("shed-{}", net.name()), 2);
        let mut held: Vec<Connection> = (0..2)
            .map(|_| Connection::open(handle.endpoint()).expect("held connection"))
            .collect();
        for conn in &mut held {
            let resp = conn.round_trip(&encode_command("ping")).expect("ping");
            assert!(resp.is_ok(), "[{net:?}] held connection serves");
        }

        // The third connection is over budget: accepted just long
        // enough to receive the explicit overloaded response, then
        // closed by the server.
        let shed = connect(&handle);
        let mut reader = BufReader::new(shed);
        let resp = read_response(&mut reader);
        let Response::Err { kind, message } = &resp else {
            panic!("[{net:?}] shed accept must error: {resp:?}");
        };
        assert_eq!(*kind, ErrorKind::Overloaded, "[{net:?}] {message}");
        assert!(message.contains("connection budget"), "[{net:?}] {message}");
        let mut rest = String::new();
        assert_eq!(
            reader.read_line(&mut rest).expect("eof read"),
            0,
            "[{net:?}] server closes the shed connection"
        );

        // Releasing a held connection frees budget; a new connection is
        // admitted once the front-end notices the hangup.
        drop(held.pop());
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            let ok = Connection::open(handle.endpoint())
                .ok()
                .and_then(|mut c| c.round_trip(&encode_command("ping")).ok())
                .is_some_and(|r| r.is_ok());
            if ok {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "[{net:?}] budget never freed after hangup"
            );
            std::thread::sleep(Duration::from_millis(25));
        }

        drop(held);
        handle.shutdown();
        handle.wait();
    }
}

#[test]
fn pipelined_batch_answers_in_order_and_drain_matches_across_backends() {
    let mut drains: Vec<String> = Vec::new();
    for net in BACKENDS {
        let handle = start(net, &format!("batch-{}", net.name()), 64);
        let stream = connect(&handle);
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut writer = &stream;

        // One contiguous write of ten submits: the reactor drains them
        // as a single batch, the thread backend as a burst of reads —
        // either way responses must come back in submission order.
        let ids: Vec<u64> = (0..10).map(|i| i * 4).collect();
        let mut wire = String::new();
        for (i, id) in ids.iter().enumerate() {
            let class = if i % 3 == 0 {
                TaskClass::Interactive
            } else {
                TaskClass::NonInteractive
            };
            let cycles = (i as u64 + 1) * 50_000_000;
            wire.push_str(&encode_submit(
                Some(*id),
                cycles,
                class,
                Some(i as f64 * 0.02),
            ));
            wire.push('\n');
        }
        writer.write_all(wire.as_bytes()).expect("batch writes");
        writer.flush().expect("batch flushes");

        for id in &ids {
            let resp = read_response(&mut reader);
            assert!(resp.is_ok(), "[{net:?}] submit {id} admitted: {resp:?}");
            assert_eq!(
                resp.field("id").and_then(value_u64),
                Some(*id),
                "[{net:?}] responses arrive in submission order"
            );
        }

        // The drained schedule is produced by the shared service core,
        // so its wire rendering must not depend on the front-end.
        writeln!(writer, "{}", encode_command("drain")).expect("drain writes");
        writer.flush().expect("drain flushes");
        let mut drain_line = String::new();
        assert!(
            reader.read_line(&mut drain_line).expect("drain read") > 0,
            "[{net:?}] drain responds"
        );
        let drain_line = drain_line.trim().to_string();
        let resp = Response::decode(&drain_line).expect("drain decodes");
        assert!(resp.is_ok(), "[{net:?}] drain succeeds: {resp:?}");
        drains.push(drain_line);

        drop(reader);
        drop(stream);
        handle.shutdown();
        handle.wait();
    }
    let (first, rest) = drains.split_first().expect("two drains collected");
    for other in rest {
        assert_eq!(
            first, other,
            "drain report must be byte-identical across wire backends"
        );
    }
}

/// The differential's request script: every kind of line the handler
/// distinguishes, ordered so slow commands (`trace`, `drain`) sit
/// directly in front of fast ones (`stats`, `health`), malformed ones
/// and an oversized one — the positions where a reactor reply could
/// overtake.
fn differential_script() -> Vec<Vec<u8>> {
    let submit = |id: Option<u64>, i: u64| {
        let class = match i % 3 {
            0 => TaskClass::Interactive,
            _ => TaskClass::NonInteractive,
        };
        encode_submit(id, (i + 1) * 30_000_000, class, Some(i as f64 * 0.01)).into_bytes()
    };
    let cmd = |name: &str| encode_command(name).into_bytes();
    let mut lines: Vec<Vec<u8>> = Vec::new();
    lines.extend((0..12).map(|i| submit(Some(i * 3), i)));
    lines.push(cmd("ping"));
    lines.push(b"this is not json".to_vec());
    lines.push(submit(Some(3), 40)); // duplicate id this round
    lines.push(cmd("trace"));
    lines.push(cmd("stats"));
    lines.push(vec![b'x'; MAX_LINE_BYTES + 1]);
    lines.push(cmd("ping"));
    lines.extend((12..20).map(|i| submit(None, i)));
    lines.push(cmd("no-such-command"));
    lines.push(cmd("drain"));
    lines.push(cmd("health"));
    lines.push(submit(Some(3), 41)); // the id is free again
    lines.push(b"\r".to_vec()); // blank: owes no response
    lines.push(cmd("drain"));
    lines.push(cmd("ping"));
    lines
}

/// What must match byte for byte. Three responses carry values no two
/// runs share — `stats` and `health` embed wall-clock histograms and
/// the reactor's own counters, an oversized rejection reports how many
/// bytes had arrived when the budget tripped (a read-boundary artefact)
/// — so those are compared by kind and position only.
fn comparable(line: &str) -> String {
    let resp = Response::decode(line).expect("response decodes");
    if resp.field("metrics").is_some() {
        "<stats>".to_string()
    } else if resp.field("heartbeats").is_some() {
        "<health>".to_string()
    } else if matches!(&resp, Response::Err { message, .. } if message.contains("exceeds")) {
        "<oversized>".to_string()
    } else {
        line.to_string()
    }
}

#[test]
fn seeded_random_chunking_draws_identical_streams_from_both_backends() {
    let script = differential_script();
    let responses = script.iter().filter(|l| l != &b"\r").count();
    let wire: Vec<u8> = script
        .iter()
        .flat_map(|l| l.iter().copied().chain([b'\n']))
        .collect();
    for seed in 0..6u64 {
        let mut streams: Vec<Vec<String>> = Vec::new();
        for net in BACKENDS {
            let handle = start(net, &format!("diff-{seed}-{}", net.name()), 8);
            let stream = connect(&handle);
            let mut reader = BufReader::new(stream.try_clone().expect("clone"));
            // Same seed, same cuts on both backends: chunks of 1 byte
            // to 40 KB, with an occasional pause so the server really
            // sees a cut as a read boundary.
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let writer = std::thread::spawn({
                let wire = wire.clone();
                move || {
                    let mut rest = &wire[..];
                    while !rest.is_empty() {
                        let max = if rng.gen_bool(0.5) { 64 } else { 40_000 };
                        let (chunk, tail) = rest.split_at(rng.gen_range(1..=max.min(rest.len())));
                        (&stream).write_all(chunk).expect("chunk writes");
                        if rng.gen_bool(0.3) {
                            std::thread::sleep(Duration::from_millis(2));
                        }
                        rest = tail;
                    }
                    stream
                }
            });
            let got: Vec<String> = (0..responses)
                .map(|_| {
                    let mut line = String::new();
                    assert!(
                        reader.read_line(&mut line).expect("reads response") > 0,
                        "[{net:?}] seed {seed}: server closed early"
                    );
                    comparable(line.trim())
                })
                .collect();
            drop(writer.join().expect("writer thread"));
            ping_ok(&handle);
            handle.shutdown();
            handle.wait();
            streams.push(got);
        }
        assert_eq!(
            streams[0], streams[1],
            "seed {seed}: threads and reactor must answer the same script identically"
        );
        // Sanity on the shared stream: the three special responses sit
        // where the script put them, nothing overtook.
        let at = |tag: &str| streams[0].iter().position(|l| l == tag);
        assert_eq!(at("<stats>"), Some(16), "seed {seed}");
        assert_eq!(at("<oversized>"), Some(17), "seed {seed}");
        assert_eq!(at("<health>"), Some(29), "seed {seed}");
    }
}

/// The differential across connections: three of them, each writing
/// its own mixed script (submits, `trace`, `stats`, malformed lines, an
/// oversized one) in chunks whose sizes *and* interleaving across the
/// connections come from one seeded generator — one writer owns all
/// three sockets — so both backends meet the same bytes in the same
/// order. Every
/// connection must draw the same stream from `threads` and `reactor`,
/// by the same rule as the single-connection differential.
///
/// What one connection is told must not depend on how far the others
/// have got, so each connection's ids hash to a shard of its own (ack
/// depths count only its own submits), and the one `drain` goes out
/// alone, after every response to the first phase has been read.
#[test]
fn seeded_random_interleaving_draws_identical_streams_per_connection() {
    const CONNS: u64 = 3;
    let submit = |c: u64, i: u64| {
        encode_submit(
            Some(c + CONNS * i),
            (i + 1) * 30_000_000,
            TaskClass::NonInteractive,
            Some(i as f64 * 0.01),
        )
        .into_bytes()
    };
    let cmd = |name: &str| encode_command(name).into_bytes();
    let wire = |lines: Vec<Vec<u8>>| -> (usize, Vec<u8>) {
        let bytes = lines.iter().flat_map(|l| l.iter().copied().chain([b'\n']));
        (lines.len(), bytes.collect())
    };
    // Phase one, per connection: slow commands directly in front of
    // fast, malformed and oversized lines, as in the single script.
    let first = |c: u64| {
        let mut lines: Vec<Vec<u8>> = (0..6).map(|i| submit(c, i)).collect();
        lines.push(cmd("ping"));
        lines.push(b"this is not json".to_vec());
        lines.push(submit(c, 0)); // duplicate id this round
        lines.push(cmd("trace"));
        lines.push(cmd("stats"));
        lines.push(vec![b'x'; MAX_LINE_BYTES + 1]);
        lines.push(cmd("ping"));
        lines.extend((6..10).map(|i| submit(c, i)));
        lines.push(cmd("no-such-command"));
        wire(lines)
    };
    // Phase two: one connection drains and resubmits a freed id while
    // the others keep talking.
    let second = |c: u64| match c {
        0 => wire(vec![cmd("drain"), submit(0, 0), cmd("ping")]),
        1 => wire(vec![cmd("health"), b"{\"cmd\":".to_vec()]),
        _ => wire(vec![cmd("ping"), cmd("stats")]),
    };
    for seed in 0..4u64 {
        let mut streams: Vec<Vec<Vec<String>>> = Vec::new();
        for net in BACKENDS {
            let cfg = ServerConfig {
                net,
                scheduler: SchedulerConfig {
                    cores: 2,
                    shards: CONNS as usize,
                    ..SchedulerConfig::default()
                },
                ..ServerConfig::new(Endpoint::Unix(scratch(&format!(
                    "multi-{seed}-{}",
                    net.name()
                ))))
            };
            let handle = serve(cfg).expect("server binds");
            let socks: Vec<UnixStream> = (0..CONNS).map(|_| connect(&handle)).collect();
            // One reader a connection, so a write below never waits on
            // a response nobody reads.
            let readers: Vec<_> = socks
                .iter()
                .map(|sock| {
                    let (tx, rx) = std::sync::mpsc::channel();
                    let reader = BufReader::new(sock.try_clone().expect("clone"));
                    std::thread::spawn(move || {
                        for line in reader.lines() {
                            let line = line.expect("reads response");
                            if tx.send(comparable(line.trim())).is_err() {
                                break;
                            }
                        }
                    });
                    rx
                })
                .collect();
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut got: Vec<Vec<String>> = vec![Vec::new(); socks.len()];
            for phase in [&first as &dyn Fn(u64) -> (usize, Vec<u8>), &second] {
                let (counts, wires): (Vec<usize>, Vec<Vec<u8>>) = (0..CONNS).map(phase).unzip();
                let mut rest: Vec<&[u8]> = wires.iter().map(Vec::as_slice).collect();
                while rest.iter().any(|r| !r.is_empty()) {
                    let c = rng.gen_range(0..rest.len());
                    if rest[c].is_empty() {
                        continue;
                    }
                    let max = if rng.gen_bool(0.5) { 64 } else { 40_000 };
                    let (chunk, tail) = rest[c].split_at(rng.gen_range(1..=max.min(rest[c].len())));
                    (&socks[c]).write_all(chunk).expect("chunk writes");
                    if rng.gen_bool(0.2) {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    rest[c] = tail;
                }
                // The phase boundary: every response is in.
                for ((rx, n), got) in readers.iter().zip(counts).zip(&mut got) {
                    got.extend((0..n).map(|_| {
                        rx.recv_timeout(Duration::from_secs(30))
                            .unwrap_or_else(|e| panic!("[{net:?}] seed {seed}: {e}"))
                    }));
                }
            }
            ping_ok(&handle);
            handle.shutdown();
            handle.wait();
            streams.push(got);
        }
        for (c, (threads, reactor)) in streams[0].iter().zip(&streams[1]).enumerate() {
            assert_eq!(
                threads, reactor,
                "seed {seed}: connection {c} must be answered identically by both backends"
            );
            // Nothing overtook on any of them.
            let at = |tag: &str| threads.iter().position(|l| l == tag);
            assert_eq!(at("<stats>"), Some(10), "seed {seed} connection {c}");
            assert_eq!(at("<oversized>"), Some(11), "seed {seed} connection {c}");
        }
        assert_eq!(streams[0][1][18], "<health>", "seed {seed}");
        let drained = &streams[0][0][18];
        assert!(
            drained.contains("\"completed\":30"),
            "seed {seed}: {drained}"
        );
    }
}

/// The one-pass seam, batch by batch: each script below goes out in a
/// single write, so the server meets it as one batch (or, for the
/// oversized line, a few reads), and the reply order is pinned — on
/// the reactor a batch is answered inline up to its first line that
/// waits on a worker and through the slow lane from there, and nothing
/// may show.
#[test]
fn mixed_batches_answer_in_wire_order_on_both_backends() {
    let submit =
        |i: u64| encode_submit(None, (i + 1) * 20_000_000, TaskClass::NonInteractive, None) + "\n";
    let cmd = |name: &str| encode_command(name) + "\n";
    let oversized = "x".repeat(MAX_LINE_BYTES + 1) + "\n";
    // `trace` waits (on the trace store and file) even when tracing is
    // off, which is all it answers here.
    let no_trace = r#"{"ok":false,"kind":"bad_request","error":"tracing is disabled (start the server with --trace-cap)"}"#;
    let batches: [(String, &[&str]); 3] = [
        // A slow command between submits: acks before it leave inline,
        // the one after it follows it through the lane.
        (
            submit(0) + &submit(1) + &cmd("trace") + &submit(2),
            &["ack 0", "ack 1", no_trace, "ack 2"],
        ),
        // A `stats` the loop could answer, and an oversized line, both
        // behind a deferred command queue behind it.
        (
            cmd("trace") + &cmd("stats") + &oversized + &cmd("ping") + &submit(3),
            &[no_trace, "<stats>", "<oversized>", "{\"ok\":true}", "ack 3"],
        ),
        // A shutdown mid-batch is acknowledged; what follows it owes
        // nothing, and the connection closes.
        (
            submit(4) + &cmd("shutdown") + &cmd("ping") + &submit(5),
            &["ack 4", "{\"ok\":true}"],
        ),
    ];
    let mut streams: Vec<Vec<String>> = Vec::new();
    for net in BACKENDS {
        let handle = start(net, &format!("mixed-{}", net.name()), 8);
        let stream = connect(&handle);
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut got = Vec::new();
        for (wire, want) in &batches {
            (&stream).write_all(wire.as_bytes()).expect("batch writes");
            for want in *want {
                let mut line = String::new();
                assert!(reader.read_line(&mut line).expect("reads") > 0, "[{net:?}]");
                let line = line.trim();
                let want = match want.strip_prefix("ack ") {
                    // Ack bytes are fixed, field order included; a
                    // replay queue only grows, so the n-th auto id
                    // finds n tasks ahead of it.
                    Some(id) => {
                        let id: u64 = id.parse().expect("ack id");
                        let depth = id + 1;
                        format!("{{\"ok\":true,\"id\":{id},\"depth\":{depth},\"shard\":0}}")
                    }
                    None => (*want).to_string(),
                };
                assert_eq!(comparable(line), want, "[{net:?}] batch {wire:.40?}");
                got.push(line.to_string());
            }
        }
        let mut rest = String::new();
        assert_eq!(
            reader.read_line(&mut rest).expect("eof read"),
            0,
            "[{net:?}] lines behind the shutdown owe nothing: {rest:?}"
        );
        handle.wait();
        streams.push(got.iter().map(|l| comparable(l)).collect());
    }
    assert_eq!(streams[0], streams[1]);
}

/// `stats` asks no shard worker, so a round running for another
/// connection cannot hold it up. Connection A fills one replay shard
/// and sends `drain`; once that round runs, connection B's `stats`
/// must come back within its first half — on the reactor it is
/// answered on the event loop rather than queued on the slow lane
/// behind A's drain, and on the threads backend it no longer waits in
/// the busy worker's command queue.
#[test]
fn stats_is_answered_while_a_drain_runs_on_both_backends() {
    // A round of a few hundred milliseconds in either build.
    let tasks: u64 = if cfg!(debug_assertions) {
        50_000
    } else {
        100_000
    };
    for net in BACKENDS {
        let cfg = ServerConfig {
            net,
            scheduler: SchedulerConfig {
                cores: 2,
                queue_capacity: 2 * tasks as usize,
                ..SchedulerConfig::default()
            },
            ..ServerConfig::new(Endpoint::Unix(scratch(&format!("stats-{}", net.name()))))
        };
        let handle = serve(cfg).expect("server binds");
        let a = connect(&handle);
        let mut a_reader = BufReader::new(a.try_clone().expect("clone"));
        let wire: String = (0..tasks)
            .map(|i| {
                let cycles = 1_000_000 + (i % 97) * 100_000;
                encode_submit(Some(i), cycles, TaskClass::NonInteractive, Some(0.0)) + "\n"
            })
            .collect();
        let writer = std::thread::spawn(move || {
            (&a).write_all(wire.as_bytes()).expect("submits write");
            a
        });
        for _ in 0..tasks {
            let resp = read_response(&mut a_reader);
            assert!(resp.is_ok(), "[{net:?}] submit admitted: {resp:?}");
        }
        let a = writer.join().expect("writer thread");
        writeln!(&a, "{}", encode_command("drain")).expect("drain writes");
        let sent = Instant::now();
        let drained = std::thread::spawn(move || (read_response(&mut a_reader), Instant::now()));
        // A's round is in flight once its worker has pulled the queue
        // (`health` is answered inline on both backends, before and
        // after this change).
        let mut b = Connection::open(handle.endpoint()).expect("B connects");
        let queued = |b: &mut Connection| {
            let health = b.round_trip(&encode_command("health")).expect("health");
            match health.field("heartbeats") {
                Some(Value::Array(beats)) => beats[0].get("queue_depth").and_then(value_u64),
                other => panic!("[{net:?}] health carries heartbeats: {other:?}"),
            }
        };
        while queued(&mut b) != Some(0) {
            std::thread::yield_now();
        }
        let stats = b.round_trip(&encode_command("stats")).expect("stats");
        let stats_at = Instant::now();
        let (drain, drain_at) = drained.join().expect("A's reader");
        assert!(stats.field("shard_stats").is_some(), "[{net:?}] {stats:?}");
        assert_eq!(drain.field("completed").and_then(value_u64), Some(tasks));
        // Waiting on the worker would answer `stats` when the round
        // ends, only the drain's merge and encode ahead of A's reply:
        // the first half of the round is what sets the two apart.
        let (stats_after, round) = (stats_at - sent, drain_at - sent);
        assert!(
            stats_after < round / 2,
            "[{net:?}] stats waited for the drain: answered {stats_after:?} into a {round:?} round"
        );
        handle.shutdown();
        handle.wait();
    }
}

/// A paced server paces its wire clients to the shard workers: a
/// submit that finds the admission queue full (eight slots here,
/// against 3 000 pipelined submits) waits for the worker's next pull
/// instead of being shed, while its connection is not read — so every
/// submit is acknowledged, in order, and completes. (A replay server
/// sheds at the same bound: `serve_e2e.rs`.)
#[test]
fn paced_wire_submits_wait_for_the_worker_instead_of_being_shed() {
    const SUBMITS: u64 = 3_000;
    for net in BACKENDS {
        let cfg = ServerConfig {
            net,
            scheduler: SchedulerConfig {
                cores: 2,
                mode: Mode::Paced { speed: 100_000.0 },
                queue_capacity: 8,
                ..SchedulerConfig::default()
            },
            tick: Duration::from_millis(2),
            ..ServerConfig::new(Endpoint::Unix(scratch(&format!("paced-{}", net.name()))))
        };
        let handle = serve(cfg).expect("server binds");
        let stream = connect(&handle);
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let wire: String = (0..SUBMITS)
            .map(|i| encode_submit(None, 1_000_000 + i, TaskClass::NonInteractive, None) + "\n")
            .collect();
        let writer = std::thread::spawn(move || {
            (&stream).write_all(wire.as_bytes()).expect("submits write");
            stream
        });
        for id in 0..SUBMITS {
            let resp = read_response(&mut reader);
            assert_eq!(
                resp.field("id").and_then(value_u64),
                Some(id),
                "[{net:?}] submit {id} must be admitted, in order: {resp:?}"
            );
        }
        let stream = writer.join().expect("writer thread");
        writeln!(&stream, "{}", encode_command("drain")).expect("drain writes");
        let drained = read_response(&mut reader);
        assert_eq!(
            drained.field("completed").and_then(value_u64),
            Some(SUBMITS),
            "[{net:?}] the round counts what its ticks retired: {drained:?}"
        );
        assert_eq!(handle.metrics().counter("shed").get(), 0, "[{net:?}]");
        assert_eq!(handle.metrics().counter("completed").get(), SUBMITS);
        handle.shutdown();
        handle.wait();
    }
}

fn resp_kind(resp: &Response) -> Option<ErrorKind> {
    match resp {
        Response::Ok(_) => None,
        Response::Err { kind, .. } => Some(*kind),
    }
}
