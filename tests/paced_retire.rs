//! A paced round's memory follows the work in flight, not the work
//! done.
//!
//! One test, in a process of its own so `VmRSS` is its alone: waves of
//! submits with ticks in between, the trace ring on and a
//! `trace_stream` after every wave. Every tick streams what completed
//! into the registry and retires it from the engine, and every
//! `trace_stream` hands out what the rings recorded and forgets it, so
//! after each wave nothing is resident, the process stops growing, and
//! the drain's report — whose `records` now holds only what no tick had
//! streamed — still totals the whole round: its count, turnaround and
//! cost equal what the ticks streamed, and the books balance. The
//! trace loses nothing either: no ring drops an event, and the chunks'
//! counts sum to the stream cursor. Auto ids cost no dedup entry
//! either, and explicit ids still collide with them.
//!
//! Honours `DVFS_SERVE_SHARDS` (default 1) like the wire suites.

use dvfs_serve::protocol::{value_u64, ErrorKind, Response};
use dvfs_serve::{Mode, Registry, Scheduler, SchedulerConfig, SubmitItem};
use dvfs_suite::model::TaskClass;
use std::sync::Arc;
use std::time::Duration;

const WAVES: usize = 10;
const WAVE: usize = 20_000;
/// Below a wave: every wave sheds its excess, so `shed` is exercised.
const CAPACITY: usize = 16_384;
/// Per shard: room for every event of a wave, so a ring drops nothing
/// between two `trace_stream`s.
const TRACE_CAPACITY: usize = 1 << 20;

fn env_shards() -> usize {
    std::env::var("DVFS_SERVE_SHARDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(1)
}

/// Resident set size of this process, in KiB.
fn vm_rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is readable");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmRSS:"))
        .expect("VmRSS line");
    line.split_whitespace()
        .nth(1)
        .and_then(|kib| kib.parse().ok())
        .expect("VmRSS value")
}

/// One `trace_stream` through the in-process wire handler: the reply's
/// `count`, `dropped` and `streamed`. Only the header ahead of the
/// event array is parsed: a wave's reply runs to 13 MB, and the unit
/// tests hold its events to the generic encoder.
fn trace_stream(s: &Scheduler) -> (u64, u64, u64) {
    let mut out = Vec::new();
    s.trace_stream_run(&mut out);
    let line = std::str::from_utf8(&out).expect("UTF-8 reply");
    let (header, _) = line.split_once(",\"events\":[").expect("an event array");
    let reply = Response::decode(&format!("{header}}}")).expect("a trace_stream header");
    let field = |name| reply.field(name).and_then(value_u64).expect(name);
    (field("count"), field("dropped"), field("streamed"))
}

fn counter(s: &Scheduler, name: &str) -> u64 {
    s.metrics().counter(name).get()
}

fn is_bad_request(resp: &Response) -> bool {
    matches!(
        resp,
        Response::Err {
            kind: ErrorKind::BadRequest,
            ..
        }
    )
}

#[test]
fn paced_waves_retire_what_they_complete_and_the_drain_still_totals_the_round() {
    let cfg = SchedulerConfig {
        cores: 2,
        shards: env_shards(),
        mode: Mode::Paced { speed: 100_000.0 },
        queue_capacity: CAPACITY,
        trace_capacity: TRACE_CAPACITY,
        ..SchedulerConfig::default()
    };
    let params = cfg.params;
    let s = Scheduler::new(cfg, Arc::new(Registry::new()));
    s.start_clock();

    let wave: Vec<SubmitItem> = (0..WAVE)
        .map(|i| SubmitItem {
            id: None,
            cycles: 1_000_000 + (i as u64 % 7) * 250_000,
            class: if i % 5 == 0 {
                TaskClass::Interactive
            } else {
                TaskClass::NonInteractive
            },
            arrival: None,
        })
        .collect();
    let mut rss_kib = Vec::with_capacity(WAVES);
    let mut highest_id = 0;
    let (mut counted, mut streamed) = (0, 0);
    for _ in 0..WAVES {
        for chunk in wave.chunks(64) {
            for ack in s.submit_many(chunk).iter().filter(|r| r.is_ok()) {
                let id = ack.field("id").and_then(value_u64).expect("ack id");
                highest_id = highest_id.max(id);
            }
        }
        // Tick until every admitted task has completed and streamed.
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        while counter(&s, "completed") < counter(&s, "admitted") {
            assert!(std::time::Instant::now() < deadline, "wave never finished");
            std::thread::sleep(Duration::from_millis(1));
            s.tick();
        }
        let (count, dropped, total) = trace_stream(&s);
        assert!(count > 0, "every wave is traced");
        assert_eq!(dropped, 0, "no ring overflows between two trace_streams");
        (counted, streamed) = (counted + count, total);
        rss_kib.push(vm_rss_kib());
    }
    assert_eq!(counted, streamed, "the chunks' counts sum to the cursor");
    assert!(counter(&s, "shed") > 0, "the waves overflow the queue");

    // The id namespace after 200 000 auto ids: explicit ids behind the
    // cursor are duplicates of handed-out ones, ahead of it they are
    // fresh once, and auto allocation steps over them.
    let explicit = |id: u64| s.submit(Some(id), 1_000_000, TaskClass::Interactive, None);
    assert!(is_bad_request(&explicit(0)));
    assert!(is_bad_request(&explicit(highest_id)));
    let ahead = highest_id + 2;
    assert!(explicit(ahead).is_ok());
    assert!(is_bad_request(&explicit(ahead)));
    let autos: Vec<u64> = (0..3)
        .map(|_| {
            let ack = s.submit(None, 1_000_000, TaskClass::Interactive, None);
            ack.field("id").and_then(value_u64).expect("auto id")
        })
        .collect();
    assert_eq!(autos, [ahead - 1, ahead + 1, ahead + 2]);

    // Those four are the only tasks the drain still finds resident:
    // everything before was retired by the tick that streamed it.
    let streamed = counter(&s, "completed");
    let report = s.drain_round();
    assert_eq!(report.records.len(), 4, "ticks retired everything else");
    assert_eq!(report.completed, streamed + 4);
    assert_eq!(report.completed, counter(&s, "completed"));
    assert!(
        s.books_balanced(),
        "books: every submit completed, was shed, or was refused"
    );

    // The round's totals are what the ticks streamed, one task at a
    // time, into the latency and cost histograms (summation order
    // differs, hence the tolerance).
    let close = |got: f64, want: f64| (got - want).abs() <= 1e-9 * want.abs();
    let latency = s.metrics().histogram("task_latency_s");
    assert_eq!(latency.count(), report.completed);
    assert!(
        close(report.total_turnaround_s, latency.sum()),
        "turnaround {} vs streamed {}",
        report.total_turnaround_s,
        latency.sum()
    );
    let cost = s.metrics().histogram("task_cost").sum();
    assert!(
        close(report.total_cost(params), cost),
        "cost {} vs streamed {cost}",
        report.total_cost(params)
    );

    // Flat memory: at ~0.4 KiB a retained task, keeping eight more
    // waves resident would add some 50 MiB.
    let (early, late) = (rss_kib[1], rss_kib[WAVES - 1]);
    assert!(
        late <= early + 16 * 1024,
        "VmRSS grew from {early} KiB after wave 2 to {late} KiB after wave {WAVES}: {rss_kib:?}"
    );
}
