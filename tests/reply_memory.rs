//! What a reply costs in live heap, under a counting allocator, on the
//! exact wire path: `dvfs_net::blocking::serve` over the scheduler,
//! driven through an in-memory peer.
//!
//! - A `trace_stream` reply leaves in pieces as it is rendered, so the
//!   heap it adds above the level just before its line stays under
//!   [`TRACE_REPLY_BOUND`] — two pieces of text plus slack — at two
//!   round sizes 10× apart, on one shard and on two, although the
//!   larger reply is longer than the bound.
//! - An error that quotes a 60 KB client string is a short line, and
//!   answering it holds less than twice the line.
//! - A drained replay round hands its per-task memory back — the
//!   engine's, the receive stamps', the admission queue's — leaving the
//!   live heap within [`ROUND_RETAINED_SLACK`] of where it was before
//!   its first submit, with telemetry on and off, at two round sizes
//!   10× apart.
//!
//! A test binary of its own, so the allocator counts nothing but these
//! tests; they take turns ([`SERIAL`]), since they share its counters.

use dvfs_serve::protocol::encode_submit;
use dvfs_serve::{Registry, Scheduler, SchedulerConfig, SubmitItem, MAX_LINE_BYTES};
use dvfs_suite::model::TaskClass;
use dvfs_suite::trace::export::{EVENT_BYTES, PIECE_EVENTS};
use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
use std::sync::{Arc, Mutex};

/// The heap a `trace_stream` reply may add: its two piece buffers,
/// plus 1 MiB for everything else the answer holds at once.
const TRACE_REPLY_BOUND: usize = 2 * PIECE_EVENTS * EVENT_BYTES + (1 << 20);

/// How much live heap a drained round may leave behind: far below any
/// per-task structure at 5 000 tasks.
const ROUND_RETAINED_SLACK: usize = 64 << 10;

/// Live heap bytes, and the most seen since the last [`mark`].
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static SERIAL: Mutex<()> = Mutex::new(());

/// `System`, counting the bytes it hands out.
struct Counting;

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, SeqCst) + bytes;
    PEAK.fetch_max(live, SeqCst);
}

// SAFETY: every call goes to `System` as it came; the counters only
// read the sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), SeqCst);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), SeqCst);
            grew(new_size);
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Take the live heap as the baseline, and start the peak there.
fn mark() -> usize {
    let live = LIVE.load(SeqCst);
    PEAK.store(live, SeqCst);
    live
}

/// An in-memory peer. `read` hands out the script, stopping short of
/// `mark_at` so that one read starts there; that read first takes the
/// [`mark`] and restarts the byte count and hash. `write` counts and
/// hashes (FNV-1a) what the server sends, keeping none of it.
struct Peer {
    script: Vec<u8>,
    at: usize,
    mark_at: usize,
    baseline: usize,
    sent: usize,
    hash: u64,
}

impl Peer {
    fn new(script: Vec<u8>, mark_at: usize) -> Peer {
        Peer {
            script,
            at: 0,
            mark_at,
            baseline: 0,
            sent: 0,
            hash: 0,
        }
    }

    /// Serve the script to its end; the peak heap above the baseline.
    fn serve(&mut self, scheduler: &Scheduler) -> usize {
        dvfs_net::blocking::serve(self, MAX_LINE_BYTES, scheduler).expect("the peer takes it all");
        PEAK.load(SeqCst) - self.baseline
    }
}

impl Read for Peer {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.at == self.mark_at {
            (self.sent, self.hash) = (0, 0xcbf2_9ce4_8422_2325);
            self.baseline = mark();
        }
        let end = if self.at < self.mark_at {
            self.mark_at
        } else {
            self.script.len()
        };
        let n = buf.len().min(end - self.at);
        buf[..n].copy_from_slice(&self.script[self.at..self.at + n]);
        self.at += n;
        Ok(n)
    }
}

impl Write for Peer {
    fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
        for &b in bytes {
            self.hash = (self.hash ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
        self.sent += bytes.len();
        Ok(bytes.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

fn scheduler(shards: usize, tasks: usize) -> Scheduler {
    Scheduler::new(
        SchedulerConfig {
            cores: 4,
            shards,
            queue_capacity: 4 * tasks,
            trace_capacity: 8 * tasks,
            ..SchedulerConfig::default()
        },
        Arc::new(Registry::new()),
    )
}

/// One replay round of `tasks` — explicit even ids, so every task lands
/// on shard 0 at one shard and at two, and the trace is the same —
/// then `drain` and `trace_stream`: the reply's peak heap above the
/// level before its line, its length, and its hash.
fn round(shards: usize, tasks: usize) -> (usize, usize, u64) {
    let classes = [
        TaskClass::Interactive,
        TaskClass::NonInteractive,
        TaskClass::Batch,
    ];
    let mut script = String::new();
    for i in 0..tasks as u64 {
        let class = classes[(i % 3) as usize];
        let arrival = Some(i as f64 * 1e-3);
        script += &encode_submit(Some(2 * i), 20_000_000 + 7_000 * (i % 97), class, arrival);
        script.push('\n');
    }
    script += "{\"cmd\":\"drain\"}\n";
    let mark_at = script.len();
    script += "{\"cmd\":\"trace_stream\"}\n";
    let scheduler = scheduler(shards, tasks);
    let mut peer = Peer::new(script.into_bytes(), mark_at);
    let peak = peer.serve(&scheduler);
    assert_eq!(scheduler.metrics().counter("completed").get(), tasks as u64);
    assert!(scheduler.books_balanced());
    (peak, peer.sent, peer.hash)
}

#[test]
fn a_trace_stream_reply_holds_two_pieces_at_any_round_size() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for tasks in [1_500, 15_000] {
        let mut replies = Vec::new();
        for shards in [1, 2] {
            let (peak, sent, hash) = round(shards, tasks);
            assert!(
                peak <= TRACE_REPLY_BOUND,
                "{tasks} tasks, {shards} shards: a {sent} byte reply held {peak} bytes"
            );
            replies.push((sent, hash));
        }
        assert_eq!(
            replies[0], replies[1],
            "{tasks} tasks: shards 1 and 2 differ"
        );
        if tasks == 15_000 {
            assert!(replies[0].0 > TRACE_REPLY_BOUND, "{} bytes", replies[0].0);
        }
    }
}

#[test]
fn an_error_quotes_a_60_kb_client_string_in_a_short_line() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let long = "x".repeat(60_000);
    let class = format!("{{\"cmd\":\"submit\",\"cycles\":5,\"class\":\"{long}\"}}\n");
    let cmd = format!("{{\"cmd\":\"{long}\"}}\n");
    for line in [class, cmd] {
        let scheduler = scheduler(1, 16);
        let len = line.len();
        let mut peer = Peer::new(line.into_bytes(), 0);
        let peak = peer.serve(&scheduler);
        assert!(peer.sent < 200, "a {} byte error reply", peer.sent);
        // The framer's copy of the line, and little else.
        assert!(peak < 2 * len, "a {len} byte line held {peak} bytes");
    }
}

/// The live heap one replay round of `tasks` auto-id tasks on one shard
/// leaves behind after `drain_round`, above the level before its first
/// submit. An empty round first lets the worker thread settle.
fn retained_by_a_round(tasks: usize, telemetry: bool) -> isize {
    let scheduler = Scheduler::new(
        SchedulerConfig {
            cores: 4,
            queue_capacity: 2 * tasks,
            telemetry,
            ..SchedulerConfig::default()
        },
        Arc::new(Registry::new()),
    );
    scheduler.drain_round();
    let items: Vec<SubmitItem> = (0..tasks as u64)
        .map(|i| SubmitItem {
            id: None,
            cycles: 20_000_000 + 7_000 * (i % 97),
            class: TaskClass::NonInteractive,
            arrival: None,
        })
        .collect();
    let before = LIVE.load(SeqCst);
    for batch in items.chunks(64) {
        scheduler.submit_many(batch);
    }
    assert_eq!(scheduler.drain_round().completed, tasks as u64);
    let after = LIVE.load(SeqCst);
    assert!(scheduler.books_balanced());
    after as isize - before as isize
}

#[test]
fn a_drained_round_retains_no_per_task_memory() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for tasks in [5_000, 50_000] {
        for telemetry in [true, false] {
            let retained = retained_by_a_round(tasks, telemetry);
            assert!(
                retained.unsigned_abs() <= ROUND_RETAINED_SLACK,
                "{tasks} tasks, telemetry {telemetry}: a drained round retained {retained} bytes"
            );
        }
    }
}
