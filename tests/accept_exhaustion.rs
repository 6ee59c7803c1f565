//! Accept exhaustion has a specified outcome on both wire backends.
//!
//! While the process is out of descriptors, the server's `accept` fails
//! with `EMFILE`, and keeps failing until one frees. Both accept paths
//! follow `dvfs_net::accept`: count the error in `accept_errors` and
//! pause accepting for its back-off. The threads backend sleeps it out;
//! the reactor takes its listener — level-triggered, so it would wake
//! every `epoll_wait` at once while the error lasts — out of the
//! interest set instead, so its event loop does not spin. Once
//! descriptors free, the client that waited is served and the books
//! balance. And the reactor takes its own descriptors inside `serve`,
//! so a table too full for them fails the call rather than leaving a
//! daemon that never accepts.
//!
//! The server listens on loopback TCP, whose listener stays readable
//! while its accept queue holds a connection.
//!
//! Each test runs its body in a child process of this binary whose soft
//! `RLIMIT_NOFILE` is lowered (`sh -c 'ulimit -n 64; exec …'`), so
//! filling the descriptor table takes a few dozen files and touches
//! nothing outside that child.

use dvfs_serve::protocol::Response;
use dvfs_serve::{serve, Endpoint, NetBackend, ServerConfig};
use std::fs::File;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::Command;
use std::time::Duration;

/// The child's descriptor budget.
const NOFILE: u64 = 64;
/// Set in the child's environment: there the test runs its body.
const CHILD: &str = "ACCEPT_EXHAUSTION_CHILD";
/// `EMFILE`: the process's descriptor table is full.
const EMFILE: i32 = 24;
/// The window the event loop is watched over while accepting fails.
const WINDOW: Duration = Duration::from_millis(200);
/// Wakeups the reactor may take over the window: a few `epoll_wait`
/// timeouts and one accept attempt per back-off. A loop that spins on
/// the ready listener takes thousands.
const MAX_WAKEUPS: u64 = 20;

/// Run `body` under a soft `RLIMIT_NOFILE` of [`NOFILE`]: in a child
/// process that runs just this test (`test`, its exact name) under
/// `ulimit -n`, and is told by [`CHILD`] that it is the child.
fn with_few_descriptors(test: &str, body: impl FnOnce()) {
    if std::env::var_os(CHILD).is_some() {
        return body();
    }
    let exe = std::env::current_exe().expect("the test binary's path");
    let child = Command::new("sh")
        .env(CHILD, "1")
        .arg("-c")
        .arg(format!("ulimit -n {NOFILE} && exec \"$0\" \"$@\""))
        .arg(exe)
        .args(["--exact", test, "--nocapture", "--test-threads=1"])
        .output()
        .expect("sh runs");
    assert!(
        child.status.success() && String::from_utf8_lossy(&child.stdout).contains("1 passed"),
        "{test} failed under `ulimit -n {NOFILE}`:\n{}\n{}",
        String::from_utf8_lossy(&child.stdout),
        String::from_utf8_lossy(&child.stderr)
    );
}

/// Open `/dev/null` until the descriptor table is full, then close one:
/// the files held leave exactly one descriptor free.
fn all_but_one_descriptor() -> Vec<File> {
    let mut filler = Vec::new();
    let full = loop {
        match File::open("/dev/null") {
            Ok(file) => filler.push(file),
            Err(e) => break e,
        }
    };
    assert_eq!(full.raw_os_error(), Some(EMFILE), "{full}");
    drop(filler.pop());
    filler
}

/// Fill the descriptor table, free one descriptor, connect a client with
/// it so that the server's `accept` hits `EMFILE`, and watch the server
/// for [`WINDOW`]; then free the table and have the waiting client's
/// `ping` answered.
fn accept_exhaustion(net: NetBackend) {
    let cfg = ServerConfig {
        net,
        ..ServerConfig::new(Endpoint::Tcp("127.0.0.1:0".into()))
    };
    let handle = serve(cfg).expect("server binds");
    let Endpoint::Tcp(addr) = handle.endpoint() else {
        panic!("a TCP endpoint");
    };
    let metrics = handle.metrics();
    let count = |name: &str| metrics.counter(name).get();
    // `serve` has returned, so the front end holds every descriptor it
    // needs before the table fills.
    let filler = all_but_one_descriptor();
    let client = TcpStream::connect(addr).expect("the one free descriptor connects");
    (&client)
        .write_all(b"{\"cmd\":\"ping\"}\n")
        .expect("the ping waits in the socket");

    let wakeups = count("net_wakeups");
    std::thread::sleep(WINDOW);
    let (woke, errors) = (count("net_wakeups") - wakeups, count("accept_errors"));
    assert!(
        errors >= 1 && woke <= MAX_WAKEUPS,
        "{}: {errors} accept errors counted, {woke} wakeups in {WINDOW:?}",
        net.name()
    );

    drop(filler);
    client
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    let mut line = String::new();
    BufReader::new(&client)
        .read_line(&mut line)
        .expect("the ping is answered once descriptors free");
    let pong = Response::decode(line.trim()).expect("a response line");
    assert!(pong.is_ok(), "{pong:?}");

    handle.shutdown();
    assert!(handle.books_balanced(), "{:?}", metrics.snapshot());
    handle.wait();
}

#[test]
fn the_reactor_backs_off_an_exhausted_accept_and_recovers() {
    with_few_descriptors(
        "the_reactor_backs_off_an_exhausted_accept_and_recovers",
        || accept_exhaustion(NetBackend::Reactor),
    );
}

#[test]
fn the_threads_backend_backs_off_an_exhausted_accept_and_recovers() {
    with_few_descriptors(
        "the_threads_backend_backs_off_an_exhausted_accept_and_recovers",
        || accept_exhaustion(NetBackend::Threads),
    );
}

/// With one descriptor free, the listener binds and the reactor's epoll
/// instance cannot be created: `serve` must say so, not return a server
/// whose front end fails on a thread of its own.
#[test]
fn serve_fails_when_the_reactor_cannot_take_its_descriptors() {
    with_few_descriptors(
        "serve_fails_when_the_reactor_cannot_take_its_descriptors",
        || {
            let filler = all_but_one_descriptor();
            let cfg = ServerConfig::new(Endpoint::Tcp("127.0.0.1:0".into()));
            assert_eq!(cfg.net, NetBackend::Reactor);
            let served = serve(cfg);
            drop(filler);
            let err = served
                .err()
                .expect("serve must fail without the reactor's descriptors");
            assert_eq!(err.raw_os_error(), Some(EMFILE), "{err}");
        },
    );
}
