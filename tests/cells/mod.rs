//! The backend × shard cells the wire suites run in — one list, so a
//! plain `cargo test` covers the whole matrix.
//!
//! The shard axis runs on the reactor, the default backend. Both
//! backends run the same `dvfs_net::Handler` value through the same
//! framer, and nothing below that handler can see which driver called
//! it, so threads × {1, 4} would re-run the scheduler cells reactor ×
//! {1, 4} already cover. What the threads backend owns — its accept
//! loop and `dvfs_net::blocking` — does not depend on the shard count:
//! one cell, threads × 2, keeps it honest.
//!
//! A test whose outcome depends on the shard count runs every cell of
//! [`CELLS`] (or, with no server, every count of [`SHARDS`]); a test
//! that fixes its own shard count runs each of [`BACKENDS`].

#![allow(dead_code, reason = "each suite uses the part of the list it needs")]

use dvfs_serve::NetBackend;

/// The shard counts swept: 1 is the bit-identical-to-the-simulator
/// pin, 2 and 4 exercise the router, the fan-out and the report merge.
pub const SHARDS: [usize; 3] = [1, 2, 4];

/// Every cell: the reactor at each of [`SHARDS`], the threads backend
/// at 2.
pub const CELLS: [(NetBackend, usize); 4] = [
    (NetBackend::Reactor, SHARDS[0]),
    (NetBackend::Reactor, SHARDS[1]),
    (NetBackend::Reactor, SHARDS[2]),
    (NetBackend::Threads, 2),
];

/// Each backend once.
pub const BACKENDS: [NetBackend; 2] = [NetBackend::Reactor, NetBackend::Threads];
