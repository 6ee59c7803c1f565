//! Determinism violations: hash container + ambient RNG (and a wall
//! clock in `sched/engine.rs`).
use std::collections::HashMap;

pub mod sched {
    pub mod engine;
}

pub fn order_sensitive() -> HashMap<u64, u64> {
    HashMap::new()
}

pub fn roll() -> u64 {
    let _rng = thread_rng();
    4
}

fn thread_rng() -> u64 {
    0
}
