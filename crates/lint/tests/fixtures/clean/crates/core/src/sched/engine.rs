//! Clean engine: engine time only, deterministic containers.
use std::collections::BTreeMap;

pub struct Engine {
    pub now: f64,
    pub jobs: BTreeMap<u64, u64>,
}

pub fn advance(e: &mut Engine, dt: f64) {
    e.now += dt;
}
