//! The one module allowed to spell `Relaxed`: it defines the advisory
//! cell every other module publishes stale-tolerant values through, so
//! the `atomics-discipline` exemption for this path must keep these
//! accesses finding-free. (The file is also on the determinism
//! collections list — hence the `BTreeMap`.)
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

#[derive(Default)]
pub struct AdvisoryCell(AtomicU64);

impl AdvisoryCell {
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    pub fn add(&self, n: u64) -> u64 {
        self.0.fetch_add(n, Ordering::Relaxed)
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

pub fn snapshot(cells: &BTreeMap<String, AdvisoryCell>) -> Vec<(String, u64)> {
    cells.iter().map(|(k, v)| (k.clone(), v.get())).collect()
}
