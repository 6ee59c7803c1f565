//! Determinism violation: wall clock inside the execution engine.
pub fn now_s() -> u128 {
    std::time::Instant::now().elapsed().as_nanos()
}
