//! Service-side concurrency violations: a `Relaxed` store on the
//! shutdown handshake and an `unsafe` block off the syscall boundary.

/// Atomics-discipline violation (the relaxed-shutdown-store mutation):
/// the flag is a cross-thread handshake, yet this store is `Relaxed` —
/// it can be reordered past the state it guards.
pub fn begin_shutdown() {
    crate::worker::SHUTTING_DOWN.store(true, std::sync::atomic::Ordering::Relaxed);
}

/// Unsafe-audit violation: a raw-pointer read outside the audited
/// syscall boundary.
pub fn first_unchecked(v: &[u64]) -> u64 {
    unsafe { *v.as_ptr() }
}
