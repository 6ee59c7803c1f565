//! Serve fixture with panic, waiver, and concurrency violations.
pub mod protocol;
pub mod service;
pub mod worker;
