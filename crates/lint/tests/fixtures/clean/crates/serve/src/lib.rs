//! Clean serve fixture.
pub mod clock;
pub mod metrics;
pub mod protocol;
pub mod service;
