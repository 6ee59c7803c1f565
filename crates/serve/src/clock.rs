//! The service's wall-clock seam, and the paced engine clock built on
//! it.
//!
//! Every wall-time read in `dvfs-serve` goes through [`wall_now`] — the
//! single place the wall clock enters the crate. Everything downstream
//! either works in engine seconds (the executor clock, advanced
//! explicitly by ticks) or handles `Instant`s obtained here. The crate's
//! `clippy.toml` disallows `Instant::now`/`SystemTime::now` and the one
//! `#[expect]` is below, so the whole nondeterministic time surface is
//! this file plus one argument: the wire-receive stamp the `dvfs-net`
//! drivers pass to `Handler::answer`, which feeds stage histograms and
//! nothing else.

use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Read the wall clock — the one raw `Instant::now()` in the crate.
#[must_use]
#[expect(clippy::disallowed_methods, reason = "the clock seam itself")]
pub fn wall_now() -> Instant {
    Instant::now()
}

/// A paced service's engine clock: `speed` engine seconds per wall
/// second since one anchor. The scheduler stamps arrivals with it and
/// every shard worker steps its engine toward it, all through one
/// `Arc`, so arrival and completion are measured on the same clock. A
/// replay service has none.
#[derive(Debug)]
pub(crate) struct PacedClock {
    speed: f64,
    /// `None` until [`PacedClock::start`]: engine time stands at zero.
    anchor: Mutex<Option<Instant>>,
}

impl PacedClock {
    pub(crate) fn new(speed: f64) -> Self {
        PacedClock {
            speed,
            anchor: Mutex::new(None),
        }
    }

    /// Engine seconds per wall second.
    pub(crate) fn speed(&self) -> f64 {
        self.speed
    }

    /// Start counting (idempotent).
    pub(crate) fn start(&self) {
        self.anchor().get_or_insert_with(wall_now);
    }

    /// Count again from zero, for a fresh round (no-op until started).
    pub(crate) fn restart(&self) {
        if let Some(anchor) = self.anchor().as_mut() {
            *anchor = wall_now();
        }
    }

    /// The current engine time.
    pub(crate) fn now(&self) -> f64 {
        self.anchor()
            .map_or(0.0, |t0| t0.elapsed().as_secs_f64() * self.speed)
    }

    fn anchor(&self) -> MutexGuard<'_, Option<Instant>> {
        self.anchor.lock().unwrap_or_else(PoisonError::into_inner)
    }
}
