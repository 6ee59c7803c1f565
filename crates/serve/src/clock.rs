//! The service's wall-clock seam, and the engine clock built on it.
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

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Read the wall clock — the one raw `Instant::now()` in the crate.
#[must_use]
#[expect(clippy::disallowed_methods, reason = "the clock seam itself")]
pub fn wall_now() -> Instant {
    Instant::now()
}

/// A service's engine clock, shared through one `Arc` by the scheduler
/// (which stamps arrivals with it) and every shard worker (which steps
/// its engine toward it), so arrival and completion are read off the
/// same clock. Paced mode runs on wall time; replay on a virtual clock
/// that nothing moves, so it reads zero.
#[derive(Debug)]
pub(crate) enum EngineClock {
    /// `speed` engine seconds per wall second since the anchor, which
    /// is `None` — time standing at zero — until [`EngineClock::start`].
    Wall {
        speed: f64,
        anchor: Mutex<Option<Instant>>,
    },
    /// `f64::to_bits` of the time its holder last set (zero at first).
    Virtual(AtomicU64),
}

impl EngineClock {
    /// Start a wall clock counting (idempotent).
    pub(crate) fn start(&self) {
        if let EngineClock::Wall { anchor, .. } = self {
            lock(anchor).get_or_insert_with(wall_now);
        }
    }

    /// Count again from zero, for a fresh round.
    pub(crate) fn restart(&self) {
        match self {
            EngineClock::Wall { anchor, .. } => {
                if let Some(t0) = lock(anchor).as_mut() {
                    *t0 = wall_now();
                }
            }
            EngineClock::Virtual(_) => self.set(0.0),
        }
    }

    /// Move a virtual clock to `t` (a wall clock moves by itself).
    pub(crate) fn set(&self, t: f64) {
        if let EngineClock::Virtual(bits) = self {
            bits.store(t.to_bits(), Ordering::Release);
        }
    }

    /// The current engine time.
    pub(crate) fn now(&self) -> f64 {
        match self {
            EngineClock::Wall { speed, anchor } => {
                lock(anchor).map_or(0.0, |t0| t0.elapsed().as_secs_f64() * speed)
            }
            EngineClock::Virtual(bits) => f64::from_bits(bits.load(Ordering::Acquire)),
        }
    }

    /// Wall seconds per engine second (a virtual second is its own).
    pub(crate) fn wall_scale(&self) -> f64 {
        match self {
            EngineClock::Wall { speed, .. } if *speed > 0.0 => speed.recip(),
            _ => 1.0,
        }
    }
}

fn lock(anchor: &Mutex<Option<Instant>>) -> MutexGuard<'_, Option<Instant>> {
    anchor.lock().unwrap_or_else(PoisonError::into_inner)
}
