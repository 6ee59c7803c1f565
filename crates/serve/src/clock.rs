//! The service's wall-clock seam.
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

use std::time::Instant;

/// Read the wall clock — the one raw `Instant::now()` in the crate.
#[must_use]
#[expect(clippy::disallowed_methods, reason = "the clock seam itself")]
pub fn wall_now() -> Instant {
    Instant::now()
}
