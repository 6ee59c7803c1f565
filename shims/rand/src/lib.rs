//! Offline stand-in for the `rand` crate.
//!
//! The build environment has no network access to a cargo registry, so the
//! workspace replaces its registry dependencies with local path crates that
//! expose the same module paths and the (small) API subset the workspace
//! actually uses. This crate provides:
//!
//! - [`RngCore`] / [`Rng`] with `gen_range` over `Range`/`RangeInclusive`
//!   for the integer and float types used in the repo, plus `gen_bool`,
//! - [`SeedableRng`] with the same `seed_from_u64` expansion as
//!   `rand_core` 0.6 (PCG-style multiply/xorshift), so seeds derived from
//!   `u64`s remain well distributed.
//!
//! Stream values are NOT bit-compatible with the real `rand` crate's
//! distributions; tests pinned to sampled values are maintained against
//! this implementation.

pub mod distributions {
    /// Marker trait mirroring `rand::distributions::uniform::SampleUniform`.
    pub trait SampleUniform: Sized {}
}

/// Low-level source of randomness.
pub trait RngCore {
    fn next_u32(&mut self) -> u32;
    fn next_u64(&mut self) -> u64;
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// A range that can be sampled from uniformly.
pub trait SampleRange<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

/// Types samplable from the "standard" distribution (`rng.gen()`):
/// `f64`, uniform in `[0, 1)`.
pub trait StandardSample: Sized {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl StandardSample for f64 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        unit_f64(rng.next_u64())
    }
}

/// High-level convenience methods, blanket-implemented for every
/// [`RngCore`].
pub trait Rng: RngCore {
    fn gen_range<T, R>(&mut self, range: R) -> T
    where
        R: SampleRange<T>,
    {
        range.sample_single(self)
    }

    fn gen<T: StandardSample>(&mut self) -> T {
        T::sample_standard(self)
    }

    /// Bernoulli draw with probability `p` of returning `true`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool: p out of [0,1]: {p}");
        unit_f64(self.next_u64()) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// An RNG constructible from a seed.
pub trait SeedableRng: Sized {
    type Seed: Sized + Default + AsMut<[u8]>;

    fn from_seed(seed: Self::Seed) -> Self;

    /// Expand a `u64` into a full seed using the same PCG-style generator
    /// as `rand_core` 0.6, so small seed integers still produce
    /// well-mixed state.
    fn seed_from_u64(mut state: u64) -> Self {
        const MUL: u64 = 6_364_136_223_846_793_005;
        const INC: u64 = 11_634_580_027_462_260_723;
        let mut seed = Self::Seed::default();
        for chunk in seed.as_mut().chunks_mut(4) {
            state = state.wrapping_mul(MUL).wrapping_add(INC);
            let xorshifted = (((state >> 18) ^ state) >> 27) as u32;
            let rot = (state >> 59) as u32;
            let word = xorshifted.rotate_right(rot).to_le_bytes();
            chunk.copy_from_slice(&word[..chunk.len()]);
        }
        Self::from_seed(seed)
    }
}

/// Map a `u64` to the unit interval `[0, 1)` with 53 bits of precision.
#[inline]
fn unit_f64(word: u64) -> f64 {
    (word >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Unbiased sample in `[0, bound)` via Lemire's multiply-shift rejection.
fn u64_below<R: RngCore + ?Sized>(rng: &mut R, bound: u64) -> u64 {
    debug_assert!(bound > 0);
    let mut x = rng.next_u64();
    let mut m = (x as u128) * (bound as u128);
    let mut lo = m as u64;
    if lo < bound {
        let threshold = bound.wrapping_neg() % bound;
        while lo < threshold {
            x = rng.next_u64();
            m = (x as u128) * (bound as u128);
            lo = m as u64;
        }
    }
    let _ = x;
    (m >> 64) as u64
}

macro_rules! impl_int_ranges {
    ($($t:ty),*) => {$(
        impl crate::distributions::SampleUniform for $t {}

        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let width = (self.end as u64).wrapping_sub(self.start as u64);
                self.start.wrapping_add(u64_below(rng, width) as $t)
            }
        }

        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                let width = (hi as u64).wrapping_sub(lo as u64);
                if width == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo.wrapping_add(u64_below(rng, width + 1) as $t)
            }
        }
    )*};
}

impl_int_ranges!(u8, u16, u32, u64, usize);

macro_rules! impl_signed_ranges {
    ($($t:ty => $u:ty),*) => {$(
        impl crate::distributions::SampleUniform for $t {}

        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let width = (self.end as $u).wrapping_sub(self.start as $u) as u64;
                self.start.wrapping_add(u64_below(rng, width) as $t)
            }
        }

        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                let width = (hi as $u).wrapping_sub(lo as $u) as u64;
                if width == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo.wrapping_add(u64_below(rng, width + 1) as $t)
            }
        }
    )*};
}

impl_signed_ranges!(i32 => u32, i64 => u64, isize => usize);

macro_rules! impl_float_ranges {
    ($($t:ty),*) => {$(
        impl crate::distributions::SampleUniform for $t {}

        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let u = unit_f64(rng.next_u64()) as $t;
                let v = self.start + (self.end - self.start) * u;
                // Guard against rounding up to the excluded endpoint.
                if v >= self.end {
                    <$t>::from_bits(self.end.to_bits() - 1)
                } else {
                    v
                }
            }
        }

        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                lo + (hi - lo) * (unit_f64(rng.next_u64()) as $t)
            }
        }
    )*};
}

impl_float_ranges!(f32, f64);

pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// Deterministic xoshiro256** generator — used as `StdRng`'s engine.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl RngCore for StdRng {
        fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }

        fn next_u64(&mut self) -> u64 {
            let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
    }

    impl SeedableRng for StdRng {
        type Seed = [u8; 32];

        fn from_seed(seed: Self::Seed) -> Self {
            let mut s = [0u64; 4];
            for (i, word) in s.iter_mut().enumerate() {
                let mut b = [0u8; 8];
                b.copy_from_slice(&seed[i * 8..i * 8 + 8]);
                *word = u64::from_le_bytes(b);
            }
            // All-zero state is a fixed point for xoshiro; nudge it.
            if s.iter().all(|&w| w == 0) {
                s[0] = 0x9E37_79B9_7F4A_7C15;
            }
            StdRng { s }
        }
    }
}

pub mod prelude {
    pub use crate::{Rng, RngCore, SeedableRng};
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn seeded_streams_are_deterministic() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.gen_range(0u64..1_000_000), b.gen_range(0u64..1_000_000));
        }
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let v = rng.gen_range(10u64..20);
            assert!((10..20).contains(&v));
            let f = rng.gen_range(-1.5f64..2.5);
            assert!((-1.5..2.5).contains(&f));
            let c = rng.gen_range(3usize..=5);
            assert!((3..=5).contains(&c));
        }
    }

    #[test]
    fn gen_bool_is_roughly_calibrated() {
        let mut rng = StdRng::seed_from_u64(11);
        let hits = (0..100_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((20_000..30_000).contains(&hits), "hits = {hits}");
    }
}
