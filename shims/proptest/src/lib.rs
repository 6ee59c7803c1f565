//! Offline stand-in for `proptest`.
//!
//! Implements the subset of the proptest API this workspace uses:
//! `proptest!` test blocks with `#![proptest_config(...)]`, strategies
//! over integer/float ranges, tuples, `prop::collection::vec`,
//! `prop::bool::ANY`, `.prop_map`, and `prop_assert!`/`prop_assert_eq!`
//! returning `TestCaseError`.
//!
//! Differences from the real crate: inputs are sampled from a
//! deterministic per-test ChaCha8 stream (seeded from the test name, so
//! runs are reproducible without a persistence file) and failing cases
//! are reported but **not shrunk** — the failure message includes the
//! case number for replay under a debugger.

use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A failed property-test case.
#[derive(Debug, Clone)]
pub struct TestCaseError {
    msg: String,
}

impl TestCaseError {
    pub fn fail(msg: impl std::fmt::Display) -> Self {
        TestCaseError {
            msg: msg.to_string(),
        }
    }
}

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for TestCaseError {}

/// Runner configuration; only `cases` is meaningful here.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    pub cases: u32,
}

impl ProptestConfig {
    #[must_use]
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

/// The RNG handed to strategies while sampling a case.
pub struct TestRng {
    inner: ChaCha8Rng,
}

impl TestRng {
    /// Deterministic seed from the test name and case index.
    #[must_use]
    pub fn for_case(test_name: &str, case: u32) -> Self {
        // FNV-1a over the name, mixed with the case counter.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in test_name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        TestRng {
            inner: ChaCha8Rng::seed_from_u64(h ^ ((case as u64) << 32 | 0x9e37)),
        }
    }
}

impl RngCore for TestRng {
    fn next_u32(&mut self) -> u32 {
        self.inner.next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }
}

/// A generator of values for one test argument.
pub trait Strategy {
    type Value;

    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }
}

/// Output of [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, O, F> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O,
{
    type Value = O;

    fn sample(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.sample(rng))
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }

        impl Strategy for core::ops::RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize, i32, i64, f32, f64);

macro_rules! impl_tuple_strategy {
    ($(($($name:ident : $idx:tt),+);)*) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.sample(rng),)+)
            }
        }
    )*};
}

impl_tuple_strategy! {
    (A: 0, B: 1);
    (A: 0, B: 1, C: 2);
    (A: 0, B: 1, C: 2, D: 3);
    (A: 0, B: 1, C: 2, D: 3, E: 4);
}

pub mod prop {
    pub mod bool {
        use crate::{Strategy, TestRng};
        use rand::Rng;

        /// Uniform boolean strategy.
        #[derive(Debug, Clone, Copy)]
        pub struct Any;

        pub const ANY: Any = Any;

        impl Strategy for Any {
            type Value = bool;
            fn sample(&self, rng: &mut TestRng) -> bool {
                rng.gen_bool(0.5)
            }
        }
    }

    pub mod collection {
        use crate::{Strategy, TestRng};
        use rand::Rng;

        /// Accepted length specifications for [`vec()`].
        #[derive(Debug, Clone)]
        pub struct SizeRange {
            lo: usize,
            /// Inclusive upper bound.
            hi: usize,
        }

        impl From<usize> for SizeRange {
            fn from(n: usize) -> Self {
                SizeRange { lo: n, hi: n }
            }
        }

        impl From<core::ops::Range<usize>> for SizeRange {
            fn from(r: core::ops::Range<usize>) -> Self {
                assert!(r.start < r.end, "empty size range");
                SizeRange {
                    lo: r.start,
                    hi: r.end - 1,
                }
            }
        }

        impl From<core::ops::RangeInclusive<usize>> for SizeRange {
            fn from(r: core::ops::RangeInclusive<usize>) -> Self {
                SizeRange {
                    lo: *r.start(),
                    hi: *r.end(),
                }
            }
        }

        pub struct VecStrategy<S> {
            element: S,
            size: SizeRange,
        }

        /// `prop::collection::vec(element, len)`.
        pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
            VecStrategy {
                element,
                size: size.into(),
            }
        }

        impl<S: Strategy> Strategy for VecStrategy<S> {
            type Value = Vec<S::Value>;

            fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
                let len = rng.gen_range(self.size.lo..=self.size.hi);
                (0..len).map(|_| self.element.sample(rng)).collect()
            }
        }
    }
}

/// Run `cases` deterministic cases of a property body.
///
/// The body returns `Err` on `prop_assert!` failures; panics inside the
/// body (plain `assert!`, indexing, ...) propagate as ordinary test
/// failures.
pub fn run_cases<F>(config: &ProptestConfig, test_name: &str, mut body: F)
where
    F: FnMut(&mut TestRng) -> Result<(), TestCaseError>,
{
    for case in 0..config.cases {
        let mut rng = TestRng::for_case(test_name, case);
        if let Err(e) = body(&mut rng) {
            panic!(
                "proptest `{test_name}` failed at case {case}/{}: {e}",
                config.cases
            );
        }
    }
}

#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { cfg = ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! { cfg = ($crate::ProptestConfig::default()); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (cfg = ($cfg:expr); ) => {};
    (cfg = ($cfg:expr);
     $(#[$meta:meta])*
     fn $name:ident ( $($args:tt)* ) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __config = $cfg;
            $crate::run_cases(&__config, stringify!($name), |__rng| {
                $crate::__proptest_bind! { __rng; $($args)* }
                #[allow(unused_mut)]
                let mut __case = || -> ::std::result::Result<(), $crate::TestCaseError> {
                    $body
                    #[allow(unreachable_code)]
                    Ok(())
                };
                __case()
            });
        }
        $crate::__proptest_fns! { cfg = ($cfg); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_bind {
    ($rng:ident; ) => {};
    ($rng:ident; $arg:ident in $strat:expr) => {
        let $arg = $crate::Strategy::sample(&($strat), $rng);
    };
    ($rng:ident; $arg:ident in $strat:expr, $($rest:tt)*) => {
        let $arg = $crate::Strategy::sample(&($strat), $rng);
        $crate::__proptest_bind! { $rng; $($rest)* }
    };
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: {}",
                stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: {}: {}",
                stringify!($cond),
                format!($($fmt)+)
            )));
        }
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        if !(l == r) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{:?}` == `{:?}`",
                l, r
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if !(l == r) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{:?}` == `{:?}`: {}",
                l, r,
                format!($($fmt)+)
            )));
        }
    }};
}

pub mod prelude {
    pub use crate::prop;
    pub use crate::{
        prop_assert, prop_assert_eq, proptest, ProptestConfig, Strategy, TestCaseError,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    fn helper_returning_result(v: u64) -> Result<(), TestCaseError> {
        prop_assert!(v < 10_000, "v = {}", v);
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_stay_in_bounds(x in 1u64..100, y in 0.0f64..1.0) {
            prop_assert!((1..100).contains(&x));
            prop_assert!((0.0..1.0).contains(&y));
        }

        #[test]
        fn vec_and_tuple_strategies_compose(
            items in prop::collection::vec((1u64..50, 0.0f64..10.0, prop::bool::ANY), 1..20),
        ) {
            prop_assert!(!items.is_empty() && items.len() < 20);
            for (a, b, _flag) in &items {
                prop_assert!((1..50).contains(a));
                prop_assert!((0.0..10.0).contains(b));
            }
        }

        #[test]
        fn prop_map_and_question_mark_work(xs in prop::collection::vec(1u64..10, 1..5)) {
            let doubled = (1u64..10).prop_map(|v| v * 2);
            let mut rng = crate::TestRng::for_case("inner", 0);
            let d = crate::Strategy::sample(&doubled, &mut rng);
            prop_assert!(d % 2 == 0);
            helper_returning_result(xs[0])?;
        }
    }

    #[test]
    fn cases_are_deterministic_per_name() {
        let mut a = crate::TestRng::for_case("t", 3);
        let mut b = crate::TestRng::for_case("t", 3);
        let sa: Vec<u64> = (0..16)
            .map(|_| crate::Strategy::sample(&(0u64..1000), &mut a))
            .collect();
        let sb: Vec<u64> = (0..16)
            .map(|_| crate::Strategy::sample(&(0u64..1000), &mut b))
            .collect();
        assert_eq!(sa, sb);
    }

    #[test]
    #[should_panic(expected = "failed at case")]
    fn failing_property_panics_with_case_number() {
        crate::run_cases(&ProptestConfig::with_cases(4), "always_fails", |_rng| {
            Err(TestCaseError::fail("nope"))
        });
    }
}
