//! Offline stand-in for the subset of the `proptest` crate this
//! workspace uses. See `crates/shims/README.md`.
//!
//! Implements random generation from strategies (integer ranges, tuples,
//! [`Just`], [`collection::vec`], `prop_map`, `prop_flat_map`) and the
//! [`proptest!`] / `prop_assert*` macros. Failing cases are reported with
//! their inputs but are **not shrunk** — this shim trades minimal
//! counterexamples for zero dependencies.

#![forbid(unsafe_code)]

use std::fmt;
use std::ops::{Range, RangeInclusive};

/// Deterministic generator driving all strategies (SplitMix64).
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Creates a generator for one test case.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Returns the next 64 pseudo-random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Run-time configuration for a `proptest!` block.
#[derive(Debug, Clone, Copy)]
pub struct ProptestConfig {
    /// Number of random cases per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// A configuration running `cases` random cases per test.
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 64 }
    }
}

/// A failed test-case assertion, carrying its message.
#[derive(Debug)]
pub struct TestCaseError {
    message: String,
}

impl TestCaseError {
    /// Creates a failure with the given message.
    pub fn fail(message: impl Into<String>) -> Self {
        Self { message: message.into() }
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

/// A recipe for generating values of one type.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Transforms generated values with `f`.
    fn prop_map<T, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> T,
    {
        Map { inner: self, f }
    }

    /// Derives a dependent strategy from each generated value.
    fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S: Strategy,
        F: Fn(Self::Value) -> S,
    {
        FlatMap { inner: self, f }
    }
}

/// Strategy returned by [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, T, F: Fn(S::Value) -> T> Strategy for Map<S, F> {
    type Value = T;

    fn sample(&self, rng: &mut TestRng) -> T {
        (self.f)(self.inner.sample(rng))
    }
}

/// Strategy returned by [`Strategy::prop_flat_map`].
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
    type Value = S2::Value;

    fn sample(&self, rng: &mut TestRng) -> Self::Value {
        (self.f)(self.inner.sample(rng)).sample(rng)
    }
}

/// A strategy that always yields a clone of one value.
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn sample(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let width = (self.end - self.start) as u64;
                self.start + (rng.next_u64() % width) as $t
            }
        }

        impl Strategy for RangeInclusive<$t> {
            type Value = $t;

            fn sample(&self, rng: &mut TestRng) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "empty range strategy");
                let width = (end - start) as u64;
                if width == u64::MAX {
                    return rng.next_u64() as $t;
                }
                start + (rng.next_u64() % (width + 1)) as $t
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize);

// Floating-point ranges sample uniformly over the interval (the real
// proptest biases toward edge cases; a uniform draw is enough for the
// simulation parameters this workspace sweeps).
impl Strategy for Range<f64> {
    type Value = f64;

    fn sample(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        let unit = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        self.start + unit * (self.end - self.start)
    }
}

macro_rules! impl_tuple_strategy {
    ($(($($name:ident),+)),+ $(,)?) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);

            #[allow(non_snake_case)]
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.sample(rng),)+)
            }
        }
    )+};
}

impl_tuple_strategy!((A, B), (A, B, C), (A, B, C, D));

/// Collection strategies (`proptest::collection`).
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Number-of-elements specification for [`vec`](fn@vec): an exact count or a
    /// half-open range.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        min: usize,
        max_exclusive: usize,
    }

    impl From<usize> for SizeRange {
        fn from(exact: usize) -> Self {
            Self { min: exact, max_exclusive: exact + 1 }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            Self { min: r.start, max_exclusive: r.end }
        }
    }

    /// A strategy producing vectors whose elements come from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }

    /// Strategy returned by [`vec`](fn@vec).
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.max_exclusive - self.size.min) as u64;
            let len = self.size.min + (rng.next_u64() % span) as usize;
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// Everything a `proptest!` user needs in scope.
pub mod prelude {
    pub use crate::collection;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, proptest, Just, ProptestConfig, Strategy,
        TestCaseError, TestRng,
    };
}

/// Asserts a condition inside a `proptest!` body, failing the case (with
/// its inputs reported) rather than panicking directly.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::core::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// Equality version of [`prop_assert!`].
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            l == r,
            "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
            stringify!($left), stringify!($right), l, r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l == r, $($fmt)+);
    }};
}

/// Inequality version of [`prop_assert!`].
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            l != r,
            "assertion failed: {} != {}\n  both: {:?}",
            stringify!($left), stringify!($right), l
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l != r, $($fmt)+);
    }};
}

/// Declares property tests: each `fn name(arg in strategy, ...)` becomes
/// a `#[test]` running `cases` random cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@munch ($cfg) $($rest)*);
    };
    (@munch ($cfg:expr)
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            use $crate::Strategy as _;
            let config: $crate::ProptestConfig = $cfg;
            for case in 0..config.cases as u64 {
                let mut rng =
                    $crate::TestRng::new(0xB10C_5EED_u64.wrapping_add(case.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
                $(let $arg = ($strat).sample(&mut rng);)+
                let outcome = (|| -> ::core::result::Result<(), $crate::TestCaseError> {
                    $body
                    ::core::result::Result::Ok(())
                })();
                if let ::core::result::Result::Err(err) = outcome {
                    panic!(
                        "proptest case {}/{} failed: {}\ninputs: {:#?}",
                        case + 1,
                        config.cases,
                        err,
                        ($(&$arg,)+)
                    );
                }
            }
        }
        $crate::proptest!(@munch ($cfg) $($rest)*);
    };
    (@munch ($cfg:expr)) => {};
    ($($rest:tt)*) => {
        $crate::proptest!(@munch ($crate::ProptestConfig::default()) $($rest)*);
    };
}
