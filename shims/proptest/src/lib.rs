//! Offline shim for the `proptest` crate.
//!
//! The build container has no registry access, so the workspace replaces
//! `proptest` with this local, API-compatible subset (see
//! `shims/README.md`). It supports the forms the flat-tree property tests
//! use:
//!
//! * `proptest! { #![proptest_config(...)] #[test] fn f(x in strategy) {..} }`
//! * strategies: integer/float ranges, tuples, `Just`, `any::<T>()`,
//!   `proptest::collection::vec`, `.prop_map`, `.prop_flat_map`
//! * `prop_assert!`, `prop_assert_eq!`, `prop_assume!`
//!
//! Unlike real proptest there is **no shrinking** and **no persistence**
//! (`proptest-regressions` files are ignored); failures report the case
//! number and the deterministic per-test seed instead.

pub mod strategy;
pub mod test_runner;

pub mod collection {
    use crate::strategy::{Strategy, TestRng};

    /// Size specification for [`vec()`]: an exact length or a range.
    pub struct SizeRange {
        lo: usize,
        hi: usize, // exclusive
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    impl From<core::ops::Range<usize>> for SizeRange {
        fn from(r: core::ops::Range<usize>) -> Self {
            SizeRange {
                lo: r.start,
                hi: r.end.max(r.start + 1),
            }
        }
    }

    impl From<core::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: core::ops::RangeInclusive<usize>) -> Self {
            SizeRange {
                lo: *r.start(),
                hi: r.end() + 1,
            }
        }
    }

    /// `proptest::collection::vec`: a vector of values from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            let n = rng.below(self.size.lo as u64, self.size.hi as u64) as usize;
            (0..n).map(|_| self.element.sample(rng)).collect()
        }
    }
}

pub mod prelude {
    pub use crate::strategy::{any, Arbitrary, Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};
}

/// Property-test entry macro: expands each `fn name(pat in strategy, ..)`
/// into a `#[test]` that samples `cases` inputs deterministically.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! { ($crate::test_runner::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    ( ($cfg:expr) ) => {};
    ( ($cfg:expr)
      $(#[$meta:meta])*
      fn $name:ident ( $($pat:pat in $strat:expr),+ $(,)? ) $body:block
      $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __cfg = $cfg;
            let __seed = $crate::test_runner::fnv1a(stringify!($name).as_bytes());
            let mut __rng = $crate::strategy::TestRng::new(__seed);
            let mut __passed: u32 = 0;
            let mut __attempts: u32 = 0;
            let __max_attempts = __cfg.cases.saturating_mul(20).max(1000);
            while __passed < __cfg.cases {
                __attempts += 1;
                if __attempts > __max_attempts {
                    panic!(
                        "proptest shim: {} rejected too many cases ({} attempts for {} passes)",
                        stringify!($name), __attempts, __passed
                    );
                }
                $(let $pat = $crate::strategy::Strategy::sample(&($strat), &mut __rng);)+
                let __outcome: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                    (move || {
                        { $body }
                        ::std::result::Result::Ok(())
                    })();
                match __outcome {
                    ::std::result::Result::Ok(()) => __passed += 1,
                    ::std::result::Result::Err($crate::test_runner::TestCaseError::Reject(_)) => {}
                    ::std::result::Result::Err($crate::test_runner::TestCaseError::Fail(msg)) => {
                        panic!(
                            "proptest shim: {} failed at case {} (seed {:#x}): {}",
                            stringify!($name), __passed + 1, __seed, msg
                        );
                    }
                }
            }
        }
        $crate::__proptest_fns! { ($cfg) $($rest)* }
    };
}

/// `prop_assert!(cond)` / `prop_assert!(cond, "fmt", ..)`.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Fail(
                format!("assertion failed: {}", stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Fail(
                format!($($fmt)+),
            ));
        }
    };
}

/// `prop_assert_eq!(a, b)` / with trailing format message.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (__a, __b) = (&$a, &$b);
        if !(__a == __b) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Fail(
                format!("assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
                        stringify!($a), stringify!($b), __a, __b),
            ));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (__a, __b) = (&$a, &$b);
        if !(__a == __b) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Fail(
                format!($($fmt)+),
            ));
        }
    }};
}

/// `prop_assert_ne!(a, b)`.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => {{
        let (__a, __b) = (&$a, &$b);
        if __a == __b {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Fail(format!(
                "assertion failed: {} != {}\n  both: {:?}",
                stringify!($a),
                stringify!($b),
                __a
            )));
        }
    }};
}

/// `prop_assume!(cond)`: silently discard the case when `cond` is false.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Reject(
                stringify!($cond),
            ));
        }
    };
}
