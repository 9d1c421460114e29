//! Minimal, dependency-free stand-in for the `proptest` crate.
//!
//! The build environment for this repository is fully offline, so the real
//! `proptest` cannot be fetched from crates.io. This shim implements the
//! subset of the API the workspace's property tests use:
//!
//! * the [`Strategy`](strategy::Strategy) trait with `prop_map`, `prop_flat_map`,
//!   `prop_recursive`, and `boxed`;
//! * strategies for integer ranges, tuples, booleans, [`Just`](strategy::Just),
//!   [`collection::vec`], simple `"[class]{m,n}"` regex string literals,
//!   and [`any`](strategy::any) for the primitive types;
//! * the [`proptest!`], [`prop_assert!`], [`prop_assert_eq!`],
//!   [`prop_assert_ne!`], [`prop_assume!`], and [`prop_oneof!`] macros;
//! * [`test_runner::ProptestConfig`] with `with_cases`.
//!
//! Semantics differ from real proptest in one deliberate way: failing
//! cases are **not shrunk** — the panic message reports the failing
//! assertion directly. Case generation is seeded deterministically (with a
//! `PROPTEST_SEED` env override) so failures reproduce across runs, and a
//! failing case prints the `PROPTEST_SEED` value that replays it as case
//! 0 of the next run.

pub mod strategy;

pub mod collection;

pub mod test_runner;

/// Re-exports mirroring `proptest::prelude::*`.
pub mod prelude {
    pub use crate::strategy::{any, BoxedStrategy, Just, Strategy, Union};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };
}

/// Runs every `#[test]` function in the block against `cases` random
/// inputs drawn from the `in` strategies.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_cases! { $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_cases! { $crate::test_runner::ProptestConfig::default(); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_cases {
    ($cfg:expr; $( $(#[$attr:meta])* fn $name:ident( $($pat:pat in $strat:expr),* $(,)? ) $body:block )*) => {
        $(
            $(#[$attr])*
            fn $name() {
                let __config: $crate::test_runner::ProptestConfig = $cfg;
                let mut __rng = $crate::test_runner::TestRng::for_test(stringify!($name));
                let mut __case = |__rng: &mut $crate::test_runner::TestRng| {
                    $(let $pat = $crate::strategy::Strategy::generate(&($strat), __rng);)*
                    $body
                };
                for __i in 0..__config.cases {
                    // capture the stream position so a failing case can be
                    // replayed alone: seeding PROPTEST_SEED with the
                    // reported value makes it case 0 of the next run
                    let __state = __rng.state();
                    let __result = ::std::panic::catch_unwind(
                        ::std::panic::AssertUnwindSafe(|| __case(&mut __rng)),
                    );
                    if let Err(__panic) = __result {
                        eprintln!(
                            "proptest shim: property '{}' failed at case {}/{}; \
                             replay just this case with PROPTEST_SEED={}",
                            stringify!($name),
                            __i,
                            __config.cases,
                            $crate::test_runner::TestRng::seed_for_replay(
                                stringify!($name),
                                __state,
                            ),
                        );
                        ::std::panic::resume_unwind(__panic);
                    }
                }
            }
        )*
    };
}

/// Asserts a condition inside a property test (panics on failure; no
/// shrinking in this shim).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)*) => { assert!($cond, $($fmt)*) };
}

/// Asserts equality inside a property test.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => { assert_eq!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)*) => { assert_eq!($a, $b, $($fmt)*) };
}

/// Asserts inequality inside a property test.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => { assert_ne!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)*) => { assert_ne!($a, $b, $($fmt)*) };
}

/// Skips the current case when its inputs don't satisfy a precondition.
/// (Real proptest replaces the case; this shim simply moves on, so heavy
/// `prop_assume!` filtering reduces the effective case count.)
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return;
        }
    };
}

/// A strategy choosing uniformly among the listed strategies (all must
/// produce the same value type).
#[macro_export]
macro_rules! prop_oneof {
    ($($s:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($s)),+
        ])
    };
}
