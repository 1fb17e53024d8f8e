//! Offline stand-in for `proptest`: generates random cases from the same
//! strategy expressions (`1u32..260`, `prop::collection::vec`, tuples,
//! `prop_map`, `prop_filter_map`) and runs each property over
//! a deterministic per-test seed. No shrinking — a failing case reports
//! its case index and the runner seed instead of a minimized input.

pub mod arbitrary;
pub mod collection;
pub mod strategy;
pub mod test_runner;

/// What `use proptest::prelude::*` is expected to bring into scope.
pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::strategy::Strategy;
    pub use crate::test_runner::TestCaseError;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};

    /// Namespace mirror so `prop::collection::vec(..)` resolves.
    pub mod prop {
        pub use crate::collection;
    }
}

/// Define `#[test]` functions whose arguments are drawn from strategies.
#[macro_export]
macro_rules! proptest {
    ($($(#[$meta:meta])* fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block)+) => {
        $(
            $(#[$meta])*
            fn $name() {
                $crate::test_runner::run(stringify!($name), |__pt_rng| {
                    $(let $arg = $crate::strategy::Strategy::generate(&($strat), __pt_rng);)+
                    #[allow(unreachable_code, clippy::diverging_sub_expression)]
                    let __pt_out: ::std::result::Result<(), $crate::test_runner::TestCaseError> = {
                        $body
                        ::std::result::Result::Ok(())
                    };
                    __pt_out
                });
            }
        )+
    };
}

/// `prop_assert!(cond)` / `prop_assert!(cond, "fmt", args..)`: fail the
/// current case without panicking mid-generation.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                ::std::format!("assertion failed: {}", stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                ::std::format!($($fmt)+),
            ));
        }
    };
}

/// Equality assertion with value context in the failure message.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
            stringify!($left),
            stringify!($right),
            l,
            r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l == *r, $($fmt)+);
    }};
}

/// Inequality assertion with value context in the failure message.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l != *r,
            "assertion failed: {} != {} (both {:?})",
            stringify!($left),
            stringify!($right),
            l
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l != *r, $($fmt)+);
    }};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn ranges_respect_bounds(x in 3u32..10, y in 0u64..=5, z in -2.0f64..2.0) {
            prop_assert!((3..10).contains(&x));
            prop_assert!(y <= 5);
            prop_assert!((-2.0..2.0).contains(&z));
        }

        #[test]
        fn vec_and_any(v in prop::collection::vec(any::<bool>(), 1..20)) {
            prop_assert!(!v.is_empty() && v.len() < 20);
        }

        #[test]
        fn filter_map_applies(n in (1u32..100).prop_filter_map("even only", |n| {
            if n % 2 == 0 { Some(n) } else { None }
        })) {
            prop_assert_eq!(n % 2, 0);
            prop_assert_ne!(n, 1);
        }
    }
}
