//! The `property!` / `prop_assert!` macro surface.
//!
//! Designed so a `proptest!` block migrates by local rewriting only:
//!
//! ```text
//! proptest! {                         property! {
//!     #![proptest_config(                 #![cases(12)]
//!         ProptestConfig::with_cases(12))]
//!     #[test]
//!     fn prop_x(a in 0u8..32,             fn prop_x(a in ints(0u8..32),
//!               b in any::<u32>()) {                b in any_u32()) {
//!         prop_assert!(a < 32);               prop_assert!(a < 32);
//!     }                                   }
//! }                                   }
//! ```
//!
//! (the `#[test]` attribute is added by the macro; strategy expressions
//! become the combinators in [`crate::gen`]).

/// Declares property tests. Each `fn` becomes a `#[test]` that runs the
/// body over generated inputs, shrinking and reporting a reproduction
/// seed on failure. An optional leading `#![cases(n)]` sets the case
/// count for every property in the block.
#[macro_export]
macro_rules! property {
    ( #![cases($cases:expr)] $($rest:tt)* ) => {
        $crate::__property_impl! { cases = $cases; $($rest)* }
    };
    ( $($rest:tt)* ) => {
        $crate::__property_impl! { cases = 0; $($rest)* }
    };
}

/// Implementation detail of [`property!`].
#[macro_export]
#[doc(hidden)]
macro_rules! __property_impl {
    ( cases = $cases:expr;
      $(
        $(#[$meta:meta])*
        fn $name:ident( $($arg:pat_param in $gen:expr),+ $(,)? ) $body:block
      )+
    ) => {
        $(
            $(#[$meta])*
            #[test]
            fn $name() {
                let __gen = ( $($gen,)+ );
                $crate::runner::run_property(
                    stringify!($name),
                    $crate::runner::Config::with_cases($cases),
                    &__gen,
                    |($($arg,)+)| -> $crate::runner::PropResult {
                        $body
                        Ok(())
                    },
                );
            }
        )+
    };
}

/// Asserts a condition inside a property body, failing the case (and
/// triggering shrinking) instead of panicking. With extra arguments,
/// formats them as the failure message.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::runner::Failed::new(format!(
                "assertion failed: {}", stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err($crate::runner::Failed::new(format!($($fmt)+)));
        }
    };
}

/// Asserts two expressions are equal (by `PartialEq`), reporting both
/// sides with `Debug` on failure.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return Err($crate::runner::Failed::new(format!(
                "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
                stringify!($left), stringify!($right), l, r
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return Err($crate::runner::Failed::new(format!(
                "{}\n  left: {:?}\n right: {:?}",
                format!($($fmt)+), l, r
            )));
        }
    }};
}

/// Asserts two expressions are unequal, reporting the common value with
/// `Debug` on failure.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if *l == *r {
            return Err($crate::runner::Failed::new(format!(
                "assertion failed: `{} != {}`\n  both: {:?}",
                stringify!($left), stringify!($right), l
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if *l == *r {
            return Err($crate::runner::Failed::new(format!(
                "{}\n  both: {:?}",
                format!($($fmt)+), l
            )));
        }
    }};
}
