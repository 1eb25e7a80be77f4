//! Generator combinators.
//!
//! A [`Gen`] turns a [`Source`] choice stream into a value. Combinators
//! compose by drawing in a fixed order, so a recorded choice list replays
//! to the same value and an edited one replays to a *smaller* value (see
//! `source.rs`). The surface mirrors proptest's strategies closely enough
//! that migrating a `proptest!` block is a local rewrite:
//!
//! | proptest | check |
//! |---|---|
//! | `any::<u8>()` | `any_u8()` |
//! | `0u8..32` | `ints(0u8..32)` |
//! | `any::<[u8; 6]>()` | `byte_array::<6>()` |
//! | `proptest::collection::vec(g, 0..20)` | `vec_of(g, 0..20)` |
//! | `"[a-z0-9]{1,20}"` | `string_of(ALNUM_LOWER, 1..21)` |
//! | `prop_oneof![a, b]` | `one_of![a, b]` |
//! | `Just(v)` | `just(v)` |
//! | `.prop_map(f)` | `.map(f)` |
//! | `.prop_filter(m, f)` | `.filter(f)` |

use std::marker::PhantomData;
use std::ops::{Range, RangeInclusive};

use crate::source::Source;

/// Something that can generate values from a choice stream.
pub trait Gen {
    /// The generated type.
    type Value;
    /// Produces one value, consuming draws from `src`.
    fn generate(&self, src: &mut Source) -> Self::Value;
}

/// A generator built from a closure over the source.
pub struct FnGen<T, F: Fn(&mut Source) -> T> {
    f: F,
    _marker: PhantomData<fn() -> T>,
}

impl<T, F: Fn(&mut Source) -> T> Gen for FnGen<T, F> {
    type Value = T;
    fn generate(&self, src: &mut Source) -> T {
        (self.f)(src)
    }
}

/// Wraps a closure as a generator.
pub fn from_fn<T, F: Fn(&mut Source) -> T>(f: F) -> FnGen<T, F> {
    FnGen {
        f,
        _marker: PhantomData,
    }
}

/// Ranges that can be sampled uniformly; implemented for `Range` and
/// `RangeInclusive` over the primitive integer types.
pub trait UniformRange {
    /// The integer type produced.
    type Value;
    /// Draws one value in the range.
    fn sample(&self, src: &mut Source) -> Self::Value;
}

macro_rules! impl_uniform_unsigned {
    ($($t:ty),*) => {$(
        impl UniformRange for Range<$t> {
            type Value = $t;
            fn sample(&self, src: &mut Source) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end as u64) - (self.start as u64);
                self.start + src.draw(span) as $t
            }
        }
        impl UniformRange for RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, src: &mut Source) -> $t {
                let (lo, hi) = (*self.start() as u64, *self.end() as u64);
                assert!(lo <= hi, "empty range");
                if lo == 0 && hi == u64::MAX {
                    return src.draw_u64() as $t;
                }
                (lo + src.draw(hi - lo + 1)) as $t
            }
        }
    )*};
}
impl_uniform_unsigned!(u8, u16, u32, usize);

impl UniformRange for Range<u64> {
    type Value = u64;
    fn sample(&self, src: &mut Source) -> u64 {
        assert!(self.start < self.end, "empty range");
        self.start + src.draw(self.end - self.start)
    }
}
impl UniformRange for RangeInclusive<u64> {
    type Value = u64;
    fn sample(&self, src: &mut Source) -> u64 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "empty range");
        if lo == 0 && hi == u64::MAX {
            return src.draw_u64();
        }
        lo + src.draw(hi - lo + 1)
    }
}

macro_rules! impl_uniform_signed {
    ($($t:ty => $u:ty),*) => {$(
        impl UniformRange for Range<$t> {
            type Value = $t;
            fn sample(&self, src: &mut Source) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end as $u).wrapping_sub(self.start as $u) as u64;
                self.start.wrapping_add(src.draw(span) as $t)
            }
        }
    )*};
}
impl_uniform_signed!(i32 => u32, i64 => u64);

/// Uniform integer in a range: `ints(0u8..32)`, `ints(1u64..=20)`.
/// Shrinks toward the low end.
pub fn ints<R: UniformRange>(range: R) -> impl Gen<Value = R::Value> {
    from_fn(move |src| range.sample(src))
}

/// Any `u8`, uniformly. Shrinks toward 0.
pub fn any_u8() -> impl Gen<Value = u8> {
    ints(0u8..=u8::MAX)
}

/// Any `u32`, uniformly. Shrinks toward 0.
pub fn any_u32() -> impl Gen<Value = u32> {
    ints(0u32..=u32::MAX)
}

/// Any `u64`, uniformly. Shrinks toward 0.
pub fn any_u64() -> impl Gen<Value = u64> {
    ints(0u64..=u64::MAX)
}

/// Either boolean. Shrinks toward `false`.
pub fn any_bool() -> impl Gen<Value = bool> {
    from_fn(|src| src.draw(2) == 1)
}

/// A `Vec` of values from `elem`, with length drawn from `len`. Shrinks
/// toward shorter vectors of smaller elements.
pub fn vec_of<G: Gen>(elem: G, len: Range<usize>) -> impl Gen<Value = Vec<G::Value>> {
    from_fn(move |src| {
        let n = len.sample(src);
        (0..n).map(|_| elem.generate(src)).collect()
    })
}

/// A byte vector with length drawn from `len`.
pub fn bytes(len: Range<usize>) -> impl Gen<Value = Vec<u8>> {
    vec_of(any_u8(), len)
}

/// Lowercase letters and digits — the `[a-z0-9]` character class.
pub const ALNUM_LOWER: &str = "abcdefghijklmnopqrstuvwxyz0123456789";
/// Letters, digits, and the filename punctuation `._-` — `[a-zA-Z0-9._-]`.
pub const FILENAME: &str =
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-";
/// [`FILENAME`] plus `/` — URL-path characters, `[a-zA-Z0-9/_.-]`.
pub const URL_PATH: &str =
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-/";

/// A string of characters drawn from `charset` (the replacement for
/// proptest's regex strategies: `"[a-z0-9]{1,20}"` becomes
/// `string_of(ALNUM_LOWER, 1..21)`). Shrinks toward shorter strings of the
/// charset's first character.
pub fn string_of(charset: &'static str, len: Range<usize>) -> impl Gen<Value = String> {
    let chars: Vec<char> = charset.chars().collect();
    assert!(!chars.is_empty(), "empty charset");
    from_fn(move |src| {
        let n = len.sample(src);
        (0..n)
            .map(|_| chars[src.draw(chars.len() as u64) as usize])
            .collect()
    })
}

/// Always the same value (proptest's `Just`).
pub fn just<T: Clone>(value: T) -> impl Gen<Value = T> {
    from_fn(move |_| value.clone())
}

/// A boxed generator, for heterogeneous collections ([`one_of`]).
pub type BoxGen<T> = Box<dyn Gen<Value = T>>;

/// Boxes a generator.
pub fn boxed<G: Gen + 'static>(g: G) -> BoxGen<G::Value> {
    Box::new(g)
}

impl<T> Gen for BoxGen<T> {
    type Value = T;
    fn generate(&self, src: &mut Source) -> T {
        (**self).generate(src)
    }
}

/// Picks one of several same-typed generators uniformly (proptest's
/// `prop_oneof!`). Prefer the [`one_of!`](crate::one_of) macro, which boxes
/// the arms for you. Shrinks toward the first arm.
pub fn one_of<T>(arms: Vec<BoxGen<T>>) -> impl Gen<Value = T> {
    assert!(!arms.is_empty(), "one_of needs at least one arm");
    from_fn(move |src| arms[src.draw(arms.len() as u64) as usize].generate(src))
}

/// Picks one of several same-typed generator expressions uniformly:
/// `one_of![ints(0u8..32).map(Op::Read), just(Op::Flush)]`.
#[macro_export]
macro_rules! one_of {
    ($($arm:expr),+ $(,)?) => {
        $crate::gen::one_of(vec![$($crate::gen::boxed($arm)),+])
    };
}

/// The result of mapping a generator through a function.
pub struct Map<G, F> {
    inner: G,
    f: F,
}

impl<G: Gen, T, F: Fn(G::Value) -> T> Gen for Map<G, F> {
    type Value = T;
    fn generate(&self, src: &mut Source) -> T {
        (self.f)(self.inner.generate(src))
    }
}

/// A generator whose output is restricted by a predicate; draws again on
/// rejection (see [`GenExt::filter`]).
pub struct Filter<G, P> {
    inner: G,
    pred: P,
}

/// How many fresh draws a [`Filter`] attempts before rejecting the case.
const FILTER_RETRIES: usize = 64;

impl<G: Gen, P: Fn(&G::Value) -> bool> Gen for Filter<G, P> {
    type Value = G::Value;
    fn generate(&self, src: &mut Source) -> G::Value {
        for _ in 0..FILTER_RETRIES {
            let v = self.inner.generate(src);
            if (self.pred)(&v) {
                return v;
            }
        }
        crate::runner::reject_case()
    }
}

/// Combinator methods on every generator.
pub trait GenExt: Gen + Sized {
    /// Transforms generated values (proptest's `prop_map`).
    fn map<T, F: Fn(Self::Value) -> T>(self, f: F) -> Map<Self, F> {
        Map { inner: self, f }
    }

    /// Discards values failing `pred`, retrying with fresh draws; a case
    /// that cannot satisfy the predicate is skipped, not failed
    /// (proptest's `prop_filter`).
    fn filter<P: Fn(&Self::Value) -> bool>(self, pred: P) -> Filter<Self, P> {
        Filter { inner: self, pred }
    }
}

impl<G: Gen + Sized> GenExt for G {}

macro_rules! impl_gen_tuple {
    ($($g:ident . $idx:tt),+) => {
        impl<$($g: Gen),+> Gen for ($($g,)+) {
            type Value = ($($g::Value,)+);
            fn generate(&self, src: &mut Source) -> Self::Value {
                ($(self.$idx.generate(src),)+)
            }
        }
    };
}
impl_gen_tuple!(A.0);
impl_gen_tuple!(A.0, B.1);
impl_gen_tuple!(A.0, B.1, C.2);
impl_gen_tuple!(A.0, B.1, C.2, D.3);
impl_gen_tuple!(A.0, B.1, C.2, D.3, E.4);
impl_gen_tuple!(A.0, B.1, C.2, D.3, E.4, F.5);
impl_gen_tuple!(A.0, B.1, C.2, D.3, E.4, F.5, G.6);
impl_gen_tuple!(A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7);

#[cfg(test)]
mod tests {
    use super::*;

    fn gen_with<G: Gen>(g: &G, seed: u64) -> G::Value {
        g.generate(&mut Source::from_seed(seed))
    }

    #[test]
    fn ints_respect_bounds() {
        let g = ints(5u8..10);
        for seed in 0..200 {
            let v = gen_with(&g, seed);
            assert!((5..10).contains(&v));
        }
    }

    #[test]
    fn inclusive_full_range_hits_extremes_without_panic() {
        let g = ints(0u64..=u64::MAX);
        for seed in 0..50 {
            gen_with(&g, seed);
        }
    }

    #[test]
    fn minimal_choices_give_minimal_values() {
        let mut src = Source::from_choices(vec![]);
        assert_eq!(ints(7u32..100).generate(&mut src), 7);
        assert!(!any_bool().generate(&mut src));
        assert_eq!(vec_of(any_u8(), 0..10).generate(&mut src), Vec::<u8>::new());
        assert_eq!(string_of(ALNUM_LOWER, 1..5).generate(&mut src), "a");
    }

    #[test]
    fn vec_lengths_in_range() {
        let g = vec_of(any_u8(), 2..6);
        for seed in 0..100 {
            let v = gen_with(&g, seed);
            assert!((2..6).contains(&v.len()));
        }
    }

    #[test]
    fn string_uses_charset() {
        let g = string_of(ALNUM_LOWER, 1..21);
        for seed in 0..100 {
            let s = gen_with(&g, seed);
            assert!(!s.is_empty() && s.len() <= 20);
            assert!(s.chars().all(|c| ALNUM_LOWER.contains(c)));
        }
    }

    #[test]
    fn map_and_tuples_compose() {
        let g = (ints(0u8..4), any_bool()).map(|(a, b)| (u16::from(a) + 1, !b));
        let (a, _) = gen_with(&g, 9);
        assert!((1..=4).contains(&a));
    }

    #[test]
    fn one_of_covers_all_arms() {
        let g = one_of![just(1u8), just(2u8), just(3u8)];
        let mut seen = std::collections::HashSet::new();
        for seed in 0..100 {
            seen.insert(gen_with(&g, seed));
        }
        assert_eq!(seen.len(), 3);
    }

    #[test]
    fn replay_reproduces_composed_values() {
        let g = vec_of((ints(0u64..16), any_bool(), ints(0u8..3)), 0..200);
        let mut rec = Source::from_seed(77);
        let a = g.generate(&mut rec);
        let mut rep = Source::from_choices(rec.into_choices());
        let b = g.generate(&mut rep);
        assert_eq!(a, b);
    }
}
