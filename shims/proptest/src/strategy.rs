//! Value-generation strategies: integer/float ranges, tuples and
//! combinators.

use crate::test_runner::TestRng;
use std::ops::{Range, RangeInclusive};

/// Something that can produce random values of `Self::Value`.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Draw one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Map values through `f`, resampling whenever it returns `None`.
    /// `reason` labels the filter in the panic raised if the strategy
    /// rejects essentially everything.
    fn prop_filter_map<O, F>(self, reason: &'static str, f: F) -> FilterMap<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> Option<O>,
    {
        FilterMap {
            inner: self,
            reason,
            f,
        }
    }

    /// Map values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }
}

/// See [`Strategy::prop_filter_map`].
pub struct FilterMap<S, F> {
    inner: S,
    reason: &'static str,
    f: F,
}

impl<S, O, F> Strategy for FilterMap<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> Option<O>,
{
    type Value = O;

    fn generate(&self, rng: &mut TestRng) -> O {
        for _ in 0..10_000 {
            if let Some(v) = (self.f)(self.inner.generate(rng)) {
                return v;
            }
        }
        panic!(
            "prop_filter_map rejected 10000 consecutive inputs: {}",
            self.reason
        );
    }
}

/// See [`Strategy::prop_map`].
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

    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

macro_rules! uint_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                // Bias ~1/8 of draws to the boundaries; properties fail
                // there far more often than in the bulk.
                match rng.below(16) {
                    0 => self.start,
                    1 => self.end - 1,
                    _ => self.start + rng.below((self.end - self.start) as u64) as $t,
                }
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                match rng.below(16) {
                    0 => lo,
                    1 => hi,
                    _ => {
                        let span = (hi - lo) as u64;
                        if span == u64::MAX {
                            rng.next_u64() as $t
                        } else {
                            lo + rng.below(span + 1) as $t
                        }
                    }
                }
            }
        }
    )*};
}

uint_range_strategy!(u8, u32, u64, usize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        let v = self.start + rng.unit_f64() * (self.end - self.start);
        // Rounding can land exactly on `end`; stay half-open.
        if v >= self.end {
            self.start
        } else {
            v
        }
    }
}

macro_rules! tuple_strategy {
    ($(($($name:ident . $idx:tt),+))+) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )+};
}

tuple_strategy! {
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
    (A.0, B.1, C.2, D.3, E.4)
    (A.0, B.1, C.2, D.3, E.4, F.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn float_range_stays_half_open() {
        let mut rng = TestRng::from_label("float");
        let s = -1.0f64..1.0;
        for _ in 0..1000 {
            let v = s.generate(&mut rng);
            assert!((-1.0..1.0).contains(&v));
        }
    }

    #[test]
    fn boundary_bias_hits_both_ends() {
        let mut rng = TestRng::from_label("bounds");
        let s = 5u32..8;
        let mut seen = std::collections::HashSet::new();
        for _ in 0..500 {
            seen.insert(s.generate(&mut rng));
        }
        assert_eq!(seen, [5u32, 6, 7].into_iter().collect());
    }
}
