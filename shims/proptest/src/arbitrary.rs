//! `any::<T>()` support for types with a canonical full-domain strategy.

use crate::strategy::Strategy;
use crate::test_runner::TestRng;
use std::marker::PhantomData;

/// Types with a default whole-domain strategy.
pub trait Arbitrary: Sized {
    /// Draw a value from the full domain.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

/// Strategy over `T`'s full domain.
pub struct Any<T>(PhantomData<T>);

/// The canonical strategy for `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for usize {
    fn arbitrary(rng: &mut TestRng) -> usize {
        rng.next_u64() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn any_bool_yields_both_values() {
        let mut rng = TestRng::from_label("bools");
        let s = any::<bool>();
        let mut seen = [false, false];
        for _ in 0..64 {
            seen[usize::from(s.generate(&mut rng))] = true;
        }
        assert!(seen[0] && seen[1]);
    }
}
