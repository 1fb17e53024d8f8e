//! # pa-simkit — deterministic discrete-event simulation kit
//!
//! Foundation crate for the PACE reproduction of *"Improving the Scalability
//! of Parallel Jobs by adding Parallel Awareness to the Operating System"*
//! (Jones et al., SC'03).
//!
//! Provides the pieces every higher layer builds on:
//!
//! * [`SimTime`] / [`SimDur`] — nanosecond-resolution simulation time;
//! * [`EventQueue`] — a deterministic event calendar with keyed timers;
//! * [`SeedSpace`] / [`SimRng`] — per-component reproducible RNG streams;
//! * [`stats`] — Welford accumulators, summaries, percentiles, OLS fits;
//! * [`report`] — the aligned text table the figure harnesses print.
//!
//! The crate is intentionally free of any OS- or MPI-specific notions: it
//! knows nothing about CPUs, daemons, or collectives.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod events;
pub mod hash;
pub mod report;
pub mod rng;
pub mod stats;
pub mod time;

pub use events::{Entry, EventQueue, QueueStats};
pub use hash::{sha256_hex, Sha256};
pub use report::Table;
pub use rng::{RngState, SeedSpace, SimRng};
pub use stats::{linfit, LineFit, OnlineStats, Summary};
pub use time::{SimDur, SimTime};

/// Checks of the standalone generator behind every stream: `SimRng::from_seed`
/// seeds the ChaCha8 core directly, without `SeedSpace`'s label hashing.
#[cfg(test)]
mod tests {
    use super::SimRng;

    #[test]
    fn deterministic_per_seed() {
        let mut a = SimRng::from_seed(42);
        let mut b = SimRng::from_seed(42);
        // 100 draws cross several 16-word keystream blocks.
        for _ in 0..100 {
            assert_eq!(a.range(0, u64::MAX), b.range(0, u64::MAX));
            assert_eq!(a.unit().to_bits(), b.unit().to_bits());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::from_seed(1);
        let mut b = SimRng::from_seed(2);
        let same = (0..64)
            .filter(|_| a.range(0, u64::MAX) == b.range(0, u64::MAX))
            .count();
        assert_eq!(same, 0);
    }

    #[test]
    fn f64_in_unit_interval() {
        for seed in 0..8 {
            let mut r = SimRng::from_seed(seed);
            for _ in 0..1000 {
                let x = r.unit();
                assert!((0.0..1.0).contains(&x), "seed {seed}: unit() drew {x}");
            }
        }
    }

    #[test]
    fn range_respected() {
        let mut r = SimRng::from_seed(3);
        for _ in 0..1000 {
            let x = r.range(10, 20);
            assert!((10..20).contains(&x));
        }
        // A span that is not a power of two exercises the rejection zone.
        let (lo, hi) = (1 << 40, 3 << 61);
        for _ in 0..1000 {
            let x = r.range(lo, hi);
            assert!((lo..hi).contains(&x));
        }
    }

    #[test]
    fn unit_floats_look_uniform() {
        let mut r = SimRng::from_seed(7);
        let n = 100_000;
        let mean = (0..n).map(|_| r.unit()).sum::<f64>() / f64::from(n);
        assert!((mean - 0.5).abs() < 0.01, "mean {mean} far from 0.5");
    }
}
