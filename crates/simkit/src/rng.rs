//! Deterministic random-number streams.
//!
//! Every stochastic component of the simulation (each daemon, each node's
//! clock drift, the workload's compute jitter, ...) draws from its **own**
//! ChaCha stream derived from a single master seed plus a stream label.
//! This gives two properties the experiments depend on:
//!
//! 1. **Reproducibility** — the same master seed reproduces the exact same
//!    cluster history, event for event.
//! 2. **Variance isolation** — toggling one component (say, enabling the
//!    co-scheduler) does not perturb the random draws of unrelated
//!    components, so A/B comparisons are paired, not merely sampled.

use crate::time::SimDur;
use rand::{RngExt, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Factory for per-component RNG streams derived from one master seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeedSpace {
    master: u64,
}

impl SeedSpace {
    /// Create a seed space from a master seed.
    pub fn new(master: u64) -> Self {
        SeedSpace { master }
    }

    /// The master seed.
    pub fn master(&self) -> u64 {
        self.master
    }

    /// Derive the stream for a labelled component. The label should be
    /// stable across runs (e.g. `("daemon", node, slot)` hashes).
    pub fn stream(&self, label: &str) -> SimRng {
        // FNV-1a over the label, folded with the master seed. Stable and
        // dependency-free; ChaCha then decorrelates similar labels.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in label.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        // splitmix64-style finalizer over (master, label-hash) so that
        // nearby seeds and labels land far apart in seed space.
        let mut z = self
            .master
            .wrapping_add(h.rotate_left(17))
            .wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        SimRng {
            inner: ChaCha8Rng::seed_from_u64(z),
        }
    }

    /// Derive the stream for a component identified by numeric coordinates,
    /// e.g. `("daemon", node=3, idx=7)`.
    pub fn stream_at(&self, kind: &str, a: u64, b: u64) -> SimRng {
        self.stream(&format!("{kind}/{a}/{b}"))
    }
}

/// The serializable position of one RNG stream: the ChaCha input block,
/// the current keystream block, and the next-unread-word index. Captured
/// at a checkpoint and loaded on restore so every stream resumes at the
/// exact draw it stopped at.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RngState {
    /// ChaCha input block (constants, key, counter, nonce), 16 words.
    pub state: Vec<u32>,
    /// Current keystream block, 16 words.
    pub buf: Vec<u32>,
    /// Next unread word of `buf` (16 = exhausted).
    pub idx: u64,
}

/// A deterministic RNG stream with simulation-flavoured helpers.
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: ChaCha8Rng,
}

impl SimRng {
    /// A standalone stream (prefer [`SeedSpace::stream`] in simulator code).
    pub fn from_seed(seed: u64) -> Self {
        SimRng {
            inner: ChaCha8Rng::seed_from_u64(seed),
        }
    }

    /// Capture this stream's exact position for a checkpoint.
    pub fn save_state(&self) -> RngState {
        let (state, buf, idx) = self.inner.dump_state();
        RngState {
            state: state.to_vec(),
            buf: buf.to_vec(),
            idx: idx as u64,
        }
    }

    /// Reposition this stream to a previously captured state. Errors if
    /// the word vectors do not have the expected length of 16.
    pub fn load_state(&mut self, s: &RngState) -> Result<(), String> {
        let state: [u32; 16] = s
            .state
            .as_slice()
            .try_into()
            .map_err(|_| format!("rng state has {} words, expected 16", s.state.len()))?;
        let buf: [u32; 16] = s
            .buf
            .as_slice()
            .try_into()
            .map_err(|_| format!("rng buf has {} words, expected 16", s.buf.len()))?;
        self.inner = ChaCha8Rng::from_state(state, buf, s.idx.min(16) as usize);
        Ok(())
    }

    /// Uniform f64 in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        self.inner.random::<f64>()
    }

    /// Uniform u64 in `[lo, hi)`. `lo == hi` returns `lo`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        if lo >= hi {
            lo
        } else {
            self.inner.random_range(lo..hi)
        }
    }

    /// Bernoulli trial with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p.clamp(0.0, 1.0)
    }

    /// Uniform duration in `[lo, hi)`.
    pub fn dur_range(&mut self, lo: SimDur, hi: SimDur) -> SimDur {
        SimDur::from_nanos(self.range(lo.nanos(), hi.nanos()))
    }

    /// Duration jittered multiplicatively: `base * U(1-frac, 1+frac)`.
    ///
    /// Used for compute-phase imbalance and daemon burst variation.
    pub fn jitter(&mut self, base: SimDur, frac: f64) -> SimDur {
        assert!(
            (0.0..=1.0).contains(&frac),
            "jitter fraction must be in [0,1]"
        );
        let k = 1.0 + frac * (2.0 * self.unit() - 1.0);
        base.mul_f64(k)
    }

    /// Exponentially distributed duration with the given mean
    /// (inter-arrival times of unsynchronized interference).
    pub fn exp_dur(&mut self, mean: SimDur) -> SimDur {
        // Inverse CDF; guard u=0 which would yield +inf.
        let u = self.unit().max(f64::MIN_POSITIVE);
        mean.mul_f64(-u.ln())
    }

    /// A standard normal variate (Box–Muller; one sample per call keeps the
    /// stream consumption deterministic and easy to reason about).
    pub fn std_normal(&mut self) -> f64 {
        let u1 = self.unit().max(f64::MIN_POSITIVE);
        let u2 = self.unit();
        (-2.0 * u1.ln()).sqrt() * (core::f64::consts::TAU * u2).cos()
    }

    /// Log-normally distributed duration with median `median` and shape
    /// `sigma` (heavy-tailed daemon bursts; sigma ≈ 0.3–0.8 is typical).
    pub fn lognormal_dur(&mut self, median: SimDur, sigma: f64) -> SimDur {
        let z = self.std_normal();
        median.mul_f64((sigma * z).exp())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let a = SeedSpace::new(42);
        let b = SeedSpace::new(42);
        let mut ra = a.stream("daemon/0/1");
        let mut rb = b.stream("daemon/0/1");
        for _ in 0..100 {
            assert_eq!(ra.range(0, 1 << 40), rb.range(0, 1 << 40));
        }
    }

    #[test]
    fn different_labels_decorrelate() {
        let s = SeedSpace::new(42);
        let mut ra = s.stream("daemon/0/1");
        let mut rb = s.stream("daemon/0/2");
        let same = (0..64)
            .filter(|_| ra.range(0, 1000) == rb.range(0, 1000))
            .count();
        assert!(same < 8, "streams look correlated: {same}/64 equal draws");
    }

    #[test]
    fn different_masters_decorrelate() {
        let mut ra = SeedSpace::new(1).stream("x");
        let mut rb = SeedSpace::new(2).stream("x");
        let same = (0..64)
            .filter(|_| ra.range(0, 1000) == rb.range(0, 1000))
            .count();
        assert!(same < 8);
    }

    #[test]
    fn range_degenerate() {
        let mut r = SimRng::from_seed(7);
        assert_eq!(r.range(5, 5), 5);
        assert_eq!(r.range(9, 3), 9);
        for _ in 0..100 {
            let v = r.range(10, 20);
            assert!((10..20).contains(&v));
        }
    }

    #[test]
    fn jitter_stays_in_band() {
        let mut r = SimRng::from_seed(1);
        let base = SimDur::from_micros(100);
        for _ in 0..1000 {
            let d = r.jitter(base, 0.2);
            assert!(d >= SimDur::from_micros(80) && d <= SimDur::from_micros(120));
        }
    }

    #[test]
    fn exp_dur_mean_is_close() {
        let mut r = SimRng::from_seed(3);
        let mean = SimDur::from_micros(500);
        let n = 20_000;
        let total: f64 = (0..n).map(|_| r.exp_dur(mean).as_micros_f64()).sum();
        let observed = total / n as f64;
        assert!(
            (observed - 500.0).abs() < 25.0,
            "mean {observed} too far from 500"
        );
    }

    #[test]
    fn lognormal_median_is_close() {
        let mut r = SimRng::from_seed(4);
        let median = SimDur::from_micros(200);
        let mut xs: Vec<f64> = (0..10_001)
            .map(|_| r.lognormal_dur(median, 0.5).as_micros_f64())
            .collect();
        xs.sort_by(f64::total_cmp);
        let med = xs[xs.len() / 2];
        assert!((med - 200.0).abs() < 20.0, "median {med} too far from 200");
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::from_seed(5);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(r.chance(2.0)); // clamped
    }

    #[test]
    fn save_load_resumes_exact_stream() {
        let mut r = SeedSpace::new(11).stream("ckpt/0/0");
        // Park the stream mid-block so idx != 0.
        for _ in 0..37 {
            r.range(0, 1 << 40);
        }
        let saved = r.save_state();
        let expect: Vec<u64> = (0..100).map(|_| r.range(0, 1 << 40)).collect();
        let mut fresh = SimRng::from_seed(0);
        fresh.load_state(&saved).unwrap();
        let got: Vec<u64> = (0..100).map(|_| fresh.range(0, 1 << 40)).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn load_rejects_malformed_state() {
        let mut r = SimRng::from_seed(1);
        let mut s = r.save_state();
        s.state.pop();
        assert!(r.load_state(&s).is_err());
    }
}
