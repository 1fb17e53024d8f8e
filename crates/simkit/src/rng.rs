//! Deterministic random-number streams.
//!
//! Every stochastic component of the simulation (each daemon, each node's
//! clock drift, the workload's compute jitter, ...) draws from its **own**
//! ChaCha8 stream derived from a single master seed plus a stream label.
//! This gives two properties the experiments depend on:
//!
//! 1. **Reproducibility** — the same master seed reproduces the exact same
//!    cluster history, event for event.
//! 2. **Variance isolation** — toggling one component (say, enabling the
//!    co-scheduler) does not perturb the random draws of unrelated
//!    components, so A/B comparisons are paired, not merely sampled.
//!
//! The generator is a ChaCha8 keystream implemented here, like the
//! crate's SHA-256 in [`crate::hash`]: every recorded number is a function
//! of its words, so the crate owns them. A 64-bit seed expands to the
//! 256-bit key with splitmix64; the block counter and nonce start at zero.
//! The streams are not bit-compatible with the `rand_chacha` crate, and
//! need not be: all results are defined relative to this generator, and
//! the known-answer test below pins it.

use crate::time::SimDur;
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
        SimRng::from_seed(z)
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

/// A deterministic ChaCha8 stream with simulation-flavoured helpers.
#[derive(Debug, Clone)]
pub struct SimRng {
    /// ChaCha input block: constants, 256-bit key, 64-bit block counter
    /// (words 12..14), 64-bit nonce.
    state: [u32; 16],
    /// Current keystream block.
    buf: [u32; 16],
    /// Next unread word of `buf` (16 = exhausted).
    idx: usize,
}

impl SimRng {
    /// A standalone stream (prefer [`SeedSpace::stream`] in simulator code).
    pub fn from_seed(seed: u64) -> Self {
        // Expand the 64-bit seed to a 256-bit key with splitmix64.
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        // "expand 32-byte k", then the key; counter and nonce start at zero.
        let mut state = [0u32; 16];
        state[..4].copy_from_slice(&[0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574]);
        for i in 0..4 {
            let k = next();
            state[4 + 2 * i] = k as u32;
            state[5 + 2 * i] = (k >> 32) as u32;
        }
        SimRng {
            state,
            buf: [0; 16],
            idx: 16,
        }
    }

    /// Capture this stream's exact position for a checkpoint.
    pub fn save_state(&self) -> RngState {
        RngState {
            state: self.state.to_vec(),
            buf: self.buf.to_vec(),
            idx: self.idx as u64,
        }
    }

    /// Reposition this stream to a previously captured state. Errors if
    /// the word vectors do not have the expected length of 16 or the
    /// index lies past the end of the block; the stream is unchanged then.
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
        if s.idx > 16 {
            return Err(format!("rng idx is {}, expected at most 16", s.idx));
        }
        *self = SimRng {
            state,
            buf,
            idx: s.idx as usize,
        };
        Ok(())
    }

    /// Compute the next keystream block: 8 rounds (4 double rounds) over
    /// the input block, then advance the block counter.
    fn refill(&mut self) {
        let mut x = self.state;
        for _ in 0..4 {
            quarter(&mut x, 0, 4, 8, 12);
            quarter(&mut x, 1, 5, 9, 13);
            quarter(&mut x, 2, 6, 10, 14);
            quarter(&mut x, 3, 7, 11, 15);
            quarter(&mut x, 0, 5, 10, 15);
            quarter(&mut x, 1, 6, 11, 12);
            quarter(&mut x, 2, 7, 8, 13);
            quarter(&mut x, 3, 4, 9, 14);
        }
        for (i, b) in self.buf.iter_mut().enumerate() {
            *b = x[i].wrapping_add(self.state[i]);
        }
        let ctr = (u64::from(self.state[13]) << 32 | u64::from(self.state[12])).wrapping_add(1);
        self.state[12] = ctr as u32;
        self.state[13] = (ctr >> 32) as u32;
        self.idx = 0;
    }

    fn next_u32(&mut self) -> u32 {
        if self.idx >= 16 {
            self.refill();
        }
        let w = self.buf[self.idx];
        self.idx += 1;
        w
    }

    /// Next 64 bits, high word first.
    fn next_u64(&mut self) -> u64 {
        let hi = u64::from(self.next_u32());
        hi << 32 | u64::from(self.next_u32())
    }

    /// Uniform f64 in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform u64 in `[lo, hi)`. `lo == hi` returns `lo`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        if lo >= hi {
            return lo;
        }
        let span = hi - lo;
        // Rejection sampling kills modulo bias.
        let zone = u64::MAX - (u64::MAX - span + 1) % span;
        loop {
            let x = self.next_u64();
            if x <= zone {
                return lo + x % span;
            }
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

#[inline]
fn quarter(x: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    x[a] = x[a].wrapping_add(x[b]);
    x[d] = (x[d] ^ x[a]).rotate_left(16);
    x[c] = x[c].wrapping_add(x[d]);
    x[b] = (x[b] ^ x[c]).rotate_left(12);
    x[a] = x[a].wrapping_add(x[b]);
    x[d] = (x[d] ^ x[a]).rotate_left(8);
    x[c] = x[c].wrapping_add(x[d]);
    x[b] = (x[b] ^ x[c]).rotate_left(7);
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

        let mut s = r.save_state();
        s.idx = 17;
        let err = r.load_state(&s).unwrap_err();
        assert!(err.contains("idx"), "{err}");
        // The rejected load left the stream where it was.
        let mut fresh = SimRng::from_seed(1);
        assert_eq!(r.range(0, 1 << 40), fresh.range(0, 1 << 40));
    }

    #[test]
    fn clone_preserves_stream() {
        let mut a = SimRng::from_seed(9);
        for _ in 0..37 {
            a.unit();
        }
        let mut b = a.clone();
        for _ in 0..50 {
            assert_eq!(a.range(0, u64::MAX), b.range(0, u64::MAX));
        }
    }

    /// Known answers: the first draws and a mid-block checkpoint of two
    /// streams. Any drift in the seed expansion, the rounds, the word
    /// order or the float construction changes every simulated history,
    /// and fails here first.
    #[test]
    fn known_answers() {
        fn draws(mut r: SimRng) -> (Vec<u64>, Vec<u64>) {
            let units = (0..8).map(|_| r.unit().to_bits()).collect();
            let ranges = (0..8).map(|_| r.range(0, 1 << 40)).collect();
            (units, ranges)
        }
        assert_eq!(
            draws(SeedSpace::new(42).stream("daemon/0/1")),
            (
                vec![
                    0x3fba_cc96_539f_8a78,
                    0x3fef_7b17_13df_c8d3,
                    0x3fb8_74a1_09ea_34b0,
                    0x3fe9_e9b2_e568_6642,
                    0x3fde_5e3c_753d_9bac,
                    0x3fe6_dd08_fa9a_caaa,
                    0x3fec_ef70_afd3_be1f,
                    0x3fe8_fea6_9db8_45ae,
                ],
                vec![
                    339_010_043_875,
                    634_325_461_233,
                    22_630_659_562,
                    488_125_364_128,
                    416_479_210_289,
                    1_065_776_524_022,
                    143_417_430_784,
                    163_383_350_616,
                ],
            )
        );
        assert_eq!(
            draws(SimRng::from_seed(7)),
            (
                vec![
                    0x3fd4_2094_8499_a1b4,
                    0x3fe3_b683_a838_c74b,
                    0x3fec_a959_5df0_3cef,
                    0x3fc2_28d8_8488_9594,
                    0x3fd3_f702_ff22_3020,
                    0x3fe8_24c8_5807_c2b5,
                    0x3fca_8fc2_bd53_a958,
                    0x3fdc_ab8e_acaf_6d44,
                ],
                vec![
                    5_510_539_017,
                    15_009_655_761,
                    782_287_950_458,
                    434_285_618_721,
                    462_373_295_948,
                    957_404_344_193,
                    573_241_390_718,
                    345_821_216_879,
                ],
            )
        );

        let mut r = SeedSpace::new(42).stream("daemon/0/1");
        for _ in 0..37 {
            r.range(0, 1 << 40);
        }
        assert_eq!(
            r.save_state(),
            RngState {
                state: vec![
                    0x6170_7865,
                    0x3320_646e,
                    0x7962_2d32,
                    0x6b20_6574,
                    0x38e9_fa93,
                    0xf0c1_a8ba,
                    0x4da3_d615,
                    0x6097_0a7e,
                    0xff4f_4a9e,
                    0xeff0_3971,
                    0x32b1_a8dd,
                    0xe1b9_0f16,
                    5,
                    0,
                    0,
                    0,
                ],
                buf: vec![
                    0x7734_055f,
                    0x6622_8b01,
                    0x0024_3bf1,
                    0x3419_32b4,
                    0x13c3_bd8b,
                    0x8b8f_c7ed,
                    0xee9c_691e,
                    0x38a9_8b70,
                    0xfd76_f91c,
                    0x41f9_81b0,
                    0xc7bb_41bd,
                    0xf614_91fd,
                    0x0396_75ba,
                    0x0aa1_bdd9,
                    0x8ec6_79f2,
                    0xa487_c6ee,
                ],
                idx: 10,
            }
        );
    }
}
