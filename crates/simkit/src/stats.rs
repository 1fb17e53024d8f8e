//! Statistics used by the experiment harnesses.
//!
//! The paper's evaluation reduces to a handful of statistical views:
//! per-point means with variability (Figures 3 and 5), a sorted-sample
//! distribution with an outlier tail (Figure 4), and ordinary-least-squares
//! line fits (Figure 6's `y = 0.70x + 166` vs `y = 0.22x + 210`). This
//! module implements exactly those, deterministically.

use serde::{Deserialize, Serialize};

/// Streaming mean/variance accumulator (Welford's algorithm).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// An empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Fold in one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }
    /// Sample mean (0 for an empty accumulator).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }
    /// Population variance.
    pub fn variance(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }
    /// Population standard deviation.
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }
    /// Minimum observation (NaN-free input assumed); +inf when empty.
    pub fn min(&self) -> f64 {
        self.min
    }
    /// Maximum observation; -inf when empty.
    pub fn max(&self) -> f64 {
        self.max
    }
}

/// Batch summary of a sample: moments plus order statistics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Number of observations.
    pub count: usize,
    /// Sample mean.
    pub mean: f64,
    /// Population standard deviation.
    pub stddev: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
    /// 50th percentile.
    pub median: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
}

impl Summary {
    /// Summarize a sample. Empty input yields an all-zero summary.
    pub fn of(samples: &[f64]) -> Summary {
        if samples.is_empty() {
            return Summary {
                count: 0,
                mean: 0.0,
                stddev: 0.0,
                min: 0.0,
                max: 0.0,
                median: 0.0,
                p90: 0.0,
                p99: 0.0,
            };
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let mut acc = OnlineStats::new();
        for &x in samples {
            acc.push(x);
        }
        Summary {
            count: samples.len(),
            mean: acc.mean(),
            stddev: acc.stddev(),
            min: sorted[0],
            max: *sorted.last().expect("non-empty"),
            median: percentile_sorted(&sorted, 50.0),
            p90: percentile_sorted(&sorted, 90.0),
            p99: percentile_sorted(&sorted, 99.0),
        }
    }
}

/// Percentile (0–100) of an already sorted sample using linear
/// interpolation between closest ranks.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of empty sample");
    assert!((0.0..=100.0).contains(&p), "percentile out of range: {p}");
    if sorted.len() == 1 {
        return sorted[0];
    }
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// Result of an ordinary-least-squares line fit `y ≈ slope·x + intercept`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LineFit {
    /// Fitted slope.
    pub slope: f64,
    /// Fitted intercept.
    pub intercept: f64,
    /// Coefficient of determination (1 = perfect fit).
    pub r2: f64,
}

impl LineFit {
    /// Evaluate the fitted line at `x`.
    pub fn at(&self, x: f64) -> f64 {
        self.slope * x + self.intercept
    }
}

/// Ordinary least squares over `(x, y)` pairs.
///
/// # Panics
/// Panics on fewer than two points or zero x-variance — a line fit is
/// meaningless there and the figure harnesses must not silently produce one.
pub fn linfit(points: &[(f64, f64)]) -> LineFit {
    assert!(points.len() >= 2, "line fit needs at least two points");
    let n = points.len() as f64;
    let sx: f64 = points.iter().map(|p| p.0).sum();
    let sy: f64 = points.iter().map(|p| p.1).sum();
    let mx = sx / n;
    let my = sy / n;
    let sxx: f64 = points.iter().map(|p| (p.0 - mx) * (p.0 - mx)).sum();
    let sxy: f64 = points.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    assert!(sxx > 0.0, "line fit needs x variance");
    let slope = sxy / sxx;
    let intercept = my - slope * mx;
    let ss_tot: f64 = points.iter().map(|p| (p.1 - my) * (p.1 - my)).sum();
    let ss_res: f64 = points
        .iter()
        .map(|p| {
            let e = p.1 - (slope * p.0 + intercept);
            e * e
        })
        .sum();
    let r2 = if ss_tot == 0.0 {
        1.0
    } else {
        1.0 - ss_res / ss_tot
    };
    LineFit {
        slope,
        intercept,
        r2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_matches_batch() {
        let xs = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let mut acc = OnlineStats::new();
        for &x in &xs {
            acc.push(x);
        }
        let mean: f64 = xs.iter().sum::<f64>() / xs.len() as f64;
        let var: f64 = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / xs.len() as f64;
        assert!((acc.mean() - mean).abs() < 1e-12);
        assert!((acc.variance() - var).abs() < 1e-12);
        assert_eq!(acc.min(), 1.0);
        assert_eq!(acc.max(), 9.0);
        assert_eq!(acc.count(), 8);
    }

    #[test]
    fn summary_order_stats() {
        let xs: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let s = Summary::of(&xs);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 100.0);
        assert!((s.median - 50.5).abs() < 1e-9);
        assert!((s.p90 - 90.1).abs() < 1e-9);
        assert!((s.mean - 50.5).abs() < 1e-9);
    }

    #[test]
    fn summary_empty_is_zero() {
        let s = Summary::of(&[]);
        assert_eq!(s.count, 0);
        assert_eq!(s.mean, 0.0);
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile_sorted(&xs, 0.0), 10.0);
        assert_eq!(percentile_sorted(&xs, 100.0), 40.0);
        assert!((percentile_sorted(&xs, 50.0) - 25.0).abs() < 1e-12);
    }

    #[test]
    fn linfit_recovers_exact_line() {
        let pts: Vec<(f64, f64)> = (0..20)
            .map(|i| (i as f64, 0.7 * i as f64 + 166.0))
            .collect();
        let f = linfit(&pts);
        assert!((f.slope - 0.7).abs() < 1e-9);
        assert!((f.intercept - 166.0).abs() < 1e-9);
        assert!((f.r2 - 1.0).abs() < 1e-12);
        assert!((f.at(1000.0) - 866.0).abs() < 1e-6);
    }

    #[test]
    fn linfit_r2_drops_with_noise() {
        let pts: Vec<(f64, f64)> = (0..50)
            .map(|i| {
                let x = i as f64;
                (x, 2.0 * x + if i % 2 == 0 { 40.0 } else { -40.0 })
            })
            .collect();
        let f = linfit(&pts);
        assert!((f.slope - 2.0).abs() < 0.1);
        assert!(f.r2 < 0.9);
    }

    #[test]
    #[should_panic(expected = "at least two points")]
    fn linfit_rejects_single_point() {
        linfit(&[(1.0, 1.0)]);
    }
}
