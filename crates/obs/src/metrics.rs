//! Deterministic metrics: counters, gauges, fixed-bucket histograms.
//!
//! The registry is a post-run aggregation point, not a hot-path sink.
//! Instrumented crates count with plain `u64` fields on their own
//! structs (no locks, no string lookups per event — the sim is
//! single-threaded) and fold the totals in here once the run ends.
//! Keys are sorted `BTreeMap`s and the snapshot renders through the
//! insertion-ordered `serde` value model, so two snapshots of the same
//! deterministic run are byte-identical — the property the campaign
//! layer and the CI smoke test rely on.
//!
//! Wall-clock quantities (elapsed seconds, events/sec, cache hits) must
//! **never** enter the registry; they vary run-to-run and would break
//! snapshot identity. Report those beside the snapshot instead, as
//! perfbench does. Quantities that are simulation-meaningful but
//! *process*-local — a resumed run's restore count, for instance — go
//! under the [`LOCAL_PREFIX`] namespace, which the canonical snapshot
//! omits so determinism diffs need no text filtering.

use serde::value::Value;
use std::collections::BTreeMap;

/// Namespace prefix for process-local (non-deterministic) metrics. Keys
/// starting with this prefix stay readable through [`MetricsRegistry`]
/// accessors and the full snapshot, but are excluded from the canonical
/// snapshot that determinism fingerprints and CI byte-diffs consume.
pub const LOCAL_PREFIX: &str = "local.";

/// Two histograms with different bucket layouts were asked to merge.
/// Merging them would silently misbin counts, so it is rejected with
/// enough context to find the offending series.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergeError {
    /// Registry key of the offending histogram (empty when two bare
    /// [`Histogram`]s were merged outside a registry).
    pub name: String,
    /// Bucket edges of the left-hand (accumulating) histogram.
    pub expected: Vec<u64>,
    /// Bucket edges of the histogram being folded in.
    pub got: Vec<u64>,
}

impl std::fmt::Display for MergeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.name.is_empty() {
            write!(
                f,
                "histogram bucket layouts differ: expected edges {:?}, got {:?}",
                self.expected, self.got
            )
        } else {
            write!(
                f,
                "histogram {:?} bucket layouts differ: expected edges {:?}, got {:?}",
                self.name, self.expected, self.got
            )
        }
    }
}

impl std::error::Error for MergeError {}

/// A fixed-bucket histogram of `u64` observations.
///
/// `edges` are inclusive upper bounds of the first `edges.len()` buckets;
/// one overflow bucket catches everything above the last edge. Bucket
/// layout is fixed at construction so merged histograms always agree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    edges: Vec<u64>,
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Histogram {
    /// A histogram with the given inclusive bucket upper bounds.
    ///
    /// # Panics
    /// Panics if `edges` is empty or not strictly increasing.
    pub fn new(edges: &[u64]) -> Histogram {
        assert!(!edges.is_empty(), "histogram needs at least one edge");
        assert!(
            edges.windows(2).all(|w| w[0] < w[1]),
            "histogram edges must be strictly increasing"
        );
        Histogram {
            edges: edges.to_vec(),
            counts: vec![0; edges.len() + 1],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Record one observation.
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Record `n` observations of `value` at once — the bulk form used to
    /// rebuild a histogram from pre-binned per-run counts. A no-op when
    /// `n` is zero.
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        let idx = self
            .edges
            .iter()
            .position(|&e| value <= e)
            .unwrap_or(self.edges.len());
        self.counts[idx] += n;
        self.count += n;
        self.sum = self.sum.saturating_add(value.saturating_mul(n));
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Bucket upper bounds (the overflow bucket has no edge).
    pub fn edges(&self) -> &[u64] {
        &self.edges
    }

    /// Per-bucket counts; `counts().len() == edges().len() + 1`.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest observation (`None` when empty).
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation (`None` when empty).
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Deterministic quantile estimate from the bucket counts: the upper
    /// edge of the bucket holding the `ceil(q·count)`-th observation (the
    /// recorded maximum for the overflow bucket, which has no edge).
    /// `None` when empty. `q` is clamped to `(0, 1]`; being bucket-based,
    /// the estimate depends only on the counts, never on float summation
    /// order, so exports stay byte-identical.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(self.edges.get(i).copied().unwrap_or(self.max));
            }
        }
        Some(self.max)
    }

    /// Fold another histogram in. Rejected with a [`MergeError`] when the
    /// bucket layouts differ — merging histograms with different edges
    /// would silently misbin counts.
    pub fn merge(&mut self, other: &Histogram) -> Result<(), MergeError> {
        if self.edges != other.edges {
            return Err(MergeError {
                name: String::new(),
                expected: self.edges.clone(),
                got: other.edges.clone(),
            });
        }
        for (c, o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        Ok(())
    }

    fn to_value(&self) -> Value {
        Value::Map(vec![
            (
                "edges".into(),
                Value::Seq(self.edges.iter().map(|&e| Value::UInt(e)).collect()),
            ),
            (
                "counts".into(),
                Value::Seq(self.counts.iter().map(|&c| Value::UInt(c)).collect()),
            ),
            ("count".into(), Value::UInt(self.count)),
            ("sum".into(), Value::UInt(self.sum)),
            ("min".into(), Value::UInt(self.min().unwrap_or(0))),
            ("max".into(), Value::UInt(self.max().unwrap_or(0))),
            ("p50".into(), Value::UInt(self.quantile(0.50).unwrap_or(0))),
            ("p95".into(), Value::UInt(self.quantile(0.95).unwrap_or(0))),
            ("p99".into(), Value::UInt(self.quantile(0.99).unwrap_or(0))),
        ])
    }
}

/// A sorted-key registry of counters, gauges, and histograms with a
/// canonical-JSON snapshot.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, i64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Add `delta` to counter `name` (created at zero on first use).
    pub fn inc(&mut self, name: &str, delta: u64) {
        // Look up before `entry`, which would allocate the key every call.
        match self.counters.get_mut(name) {
            Some(v) => *v += delta,
            None => {
                self.counters.insert(name.to_string(), delta);
            }
        }
    }

    /// Current value of counter `name` (zero when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Set gauge `name` to `value` (last write wins).
    pub fn set_gauge(&mut self, name: &str, value: i64) {
        match self.gauges.get_mut(name) {
            Some(v) => *v = value,
            None => {
                self.gauges.insert(name.to_string(), value);
            }
        }
    }

    /// Current value of gauge `name`, if set.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.get(name).copied()
    }

    /// Declare histogram `name` with the given bucket edges (idempotent;
    /// an existing histogram keeps its layout and contents).
    pub fn declare_histogram(&mut self, name: &str, edges: &[u64]) {
        self.histograms
            .entry(name.to_string())
            .or_insert_with(|| Histogram::new(edges));
    }

    /// Record `value` into histogram `name`.
    ///
    /// # Panics
    /// Panics when the histogram was never declared — bucket layout must
    /// be chosen deliberately, not defaulted at first observation.
    pub fn observe(&mut self, name: &str, value: u64) {
        self.histograms
            .get_mut(name)
            .unwrap_or_else(|| panic!("histogram {name:?} not declared"))
            .record(value);
    }

    /// Record `n` observations of `value` into histogram `name`.
    ///
    /// # Panics
    /// Panics when the histogram was never declared, like
    /// [`MetricsRegistry::observe`].
    pub fn observe_n(&mut self, name: &str, value: u64, n: u64) {
        self.histograms
            .get_mut(name)
            .unwrap_or_else(|| panic!("histogram {name:?} not declared"))
            .record_n(value, n);
    }

    /// Histogram `name`, if declared.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// True iff nothing has been registered.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Fold `other` in: counters add, gauges take `other`'s value when
    /// set, histograms merge bucket-wise. This is how campaign-level
    /// aggregates are built from per-point registries.
    ///
    /// Fails with a [`MergeError`] naming the offending histogram when
    /// two same-named histograms have different bucket layouts; counters
    /// and gauges folded before the mismatch remain applied.
    pub fn merge(&mut self, other: &MetricsRegistry) -> Result<(), MergeError> {
        for (k, v) in &other.counters {
            self.inc(k, *v);
        }
        for (k, v) in &other.gauges {
            self.set_gauge(k, *v);
        }
        for (k, h) in &other.histograms {
            match self.histograms.get_mut(k) {
                Some(mine) => mine.merge(h).map_err(|e| MergeError {
                    name: k.clone(),
                    ..e
                })?,
                None => {
                    self.histograms.insert(k.clone(), h.clone());
                }
            }
        }
        Ok(())
    }

    /// The canonical snapshot as a structured value (sorted keys
    /// throughout). Metrics in the [`LOCAL_PREFIX`] namespace are
    /// excluded: they are process-local by design (restore counts, wall
    /// clocks) and must not leak into determinism fingerprints.
    pub fn snapshot_value(&self) -> Value {
        let keep = |k: &str| !k.starts_with(LOCAL_PREFIX);
        let counters = self
            .counters
            .iter()
            .filter(|(k, _)| keep(k))
            .map(|(k, &v)| (k.clone(), Value::UInt(v)))
            .collect();
        let gauges = self
            .gauges
            .iter()
            .filter(|(k, _)| keep(k))
            .map(|(k, &v)| (k.clone(), Value::Int(v)))
            .collect();
        let histograms = self
            .histograms
            .iter()
            .filter(|(k, _)| keep(k))
            .map(|(k, h)| (k.clone(), h.to_value()))
            .collect();
        Value::Map(vec![
            ("counters".into(), Value::Map(counters)),
            ("gauges".into(), Value::Map(gauges)),
            ("histograms".into(), Value::Map(histograms)),
        ])
    }

    /// Canonical JSON snapshot: sorted keys, stable formatting, `local.*`
    /// excluded. Two snapshots of the same deterministic run compare
    /// byte-equal — with no text filtering needed downstream.
    pub fn snapshot_json(&self) -> String {
        let mut s = self.snapshot_value().to_json_string_pretty();
        s.push('\n');
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut r = MetricsRegistry::new();
        r.inc("a", 2);
        r.inc("a", 3);
        assert_eq!(r.counter("a"), 5);
        assert_eq!(r.counter("missing"), 0);
    }

    #[test]
    fn gauges_last_write_wins() {
        let mut r = MetricsRegistry::new();
        r.set_gauge("depth", 4);
        r.set_gauge("depth", -1);
        assert_eq!(r.gauge("depth"), Some(-1));
        assert_eq!(r.gauge("missing"), None);
    }

    #[test]
    fn histogram_bucket_edges_are_inclusive_upper_bounds() {
        let mut h = Histogram::new(&[10, 100, 1000]);
        for v in [0, 10, 11, 100, 101, 1000, 1001, u64::MAX] {
            h.record(v);
        }
        // buckets: ≤10, ≤100, ≤1000, overflow
        assert_eq!(h.counts(), &[2, 2, 2, 2]);
        assert_eq!(h.count(), 8);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(u64::MAX));
    }

    #[test]
    fn record_n_matches_repeated_record() {
        let mut bulk = Histogram::new(&[10, 100]);
        bulk.record_n(7, 3);
        bulk.record_n(50, 0); // no-op: count, min, max untouched
        bulk.record_n(200, 2);
        let mut single = Histogram::new(&[10, 100]);
        for _ in 0..3 {
            single.record(7);
        }
        for _ in 0..2 {
            single.record(200);
        }
        assert_eq!(bulk, single);
    }

    #[test]
    fn quantiles_follow_bucket_edges() {
        let mut h = Histogram::new(&[10, 100, 1000]);
        assert_eq!(h.quantile(0.5), None);
        for _ in 0..90 {
            h.record(5); // ≤10 bucket
        }
        for _ in 0..9 {
            h.record(50); // ≤100 bucket
        }
        h.record(5000); // overflow
        assert_eq!(h.quantile(0.50), Some(10));
        assert_eq!(h.quantile(0.95), Some(100));
        // The 100th observation lands in the overflow bucket, which has
        // no edge — the recorded max stands in.
        assert_eq!(h.quantile(1.0), Some(5000));
        assert_eq!(h.quantile(0.99), Some(100));
        let v = h.to_value().to_json_string_pretty();
        assert!(v.contains("\"p50\""), "export must carry quantiles: {v}");
        assert!(v.contains("\"p95\"") && v.contains("\"p99\""));
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_edges_rejected() {
        let _ = Histogram::new(&[10, 10]);
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_histogram_rejected() {
        let mut r = MetricsRegistry::new();
        r.observe("nope", 1);
    }

    #[test]
    fn merge_adds_counters_and_buckets() {
        let mut a = MetricsRegistry::new();
        a.inc("x", 1);
        a.declare_histogram("h", &[5]);
        a.observe("h", 3);
        let mut b = MetricsRegistry::new();
        b.inc("x", 2);
        b.inc("y", 7);
        b.set_gauge("g", 9);
        b.declare_histogram("h", &[5]);
        b.observe("h", 8);
        a.merge(&b).expect("layouts match");
        assert_eq!(a.counter("x"), 3);
        assert_eq!(a.counter("y"), 7);
        assert_eq!(a.gauge("g"), Some(9));
        assert_eq!(a.histogram("h").unwrap().counts(), &[1, 1]);
    }

    #[test]
    fn merge_rejects_mismatched_layouts_by_name() {
        let mut a = Histogram::new(&[5, 10]);
        let b = Histogram::new(&[5, 20]);
        let err = a.merge(&b).unwrap_err();
        assert_eq!(err.expected, vec![5, 10]);
        assert_eq!(err.got, vec![5, 20]);
        assert!(err.name.is_empty());
        assert!(err.to_string().contains("bucket layouts differ"));

        let mut ra = MetricsRegistry::new();
        ra.declare_histogram("lat", &[5, 10]);
        let mut rb = MetricsRegistry::new();
        rb.declare_histogram("lat", &[5, 20]);
        let err = ra.merge(&rb).unwrap_err();
        assert_eq!(err.name, "lat");
        assert!(
            err.to_string().contains("\"lat\""),
            "error must name the series: {err}"
        );
        // A matching registry still merges after the failed attempt.
        let mut rc = MetricsRegistry::new();
        rc.declare_histogram("lat", &[5, 10]);
        rc.observe("lat", 3);
        ra.merge(&rc).expect("matching layout merges");
        assert_eq!(ra.histogram("lat").unwrap().count(), 1);
    }

    #[test]
    fn local_namespace_excluded_from_canonical_snapshot() {
        let mut r = MetricsRegistry::new();
        r.inc("engine.events", 10);
        r.inc("local.checkpoint.restores", 1);
        r.set_gauge("local.wall_ms", 1234);
        r.declare_histogram("local.lat", &[5]);
        r.observe("local.lat", 3);
        // Readable through accessors…
        assert_eq!(r.counter("local.checkpoint.restores"), 1);
        assert_eq!(r.gauge("local.wall_ms"), Some(1234));
        assert!(r.histogram("local.lat").is_some());
        // …but absent from the canonical snapshot.
        let canon = r.snapshot_json();
        assert!(!canon.contains("local."), "local.* leaked: {canon}");
        assert!(canon.contains("engine.events"));
    }

    #[test]
    fn local_metrics_do_not_break_snapshot_identity() {
        // Two runs differing only in local.* metrics — e.g. one resumed
        // from a checkpoint, one not — produce identical canonical
        // snapshots with no text filtering.
        let mut a = MetricsRegistry::new();
        a.inc("run.completed", 1);
        let mut b = MetricsRegistry::new();
        b.inc("run.completed", 1);
        b.inc("local.checkpoint.restores", 2);
        assert_eq!(a.snapshot_json(), b.snapshot_json());
    }

    #[test]
    fn snapshot_is_canonical() {
        // Same contents registered in different orders render identically.
        let mut a = MetricsRegistry::new();
        a.inc("b", 1);
        a.inc("a", 2);
        let mut b = MetricsRegistry::new();
        b.inc("a", 2);
        b.inc("b", 1);
        assert_eq!(a.snapshot_json(), b.snapshot_json());
        assert!(a.snapshot_json().ends_with('\n'));
    }

    #[test]
    fn snapshot_parses_as_json() {
        let mut r = MetricsRegistry::new();
        r.inc("events", 42);
        r.set_gauge("depth", 3);
        r.declare_histogram("lat", &[1, 2]);
        r.observe("lat", 2);
        let v = serde_json::parse(&r.snapshot_json()).expect("snapshot must be valid JSON");
        let top = v.as_map().unwrap();
        let counters = serde::value::get(top, "counters")
            .unwrap()
            .as_map()
            .unwrap();
        assert_eq!(
            serde::value::get(counters, "events").unwrap().as_u64(),
            Some(42)
        );
    }
}
