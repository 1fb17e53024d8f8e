//! Collective-operation timing capture.
//!
//! The `aggregate_trace` methodology measures (a) per-task average
//! Allreduce time over thousands of calls (Figures 3, 5, 6) and (b)
//! individual per-call times on selected nodes (Figure 4). Keeping every
//! (rank × call) sample for a 1936-rank sweep would be gigabytes, so the
//! recorder aggregates per operation in O(1) memory and additionally keeps
//! full per-call series for an explicit *watch list* of ranks.

use pa_simkit::{SimDur, SimTime, Summary};
use serde::value::Value;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Kind of a recorded operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OpKind {
    /// MPI_Allreduce.
    Allreduce,
    /// Halo exchange (grouped point-to-point).
    Exchange,
}

/// Aggregate view of one collective call across all ranks.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OpAgg {
    /// Operation kind.
    pub kind: OpKind,
    /// Earliest entry across ranks.
    pub first_start: SimTime,
    /// Latest completion across ranks.
    pub last_end: SimTime,
    /// Ranks that completed the call.
    pub completions: u32,
    /// Sum of per-rank durations (for mean-per-task metrics).
    pub sum_rank_dur_ns: u64,
}

impl OpAgg {
    /// Global duration: last completion minus first entry.
    pub fn global_dur(&self) -> SimDur {
        self.last_end - self.first_start
    }
}

/// One watched rank's per-call sample.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OpSample {
    /// Operation sequence number.
    pub seq: u64,
    /// Kind.
    pub kind: OpKind,
    /// Rank-local entry time.
    pub start: SimTime,
    /// Rank-local completion time.
    pub end: SimTime,
}

impl OpSample {
    /// Rank-local duration.
    pub fn dur(&self) -> SimDur {
        self.end - self.start
    }
}

/// The collector. Rank programs hold `Arc` clones and record on each
/// collective completion; the experiment harness reads it after the run.
///
/// Under the sharded engine, ranks on different worker threads record
/// concurrently. Every update is commutative — min/max folds, integer
/// sums, and per-rank sample lists that are sorted by sequence number on
/// read — so the recorder's observable state is independent of the order
/// in which ranks got the lock, and snapshots stay byte-identical at any
/// thread count.
#[derive(Debug, Default)]
pub struct RunRecorder {
    ops: HashMap<u64, OpAgg>,
    watch: Vec<u32>,
    detailed: HashMap<u32, Vec<OpSample>>,
    /// Keep per-call samples for *every* rank (critical-path analysis).
    /// Off by default: a 1936-rank sweep would hold gigabytes; blame
    /// analysis re-runs one representative point with this on.
    record_all: bool,
}

/// Shared handle to a [`RunRecorder`].
pub type RecorderHandle = Arc<Mutex<RunRecorder>>;

impl RunRecorder {
    /// New empty recorder.
    pub fn new() -> RunRecorder {
        RunRecorder::default()
    }

    /// New shared handle.
    pub fn shared() -> RecorderHandle {
        Arc::new(Mutex::new(RunRecorder::new()))
    }

    /// Record full per-call series for these ranks (e.g. the 16 ranks of
    /// one node, as in Figure 4).
    pub fn watch_ranks(&mut self, ranks: &[u32]) {
        self.watch = ranks.to_vec();
        for &r in ranks {
            self.detailed.entry(r).or_default();
        }
    }

    /// Keep full per-call series for every rank that records (the
    /// critical-path input). Memory-heavy; see the field note.
    pub fn record_all_ranks(&mut self) {
        self.record_all = true;
    }

    /// Is every-rank sample capture on?
    pub fn records_all_ranks(&self) -> bool {
        self.record_all
    }

    /// Record one rank's completion of one operation.
    pub fn record(&mut self, rank: u32, seq: u64, kind: OpKind, start: SimTime, end: SimTime) {
        debug_assert!(end >= start, "operation ended before it started");
        let agg = self.ops.entry(seq).or_insert(OpAgg {
            kind,
            first_start: start,
            last_end: end,
            completions: 0,
            sum_rank_dur_ns: 0,
        });
        debug_assert_eq!(agg.kind, kind, "sequence number reused across kinds");
        agg.first_start = agg.first_start.min(start);
        agg.last_end = agg.last_end.max(end);
        agg.completions += 1;
        agg.sum_rank_dur_ns += (end - start).nanos();
        let sample = OpSample {
            seq,
            kind,
            start,
            end,
        };
        if self.record_all {
            self.detailed.entry(rank).or_default().push(sample);
        } else if let Some(v) = self.detailed.get_mut(&rank) {
            v.push(sample);
        }
    }

    /// All aggregates of one kind, in sequence order.
    pub fn aggs(&self, kind: OpKind) -> Vec<(u64, OpAgg)> {
        let mut v: Vec<(u64, OpAgg)> = self
            .ops
            .iter()
            .filter(|(_, a)| a.kind == kind)
            .map(|(&s, &a)| (s, a))
            .collect();
        v.sort_by_key(|(s, _)| *s);
        v
    }

    /// Number of recorded operations of one kind.
    pub fn count(&self, kind: OpKind) -> usize {
        self.ops.values().filter(|a| a.kind == kind).count()
    }

    /// Mean per-rank duration over all calls of `kind`, in microseconds —
    /// the Figure 3/5 y-axis ("average wall clock time per Allreduce").
    pub fn mean_rank_dur_us(&self, kind: OpKind) -> f64 {
        let (sum, n): (u64, u64) = self
            .ops
            .values()
            .filter(|a| a.kind == kind)
            .fold((0, 0), |(s, n), a| {
                (s + a.sum_rank_dur_ns, n + u64::from(a.completions))
            });
        if n == 0 {
            0.0
        } else {
            sum as f64 / n as f64 / 1e3
        }
    }

    /// Summary of per-call *global* durations (µs) of `kind`.
    pub fn global_dur_summary_us(&self, kind: OpKind) -> Summary {
        let xs: Vec<f64> = self
            .aggs(kind)
            .iter()
            .map(|(_, a)| a.global_dur().as_micros_f64())
            .collect();
        Summary::of(&xs)
    }

    /// A watched rank's per-call samples (seq order).
    pub fn samples(&self, rank: u32) -> Option<Vec<OpSample>> {
        self.detailed.get(&rank).map(|v| {
            let mut v = v.clone();
            v.sort_by_key(|s| s.seq);
            v
        })
    }

    /// Serialize the full recorder state for a checkpoint. Hash maps are
    /// emitted as key-sorted pair lists so the encoding is canonical
    /// (byte-identical regardless of insertion order or thread count).
    pub fn snapshot_value(&self) -> Value {
        let mut ops: Vec<(u64, OpAgg)> = self.ops.iter().map(|(&s, &a)| (s, a)).collect();
        ops.sort_by_key(|(s, _)| *s);
        let mut detailed: Vec<(u32, Vec<OpSample>)> = self
            .detailed
            .iter()
            .map(|(&r, v)| {
                let mut v = v.clone();
                v.sort_by_key(|s| s.seq);
                (r, v)
            })
            .collect();
        detailed.sort_by_key(|(r, _)| *r);
        (ops, self.watch.clone(), detailed, self.record_all).to_value()
    }

    /// Replace this recorder's state with a checkpointed snapshot.
    pub fn restore_value(&mut self, state: &Value) -> Result<(), serde::Error> {
        type Snap = (Vec<(u64, OpAgg)>, Vec<u32>, Vec<(u32, Vec<OpSample>)>, bool);
        let (ops, watch, detailed, record_all): Snap = Deserialize::from_value(state)?;
        self.ops = ops.into_iter().collect();
        self.watch = watch;
        self.detailed = detailed.into_iter().collect();
        self.record_all = record_all;
        Ok(())
    }

    /// Check every recorded op completed on exactly `nranks` ranks —
    /// a structural invariant of correct collectives.
    pub fn verify_complete(&self, nranks: u32) -> Result<(), String> {
        for (seq, agg) in &self.ops {
            if agg.completions != nranks {
                return Err(format!(
                    "op {seq} completed on {}/{} ranks",
                    agg.completions, nranks
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn aggregates_across_ranks() {
        let mut r = RunRecorder::new();
        r.record(0, 1, OpKind::Allreduce, t(100), t(450));
        r.record(1, 1, OpKind::Allreduce, t(110), t(460));
        r.record(2, 1, OpKind::Allreduce, t(90), t(440));
        let aggs = r.aggs(OpKind::Allreduce);
        assert_eq!(aggs.len(), 1);
        let (_, a) = aggs[0];
        assert_eq!(a.first_start, t(90));
        assert_eq!(a.last_end, t(460));
        assert_eq!(a.completions, 3);
        assert_eq!(a.global_dur(), SimDur::from_micros(370));
        assert_eq!(a.sum_rank_dur_ns, 3 * 350_000);
    }

    #[test]
    fn mean_rank_dur_us_spans_ops() {
        let mut r = RunRecorder::new();
        r.record(0, 1, OpKind::Allreduce, t(0), t(300));
        r.record(0, 2, OpKind::Allreduce, t(400), t(900));
        assert!((r.mean_rank_dur_us(OpKind::Allreduce) - 400.0).abs() < 1e-9);
        assert_eq!(r.count(OpKind::Allreduce), 2);
        assert_eq!(r.count(OpKind::Exchange), 0);
    }

    #[test]
    fn kinds_are_separated() {
        let mut r = RunRecorder::new();
        r.record(0, 1, OpKind::Allreduce, t(0), t(10));
        r.record(0, 2, OpKind::Exchange, t(20), t(30));
        assert_eq!(r.aggs(OpKind::Allreduce).len(), 1);
        assert_eq!(r.aggs(OpKind::Exchange).len(), 1);
    }

    #[test]
    fn watch_list_keeps_samples() {
        let mut r = RunRecorder::new();
        r.watch_ranks(&[5]);
        r.record(5, 1, OpKind::Allreduce, t(0), t(10));
        r.record(6, 1, OpKind::Allreduce, t(0), t(12));
        r.record(5, 2, OpKind::Allreduce, t(20), t(35));
        let s = r.samples(5).unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].dur(), SimDur::from_micros(10));
        assert_eq!(s[1].dur(), SimDur::from_micros(15));
        assert!(r.samples(6).is_none());
    }

    #[test]
    fn verify_complete_catches_missing_ranks() {
        let mut r = RunRecorder::new();
        r.record(0, 1, OpKind::Allreduce, t(0), t(10));
        r.record(1, 1, OpKind::Allreduce, t(0), t(11));
        assert!(r.verify_complete(2).is_ok());
        r.record(0, 2, OpKind::Allreduce, t(20), t(30));
        assert!(r.verify_complete(2).is_err());
    }

    #[test]
    fn summary_of_global_durations() {
        let mut r = RunRecorder::new();
        for (i, d) in [300u64, 400, 500].iter().enumerate() {
            r.record(
                0,
                i as u64,
                OpKind::Allreduce,
                t(1000 * i as u64),
                t(1000 * i as u64 + d),
            );
        }
        let s = r.global_dur_summary_us(OpKind::Allreduce);
        assert_eq!(s.count, 3);
        assert!((s.mean - 400.0).abs() < 1e-9);
        assert_eq!(s.min, 300.0);
        assert_eq!(s.max, 500.0);
    }
}
