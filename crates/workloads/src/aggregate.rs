//! The `aggregate_trace` benchmark (§5.1).
//!
//! *"In order to isolate the scaling problem a synthetic benchmark,
//! aggregate_trace.c, was created. ... three loops are done where the
//! timings of 4096 MPI_Allreduce calls were measured. In addition to the
//! overall timings, a call to AIX trace was done before and after every
//! 64th call to MPI_Allreduce."*
//!
//! The port keeps the structure: a configurable number of Allreduce calls
//! with a small jittered compute between them (the "sorts of tasks
//! programs may perform in the section of code where they use
//! MPI_Allreduce"), and an application trace marker bracketing every
//! `marker_interval`-th call.

use pa_mpi::{MpiOp, RankWorkload};
use pa_simkit::{RngState, SimDur, SimRng};
use serde::value::Value;
use serde::{Deserialize, Serialize};

/// Configuration of the aggregate benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AggregateSpec {
    /// Allreduce calls per rank (the paper's loops total 3 × 4096; sweep
    /// points use fewer for tractable simulation — same structure).
    pub allreduces: u32,
    /// Payload per Allreduce message.
    pub bytes: u32,
    /// A trace marker is written every this many calls (paper: 64).
    pub marker_interval: u32,
    /// Compute between consecutive Allreduces.
    pub inter_compute: SimDur,
    /// Multiplicative jitter on the inter-call compute.
    pub compute_jitter: f64,
}

impl Default for AggregateSpec {
    fn default() -> Self {
        AggregateSpec {
            allreduces: 4096,
            bytes: 8,
            marker_interval: 64,
            inter_compute: SimDur::from_micros(25),
            compute_jitter: 0.3,
        }
    }
}

impl AggregateSpec {
    /// Same benchmark with a different call count (sweep points).
    pub fn with_calls(mut self, calls: u32) -> AggregateSpec {
        self.allreduces = calls;
        self
    }
}

/// Per-rank state machine for the aggregate benchmark.
#[derive(Debug)]
pub struct AggregateTrace {
    spec: AggregateSpec,
    rng: SimRng,
    issued: u32,
    /// Pending micro-sequence for the current iteration.
    pending: Pending,
}

/// The rest of one iteration: a stack of at most two ops (the Allreduce
/// under the Compute before it), held inline.
#[derive(Debug, Default)]
struct Pending([Option<MpiOp>; 2]);

impl Pending {
    fn push(&mut self, op: MpiOp) {
        let free = self.0.iter_mut().find(|s| s.is_none());
        *free.expect("an iteration queues at most two ops") = Some(op);
    }

    fn pop(&mut self) -> Option<MpiOp> {
        self.0.iter_mut().rev().find_map(Option::take)
    }

    /// Bottom first, as the snapshot lists them.
    fn to_vec(&self) -> Vec<MpiOp> {
        self.0.iter().flatten().cloned().collect()
    }

    fn from_vec(ops: Vec<MpiOp>) -> Result<Pending, serde::Error> {
        if ops.len() > 2 {
            return Err(serde::Error(format!(
                "aggregate_trace state holds {} pending ops; an iteration queues at most 2",
                ops.len()
            )));
        }
        let mut pending = Pending::default();
        for op in ops {
            pending.push(op);
        }
        Ok(pending)
    }
}

impl AggregateTrace {
    /// New instance with a per-rank RNG stream.
    pub fn new(spec: AggregateSpec, rng: SimRng) -> AggregateTrace {
        AggregateTrace {
            spec,
            rng,
            issued: 0,
            pending: Pending::default(),
        }
    }
}

impl RankWorkload for AggregateTrace {
    fn next_op(&mut self, _rank: u32, _nranks: u32) -> MpiOp {
        if let Some(op) = self.pending.pop() {
            return op;
        }
        if self.issued >= self.spec.allreduces {
            return MpiOp::Done;
        }
        let i = self.issued;
        self.issued += 1;
        // Emitted in reverse (pending is a stack).
        self.pending.push(MpiOp::Allreduce {
            bytes: self.spec.bytes,
        });
        if !self.spec.inter_compute.is_zero() {
            self.pending.push(MpiOp::Compute(
                self.rng
                    .jitter(self.spec.inter_compute, self.spec.compute_jitter),
            ));
        }
        if self.spec.marker_interval > 0 && i % self.spec.marker_interval == 0 {
            return MpiOp::Mark(u64::from(i));
        }
        self.pending.pop().expect("just pushed")
    }

    fn snapshot_state(&self) -> Value {
        (self.issued, self.pending.to_vec(), self.rng.save_state()).to_value()
    }

    fn restore_state(&mut self, state: &Value) -> Result<(), serde::Error> {
        let (issued, pending, rng): (u32, Vec<MpiOp>, RngState) = Deserialize::from_value(state)?;
        self.pending = Pending::from_vec(pending)?;
        self.issued = issued;
        self.rng.load_state(&rng).map_err(serde::Error)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(w: &mut AggregateTrace) -> Vec<MpiOp> {
        let mut ops = Vec::new();
        loop {
            let op = w.next_op(0, 4);
            if op == MpiOp::Done {
                break;
            }
            ops.push(op);
        }
        ops
    }

    #[test]
    fn emits_requested_allreduce_count() {
        let spec = AggregateSpec::default().with_calls(130);
        let mut w = AggregateTrace::new(spec, SimRng::from_seed(1));
        let ops = drain(&mut w);
        let reduces = ops
            .iter()
            .filter(|o| matches!(o, MpiOp::Allreduce { .. }))
            .count();
        assert_eq!(reduces, 130);
    }

    #[test]
    fn markers_every_interval() {
        let spec = AggregateSpec {
            allreduces: 200,
            marker_interval: 64,
            ..AggregateSpec::default()
        };
        let mut w = AggregateTrace::new(spec, SimRng::from_seed(1));
        let ops = drain(&mut w);
        let marks: Vec<u64> = ops
            .iter()
            .filter_map(|o| match o {
                MpiOp::Mark(a) => Some(*a),
                _ => None,
            })
            .collect();
        assert_eq!(marks, vec![0, 64, 128, 192]);
    }

    #[test]
    fn compute_precedes_each_allreduce() {
        let spec = AggregateSpec {
            allreduces: 10,
            marker_interval: 0,
            ..AggregateSpec::default()
        };
        let mut w = AggregateTrace::new(spec, SimRng::from_seed(1));
        let ops = drain(&mut w);
        assert_eq!(ops.len(), 20);
        for pair in ops.chunks(2) {
            assert!(matches!(pair[0], MpiOp::Compute(_)));
            assert!(matches!(pair[1], MpiOp::Allreduce { .. }));
        }
    }

    #[test]
    fn zero_compute_config_skips_compute() {
        let spec = AggregateSpec {
            allreduces: 5,
            inter_compute: SimDur::ZERO,
            marker_interval: 0,
            ..AggregateSpec::default()
        };
        let mut w = AggregateTrace::new(spec, SimRng::from_seed(1));
        let ops = drain(&mut w);
        assert!(ops.iter().all(|o| matches!(o, MpiOp::Allreduce { .. })));
    }

    #[test]
    fn restore_rejects_more_than_two_pending_ops() {
        let spec = AggregateSpec::default().with_calls(4);
        let mut w = AggregateTrace::new(spec, SimRng::from_seed(1));
        let three = vec![MpiOp::Allreduce { bytes: 8 }; 3];
        let state = (0u32, three, SimRng::from_seed(1).save_state()).to_value();
        let err = w.restore_state(&state).unwrap_err();
        assert!(err.0.contains("3 pending ops"), "{err}");
    }

    /// Snapshot and restore into a fresh instance at every op of the
    /// first iteration (Mark, Compute, Allreduce): the rest of the
    /// stream must match the uninterrupted one.
    #[test]
    fn snapshot_round_trips_at_each_position() {
        let spec = AggregateSpec::default().with_calls(3);
        let full = drain(&mut AggregateTrace::new(spec, SimRng::from_seed(5)));
        assert!(matches!(
            full[..3],
            [MpiOp::Mark(0), MpiOp::Compute(_), MpiOp::Allreduce { .. }]
        ));
        for taken in 0..=3 {
            let mut w = AggregateTrace::new(spec, SimRng::from_seed(5));
            for _ in 0..taken {
                w.next_op(0, 4);
            }
            let mut resumed = AggregateTrace::new(spec, SimRng::from_seed(99));
            resumed.restore_state(&w.snapshot_state()).unwrap();
            assert_eq!(resumed.snapshot_state(), w.snapshot_state());
            assert_eq!(drain(&mut resumed), full[taken..], "after {taken} ops");
        }
    }

    #[test]
    fn done_is_sticky() {
        let spec = AggregateSpec::default().with_calls(1);
        let mut w = AggregateTrace::new(spec, SimRng::from_seed(1));
        let _ = drain(&mut w);
        assert_eq!(w.next_op(0, 4), MpiOp::Done);
        assert_eq!(w.next_op(0, 4), MpiOp::Done);
    }
}
