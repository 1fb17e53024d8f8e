//! MPI progress ("timer") threads.
//!
//! §5.3: *"These auxiliary threads were identified as the MPI timer
//! threads. They are the 'progress engine' in IBM's MPI implementation.
//! The default behavior is that these threads run every 400 msec ...
//! their influence was strong enough to disrupt the tightly synchronized
//! Allreduce code."* The documented mitigation is
//! `MP_POLLING_INTERVAL=400000000` (a 400 s period).
//!
//! Each rank gets one timer thread pinned to its CPU at a slightly more
//! favored priority (the mostly-sleeping service thread wins the dynamic
//! priority comparison against its CPU-bound rank on real AIX).

use pa_kernel::{Action, Program, StepCtx};
use pa_simkit::{RngState, SimDur, SimRng};
use serde::value::Value;
use serde::{Deserialize, Serialize};

/// Progress-engine configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProgressSpec {
    /// Firing period (`MP_POLLING_INTERVAL`; IBM default 400 ms).
    pub interval: SimDur,
    /// CPU burst per firing (message-queue scan and retransmit checks).
    pub burst: SimDur,
    /// Multiplicative burst jitter fraction.
    pub jitter: f64,
}

impl Default for ProgressSpec {
    fn default() -> Self {
        ProgressSpec {
            interval: SimDur::from_millis(400),
            burst: SimDur::from_micros(350),
            jitter: 0.4,
        }
    }
}

impl ProgressSpec {
    /// The §5.3 mitigation: a period so long the thread effectively never
    /// fires during a benchmark run.
    pub fn mitigated() -> ProgressSpec {
        ProgressSpec {
            interval: SimDur::from_secs(400),
            ..ProgressSpec::default()
        }
    }
}

/// The timer-thread program: sleep one interval, burn one burst, repeat.
#[derive(Debug)]
pub struct ProgressThread {
    spec: ProgressSpec,
    rng: SimRng,
    phase: SimDur,
    fired: bool,
    firings: u64,
}

impl ProgressThread {
    /// New timer thread with its own RNG stream and a random phase.
    pub fn new(spec: ProgressSpec, mut rng: SimRng) -> ProgressThread {
        let phase = SimDur::from_nanos(rng.range(0, spec.interval.nanos().max(1)));
        ProgressThread {
            spec,
            rng,
            phase,
            fired: true, // sleep to phase first; do not burst at spawn
            firings: 0,
        }
    }

    /// New timer thread with an explicit phase. The job installer passes
    /// one common phase to every rank's timer: the real threads are armed
    /// relative to MPI_Init, so a job's timers fire (nearly) in lockstep —
    /// which is why "their influence was strong enough to disrupt the
    /// tightly synchronized Allreduce code" (§5.3) even at 15 tasks/node,
    /// where a single stray thread would just ride the idle CPU.
    pub fn with_phase(spec: ProgressSpec, phase: SimDur, rng: SimRng) -> ProgressThread {
        ProgressThread {
            spec,
            rng,
            phase,
            fired: true, // sleep to phase first; do not burst at spawn
            firings: 0,
        }
    }
}

impl Program for ProgressThread {
    fn step(&mut self, ctx: &mut StepCtx) -> Action {
        if self.fired {
            self.fired = false;
            Action::SleepUntil(ctx.local_now.next_boundary(self.spec.interval, self.phase))
        } else {
            self.fired = true;
            self.firings += 1;
            Action::Compute(self.rng.jitter(self.spec.burst, self.spec.jitter))
        }
    }

    fn kind(&self) -> &'static str {
        "mpi_timer"
    }

    fn metrics(&self, emit: &mut dyn FnMut(&'static str, u64)) {
        emit("firings", self.firings);
    }

    fn snapshot_state(&self) -> Value {
        // `phase` is fixed at construction (same rng stream on rebuild),
        // so only the alternation flag, counter, and rng position move.
        (self.fired, self.firings, self.rng.save_state()).to_value()
    }

    fn restore_state(&mut self, state: &Value) -> Result<(), serde::Error> {
        let (fired, firings, rng): (bool, u64, RngState) = Deserialize::from_value(state)?;
        self.fired = fired;
        self.firings = firings;
        self.rng.load_state(&rng).map_err(serde::Error)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pa_kernel::{ClockModel, CpuId, Kernel, Prio, SchedOptions, SoloRunner, ThreadSpec};
    use pa_simkit::SimTime;
    use pa_trace::{HookMask, ThreadClass};

    #[test]
    fn default_matches_paper() {
        let s = ProgressSpec::default();
        assert_eq!(s.interval, SimDur::from_millis(400));
        assert_eq!(ProgressSpec::mitigated().interval, SimDur::from_secs(400));
    }

    #[test]
    fn fires_at_its_interval() {
        let mut k = Kernel::new(
            0,
            1,
            SchedOptions::vanilla(),
            ClockModel::synced(),
            SimRng::from_seed(1),
            1 << 12,
        );
        k.trace_mut().set_mask(HookMask::NONE);
        let tid = k.spawn(
            ThreadSpec::new("mpi_timer", ThreadClass::MpiAux, Prio(85)).on_cpu(CpuId(0)),
            Box::new(ProgressThread::new(
                ProgressSpec::default(),
                SimRng::from_seed(2),
            )),
        );
        let mut r = SoloRunner::new(k);
        r.boot();
        r.run_until(SimTime::from_secs(4));
        // ~10 firings of ~350µs: 2-6ms total CPU.
        let t = r.kernel.thread_cpu_time(tid);
        assert!(
            t >= SimDur::from_millis(2) && t <= SimDur::from_millis(7),
            "timer thread consumed {t}"
        );
    }

    #[test]
    fn mitigated_never_fires_in_short_runs() {
        let mut k = Kernel::new(
            0,
            1,
            SchedOptions::vanilla(),
            ClockModel::synced(),
            SimRng::from_seed(1),
            1 << 12,
        );
        k.trace_mut().set_mask(HookMask::NONE);
        let tid = k.spawn(
            ThreadSpec::new("mpi_timer", ThreadClass::MpiAux, Prio(85)).on_cpu(CpuId(0)),
            Box::new(ProgressThread::new(
                ProgressSpec::mitigated(),
                SimRng::from_seed(2),
            )),
        );
        let mut r = SoloRunner::new(k);
        r.boot();
        r.run_until(SimTime::from_secs(4));
        // At most the single boot-time burst.
        let t = r.kernel.thread_cpu_time(tid);
        assert!(
            t <= SimDur::from_micros(600),
            "mitigated thread consumed {t}"
        );
    }
}
