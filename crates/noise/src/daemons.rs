//! Periodic system daemons.
//!
//! §2 of the paper: "Examples of these serializing system activities
//! include daemons associated with file system activity, daemons
//! associated with membership services, monitoring daemons, cron jobs,
//! and so forth." §5.3 names the cast observed in the traces: syncd,
//! mmfsd, hatsd, hats_nim, inetd, LoadL_startd, mld, hostmibd — running
//! at priorities more favored than user processes, often page-faulting,
//! each stealing a CPU from exactly one rank and thereby stalling the
//! whole collective.
//!
//! A [`DaemonSpec`] describes one such daemon: a timer-driven loop with a
//! lognormal CPU burst and optional page-fault inflation. Wakeups ride the
//! kernel's tick-serviced callout queue, so big ticks batch them exactly
//! as §3.1.1 describes.

use pa_kernel::{Action, Prio, Program, StepCtx};
use pa_simkit::{RngState, SimDur, SimRng};
use pa_trace::HookId;
use serde::value::Value;
use serde::{Deserialize, Serialize};

/// Description of a periodic daemon.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DaemonSpec {
    /// Process name as seen in traces.
    pub name: String,
    /// Dispatching priority (daemons observed in the study ran at 56;
    /// mmfsd is often pinned at 40).
    pub prio: Prio,
    /// Wakeup period.
    pub period: SimDur,
    /// Median CPU burst per wakeup.
    pub burst_median: SimDur,
    /// Lognormal shape of the burst (0 = deterministic).
    pub burst_sigma: f64,
    /// Probability that a wakeup page-faults.
    pub page_fault_prob: f64,
    /// Extra CPU demand when it does ("the execution of these processes
    /// was often accompanied by page faults, increasing their run time").
    pub page_fault_extra: SimDur,
}

impl DaemonSpec {
    /// A deterministic daemon (no burst spread, no page faults).
    pub fn simple(
        name: impl Into<String>,
        prio: Prio,
        period: SimDur,
        burst: SimDur,
    ) -> DaemonSpec {
        DaemonSpec {
            name: name.into(),
            prio,
            period,
            burst_median: burst,
            burst_sigma: 0.0,
            page_fault_prob: 0.0,
            page_fault_extra: SimDur::ZERO,
        }
    }

    /// Long-run expected utilization of one CPU (approximate: lognormal
    /// mean = median·exp(σ²/2), plus expected page-fault overhead).
    pub fn utilization(&self) -> f64 {
        if self.period.is_zero() {
            return 0.0;
        }
        let mean_burst = self.burst_median.nanos() as f64
            * (self.burst_sigma * self.burst_sigma / 2.0).exp()
            + self.page_fault_prob * self.page_fault_extra.nanos() as f64;
        mean_burst / self.period.nanos() as f64
    }

    /// Scale burst sizes by `k` (profile intensity knob).
    pub fn scaled(mut self, k: f64) -> DaemonSpec {
        self.burst_median = self.burst_median.mul_f64(k);
        self.page_fault_extra = self.page_fault_extra.mul_f64(k);
        self
    }
}

/// The running state machine for a [`DaemonSpec`].
///
/// Each instance draws its own phase (uniform in `[0, period)`) so that
/// daemon wakeups are *not* aligned across nodes — on a real cluster each
/// node's daemons started at arbitrary times. Coordination, when it
/// happens, must come from the kernel options and the co-scheduler, which
/// is precisely the paper's point.
#[derive(Debug)]
pub struct DaemonProgram {
    spec: DaemonSpec,
    rng: SimRng,
    phase: SimDur,
    /// Next queued actions (used to emit PageFault trace records before
    /// the inflated burst).
    queued: Vec<Action>,
    fired: bool,
}

impl DaemonProgram {
    /// Instantiate a daemon with its own RNG stream.
    pub fn new(spec: DaemonSpec, mut rng: SimRng) -> DaemonProgram {
        let phase = SimDur::from_nanos(rng.range(0, spec.period.nanos().max(1)));
        DaemonProgram {
            spec,
            rng,
            phase,
            queued: Vec::new(),
            // Start as if a burst just completed: the first action is the
            // sleep to this instance's phase. Bursting at spawn would
            // model every daemon in the system restarting at job launch.
            fired: true,
        }
    }

    /// The daemon's wakeup phase within its period (test introspection).
    pub fn phase(&self) -> SimDur {
        self.phase
    }
}

impl Program for DaemonProgram {
    fn step(&mut self, ctx: &mut StepCtx) -> Action {
        if let Some(a) = self.queued.pop() {
            return a;
        }
        if self.fired {
            self.fired = false;
            return Action::SleepUntil(ctx.local_now.next_boundary(self.spec.period, self.phase));
        }
        self.fired = true;
        let mut burst = if self.spec.burst_sigma > 0.0 {
            self.rng
                .lognormal_dur(self.spec.burst_median, self.spec.burst_sigma)
        } else {
            self.spec.burst_median
        };
        if self.rng.chance(self.spec.page_fault_prob) {
            burst += self.spec.page_fault_extra;
            // Emit the burst after the page-fault marker.
            self.queued.push(Action::Compute(burst));
            return Action::Trace {
                hook: HookId::PageFault,
                aux: self.spec.page_fault_extra.nanos(),
            };
        }
        Action::Compute(burst)
    }

    fn kind(&self) -> &'static str {
        "daemon"
    }

    fn snapshot_state(&self) -> Value {
        // `phase` is drawn at construction from the same rng stream the
        // rebuild uses, so only the loop state and rng position move.
        (self.fired, self.queued.clone(), self.rng.save_state()).to_value()
    }

    fn restore_state(&mut self, state: &Value) -> Result<(), serde::Error> {
        let (fired, queued, rng): (bool, Vec<Action>, RngState) = Deserialize::from_value(state)?;
        self.fired = fired;
        self.queued = queued;
        self.rng.load_state(&rng).map_err(serde::Error)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pa_kernel::{ClockModel, CpuId, Kernel, SchedOptions, SoloRunner, ThreadSpec};
    use pa_simkit::SimTime;
    use pa_trace::{HookMask, ThreadClass};

    fn spec_1ms_every_100ms() -> DaemonSpec {
        DaemonSpec::simple(
            "hatsd",
            Prio::DAEMON_OBSERVED,
            SimDur::from_millis(100),
            SimDur::from_millis(1),
        )
    }

    #[test]
    fn utilization_estimate() {
        let s = spec_1ms_every_100ms();
        assert!((s.utilization() - 0.01).abs() < 1e-9);
        let mut pf = s.clone();
        pf.page_fault_prob = 0.5;
        pf.page_fault_extra = SimDur::from_millis(2);
        // 1ms + 0.5*2ms = 2ms per 100ms = 2%.
        assert!((pf.utilization() - 0.02).abs() < 1e-9);
    }

    #[test]
    fn scaled_changes_bursts_not_period() {
        let s = spec_1ms_every_100ms().scaled(2.0);
        assert_eq!(s.burst_median, SimDur::from_millis(2));
        assert_eq!(s.period, SimDur::from_millis(100));
    }

    #[test]
    fn daemon_consumes_expected_cpu_share() {
        let mut k = Kernel::new(
            0,
            1,
            SchedOptions::vanilla(),
            ClockModel::synced(),
            SimRng::from_seed(1),
            1 << 14,
        );
        k.trace_mut().set_mask(HookMask::NONE);
        let spec = spec_1ms_every_100ms();
        let tid = k.spawn(
            ThreadSpec::new("hatsd", ThreadClass::Daemon, spec.prio).on_cpu(CpuId(0)),
            Box::new(DaemonProgram::new(spec, SimRng::from_seed(2))),
        );
        let mut r = SoloRunner::new(k);
        r.boot();
        r.run_until(SimTime::from_secs(10));
        let t = r.kernel.thread_cpu_time(tid);
        // ~100 wakeups of 1ms ≈ 100ms total, ±ctx-switch noise.
        assert!(
            t >= SimDur::from_millis(90) && t <= SimDur::from_millis(130),
            "daemon used {t}"
        );
    }

    #[test]
    fn phases_differ_between_instances() {
        let spec = spec_1ms_every_100ms();
        let a = DaemonProgram::new(spec.clone(), SimRng::from_seed(10));
        let b = DaemonProgram::new(spec, SimRng::from_seed(11));
        assert_ne!(a.phase(), b.phase());
    }

    #[test]
    fn page_fault_emits_marker() {
        let mut spec = spec_1ms_every_100ms();
        spec.page_fault_prob = 1.0;
        spec.page_fault_extra = SimDur::from_millis(3);
        let mut k = Kernel::new(
            0,
            1,
            SchedOptions::vanilla(),
            ClockModel::synced(),
            SimRng::from_seed(1),
            1 << 14,
        );
        k.trace_mut().set_mask(HookMask::ALL);
        let tid = k.spawn(
            ThreadSpec::new("hatsd", ThreadClass::Daemon, spec.prio).on_cpu(CpuId(0)),
            Box::new(DaemonProgram::new(spec, SimRng::from_seed(2))),
        );
        let mut r = SoloRunner::new(k);
        r.boot();
        r.run_until(SimTime::from_millis(500));
        let pf = r
            .kernel
            .trace()
            .events()
            .filter(|e| e.hook == HookId::PageFault && e.tid == tid.0)
            .count();
        assert!(pf >= 4, "expected page-fault markers, got {pf}");
        // Burst inflated: ≥4ms per wakeup.
        let t = r.kernel.thread_cpu_time(tid);
        assert!(
            t >= SimDur::from_millis(4 * pf as u64 - 4),
            "cpu time {t} for {pf} fires"
        );
    }
}
