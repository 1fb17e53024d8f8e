//! The administrative cron job.
//!
//! §5.3: *"In examining the traces to determine what caused the outliers,
//! we found that an administrative cron job ran during the slowest
//! Allreduce. This cron job is run every 15 minutes to check on the health
//! of the system. Its various components — Perl scripts and a variety of
//! utility commands — run at a higher priority than user processes and
//! steal CPU resources. We observed that on multiple nodes, one CPU had
//! over 600 msec of wall clock time consumed by these components."*
//!
//! Because cron fires on clock boundaries, the job lands at (nearly) the
//! same moment on every node — which is what makes its 600 ms so deadly to
//! a 944-way collective: some node is always caught mid-Allreduce.

use pa_kernel::{Action, Prio, Program, StepCtx};
use pa_simkit::{RngState, SimDur, SimRng};
use serde::value::Value;
use serde::{Deserialize, Serialize};

/// Configuration of the periodic health-check job.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CronSpec {
    /// Job period (15 minutes in the study; experiments shorten it so a
    /// bounded benchmark run still observes a hit — documented in
    /// DESIGN.md as a time-compression substitution).
    pub period: SimDur,
    /// Components (Perl scripts, utility commands) run per firing.
    pub components: u32,
    /// Median CPU burst of one component.
    pub component_median: SimDur,
    /// Lognormal shape of component bursts.
    pub component_sigma: f64,
    /// Probability a component page-faults.
    pub page_fault_prob: f64,
    /// Extra demand per page fault.
    pub page_fault_extra: SimDur,
    /// Priority of the components ("higher priority than user processes";
    /// the traces showed 56).
    pub prio: Prio,
    /// Offset of the firings within the period. Real cron fires at fixed
    /// wall-clock minutes; a job launched at an arbitrary time sees the
    /// next firing after `phase - (start mod period)`. Experiments set
    /// this to place one firing inside a bounded benchmark loop.
    #[serde(default)]
    pub phase: SimDur,
}

impl Default for CronSpec {
    fn default() -> Self {
        // 12 components averaging ~50 ms ≈ 600 ms per firing.
        CronSpec {
            period: SimDur::from_secs(900),
            components: 12,
            component_median: SimDur::from_millis(42),
            component_sigma: 0.45,
            page_fault_prob: 0.3,
            page_fault_extra: SimDur::from_millis(8),
            prio: Prio::DAEMON_OBSERVED,
            phase: SimDur::ZERO,
        }
    }
}

impl CronSpec {
    /// Expected total CPU demand of one firing.
    pub fn expected_total(&self) -> SimDur {
        let per = self.component_median.nanos() as f64
            * (self.component_sigma * self.component_sigma / 2.0).exp()
            + self.page_fault_prob * self.page_fault_extra.nanos() as f64;
        SimDur::from_nanos((per * f64::from(self.components)) as u64)
    }

    /// Long-run expected utilization of one CPU.
    pub fn utilization(&self) -> f64 {
        if self.period.is_zero() {
            0.0
        } else {
            self.expected_total().nanos() as f64 / self.period.nanos() as f64
        }
    }
}

/// State machine: sleep to the next *clock-aligned* period boundary, then
/// run all components back-to-back.
#[derive(Debug)]
pub struct CronJob {
    spec: CronSpec,
    rng: SimRng,
    remaining_components: u32,
}

impl CronJob {
    /// Instantiate with a node-local RNG stream.
    pub fn new(spec: CronSpec, rng: SimRng) -> CronJob {
        CronJob {
            spec,
            rng,
            remaining_components: 0,
        }
    }
}

impl Program for CronJob {
    fn step(&mut self, ctx: &mut StepCtx) -> Action {
        if self.remaining_components == 0 {
            self.remaining_components = self.spec.components;
            // Cron fires on local-clock boundaries (the same schedule on
            // every node, modulo clock offsets) — no per-node randomness.
            return Action::SleepUntil(
                ctx.local_now
                    .next_boundary(self.spec.period, self.spec.phase),
            );
        }
        self.remaining_components -= 1;
        let mut burst = self
            .rng
            .lognormal_dur(self.spec.component_median, self.spec.component_sigma);
        if self.rng.chance(self.spec.page_fault_prob) {
            burst += self.spec.page_fault_extra;
        }
        Action::Compute(burst)
    }

    fn kind(&self) -> &'static str {
        "cron"
    }

    fn snapshot_state(&self) -> Value {
        (self.remaining_components, self.rng.save_state()).to_value()
    }

    fn restore_state(&mut self, state: &Value) -> Result<(), serde::Error> {
        let (remaining, rng): (u32, RngState) = Deserialize::from_value(state)?;
        self.remaining_components = remaining;
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

    #[test]
    fn default_totals_near_600ms() {
        let c = CronSpec::default();
        let total = c.expected_total();
        assert!(
            total >= SimDur::from_millis(450) && total <= SimDur::from_millis(750),
            "expected ≈600ms, got {total}"
        );
    }

    #[test]
    fn utilization_is_small_despite_big_bursts() {
        let c = CronSpec::default();
        assert!(c.utilization() < 0.001, "cron should be <0.1% long-run");
    }

    #[test]
    fn fires_on_period_boundary_and_consumes_burst() {
        let spec = CronSpec {
            period: SimDur::from_secs(2),
            components: 4,
            component_median: SimDur::from_millis(10),
            component_sigma: 0.0,
            page_fault_prob: 0.0,
            page_fault_extra: SimDur::ZERO,
            ..CronSpec::default()
        };
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
            ThreadSpec::new("cron", ThreadClass::Cron, spec.prio).on_cpu(CpuId(0)),
            Box::new(CronJob::new(spec, SimRng::from_seed(2))),
        );
        let mut r = SoloRunner::new(k);
        r.boot();
        r.run_until(SimTime::from_secs(5));
        // Two firings (at 2s and 4s), 40ms each.
        let t = r.kernel.thread_cpu_time(tid);
        assert!(
            t >= SimDur::from_millis(78) && t <= SimDur::from_millis(90),
            "cron consumed {t}"
        );
        // First dispatch after its boot sleep is at/just after 2s (tick
        // granularity).
        let first_burst = r
            .kernel
            .trace()
            .events()
            .filter(|e| e.hook == pa_trace::HookId::Dispatch && e.tid == tid.0)
            .map(|e| e.time)
            .find(|&t| t >= SimTime::from_millis(100))
            .expect("cron fired");
        assert!(
            first_burst >= SimTime::from_secs(2) && first_burst <= SimTime::from_millis(2020),
            "fired at {first_burst}"
        );
    }

    #[test]
    fn aligned_across_nodes_with_synced_clocks() {
        // Two kernels with synced clocks fire cron within a tick of each
        // other; with a 7ms clock offset they fire 7ms apart.
        let fire_time = |offset_ms: u64| {
            let spec = CronSpec {
                period: SimDur::from_secs(2),
                components: 1,
                component_median: SimDur::from_millis(5),
                component_sigma: 0.0,
                page_fault_prob: 0.0,
                ..CronSpec::default()
            };
            let mut k = Kernel::new(
                0,
                1,
                SchedOptions::vanilla(),
                ClockModel::with_offset(SimDur::from_millis(offset_ms)),
                SimRng::from_seed(1),
                1 << 14,
            );
            k.trace_mut().set_mask(HookMask::ALL);
            let tid = k.spawn(
                ThreadSpec::new("cron", ThreadClass::Cron, spec.prio).on_cpu(CpuId(0)),
                Box::new(CronJob::new(spec, SimRng::from_seed(2))),
            );
            let mut r = SoloRunner::new(k);
            r.boot();
            r.run_until(SimTime::from_secs(5));
            let t = r
                .kernel
                .trace()
                .events()
                .filter(|e| e.hook == pa_trace::HookId::Dispatch && e.tid == tid.0)
                .map(|e| e.time)
                .find(|&t| t >= SimTime::from_millis(100))
                .expect("fired");
            t
        };
        let synced = fire_time(0);
        let offset = fire_time(7);
        // The offset node's local 2s boundary is 7ms *earlier* in global
        // time; both wakes quantize to the node's tick grid.
        assert!(
            synced > offset,
            "offset node should fire earlier: {synced} vs {offset}"
        );
        let gap = synced - offset;
        assert!(
            gap <= SimDur::from_millis(17),
            "alignment should be within offset+tick: {gap}"
        );
    }
}
