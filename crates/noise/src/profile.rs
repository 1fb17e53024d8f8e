//! Calibrated noise profiles.
//!
//! A [`NoiseProfile`] bundles everything that interferes with the parallel
//! job on one node: the periodic daemon zoo, device-interrupt sources, the
//! administrative cron job, and the GPFS service daemon. The `production`
//! preset is calibrated so that the long-run background load lands in the
//! paper's measured band: *"typical operating system and daemon activity
//! consumes 0.2% to 1.1% of each CPU for large dedicated RS/6000 SP
//! systems with 16 processors per node"* (§2, \[Jones03\]) — verified by the
//! `tab_overhead` experiment.

use crate::cron::{CronJob, CronSpec};
use crate::daemons::{DaemonProgram, DaemonSpec};
use crate::gpfs::{GpfsServer, IoServiceModel};

use pa_kernel::{InterruptSourceSpec, Kernel, Prio, ThreadSpec, Tid};
use pa_simkit::{SeedSpace, SimDur};
use pa_trace::ThreadClass;
use serde::{Deserialize, Serialize};

/// Everything noisy about one node.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NoiseProfile {
    /// Periodic daemons.
    pub daemons: Vec<DaemonSpec>,
    /// Device-interrupt sources (spec name, mean interval, burst range).
    pub interrupts: Vec<InterruptDesc>,
    /// The administrative cron job, if present.
    pub cron: Option<CronSpec>,
    /// Spawn a GPFS (mmfsd) I/O service daemon at this priority.
    pub gpfs_prio: Option<Prio>,
}

/// Serializable stand-in for [`InterruptSourceSpec`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InterruptDesc {
    /// Handler name.
    pub name: String,
    /// Mean inter-arrival.
    pub mean_interval: SimDur,
    /// Burst lower bound.
    pub burst_min: SimDur,
    /// Burst upper bound.
    pub burst_max: SimDur,
}

impl InterruptDesc {
    fn to_spec(&self) -> InterruptSourceSpec {
        InterruptSourceSpec::new(
            self.name.clone(),
            self.mean_interval,
            self.burst_min,
            self.burst_max,
        )
    }

    /// Long-run utilization of one CPU.
    pub fn utilization(&self) -> f64 {
        self.to_spec().utilization()
    }
}

/// Handles to what [`NoiseProfile::install`] spawned on a node.
#[derive(Debug, Clone, Default)]
pub struct InstalledNoise {
    /// Daemon thread ids, in profile order.
    pub daemons: Vec<Tid>,
    /// Cron thread, if configured.
    pub cron: Option<Tid>,
    /// The GPFS service daemon, if configured.
    pub gpfs: Option<Tid>,
}

impl NoiseProfile {
    /// No interference at all (for calibration baselines).
    pub fn silent() -> NoiseProfile {
        NoiseProfile {
            daemons: Vec::new(),
            interrupts: Vec::new(),
            cron: None,
            gpfs_prio: None,
        }
    }

    /// A dedicated system pared to the minimum the study could not remove
    /// (§5.2.2 baseline): syncd, the switch-fabric mld, and NIC interrupts.
    pub fn dedicated() -> NoiseProfile {
        NoiseProfile {
            daemons: vec![
                DaemonSpec {
                    name: "syncd".into(),
                    prio: Prio::NORMAL,
                    period: SimDur::from_secs(60),
                    burst_median: SimDur::from_millis(20),
                    burst_sigma: 0.5,
                    page_fault_prob: 0.1,
                    page_fault_extra: SimDur::from_millis(4),
                },
                DaemonSpec {
                    name: "mld".into(),
                    prio: Prio::DAEMON_OBSERVED,
                    period: SimDur::from_millis(100),
                    burst_median: SimDur::from_micros(60),
                    burst_sigma: 0.3,
                    page_fault_prob: 0.0,
                    page_fault_extra: SimDur::ZERO,
                },
            ],
            interrupts: vec![InterruptDesc {
                name: "phxentdd".into(),
                mean_interval: SimDur::from_millis(20),
                burst_min: SimDur::from_micros(4),
                burst_max: SimDur::from_micros(12),
            }],
            cron: None,
            // GPFS stays mounted even on a dedicated system; application
            // I/O needs it (§5.2.4 limited its *use*, not its presence).
            gpfs_prio: Some(Prio::MMFSD),
        }
    }

    /// The full production SP node of §5.3's traces: the named daemon zoo,
    /// disk and NIC interrupt handlers, the 15-minute health-check cron
    /// job, and GPFS.
    pub fn production() -> NoiseProfile {
        NoiseProfile {
            daemons: vec![
                DaemonSpec {
                    name: "syncd".into(),
                    prio: Prio::NORMAL,
                    period: SimDur::from_secs(60),
                    burst_median: SimDur::from_millis(50),
                    burst_sigma: 0.6,
                    page_fault_prob: 0.25,
                    page_fault_extra: SimDur::from_millis(8),
                },
                DaemonSpec {
                    name: "mmfsd_bg".into(),
                    prio: Prio::MMFSD,
                    period: SimDur::from_millis(500),
                    burst_median: SimDur::from_micros(2_200),
                    burst_sigma: 0.5,
                    page_fault_prob: 0.05,
                    page_fault_extra: SimDur::from_millis(2),
                },
                DaemonSpec {
                    name: "hatsd".into(),
                    prio: Prio::DAEMON_OBSERVED,
                    period: SimDur::from_millis(400),
                    burst_median: SimDur::from_micros(3_500),
                    burst_sigma: 0.5,
                    page_fault_prob: 0.1,
                    page_fault_extra: SimDur::from_millis(4),
                },
                DaemonSpec {
                    name: "hats_nim".into(),
                    prio: Prio::DAEMON_OBSERVED,
                    period: SimDur::from_millis(250),
                    burst_median: SimDur::from_micros(800),
                    burst_sigma: 0.4,
                    page_fault_prob: 0.05,
                    page_fault_extra: SimDur::from_millis(2),
                },
                DaemonSpec {
                    name: "mld".into(),
                    prio: Prio::DAEMON_OBSERVED,
                    period: SimDur::from_millis(50),
                    burst_median: SimDur::from_micros(350),
                    burst_sigma: 0.3,
                    page_fault_prob: 0.0,
                    page_fault_extra: SimDur::ZERO,
                },
                DaemonSpec {
                    name: "LoadL_startd".into(),
                    prio: Prio::DAEMON_OBSERVED,
                    period: SimDur::from_secs(15),
                    burst_median: SimDur::from_millis(40),
                    burst_sigma: 0.6,
                    page_fault_prob: 0.3,
                    page_fault_extra: SimDur::from_millis(8),
                },
                DaemonSpec {
                    name: "inetd".into(),
                    prio: Prio::NORMAL,
                    period: SimDur::from_secs(5),
                    burst_median: SimDur::from_millis(2),
                    burst_sigma: 0.5,
                    page_fault_prob: 0.05,
                    page_fault_extra: SimDur::from_millis(1),
                },
                DaemonSpec {
                    name: "hostmibd".into(),
                    prio: Prio::NORMAL,
                    period: SimDur::from_secs(30),
                    burst_median: SimDur::from_millis(15),
                    burst_sigma: 0.5,
                    page_fault_prob: 0.2,
                    page_fault_extra: SimDur::from_millis(4),
                },
            ],
            interrupts: vec![
                InterruptDesc {
                    name: "caddpin".into(),
                    mean_interval: SimDur::from_millis(25),
                    burst_min: SimDur::from_micros(8),
                    burst_max: SimDur::from_micros(30),
                },
                InterruptDesc {
                    name: "phxentdd".into(),
                    mean_interval: SimDur::from_millis(12),
                    burst_min: SimDur::from_micros(4),
                    burst_max: SimDur::from_micros(15),
                },
            ],
            cron: Some(CronSpec::default()),
            gpfs_prio: Some(Prio::MMFSD),
        }
    }

    /// Scale all daemon bursts and cron components by `k` (sweep knob for
    /// the sensitivity experiments).
    pub fn scaled(mut self, k: f64) -> NoiseProfile {
        self.daemons = self.daemons.into_iter().map(|d| d.scaled(k)).collect();
        if let Some(c) = &mut self.cron {
            c.component_median = c.component_median.mul_f64(k);
        }
        self
    }

    /// Remove the cron job (Fig-4 control runs).
    pub fn without_cron(mut self) -> NoiseProfile {
        self.cron = None;
        self
    }

    /// Expected long-run background utilization of one CPU — daemons plus
    /// interrupts plus cron, assuming they were spread evenly. The paper's
    /// band is per-CPU on a 16-way node where interference concentrates on
    /// whichever CPU hosts it, so the audit experiment reports both views.
    pub fn expected_node_utilization(&self) -> f64 {
        let d: f64 = self.daemons.iter().map(|s| s.utilization()).sum();
        let i: f64 = self.interrupts.iter().map(|s| s.utilization()).sum();
        let c = self.cron.as_ref().map_or(0.0, |c| c.utilization());
        d + i + c
    }

    /// Spawn everything on a node. `node` seeds per-node RNG streams so no
    /// two nodes share daemon phases.
    pub fn install(&self, kernel: &mut Kernel, seeds: &SeedSpace, node: u32) -> InstalledNoise {
        let mut installed = InstalledNoise::default();
        for (i, spec) in self.daemons.iter().enumerate() {
            let rng = seeds.stream_at("noise/daemon", u64::from(node), i as u64);
            let tid = kernel.spawn(
                ThreadSpec::new(spec.name.clone(), ThreadClass::Daemon, spec.prio),
                Box::new(DaemonProgram::new(spec.clone(), rng)),
            );
            installed.daemons.push(tid);
        }
        for desc in &self.interrupts {
            kernel.add_interrupt_source(desc.to_spec());
        }
        if let Some(cron) = &self.cron {
            let rng = seeds.stream_at("noise/cron", u64::from(node), 0);
            let tid = kernel.spawn(
                ThreadSpec::new("cron", ThreadClass::Cron, cron.prio),
                Box::new(CronJob::new(cron.clone(), rng)),
            );
            installed.cron = Some(tid);
        }
        if let Some(prio) = self.gpfs_prio {
            // The cluster configuration: a message-served mmfsd reachable
            // from every node (GPFS metanode/NSD semantics). The caller
            // registers the endpoint with the job layout so ranks route
            // their I/O here.
            let tid = kernel.spawn(
                ThreadSpec::new("mmfsd", ThreadClass::Daemon, prio),
                Box::new(GpfsServer::new(IoServiceModel::default())),
            );
            installed.gpfs = Some(tid);
        }
        installed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pa_kernel::{ClockModel, SchedOptions, SoloRunner};
    use pa_simkit::{SimRng, SimTime};
    use pa_trace::HookMask;

    #[test]
    fn production_utilization_in_paper_band() {
        let p = NoiseProfile::production();
        let u = p.expected_node_utilization();
        // Node-total background budget: per-CPU on the 16-way node this
        // must land inside the paper's 0.2%–1.1% band.
        let per_cpu = u / 16.0;
        assert!(
            per_cpu > 0.002 && per_cpu < 0.011,
            "per-CPU background {per_cpu:.4} outside the paper band (node total {u:.4})"
        );
    }

    #[test]
    fn dedicated_is_quieter_than_production() {
        assert!(
            NoiseProfile::dedicated().expected_node_utilization()
                < NoiseProfile::production().expected_node_utilization() / 2.0
        );
    }

    #[test]
    fn silent_is_zero() {
        assert_eq!(NoiseProfile::silent().expected_node_utilization(), 0.0);
    }

    #[test]
    fn scaling_scales_utilization() {
        let base = NoiseProfile::production();
        let double = base.clone().scaled(2.0);
        let ratio = double.expected_node_utilization() / base.expected_node_utilization();
        assert!(
            (ratio - 2.0).abs() < 0.3,
            "scaling should ~double utilization, ratio {ratio}"
        );
    }

    #[test]
    fn install_spawns_everything() {
        let mut k = Kernel::new(
            0,
            16,
            SchedOptions::vanilla(),
            ClockModel::synced(),
            SimRng::from_seed(5),
            1 << 14,
        );
        k.trace_mut().set_mask(HookMask::NONE);
        let p = NoiseProfile::production();
        let seeds = SeedSpace::new(42);
        let installed = p.install(&mut k, &seeds, 0);
        assert_eq!(installed.daemons.len(), p.daemons.len());
        assert!(installed.cron.is_some());
        assert!(installed.gpfs.is_some());
    }

    #[test]
    fn installed_production_noise_runs_quietly() {
        // On an idle 16-way node, background noise should consume well
        // under 2% of the node over 30 seconds (cron may or may not fire).
        let mut k = Kernel::new(
            0,
            16,
            SchedOptions::vanilla(),
            ClockModel::synced(),
            SimRng::from_seed(5),
            1 << 14,
        );
        k.trace_mut().set_mask(HookMask::NONE);
        let p = NoiseProfile::production().without_cron();
        let seeds = SeedSpace::new(42);
        let installed = p.install(&mut k, &seeds, 0);
        let mut r = SoloRunner::new(k);
        r.boot();
        r.run_until(SimTime::from_secs(30));
        let total: u64 = installed
            .daemons
            .iter()
            .map(|&t| r.kernel.thread_cpu_time(t).nanos())
            .sum();
        let frac = total as f64 / (30e9 * 16.0);
        assert!(frac < 0.02, "daemons consumed {frac} of the node");
        assert!(frac > 0.0001, "daemons seem not to run at all: {frac}");
    }

    #[test]
    fn nodes_get_different_phases() {
        // Install on two nodes; daemon CPU times after 10s should differ
        // in their exact values because phases/bursts differ per node.
        let run_node = |node: u32| {
            let mut k = Kernel::new(
                node,
                4,
                SchedOptions::vanilla(),
                ClockModel::synced(),
                SimRng::from_seed(5),
                1 << 14,
            );
            k.trace_mut().set_mask(HookMask::NONE);
            let p = NoiseProfile::production().without_cron();
            let seeds = SeedSpace::new(42);
            let installed = p.install(&mut k, &seeds, node);
            let mut r = SoloRunner::new(k);
            r.boot();
            r.run_until(SimTime::from_secs(10));
            installed
                .daemons
                .iter()
                .map(|&t| r.kernel.thread_cpu_time(t).nanos())
                .collect::<Vec<u64>>()
        };
        assert_ne!(run_node(0), run_node(1));
    }
}
