//! Drivers for the paper's illustrative figures.
//!
//! * **Figure 1** — the overlap argument: the same amount of system
//!   activity costs the parallel application far less when it is
//!   coordinated (overlapped) than when it lands at random times.
//! * **Figure 2** — the Bulk-Synchronous SPMD cycle: compute /
//!   communicate phase structure per rank.

use crate::ale3d::{Ale3d, Ale3dSpec};
use crate::overlap::{green_fraction, red_touch_fraction};
use pa_core::{CoschedSetup, Experiment};
use pa_kernel::SchedOptions;
use pa_mpi::{MpiOp, OpKind, OpList, RankWorkload};
use pa_noise::NoiseProfile;
use pa_simkit::{SeedSpace, SimDur, SimTime};
use serde::{Deserialize, Serialize};

/// Figure-1 measurement: green/red fractions under random vs coordinated
/// scheduling of the same interference budget.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig1Result {
    /// All-CPUs-running-the-app fraction, vanilla kernel.
    pub green_vanilla: f64,
    /// Same, prototype kernel (coordinated interference).
    pub green_prototype: f64,
    /// Any-CPU-running-interference fraction, vanilla.
    pub red_vanilla: f64,
    /// Same, prototype.
    pub red_prototype: f64,
}

/// Run the Figure-1 experiment: one 8-way node (as drawn in the paper),
/// amplified noise, an Allreduce-heavy job, identical seeds; vanilla vs
/// prototype kernel (big ticks batch and the global queue spreads the
/// daemons, overlapping their execution).
pub fn fig1(seed: u64, quick: bool) -> Fig1Result {
    let nodes = 2;
    let tpn = 8u32;
    let calls = if quick { 600 } else { 2500 };
    // A uniform daemon population (like the figure's equal-sized red
    // boxes): eight 2 ms / 100 ms daemons per node at the observed
    // priority 56. Identical total red budget in both runs; only the
    // kernel's coordination differs.
    let noise = NoiseProfile {
        daemons: (0..8)
            .map(|i| pa_noise::DaemonSpec {
                name: format!("noised{i}"),
                prio: pa_kernel::Prio::DAEMON_OBSERVED,
                period: pa_simkit::SimDur::from_millis(100),
                burst_median: pa_simkit::SimDur::from_millis(2),
                burst_sigma: 0.0,
                page_fault_prob: 0.0,
                page_fault_extra: pa_simkit::SimDur::ZERO,
            })
            .collect(),
        interrupts: Vec::new(),
        cron: None,
        gpfs_prio: None,
    };
    let run = |kernel: SchedOptions, cosched: bool| -> (f64, f64) {
        let mut make = |_rank: u32| -> Box<dyn RankWorkload> {
            Box::new(OpList::new(
                std::iter::repeat_n(MpiOp::Allreduce { bytes: 8 }, calls).collect(),
            ))
        };
        let mut e = Experiment::new(nodes, tpn)
            .with_cpus_per_node(8)
            .with_kernel(kernel)
            .with_noise(noise.clone())
            .with_progress(None)
            .with_seed(seed)
            .with_trace_node(0);
        if cosched {
            e = e.with_cosched(CoschedSetup::default());
        }
        let out = e.run(&mut make);
        assert!(out.completed, "fig1 run did not finish");
        let end = SimTime::ZERO + out.wall;
        let trace = out.sim.kernel(0).trace();
        (
            green_fraction(trace, tpn as u8, SimTime::ZERO, end),
            red_touch_fraction(trace, tpn as u8, SimTime::ZERO, end),
        )
    };
    let (gv, rv) = run(SchedOptions::vanilla(), false);
    let (gp, rp) = run(SchedOptions::prototype(), true);
    Fig1Result {
        green_vanilla: gv,
        green_prototype: gp,
        red_vanilla: rv,
        red_prototype: rp,
    }
}

/// One rank's phase breakdown over the observed timesteps (Figure 2).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BspRankRow {
    /// Global rank.
    pub rank: u32,
    /// Total compute-phase time, ms (wall between communication ops).
    pub compute_ms: f64,
    /// Total halo-exchange time, ms.
    pub exchange_ms: f64,
    /// Total reduction time, ms.
    pub reduce_ms: f64,
}

/// Run a short ALE3D-proxy window and report the per-rank BSP phase
/// structure of node 0 (the Figure-2 picture, as data).
pub fn fig2(seed: u64) -> Vec<BspRankRow> {
    let seeds = SeedSpace::new(seed);
    let spec = Ale3dSpec {
        timesteps: 4,
        compute_per_step: SimDur::from_millis(5),
        initial_read_bytes: 1 << 18,
        restart_bytes: 1 << 18,
        plot_every: 0,
        ..Ale3dSpec::default()
    };
    let mut make = |rank: u32| -> Box<dyn RankWorkload> {
        Box::new(Ale3d::new(
            spec,
            seeds.stream_at("wl/ale3d", u64::from(rank), 0),
        ))
    };
    let out = Experiment::new(2, 8)
        .with_cpus_per_node(8)
        .with_noise(NoiseProfile::dedicated())
        .with_seed(seed)
        .with_watch_node(0)
        .run(&mut make);
    assert!(out.completed, "fig2 run did not finish");
    let recorder = out.job.recorder.lock().unwrap();
    let wall_ms = out.wall.as_millis_f64();
    let ranks = out.job.layout().ranks_on(0);
    ranks
        .iter()
        .map(|&rank| {
            let samples = recorder.samples(rank).expect("watched");
            let mut exchange_ms = 0.0;
            let mut reduce_ms = 0.0;
            for s in &samples {
                match s.kind {
                    OpKind::Exchange => exchange_ms += s.dur().as_millis_f64(),
                    OpKind::Allreduce => reduce_ms += s.dur().as_millis_f64(),
                }
            }
            BspRankRow {
                rank,
                compute_ms: (wall_ms - exchange_ms - reduce_ms).max(0.0),
                exchange_ms,
                reduce_ms,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_prototype_has_more_green() {
        let r = fig1(42, true);
        assert!(r.green_vanilla > 0.0 && r.green_vanilla < 1.0);
        assert!(
            r.green_prototype > r.green_vanilla,
            "coordination should increase all-CPU availability: {:.3} vs {:.3}",
            r.green_prototype,
            r.green_vanilla
        );
    }

    #[test]
    fn fig2_phases_are_nonzero() {
        let rows = fig2(42);
        assert_eq!(rows.len(), 8);
        for r in &rows {
            assert!(r.reduce_ms > 0.0, "rank {} shows no reductions", r.rank);
            assert!(r.exchange_ms > 0.0, "rank {} shows no halo", r.rank);
            assert!(r.compute_ms > 0.0);
        }
    }
}
