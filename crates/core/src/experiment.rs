//! The experiment façade: one builder that assembles cluster, kernel
//! options, noise, job, and co-scheduler the way the study's test runs
//! did (§5.2), runs to completion, and hands back everything needed for
//! analysis.
//!
//! ```
//! use pa_core::{Experiment, CoschedSetup};
//! use pa_mpi::{MpiOp, OpList};
//!
//! // 2 nodes × 4 CPUs, prototype kernel + co-scheduler, 8 Allreduces.
//! let out = Experiment::new(2, 4)
//!     .with_cpus_per_node(4)
//!     .with_kernel(pa_kernel::SchedOptions::prototype())
//!     .with_cosched(CoschedSetup::default())
//!     .with_seed(7)
//!     .run(&mut |_rank| {
//!         Box::new(OpList::new(vec![MpiOp::Allreduce { bytes: 8 }; 8]))
//!     });
//! assert!(out.completed);
//! assert!(out.mean_allreduce_us() > 0.0);
//! ```

use crate::cosched::{CoschedDaemon, CoschedParams};
use pa_cluster::{ClusterSim, ClusterSpec, FabricModel};
use pa_kernel::{Endpoint, Prio, SchedOptions, ThreadSpec};
use pa_mpi::{install_job, Job, JobSpec, OpKind, ProgressSpec, RankWorkload};
use pa_simkit::{SeedSpace, SimDur, SimTime};
use pa_trace::{AttributionReport, CpuTimeline, HookMask, ThreadClass};
use serde::{Deserialize, Serialize};

/// Co-scheduler deployment options.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CoschedSetup {
    /// Priority-cycling parameters.
    pub params: CoschedParams,
    /// Perform the switch-clock synchronization at startup (§4). Without
    /// it, window edges drift apart by the boot-time clock skew.
    pub sync_clocks: bool,
    /// Residual clock error after synchronization.
    pub sync_residual: SimDur,
}

impl Default for CoschedSetup {
    fn default() -> Self {
        CoschedSetup {
            params: CoschedParams::benchmark(),
            sync_clocks: true,
            sync_residual: SimDur::from_micros(20),
        }
    }
}

impl CoschedSetup {
    /// The I/O-aware variant (§5.3 ALE3D fix).
    pub fn io_aware() -> CoschedSetup {
        CoschedSetup {
            params: CoschedParams::io_aware(),
            ..CoschedSetup::default()
        }
    }
}

/// Builder for one cluster run.
#[derive(Debug, Clone)]
pub struct Experiment {
    /// Node count.
    pub nodes: u32,
    /// Tasks per node (≤ CPUs per node).
    pub tasks_per_node: u32,
    /// CPUs per node.
    pub cpus_per_node: u8,
    /// Kernel option block (vanilla / prototype / custom).
    pub kernel: SchedOptions,
    /// Interference profile installed on every node.
    pub noise: pa_noise::NoiseProfile,
    /// Co-scheduler, if deployed.
    pub cosched: Option<CoschedSetup>,
    /// MPI timer threads.
    pub progress: Option<ProgressSpec>,
    /// Master seed.
    pub seed: u64,
    /// Boot-time clock skew bound.
    pub skew_max: SimDur,
    /// Fabric constants.
    pub fabric: FabricModel,
    /// Nodes with tracing enabled (study hook set).
    pub trace_nodes: Vec<u32>,
    /// Node whose ranks get full per-call series (Figure-4 style).
    pub watch_node: Option<u32>,
    /// Record full per-call series for *every* rank (blame capture).
    pub record_all_ranks: bool,
    /// Trace ring capacity per node.
    pub trace_capacity: usize,
    /// Give-up horizon.
    pub horizon: SimDur,
    /// Periodic checkpoints: the interval (sim time) and the file each
    /// one overwrites (None = off).
    pub checkpoint: Option<(SimDur, std::path::PathBuf)>,
    /// Restore engine + recorder state from this checkpoint right after
    /// boot, then run the remaining tail of the job.
    pub restore_from: Option<std::path::PathBuf>,
}

impl Experiment {
    /// Defaults mirror the study's environment: 16-way nodes, vanilla
    /// kernel, production noise, no co-scheduler, polling MPI with timer
    /// threads, 10 ms clock skew.
    pub fn new(nodes: u32, tasks_per_node: u32) -> Experiment {
        Experiment {
            nodes,
            tasks_per_node,
            cpus_per_node: 16,
            kernel: SchedOptions::vanilla(),
            noise: pa_noise::NoiseProfile::production(),
            cosched: None,
            progress: Some(ProgressSpec::default()),
            seed: 42,
            skew_max: SimDur::from_millis(10),
            fabric: FabricModel::default(),
            trace_nodes: Vec::new(),
            watch_node: None,
            record_all_ranks: false,
            trace_capacity: 1 << 18,
            horizon: SimDur::from_secs(3_600),
            checkpoint: None,
            restore_from: None,
        }
    }

    /// Set CPUs per node.
    pub fn with_cpus_per_node(mut self, cpus: u8) -> Self {
        self.cpus_per_node = cpus;
        self
    }

    /// Set the kernel option block.
    pub fn with_kernel(mut self, opts: SchedOptions) -> Self {
        self.kernel = opts;
        self
    }

    /// Set the noise profile.
    pub fn with_noise(mut self, noise: pa_noise::NoiseProfile) -> Self {
        self.noise = noise;
        self
    }

    /// Deploy the co-scheduler.
    pub fn with_cosched(mut self, setup: CoschedSetup) -> Self {
        self.cosched = Some(setup);
        self
    }

    /// Set (or disable, with `None`) the MPI timer threads.
    pub fn with_progress(mut self, progress: Option<ProgressSpec>) -> Self {
        self.progress = progress;
        self
    }

    /// Set the master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set (or disable, with `None`) the per-node link capacity in bytes
    /// per second. `None` is the unlimited default: concurrent messages
    /// overlap for free, as before the contention model existed.
    pub fn with_link_bandwidth(mut self, bytes_per_sec: Option<f64>) -> Self {
        self.fabric.link_bandwidth = bytes_per_sec;
        self
    }

    /// Enable tracing on a node.
    pub fn with_trace_node(mut self, node: u32) -> Self {
        self.trace_nodes.push(node);
        self
    }

    /// Record full per-call series for one node's ranks.
    pub fn with_watch_node(mut self, node: u32) -> Self {
        self.watch_node = Some(node);
        self
    }

    /// Record full per-call series for every rank, as
    /// [`crate::observe::blame_of`]'s critical-path extraction needs.
    /// Memory grows with ranks × collectives, so this is for
    /// representative blame runs, not whole campaigns.
    pub fn with_record_all_ranks(mut self) -> Self {
        self.record_all_ranks = true;
        self
    }

    /// Set the give-up horizon.
    pub fn with_horizon(mut self, horizon: SimDur) -> Self {
        self.horizon = horizon;
        self
    }

    /// Write a checkpoint to `path` at the first window barrier at or
    /// past each multiple of `every` (sim time). The restored run replays
    /// bit-identically.
    pub fn with_checkpoint_every(
        mut self,
        every: SimDur,
        path: impl Into<std::path::PathBuf>,
    ) -> Self {
        self.checkpoint = Some((every, path.into()));
        self
    }

    /// Resume from a checkpoint file written by an identically-specified
    /// run (same spec, seed, and workload).
    pub fn with_restore_from(mut self, path: impl Into<std::path::PathBuf>) -> Self {
        self.restore_from = Some(path.into());
        self
    }

    /// Assemble and run. `make_workload` is invoked once per rank.
    ///
    /// # Panics
    /// Panics where [`Experiment::try_run`] returns an error.
    pub fn run(self, make_workload: &mut dyn FnMut(u32) -> Box<dyn RankWorkload>) -> RunOutput {
        self.try_run(make_workload)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Assemble and run, like [`Experiment::run`], but return an error
    /// naming the checkpoint when the cluster or the run recorder rejects
    /// the one set by [`Experiment::with_restore_from`], or when a
    /// periodic checkpoint set by [`Experiment::with_checkpoint_every`]
    /// cannot be written. The failed attempt's cluster is dropped; rerun
    /// from a fresh experiment.
    pub fn try_run(
        self,
        make_workload: &mut dyn FnMut(u32) -> Box<dyn RankWorkload>,
    ) -> Result<RunOutput, String> {
        assert!(
            self.tasks_per_node <= u32::from(self.cpus_per_node),
            "tasks per node exceeds CPUs"
        );
        let seeds = SeedSpace::new(self.seed);
        let spec = ClusterSpec {
            nodes: self.nodes,
            cpus_per_node: self.cpus_per_node,
            options: self.kernel,
            skew_max: self.skew_max,
            trace_capacity: self.trace_capacity,
            fabric: self.fabric,
        };
        let mut sim = ClusterSim::build(&spec, &seeds);

        // Co-scheduler startup: clock sync first (it rewrites the AIX
        // clock's low-order bits from the switch clock), then one daemon
        // per node.
        let mut cosched_eps: Vec<Option<Endpoint>> = vec![None; self.nodes as usize];
        if let Some(cs) = &self.cosched {
            if cs.sync_clocks {
                sim.sync_clocks(&seeds, cs.sync_residual);
            }
            for node in 0..self.nodes {
                let tid = sim.kernel_mut(node).spawn(
                    ThreadSpec::new("cosched", ThreadClass::Cosched, Prio::COSCHED),
                    Box::new(CoschedDaemon::new(cs.params, self.tasks_per_node)),
                );
                cosched_eps[node as usize] = Some(Endpoint { node, tid });
            }
        }

        // The job.
        let job_spec = JobSpec {
            tasks_per_node: self.tasks_per_node,
            progress: self.progress,
        };
        let nodes: Vec<u32> = (0..self.nodes).collect();
        let job = install_job(&mut sim, &job_spec, &seeds, &nodes, "mpi_", make_workload);

        // Interference. GPFS service endpoints go into the layout so
        // ranks route their I/O through (possibly remote) mmfsd daemons.
        let mut gpfs = Vec::new();
        for node in 0..self.nodes {
            let installed = self.noise.install(sim.kernel_mut(node), &seeds, node);
            if let Some(tid) = installed.gpfs {
                gpfs.push(Endpoint { node, tid });
            }
        }
        job.freeze_layout(cosched_eps.iter().flatten().copied(), gpfs);

        // Tracing and watch lists.
        for &node in &self.trace_nodes {
            sim.kernel_mut(node).trace_mut().set_mask(HookMask::study());
        }
        if let Some(node) = self.watch_node {
            let ranks = job.layout().ranks_on(node);
            job.recorder.lock().unwrap().watch_ranks(&ranks);
        }
        if self.record_all_ranks {
            job.recorder.lock().unwrap().record_all_ranks();
        }

        sim.boot();

        // Checkpointing. The run recorder lives outside the engine but
        // accumulates history, so it rides along in the checkpoint's
        // extras section and is overlaid again on restore.
        let recorder = job.recorder.clone();
        sim.set_checkpoint_extras(Box::new(move || {
            vec![(
                "recorder".to_string(),
                recorder.lock().unwrap().snapshot_value(),
            )]
        }));
        if let Some((every, path)) = &self.checkpoint {
            sim.set_checkpoint_every(*every, path.clone());
        }
        if let Some(from) = &self.restore_from {
            let extras = sim
                .restore(from)
                .map_err(|e| format!("restore from {}: {e}", from.display()))?;
            for (key, value) in extras {
                if key == "recorder" {
                    job.recorder
                        .lock()
                        .unwrap()
                        .restore_value(&value)
                        .map_err(|e| {
                            format!("restore recorder state from {}: {}", from.display(), e.0)
                        })?;
                }
            }
        }

        let horizon = SimTime::ZERO + self.horizon;
        let end = sim.run_until_apps_done(horizon)?;
        let completed = sim.apps_alive() == 0;
        let events = sim.events_processed();
        Ok(RunOutput {
            sim,
            job,
            cosched_eps,
            wall: end.since(SimTime::ZERO),
            completed,
            events,
        })
    }
}

/// Results of one run.
pub struct RunOutput {
    /// The post-run cluster (trace buffers, usage counters).
    pub sim: ClusterSim,
    /// Job handles (recorder, layout, thread ids).
    pub job: Job,
    /// Per-node co-scheduler endpoints (None when not deployed).
    pub cosched_eps: Vec<Option<Endpoint>>,
    /// Job completion time (or the horizon, if it never finished).
    pub wall: SimDur,
    /// Did every rank exit?
    pub completed: bool,
    /// Events the simulator processed.
    pub events: u64,
}

impl RunOutput {
    /// Mean per-rank Allreduce time in µs (the Figure 3/5 y-axis).
    pub fn mean_allreduce_us(&self) -> f64 {
        self.job
            .recorder
            .lock()
            .unwrap()
            .mean_rank_dur_us(OpKind::Allreduce)
    }

    /// Fraction of total CPU time consumed by interference classes.
    pub fn interference_fraction(&self) -> f64 {
        let mut busy = 0u64;
        let mut noise = 0u64;
        for n in 0..self.sim.nodes() {
            for row in self.sim.kernel(n).usage_report() {
                busy += row.cpu_time.nanos();
                if row.class.is_interference() {
                    noise += row.cpu_time.nanos();
                }
            }
        }
        if busy == 0 {
            0.0
        } else {
            noise as f64 / busy as f64
        }
    }

    /// Attribution report for an interval on one node (what stole CPU).
    pub fn attribute(&self, node: u32, start: SimTime, end: SimTime) -> AttributionReport {
        let kernel = self.sim.kernel(node);
        let horizon = SimTime::ZERO + self.wall;
        let timeline = CpuTimeline::build(kernel.trace(), horizon);
        AttributionReport::analyze(kernel.trace(), &timeline, start, end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pa_mpi::{MpiOp, OpList};
    use pa_trace::HookId;

    fn allreduce_workload(n: usize) -> impl FnMut(u32) -> Box<dyn RankWorkload> {
        move |_rank| Box::new(OpList::new(vec![MpiOp::Allreduce { bytes: 8 }; n]))
    }

    #[test]
    fn vanilla_run_completes() {
        let mut wl = allreduce_workload(16);
        let out = Experiment::new(2, 4)
            .with_cpus_per_node(4)
            .with_noise(pa_noise::NoiseProfile::dedicated())
            .with_seed(11)
            .run(&mut wl);
        assert!(out.completed, "job did not finish");
        assert!(out.mean_allreduce_us() > 0.0);
        assert_eq!(
            out.job.recorder.lock().unwrap().count(OpKind::Allreduce),
            16
        );
        out.job
            .recorder
            .lock()
            .unwrap()
            .verify_complete(8)
            .expect("all ranks in all ops");
    }

    #[test]
    fn cosched_registers_and_boosts_tasks() {
        // Long enough that the co-scheduler (woken lazily, one tick after
        // the registration messages arrive) actually runs before the job
        // exits.
        let mut wl = allreduce_workload(1500);
        let out = Experiment::new(2, 4)
            .with_cpus_per_node(4)
            .with_noise(pa_noise::NoiseProfile::dedicated())
            .with_cosched(CoschedSetup::default())
            .with_trace_node(0)
            .with_seed(12)
            .run(&mut wl);
        assert!(out.completed);
        // Priority changes must have been applied to the ranks.
        let prio_changes = out
            .sim
            .kernel(0)
            .trace()
            .events()
            .filter(|e| e.hook == HookId::PrioChange)
            .count();
        assert!(prio_changes >= 4, "co-scheduler never adjusted priorities");
        // Ranks should have been boosted to FAVORED at some point.
        let favored_seen = out
            .sim
            .kernel(0)
            .trace()
            .events()
            .any(|e| e.hook == HookId::PrioChange && e.aux == u64::from(Prio::FAVORED.0));
        assert!(favored_seen, "no favored boost observed");
    }

    #[test]
    fn cosched_reduces_interference_impact() {
        // With heavy noise, the co-scheduled prototype must beat vanilla
        // on mean Allreduce time. A single seed at this tiny scale can be
        // a coin flip, so compare means over a few seeds; the small
        // cluster keeps the test quick.
        let noisy = pa_noise::NoiseProfile::production()
            .without_cron()
            .scaled(3.0);
        let run = |cosched: bool, kernel: SchedOptions, seed: u64| {
            let mut wl = allreduce_workload(600);
            let mut e = Experiment::new(2, 4)
                .with_cpus_per_node(4)
                .with_kernel(kernel)
                .with_noise(noisy.clone())
                .with_seed(seed);
            if cosched {
                e = e.with_cosched(CoschedSetup::default());
            }
            let out = e.run(&mut wl);
            assert!(out.completed);
            out.mean_allreduce_us()
        };
        let seeds = [13u64, 14, 15];
        let mean = |cosched: bool, kernel: SchedOptions| {
            seeds.iter().map(|&s| run(cosched, kernel, s)).sum::<f64>() / seeds.len() as f64
        };
        let vanilla = mean(false, SchedOptions::vanilla());
        let proto = mean(true, SchedOptions::prototype());
        assert!(
            proto < vanilla,
            "prototype+cosched ({proto:.1}µs) should beat vanilla ({vanilla:.1}µs)"
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut wl = allreduce_workload(32);
            let out = Experiment::new(2, 4)
                .with_cpus_per_node(4)
                .with_seed(99)
                .run(&mut wl);
            (out.wall, out.events, out.mean_allreduce_us().to_bits())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn fair_dispatchers_complete_and_are_deterministic() {
        for kind in [
            pa_kernel::DispatcherKind::Cfs,
            pa_kernel::DispatcherKind::Eevdf,
        ] {
            let run = || {
                let mut wl = allreduce_workload(32);
                let out = Experiment::new(2, 4)
                    .with_cpus_per_node(4)
                    .with_kernel(SchedOptions {
                        dispatcher: kind,
                        ..SchedOptions::vanilla()
                    })
                    .with_seed(31)
                    .run(&mut wl);
                assert!(out.completed, "{kind:?} job did not finish");
                (out.wall, out.events, out.mean_allreduce_us().to_bits())
            };
            assert_eq!(run(), run(), "{kind:?} not deterministic");
        }
    }

    #[test]
    #[should_panic(expected = "exceeds CPUs")]
    fn too_many_tasks_rejected() {
        let mut wl = allreduce_workload(1);
        let _ = Experiment::new(1, 8).with_cpus_per_node(4).run(&mut wl);
    }

    #[test]
    fn checkpointed_run_resumes_bit_identically() {
        let path = std::env::temp_dir().join(format!(
            "pa-core-experiment-ckpt-{}.json",
            std::process::id()
        ));
        let base = || {
            Experiment::new(2, 4)
                .with_cpus_per_node(4)
                .with_cosched(CoschedSetup::default())
                .with_noise(pa_noise::NoiseProfile::dedicated())
                .with_seed(21)
        };
        let fingerprint = |out: &RunOutput| {
            (
                out.wall,
                out.events,
                out.completed,
                out.mean_allreduce_us().to_bits(),
            )
        };

        // Uninterrupted reference (no checkpointing at all).
        let mut wl = allreduce_workload(256);
        let reference = base().run(&mut wl);
        let want = fingerprint(&reference);

        // Same run with periodic checkpoints: history unchanged, and the
        // file left behind captures some mid-run barrier.
        let mut wl = allreduce_workload(256);
        let ckpt = base()
            .with_checkpoint_every(SimDur::from_millis(2), &path)
            .run(&mut wl);
        assert_eq!(fingerprint(&ckpt), want, "checkpointing must not perturb");
        assert!(
            ckpt.sim.checkpoints_written() >= 1,
            "run too short to checkpoint"
        );

        // Resume from that barrier in a rebuilt experiment: identical
        // final state, recorder included.
        let mut wl = allreduce_workload(256);
        let resumed = base().with_restore_from(&path).run(&mut wl);
        assert_eq!(fingerprint(&resumed), want);
        assert_eq!(
            resumed.sim.checkpoints_written(),
            ckpt.sim.checkpoints_written()
        );
        assert_eq!(resumed.sim.checkpoint_restores(), 1);
        resumed
            .job
            .recorder
            .lock()
            .unwrap()
            .verify_complete(8)
            .expect("restored recorder covers every op on every rank");
        let _ = std::fs::remove_file(&path);
    }
}
