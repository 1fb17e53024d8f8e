//! Job installation: spawning ranks and their timer threads on a cluster.
//!
//! Mirrors POE's job start (§4): on each node the partition manager
//! spawns one task per CPU (or `tasks_per_node` of them), each task's pid
//! becomes known as it is created, and the map is handed out once. Here
//! [`install_job`] spawns the threads and returns their kernel thread
//! ids; the caller adds the co-scheduler and GPFS endpoints and freezes
//! the [`JobLayout`] with [`Job::freeze_layout`] before the ranks run.
//!
//! A [`JobSpec`] chooses only the job's shape and its timer threads. The
//! MPI itself is fixed: every rank is the study's IBM MPI
//! ([`RankProgram`]), started at AIX user priority [`Prio::USER`].

use crate::layout::{JobLayout, LayoutHandle};
use crate::progress::{ProgressSpec, ProgressThread};
use crate::rank::{RankProgram, RankWorkload};
use crate::recorder::{RecorderHandle, RunRecorder};
use pa_cluster::ClusterSim;
use pa_kernel::{CpuId, Endpoint, Prio, ThreadSpec, Tid};
use pa_simkit::SeedSpace;
use pa_trace::ThreadClass;

/// Shape of a parallel job. Every rank starts at [`Prio::USER`] and its
/// timer thread five levels better.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Tasks per node (16 to fill the node, 15 to leave the reserve CPU —
    /// the §2 workaround the paper aims to retire).
    pub tasks_per_node: u32,
    /// Spawn per-rank MPI timer threads with this spec (None = no
    /// progress engine, an idealization).
    pub progress: Option<ProgressSpec>,
}

/// Handles to an installed job.
#[derive(Debug)]
pub struct Job {
    /// Rank addresses, shared with the rank programs: unset until
    /// [`Job::freeze_layout`].
    layout: LayoutHandle,
    /// Timing collector (shared with the rank programs).
    pub recorder: RecorderHandle,
    /// Rank thread ids, rank order.
    pub rank_tids: Vec<Endpoint>,
    /// Timer-thread ids, rank order (empty when no progress engine).
    pub timer_tids: Vec<Endpoint>,
    /// Total ranks.
    pub nranks: u32,
    /// Tasks per node.
    pub tasks_per_node: u32,
}

impl Job {
    /// Hand the ranks their address map: this job's rank endpoints plus
    /// the co-scheduler and GPFS service endpoints (node order). Call it
    /// exactly once, before the ranks run.
    ///
    /// # Panics
    /// Panics if the layout was already frozen.
    pub fn freeze_layout(
        &self,
        cosched: impl IntoIterator<Item = Endpoint>,
        gpfs: impl IntoIterator<Item = Endpoint>,
    ) {
        let layout = JobLayout::new(self.rank_tids.clone(), self.tasks_per_node, cosched, gpfs);
        assert!(self.layout.set(layout).is_ok(), "job layout frozen twice");
    }

    /// The frozen layout.
    ///
    /// # Panics
    /// Panics if [`Job::freeze_layout`] has not been called.
    pub fn layout(&self) -> &JobLayout {
        self.layout
            .get()
            .expect("job layout read before it was frozen")
    }
}

/// Spawn a job on `nodes` of `sim`, one rank (and timer thread) per
/// local CPU slot, and return its handles with the layout still unset.
///
/// * Ranks are numbered by position in `nodes` (`idx * tpn + local`), so
///   a job on nodes `[2, 5]` has ranks 0..2·tpn with endpoints carrying
///   the physical node ids — collectives route by endpoint and need no
///   remapping.
/// * Threads are spawned through [`ClusterSim::spawn_thread`]: before
///   boot they start with the cluster; on a booted cluster (the batch
///   layer's launch) they land at the current window barrier, so the
///   launch instant is identical at any `--sim-threads`.
/// * Thread names carry `name_prefix` (`mpi_rank_0`, `j3.c0.rank_0`) so
///   traces from co-resident jobs stay distinguishable.
///
/// Rank CPU slots restart at 0 on each node: two jobs time-sharing a node
/// pin their local rank *i* to the same CPU *i* and the per-job gang
/// windows arbitrate between them. `make_workload` is called once per
/// rank.
pub fn install_job(
    sim: &mut ClusterSim,
    spec: &JobSpec,
    seeds: &SeedSpace,
    nodes: &[u32],
    name_prefix: &str,
    make_workload: &mut dyn FnMut(u32) -> Box<dyn RankWorkload>,
) -> Job {
    let tpn = spec.tasks_per_node;
    assert!(tpn > 0, "a job needs at least one task per node");
    assert!(!nodes.is_empty(), "a job needs at least one node");
    let nranks = nodes.len() as u32 * tpn;
    let layout = LayoutHandle::default();
    let recorder = RunRecorder::shared();
    let mut rank_tids = Vec::with_capacity(nranks as usize);
    let mut timer_tids = Vec::new();
    let aux_prio = Prio(Prio::USER.0 - 5);
    // One firing phase for the whole job: timer threads are armed at
    // MPI_Init, so they tick (nearly) together across every rank.
    let timer_phase = spec.progress.map(|ps| {
        let mut rng = seeds.stream_at("mpi/timer-phase", 0, 0);
        pa_simkit::SimDur::from_nanos(rng.range(0, ps.interval.nanos().max(1)))
    });

    for (idx, &node) in nodes.iter().enumerate() {
        assert!(
            tpn <= u32::from(sim.kernel(node).ncpus()),
            "more tasks per node than CPUs is not the paper's regime"
        );
        for local in 0..tpn {
            let rank = idx as u32 * tpn + local;
            let program = RankProgram::new(
                rank,
                nranks,
                layout.clone(),
                make_workload(rank),
                recorder.clone(),
            );
            let tid = sim.spawn_thread(
                node,
                ThreadSpec::new(
                    format!("{name_prefix}rank_{rank}"),
                    ThreadClass::App,
                    Prio::USER,
                )
                .on_cpu(CpuId(local as u8)),
                Box::new(program),
            );
            rank_tids.push(Endpoint { node, tid });
            if let Some(ps) = spec.progress {
                let rng = seeds.stream_at("mpi/timer", u64::from(node), u64::from(local));
                let phase = timer_phase.expect("phase drawn when progress is set");
                let ttid: Tid = sim.spawn_thread(
                    node,
                    ThreadSpec::new(
                        format!("{name_prefix}timer_{rank}"),
                        ThreadClass::MpiAux,
                        aux_prio,
                    )
                    .on_cpu(CpuId(local as u8)),
                    Box::new(ProgressThread::with_phase(ps, phase, rng)),
                );
                timer_tids.push(Endpoint { node, tid: ttid });
            }
        }
    }
    Job {
        layout,
        recorder,
        rank_tids,
        timer_tids,
        nranks,
        tasks_per_node: tpn,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rank::{MpiOp, OpList};
    use crate::recorder::OpKind;
    use pa_cluster::ClusterSpec;
    use pa_simkit::{SimDur, SimTime};

    fn tiny_cluster(nodes: u32, cpus: u8) -> ClusterSim {
        let spec = ClusterSpec {
            nodes,
            cpus_per_node: cpus,
            skew_max: SimDur::ZERO,
            ..ClusterSpec::sp_system(nodes)
        };
        ClusterSim::build(&spec, &SeedSpace::new(7))
    }

    /// Install `spec` on every node of `sim` with no co-scheduler or GPFS
    /// server, freeze its layout and boot.
    fn boot_job(
        sim: &mut ClusterSim,
        spec: &JobSpec,
        make_workload: &mut dyn FnMut(u32) -> Box<dyn RankWorkload>,
    ) -> Job {
        let job = install_unfrozen(sim, spec, make_workload);
        job.freeze_layout([], []);
        sim.boot();
        job
    }

    fn install_unfrozen(
        sim: &mut ClusterSim,
        spec: &JobSpec,
        make_workload: &mut dyn FnMut(u32) -> Box<dyn RankWorkload>,
    ) -> Job {
        let nodes: Vec<u32> = (0..sim.nodes()).collect();
        install_job(sim, spec, &SeedSpace::new(7), &nodes, "mpi_", make_workload)
    }

    #[test]
    fn whole_job_barrier_completes() {
        // No rank leaves an Allreduce before every rank has entered it:
        // the job-wide barrier.
        let mut sim = tiny_cluster(2, 4);
        let spec = JobSpec {
            tasks_per_node: 4,
            progress: None,
        };
        let job = boot_job(&mut sim, &spec, &mut |_r| {
            Box::new(OpList::new(vec![MpiOp::Allreduce { bytes: 8 }]))
        });
        let end = sim.run_until_apps_done(SimTime::from_secs(1));
        assert_eq!(sim.apps_alive(), 0, "deadlock: allreduce never completed");
        let rec = job.recorder.lock().unwrap();
        assert_eq!(rec.count(OpKind::Allreduce), 1);
        rec.verify_complete(8).expect("all ranks completed");
        assert!(end < SimTime::from_millis(5), "allreduce took {end}");
    }

    #[test]
    fn allreduce_takes_log_time_on_quiet_cluster() {
        // 4 nodes × 4 tasks, no noise, no timer threads: the allreduce
        // should complete in O(log n) network hops — order 100-400µs —
        // and all ops complete on all ranks.
        let mut sim = tiny_cluster(4, 4);
        let spec = JobSpec {
            tasks_per_node: 4,
            progress: None,
        };
        let job = boot_job(&mut sim, &spec, &mut |_r| {
            Box::new(OpList::new(vec![
                MpiOp::Allreduce { bytes: 8 },
                MpiOp::Allreduce { bytes: 8 },
            ]))
        });
        sim.run_until_apps_done(SimTime::from_secs(1));
        assert_eq!(sim.apps_alive(), 0);
        let rec = job.recorder.lock().unwrap();
        assert_eq!(rec.count(OpKind::Allreduce), 2);
        rec.verify_complete(16).expect("complete");
        let mean = rec.mean_rank_dur_us(OpKind::Allreduce);
        assert!(mean > 20.0, "implausibly fast: {mean}µs");
        assert!(mean < 1000.0, "implausibly slow: {mean}µs");
    }

    #[test]
    fn exchange_pairs_complete() {
        let mut sim = tiny_cluster(2, 2);
        let spec = JobSpec {
            tasks_per_node: 2,
            progress: None,
        };
        let job = boot_job(&mut sim, &spec, &mut |_r| {
            Box::new(RingExchange { left: 2 })
        });
        sim.run_until_apps_done(SimTime::from_secs(1));
        assert_eq!(sim.apps_alive(), 0);
        let rec = job.recorder.lock().unwrap();
        assert_eq!(rec.count(OpKind::Exchange), 2);
        rec.verify_complete(4).expect("complete");
    }

    /// Each rank exchanges with both ring neighbours, `left` times.
    struct RingExchange {
        left: u32,
    }
    impl RankWorkload for RingExchange {
        fn next_op(&mut self, rank: u32, nranks: u32) -> MpiOp {
            if self.left == 0 {
                return MpiOp::Done;
            }
            self.left -= 1;
            let l = (rank + nranks - 1) % nranks;
            let r = (rank + 1) % nranks;
            MpiOp::Exchange {
                peers: vec![l, r],
                bytes: 1024,
            }
        }
    }

    #[test]
    fn timer_threads_spawn_per_rank() {
        let mut sim = tiny_cluster(2, 2);
        let spec = JobSpec {
            tasks_per_node: 2,
            progress: Some(ProgressSpec::default()),
        };
        let job = boot_job(&mut sim, &spec, &mut |_r| {
            Box::new(OpList::new(vec![MpiOp::Compute(SimDur::from_millis(1))]))
        });
        assert_eq!(job.timer_tids.len(), 4);
        assert_eq!(job.rank_tids.len(), 4);
        sim.run_until_apps_done(SimTime::from_secs(1));
        assert_eq!(sim.apps_alive(), 0);
    }

    #[test]
    fn fifteen_of_sixteen_layout() {
        let mut sim = tiny_cluster(1, 16);
        let spec = JobSpec {
            tasks_per_node: 15,
            progress: None,
        };
        let job = boot_job(&mut sim, &spec, &mut |_r| {
            Box::new(OpList::new(vec![MpiOp::Allreduce { bytes: 8 }]))
        });
        assert_eq!(job.nranks, 15);
        assert_eq!(job.layout().ranks_on(0).len(), 15);
        sim.run_until_apps_done(SimTime::from_secs(1));
        assert_eq!(sim.apps_alive(), 0);
    }

    #[test]
    #[should_panic(expected = "job layout read before it was frozen")]
    fn ranks_need_a_frozen_layout() {
        let mut sim = tiny_cluster(2, 2);
        let spec = JobSpec {
            tasks_per_node: 2,
            progress: None,
        };
        install_unfrozen(&mut sim, &spec, &mut |_r| {
            Box::new(OpList::new(vec![MpiOp::Allreduce { bytes: 8 }]))
        });
        sim.boot();
        sim.run_until_apps_done(SimTime::from_secs(1));
    }

    #[test]
    #[should_panic(expected = "rank 0 issued I/O but no GPFS server is installed \
                               (set NoiseProfile::gpfs_prio)")]
    fn io_without_a_gpfs_server_panics() {
        let mut sim = tiny_cluster(1, 1);
        let spec = JobSpec {
            tasks_per_node: 1,
            progress: None,
        };
        boot_job(&mut sim, &spec, &mut |_r| {
            Box::new(OpList::new(vec![MpiOp::IoRead { bytes: 4096 }]))
        });
        sim.run_until_apps_done(SimTime::from_secs(1));
    }

    #[test]
    #[should_panic(expected = "job layout frozen twice")]
    fn second_layout_freeze_panics() {
        let mut sim = tiny_cluster(1, 2);
        let spec = JobSpec {
            tasks_per_node: 2,
            progress: None,
        };
        let job = boot_job(&mut sim, &spec, &mut |_r| {
            Box::new(OpList::new(vec![MpiOp::Allreduce { bytes: 8 }]))
        });
        job.freeze_layout([], []);
    }
}
