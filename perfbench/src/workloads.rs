//! The benchmark's three workloads. A pass does a workload's whole work
//! once and checks its own results; `main` repeats passes for the run's
//! time budget.
//!
//! * `fig6-944` — the paper's headline point: 59 nodes × 16 ranks under
//!   production noise without cron, a fixed Allreduce count first on the
//!   vanilla kernel, then on the prototype kernel with the co-scheduler;
//!   each arm covers about 550 ms of simulated time. Per-event work
//!   dominates (calendar, dispatcher, MPI progress). The co-scheduler's
//!   window grid is shifted so the prototype arm crosses both window
//!   edges: a favored → unfavored flip at 250 ms and the flip back at
//!   500 ms.
//! * `machine-8192` — the paper's whole 512 × 16 machine on the vanilla
//!   kernel, running a coarse-grained loop of Allreduces with 5 ms of
//!   compute between them. Most windows find nothing to do on most of
//!   the 512 shards, so per-window, per-shard overhead dominates.
//! * `resume-report` — a sweep up to 8 nodes × 16 ranks, cold through the
//!   campaign cache, then warm; one point checkpointed, verified,
//!   restored and resumed; the representative point re-run observed and
//!   reported with a Chrome trace and a blame report.
//!
//! Only `resume-report` reaches the checkpoint and campaign layers, the
//! trace timeline and the blame analysis. The other two workloads fold
//! each run into its metrics snapshot and nothing more, so they are the
//! bypass side of any change to those layers.

use crate::pass::{snapshot_digest, Pass, Run};
use pa_campaign::{Cache, CampaignOutcome, ExecutorConfig};
use pa_core::RunOutput;
use pa_simkit::SimDur;
use pa_workloads::{run_scaling_campaign, ScalingConfig};
use std::path::Path;

/// The seed whose fingerprints are recorded in [`RECORDED`].
pub const DEFAULT_SEED: u64 = 42;
/// The paper's 944-processor point: 59 16-way nodes.
const FIG6_NODES: u32 = 59;
/// Allreduce calls of each fig6-944 arm. At 944 ranks the host time
/// follows the events, and the events follow the calls: a fixed count
/// holds them within a few percent across seeds, where a fixed span of
/// simulated time let them swing by 15 %. Each arm takes about 550 ms of
/// simulated time, so the prototype arm crosses both co-scheduler edges.
const FIG6_VANILLA_CALLS: u32 = 500;
const FIG6_PROTOTYPE_CALLS: u32 = 1_900;
/// Offset of the fig6-944 co-scheduler's window grid. Its 1.25 s period
/// is favored for 1 s, so with this phase the unfavored window runs from
/// 250 ms to 500 ms: both edges sit on 250 ms big ticks inside the span.
const FIG6_COSCHED_PHASE: SimDur = SimDur::from_nanos(500_000_000);
/// Window applies per node when the prototype arm crosses both edges:
/// the first one after registration, then one per edge.
const FIG6_APPLIES_PER_NODE: u64 = 3;
/// The paper's machine: 512 16-way nodes.
const MACHINE_NODES: u32 = 512;
/// Allreduce calls of the machine-8192 loop, and the compute between two
/// of them. The loop takes about 280 ms of simulated time.
const MACHINE_CALLS: u32 = 40;
const MACHINE_COMPUTE: SimDur = SimDur::from_nanos(5_000_000);
/// Sizes of the resume-report sweep. The largest is its representative
/// point, re-run observed for the report, as the figure binaries do.
const SWEEP_NODES: [u32; 3] = [2, 4, 8];
const SWEEP_CALLS: u32 = 600;
/// The resumed point. Checkpoint decoding is quadratic in file size: an
/// 8-node checkpoint would take minutes to read back, and a 4-node one
/// (220 KB, about 1.3 s) would leave the pass to a single call whose
/// speed swings most with the host's load.
const RESUMED_NODES: u32 = 2;
/// Where the resumed point's one periodic checkpoint lands, as a share of
/// its simulated run. The interval is that share of the run the cold
/// sweep measured, so at any seed exactly one checkpoint lands, past
/// mid-run: the run takes 80 ms at most seeds and 120 ms at some, and a
/// second checkpoint would be larger and slower to decode.
const CHECKPOINT_AT: f64 = 0.6;

/// What an engine run at [`DEFAULT_SEED`] must reproduce.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fingerprint {
    pub events: u64,
    pub windows: u64,
    pub messages: u64,
    pub mean_allreduce_us: f64,
    /// [`snapshot_digest`] of the run's metrics snapshot.
    pub snapshot: u64,
}

/// Fingerprints of each engine run at [`DEFAULT_SEED`]. The simulator is
/// deterministic, so a mismatch is a change in simulated behaviour.
const RECORDED: &[(&str, Fingerprint)] = &[
    (
        "fig6-944/vanilla",
        Fingerprint {
            events: 4754829,
            windows: 23458,
            messages: 943000,
            mean_allreduce_us: 998.4227633241526,
            snapshot: 15537500445819006438,
        },
    ),
    (
        "fig6-944/prototype",
        Fingerprint {
            events: 17869722,
            windows: 33957,
            messages: 3584344,
            mean_allreduce_us: 313.26454247881355,
            snapshot: 16535170415697666999,
        },
    ),
    (
        "machine-8192",
        Fingerprint {
            events: 3507938,
            windows: 15562,
            messages: 655280,
            mean_allreduce_us: 1889.3109549560547,
            snapshot: 12658769208259498653,
        },
    ),
    (
        "resume-report/checkpointed",
        Fingerprint {
            events: 186297,
            windows: 4233,
            messages: 37200,
            mean_allreduce_us: 108.85793296875,
            snapshot: 6932424174228569360,
        },
    ),
    (
        "resume-report/representative",
        Fingerprint {
            events: 762349,
            windows: 7432,
            messages: 152400,
            mean_allreduce_us: 217.72403833333334,
            snapshot: 9717565135339263622,
        },
    ),
];

#[derive(Clone, Copy)]
pub enum Workload {
    Fig6,
    Machine,
    ResumeReport,
}

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        match name {
            "fig6-944" => Some(Workload::Fig6),
            "machine-8192" => Some(Workload::Machine),
            "resume-report" => Some(Workload::ResumeReport),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig6 => "fig6-944",
            Workload::Machine => "machine-8192",
            Workload::ResumeReport => "resume-report",
        }
    }

    /// The engine runs a pass times as `cluster.run`: `setup_s` sums
    /// their set-up cost and `events_per_s` counts their events.
    pub fn engine_runs(self, seed: u64) -> Vec<Run> {
        match self {
            Workload::Fig6 => {
                let mut prototype = calls(ScalingConfig::fig5(false), FIG6_PROTOTYPE_CALLS);
                let mut setup = prototype.cosched.expect("fig5 deploys the co-scheduler");
                setup.params.phase = FIG6_COSCHED_PHASE;
                prototype.cosched = Some(setup);
                vec![
                    Run {
                        label: "fig6-944/vanilla",
                        spec: calls(ScalingConfig::fig3(false), FIG6_VANILLA_CALLS)
                            .point(FIG6_NODES, seed),
                        observed: false,
                    },
                    Run {
                        label: "fig6-944/prototype",
                        spec: prototype.point(FIG6_NODES, seed),
                        observed: false,
                    },
                ]
            }
            Workload::Machine => vec![Run {
                label: "machine-8192",
                spec: machine().point(MACHINE_NODES, seed),
                observed: false,
            }],
            Workload::ResumeReport => vec![
                Run {
                    label: "resume-report/checkpointed",
                    spec: sweep(seed).point(RESUMED_NODES, seed),
                    observed: false,
                },
                Run {
                    label: "resume-report/representative",
                    spec: sweep(seed).point(SWEEP_NODES[SWEEP_NODES.len() - 1], seed),
                    observed: true,
                },
            ],
        }
    }

    /// One pass of the workload's whole work.
    pub fn pass(self, p: &mut Pass, seed: u64, dir: &Path) {
        let runs = self.engine_runs(seed);
        match self {
            Workload::Fig6 => {
                let [vanilla, prototype] = [&runs[0], &runs[1]].map(|run| {
                    let out = p.engine(run, run.experiment());
                    let digest = p.snapshot(&out, dir);
                    check_recorded(p, run.label, &out, digest, seed);
                    let mean = out.mean_allreduce_us();
                    p.teardown(out);
                    mean
                });
                p.set("mpi.mean_allreduce_us.vanilla", vanilla);
                p.set("mpi.mean_allreduce_us.prototype", prototype);
                p.set("mpi.speedup_944", vanilla / prototype);
                p.check(
                    "fig6-944: the prototype arm's Allreduce beats the vanilla arm's",
                    prototype < vanilla,
                );
                p.check(
                    "fig6-944: the co-scheduler crosses both window edges on every node",
                    p.count("cosched.window_applies")
                        == (FIG6_APPLIES_PER_NODE * u64::from(FIG6_NODES)) as f64,
                );
            }
            Workload::Machine => {
                let run = &runs[0];
                let out = p.engine(run, run.experiment());
                let digest = p.snapshot(&out, dir);
                check_recorded(p, run.label, &out, digest, seed);
                p.set("mpi.mean_allreduce_us.vanilla", out.mean_allreduce_us());
                p.teardown(out);
            }
            Workload::ResumeReport => {
                resume_report(p, &runs[0], seed, dir);
                let run = &runs[1];
                let out = p.engine(run, run.experiment());
                let digest = p.snapshot(&out, dir);
                p.report(&out, run.label, dir);
                check_recorded(p, run.label, &out, digest, seed);
                p.set("mpi.mean_allreduce_us.vanilla", out.mean_allreduce_us());
                p.teardown(out);
            }
        }
    }
}

/// `cfg` run for a fixed number of Allreduce calls, to completion.
fn calls(cfg: ScalingConfig, allreduces: u32) -> ScalingConfig {
    ScalingConfig {
        allreduces,
        target_sim_time: None,
        ..cfg
    }
}

/// The machine-8192 loop. The production daemons are silenced: at 8192
/// ranks their rare long bursts land in some Allreduce or other, and with
/// them the simulated time of 40 calls, the window count and the host
/// time swing by a fifth from seed to seed (by a half under production
/// noise). Silent, the window count stays within 1 %.
fn machine() -> ScalingConfig {
    let mut cfg = calls(ScalingConfig::fig3(false), MACHINE_CALLS);
    cfg.noise = pa_noise::NoiseProfile::silent();
    cfg.agg.inter_compute = MACHINE_COMPUTE;
    cfg
}

/// The resume-report sweep: every size at two seeds, a fixed Allreduce
/// count on the vanilla kernel.
fn sweep(seed: u64) -> ScalingConfig {
    ScalingConfig {
        node_counts: SWEEP_NODES.to_vec(),
        seeds: vec![seed, seed.wrapping_add(1)],
        ..calls(ScalingConfig::fig3(false), SWEEP_CALLS)
    }
}

/// At the default seed, check a run against its recorded fingerprint.
fn check_recorded(p: &mut Pass, label: &str, out: &RunOutput, snapshot: u64, seed: u64) {
    if seed != DEFAULT_SEED {
        return;
    }
    let got = Fingerprint {
        events: out.events,
        windows: out.sim.windows_run(),
        messages: out.sim.messages_routed(),
        mean_allreduce_us: out.mean_allreduce_us(),
        snapshot,
    };
    match RECORDED.iter().find(|(name, _)| *name == label) {
        Some((_, want)) => {
            if !p.check(
                &format!("{label}: matches its recorded fingerprint"),
                got == *want,
            ) {
                eprintln!("  recorded {want:?}\n  observed {got:?}");
            }
        }
        None => eprintln!("note: no fingerprint recorded for ({label:?}, {got:?})"),
    }
}

/// Sweep cold and then warm through a fresh cache, then checkpoint
/// `run`, verify that checkpoint and resume from it.
fn resume_report(p: &mut Pass, run: &Run, seed: u64, dir: &Path) {
    let cfg = sweep(seed);
    let points = cfg.points();
    let cache_dir = dir.join("cache");
    let _ = std::fs::remove_dir_all(&cache_dir);
    let campaign = |p: &mut Pass, name: &'static str| -> Option<CampaignOutcome> {
        let exec = ExecutorConfig::serial("resume-report").with_cache(Cache::at(&cache_dir).ok()?);
        let swept = p.time(name, || run_scaling_campaign(&cfg, &exec));
        swept.ok().map(|(_, outcome)| outcome)
    };

    let cold = campaign(p, "campaign.cold");
    let simulated = cold.as_ref().map_or(0, |c| c.metrics.points_run);
    if !p.check(
        "resume-report: the cold sweep simulates every point",
        simulated == points.len(),
    ) {
        return;
    }
    let cold = cold.expect("checked above");
    let warm = campaign(p, "campaign.warm");
    let hits = warm.as_ref().map_or(0, |w| w.metrics.cache_hits);
    p.check(
        "resume-report: the warm sweep is served unchanged from the cache",
        hits == points.len() && warm.is_some_and(|w| w.results == cold.results),
    );
    p.set("campaign.points", points.len() as f64);
    p.set("campaign.cache_hits", hits as f64);
    let reference = points
        .iter()
        .position(|s| s.nodes == run.spec.nodes && s.seed == seed)
        .map(|i| &cold.results[i])
        .expect("the resumed point is part of the sweep");

    let periodic = dir.join("periodic.ckpt.json");
    let every = SimDur::from_nanos((reference.wall_s * CHECKPOINT_AT * 1e9) as u64);
    let mut out = p.engine(
        run,
        run.experiment().with_checkpoint_every(every, &periodic),
    );
    p.check(
        "resume-report: periodic checkpoints leave the run unchanged",
        out.events == reference.events
            && out.mean_allreduce_us().to_bits() == reference.mean_allreduce_us.to_bits(),
    );
    p.check(
        "resume-report: one periodic checkpoint lands mid-run",
        out.sim.checkpoints_written() == 1,
    );
    let digest = snapshot_digest(&pa_core::metrics_of(&out).snapshot_json());
    check_recorded(p, run.label, &out, digest, seed);
    let uninterrupted = (
        out.events,
        out.wall,
        out.sim.messages_routed(),
        out.mean_allreduce_us().to_bits(),
        digest,
    );
    let final_ckpt = dir.join("final.ckpt.json");
    let written = p.time("checkpoint.write", || out.sim.checkpoint(&final_ckpt));
    p.check(
        "resume-report: the finished run checkpoints",
        written.is_ok(),
    );
    p.teardown(out);
    p.set(
        "checkpoint.bytes",
        std::fs::metadata(&periodic).map_or(0, |m| m.len()) as f64,
    );

    let verified = p.time("checkpoint.verify", || {
        pa_cluster::verify_checkpoint_file(&periodic)
    });
    if !p.check(
        "resume-report: the periodic checkpoint verifies",
        verified.is_ok(),
    ) {
        return;
    }
    let resumed = p.time("checkpoint.resume", || {
        run.execute(run.experiment().with_restore_from(&periodic))
    });
    let digest = snapshot_digest(&pa_core::metrics_of(&resumed).snapshot_json());
    p.check(
        "resume-report: the resumed run is identical to the uninterrupted one",
        resumed.completed
            && (
                resumed.events,
                resumed.wall,
                resumed.sim.messages_routed(),
                resumed.mean_allreduce_us().to_bits(),
                digest,
            ) == uninterrupted,
    );
    p.teardown(resumed);
    if p.traced {
        // Restore alone: the resumed experiment stops before its first
        // window. It runs last so that, like the resume, it decodes into
        // memory an earlier decode already faulted in.
        let restored = p.time("checkpoint.restore", || {
            run.execute(
                run.experiment()
                    .with_restore_from(&periodic)
                    .with_horizon(SimDur::from_nanos(1)),
            )
        });
        p.teardown(restored);
    }
}
