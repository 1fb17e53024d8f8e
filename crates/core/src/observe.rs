//! Folding a finished run into `pa-obs` artifacts.
//!
//! The hot layers (`pa-simkit`, `pa-kernel`, `pa-cluster`) deliberately do
//! not depend on `pa-obs`: they bump plain counter structs inline
//! ([`pa_kernel::KernelStats`], [`pa_simkit::QueueStats`], per-program
//! [`pa_kernel::Program::metrics`]) and this module folds everything into
//! one [`MetricsRegistry`] / [`SpanTimeline`] after the run.
//!
//! Every value placed in the registry is derived from simulation state
//! only — never wall-clock — so a snapshot is byte-identical across
//! reruns of the same seed regardless of host load or `--jobs`.

use crate::experiment::RunOutput;
use pa_blame::{BlameInput, Categories, LinkUsage, NoiseSource, OpSpan, RankAccount, RunBlame};
use pa_kernel::{Kernel, Tid};
use pa_obs::{MetricsRegistry, SpanTimeline};
use pa_simkit::SimTime;
use pa_trace::{HookId, TraceBuffer};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Bucket edges (µs) for collective-duration histograms: wide enough for
/// the study's sub-millisecond Allreduces and the multi-second stragglers
/// vanilla kernels produce.
pub const COLL_US_EDGES: [u64; 10] = [
    100, 200, 500, 1_000, 2_000, 5_000, 10_000, 50_000, 200_000, 1_000_000,
];

/// Fold a finished run into a metrics registry.
///
/// Counter namespaces: `engine.*` (event-queue self-profile), `run.*`
/// (completion/wall), `cluster.*` (fabric + clock), `kernel.*` (summed
/// over nodes, including per-band runqueue waits), `trace.*` (ring
/// eviction), `prog.<kind>.<metric>` (per-program counters summed over
/// instances), plus `mpi.<op>.global_us` histograms over recorded
/// collectives.
pub fn metrics_of(out: &RunOutput) -> MetricsRegistry {
    let mut reg = MetricsRegistry::new();

    // Engine self-profile (deterministic part; events/sec is wall-clock,
    // so perfbench reports it beside the snapshot, not here).
    let q = out.sim.queue_stats();
    reg.inc("engine.events_scheduled", q.scheduled);
    reg.inc("engine.events_popped", q.popped);
    reg.inc("engine.events_cancelled", q.cancelled);
    reg.inc("engine.compactions", q.compactions);
    reg.set_gauge("engine.queue_high_water", q.max_pending as i64);
    reg.set_gauge("engine.queue_tombstones", q.tombstones as i64);
    // Window counts describe the engine's schedule, not the simulated
    // machine, and a run restored from a checkpoint counts only the
    // windows it ran itself, so they stay out of the canonical snapshot.
    reg.inc("local.engine.windows_run", out.sim.windows_run());
    reg.inc("local.engine.windows_widened", out.sim.widened_windows());
    // Shard claims repeat exactly, but they count the engine's schedule
    // (which shards each window visited), not the simulated machine, so
    // they stay out of the canonical snapshot too.
    reg.inc("local.engine.shard_claims", out.sim.shard_claims());
    // Wall time spent processing shards, each window's whole claim loop
    // timed once: wall-clock, so nondeterministic across runs.
    reg.inc("local.engine.shard_busy_ns", out.sim.shard_busy_ns());

    reg.inc("run.events", out.events);
    reg.inc("run.completed", u64::from(out.completed));
    reg.set_gauge("run.wall_ns", out.wall.nanos() as i64);

    reg.inc("cluster.messages_routed", out.sim.messages_routed());
    reg.inc("cluster.bytes_routed", out.sim.bytes_routed());
    reg.inc("cluster.clock_resyncs", out.sim.clock_resyncs());
    reg.inc("fabric.fifo_clamps", out.sim.fifo_clamps());
    reg.inc("fabric.link_waits", out.sim.link_waits());
    reg.inc("fabric.link_wait_ns", out.sim.link_wait_ns());
    // Link queueing-delay histogram, rebuilt from the engine's pre-binned
    // counts: each bucket is replayed at its upper edge (overflow at one
    // past the last edge), so sum/min/max are bucket approximations while
    // the bucket counts themselves are exact. Declared only when the
    // finite-link mode produced waits, keeping unlimited-mode snapshots
    // free of an always-empty histogram.
    let link_hist = out.sim.link_wait_hist();
    if link_hist.iter().any(|&c| c > 0) {
        let name = "fabric.link_wait_ns.hist";
        reg.declare_histogram(name, &pa_cluster::LINK_WAIT_EDGES_NS);
        let last = pa_cluster::LINK_WAIT_EDGES_NS[pa_cluster::LINK_WAIT_EDGES_NS.len() - 1];
        for (i, &c) in link_hist.iter().enumerate() {
            let rep = pa_cluster::LINK_WAIT_EDGES_NS
                .get(i)
                .copied()
                .unwrap_or(last + 1);
            reg.observe_n(name, rep, c);
        }
    }
    reg.set_gauge("cluster.nodes", i64::from(out.sim.nodes()));

    // Checkpointing. `checkpoint.writes` and `checkpoint.bytes` are
    // carried across restore, so they match an uninterrupted run's; the
    // restore count is intentionally local to this process, so it lives
    // in the `local.*` namespace that canonical snapshots omit.
    reg.inc("checkpoint.writes", out.sim.checkpoints_written());
    reg.inc("local.checkpoint.restores", out.sim.checkpoint_restores());
    reg.set_gauge("checkpoint.bytes", out.sim.last_checkpoint_bytes() as i64);

    // Sum over nodes first, so each counter name is built once.
    let s = out.sim.kernel_stats();
    reg.inc("kernel.dispatches", s.dispatches);
    reg.inc("kernel.ctx_switches", s.ctx_switches);
    reg.inc("kernel.preemptions", s.preemptions);
    reg.inc("kernel.ipis_sent", s.ipis_sent);
    reg.inc("kernel.ipis_taken", s.ipis_taken);
    reg.inc("kernel.ticks", s.ticks);
    reg.inc("kernel.callouts_fired", s.callouts_fired);
    reg.inc("kernel.poll_spin_ns", s.poll_spin_ns);
    for (b, band) in pa_kernel::RUNQ_BANDS.iter().enumerate() {
        reg.inc(&format!("kernel.runq_wait_ns.{band}"), s.runq_wait_ns[b]);
        reg.inc(&format!("kernel.runq_waits.{band}"), s.runq_waits[b]);
    }
    let mut dropped = 0;
    let mut programs: BTreeMap<(&str, &str), u64> = BTreeMap::new();
    for node in 0..out.sim.nodes() {
        let kernel = out.sim.kernel(node);
        dropped += kernel.trace().dropped();
        kernel.program_metrics(&mut |kind, name, value| {
            *programs.entry((kind, name)).or_insert(0) += value;
        });
    }
    reg.inc("trace.dropped_events", dropped);
    for ((kind, name), value) in programs {
        reg.inc(&format!("prog.{kind}.{name}"), value);
    }

    // Collective-phase histograms from the recorder's per-op aggregates
    // (global duration: first entry to last completion across ranks).
    let recorder = out.job.recorder.lock().unwrap();
    for kind in [pa_mpi::OpKind::Allreduce, pa_mpi::OpKind::Exchange] {
        let aggs = recorder.aggs(kind);
        if aggs.is_empty() {
            continue;
        }
        let name = format!("mpi.{}.global_us", format!("{kind:?}").to_lowercase());
        reg.declare_histogram(&name, &COLL_US_EDGES);
        for (_seq, agg) in aggs {
            reg.observe(&name, agg.global_dur().micros());
        }
    }
    reg
}

/// One rank's blame account, read from its node's kernel at `end`.
fn rank_account(out: &RunOutput, rank: u32, end: SimTime) -> RankAccount {
    let ep = out.job.rank_tids[rank as usize];
    let (cats, wall_ns) = rank_categories(out.sim.kernel(ep.node), ep.tid, end);
    RankAccount {
        rank,
        node: ep.node,
        wall_ns,
        cats,
    }
}

/// A rank thread's six-way wall-time decomposition at `end`, and its
/// wall time in ns, built from the kernel's per-thread wait-state
/// account and the rank program's `compute_ns` counter:
///
/// * `compute` — the rank program's completed compute segments;
/// * `coll_wait` — busy-poll spin: every MPI collective and exchange
///   wait polls;
/// * `runq_wait` — ready-queue delay (daemon preemption and gang-stagger
///   idle land here);
/// * `noise` — device-interrupt debt served inside the rank's segments;
/// * `io_wait` — blocked time: blocked receives plus callout sleeps. MPI
///   waits poll, so a rank blocks only on a GPFS reply, and its blocked
///   time is its I/O;
/// * `overhead` — the signed on-CPU residual (send/recv costs,
///   collective-internal reduce work, tick/IPI steal).
///
/// The sum is exact by construction: the kernel guarantees
/// `wall == cpu + runq_wait + blocked_msg + blocked_sleep`
/// and the split here only repartitions `cpu` into
/// `compute + poll_spin + noise_debt + residual`, so the six categories
/// sum to `wall` to the nanosecond. Shared with the batch engine's
/// per-job aggregation.
pub fn rank_categories(kernel: &Kernel, tid: Tid, end: SimTime) -> (Categories, u64) {
    let a = kernel.thread_account(tid, end);
    let mut compute_ns = 0;
    kernel.thread_program_metrics(tid, &mut |name, v| {
        if name == "compute_ns" {
            compute_ns = v;
        }
    });
    let cats = Categories {
        compute_ns,
        coll_wait_ns: a.poll_spin.nanos(),
        runq_wait_ns: a.runq_wait.nanos(),
        noise_ns: a.noise_debt.nanos(),
        io_wait_ns: a.blocked_msg.nanos() + a.blocked_sleep.nanos(),
        overhead_ns: a.cpu.nanos() as i64
            - compute_ns as i64
            - a.poll_spin.nanos() as i64
            - a.noise_debt.nanos() as i64,
    };
    (cats, a.wall.nanos())
}

/// Assemble the blame input for a finished run: per-rank accounts,
/// per-node interference and link counters, the recorder's per-op
/// samples (when [`crate::Experiment::with_record_all_ranks`] was on),
/// and the trace-drop tally. Everything is simulation-derived, so the
/// result is bit-identical across runs of the same spec and seed.
pub fn blame_input_of(out: &RunOutput, label: impl Into<String>) -> BlameInput {
    let end = SimTime::ZERO + out.wall;
    let ranks: Vec<RankAccount> = (0..out.job.nranks)
        .map(|r| rank_account(out, r, end))
        .collect();
    // Epoch: earliest rank spawn — the job's accounting origin.
    let epoch_ns = out
        .job
        .rank_tids
        .iter()
        .map(|ep| {
            out.sim
                .kernel(ep.node)
                .thread_account(ep.tid, end)
                .spawned_at
                .since(SimTime::ZERO)
                .nanos()
        })
        .min()
        .unwrap_or(0);

    let mut noise = Vec::new();
    let mut links = Vec::new();
    let mut dropped_events = 0u64;
    for node in 0..out.sim.nodes() {
        let kernel = out.sim.kernel(node);
        for row in kernel.usage_report() {
            if row.class.is_interference() && row.cpu_time > pa_simkit::SimDur::ZERO {
                noise.push(NoiseSource {
                    node,
                    name: row.name,
                    cpu_ns: row.cpu_time.nanos(),
                });
            }
        }
        let (waits, wait_ns) = out.sim.link_wait_of(node);
        links.push(LinkUsage {
            node,
            waits,
            wait_ns,
        });
        dropped_events += kernel.trace().dropped();
    }

    let recorder = out.job.recorder.lock().unwrap();
    let mut samples = Vec::new();
    if recorder.records_all_ranks() {
        let layout = out.job.layout();
        samples.reserve(
            (0..out.job.nranks)
                .map(|rank| recorder.samples(rank).map_or(0, <[_]>::len))
                .sum(),
        );
        for rank in 0..out.job.nranks {
            for s in recorder.samples(rank).unwrap_or(&[]) {
                samples.push(OpSpan {
                    rank,
                    node: layout.node_of(rank),
                    seq: s.seq,
                    start_ns: s.start.since(SimTime::ZERO).nanos(),
                    end_ns: s.end.since(SimTime::ZERO).nanos(),
                });
            }
        }
    }

    BlameInput {
        label: label.into(),
        wall_ns: out.wall.nanos(),
        ranks,
        noise,
        links,
        samples,
        epoch_ns,
        dropped_events,
    }
}

/// Analyze a finished run into a [`RunBlame`] section: verified per-rank
/// decomposition, per-node ranking, the happens-before critical path,
/// and noise/link culprit lists.
pub fn blame_of(out: &RunOutput, label: impl Into<String>) -> RunBlame {
    pa_blame::analyze(&blame_input_of(out, label))
}

/// Category totals summed across a run's ranks — the cheap scalar form
/// campaign caches carry (`blame.*` extras).
pub fn blame_totals(out: &RunOutput) -> Categories {
    let end = SimTime::ZERO + out.wall;
    let mut totals = Categories::default();
    for r in 0..out.job.nranks {
        totals.add(&rank_account(out, r, end).cats);
    }
    totals
}

/// Build a span timeline for one node from its trace ring.
///
/// Tracks (Chrome `tid` within process `node`):
/// * `0..cpus` — per-CPU schedule: one span per dispatch (named after the
///   thread), `tick`/`ipi` instants;
/// * `1000 + tid` — per-thread collective phases from `CollBegin`/`CollEnd`
///   pairs;
/// * `900` — priority-change instants (`setprio <thread> -> <prio>`).
///
/// `horizon` closes any span still open when the trace ends so the JSON
/// has no dangling `B` events.
pub fn timeline_from_trace(node: u32, trace: &TraceBuffer, horizon: SimTime) -> SpanTimeline {
    const PRIO_TRACK: u32 = 900;
    const COLL_BASE: u32 = 1_000;

    let mut tl = SpanTimeline::new();
    tl.name_process(node, format!("node{node}"));
    tl.name_track(node, PRIO_TRACK, "priority changes");

    // Each name is built once and shared by every span that carries it.
    let tick: Arc<str> = Arc::from("tick");
    let ipi: Arc<str> = Arc::from("ipi");
    let mut thread_names: BTreeMap<u32, Arc<str>> = BTreeMap::new();
    let mut thread_name = |tid: u32| -> Arc<str> {
        Arc::clone(
            thread_names
                .entry(tid)
                .or_insert_with(|| trace.thread_name(tid).into()),
        )
    };
    let mut coll_names: BTreeMap<u64, Arc<str>> = BTreeMap::new();
    let mut coll_tracks: BTreeSet<u32> = BTreeSet::new();

    let mut cpus_seen = 0u32;
    for ev in trace.events() {
        match ev.hook {
            HookId::Dispatch => {
                let cpu = u32::from(ev.cpu);
                cpus_seen = cpus_seen.max(cpu + 1);
                // A ring that lost its Undispatch leaves the previous
                // span open; close it at this dispatch boundary.
                if tl.depth(node, cpu) > 0 {
                    tl.end(node, cpu, ev.time);
                }
                tl.begin(node, cpu, thread_name(ev.tid), ev.time);
            }
            HookId::Undispatch => {
                tl.end(node, u32::from(ev.cpu), ev.time);
            }
            HookId::Tick => {
                tl.instant(node, u32::from(ev.cpu), Arc::clone(&tick), ev.time);
            }
            HookId::Ipi => {
                tl.instant(node, u32::from(ev.cpu), Arc::clone(&ipi), ev.time);
            }
            HookId::PrioChange => {
                let name = format!("setprio {} -> {}", thread_name(ev.tid), ev.aux);
                tl.instant(node, PRIO_TRACK, name, ev.time);
            }
            HookId::CollBegin => {
                let track = COLL_BASE + ev.tid;
                if coll_tracks.insert(track) {
                    tl.name_track(node, track, format!("{} coll", thread_name(ev.tid)));
                }
                if tl.depth(node, track) > 0 {
                    tl.end(node, track, ev.time);
                }
                let name = coll_names
                    .entry(ev.aux)
                    .or_insert_with(|| format!("coll#{}", ev.aux).into());
                tl.begin(node, track, Arc::clone(name), ev.time);
            }
            HookId::CollEnd => {
                tl.end(node, COLL_BASE + ev.tid, ev.time);
            }
            _ => {}
        }
    }
    for cpu in 0..cpus_seen {
        tl.name_track(node, cpu, format!("cpu{cpu}"));
        while tl.depth(node, cpu) > 0 {
            tl.end(node, cpu, horizon);
        }
    }
    // Close collective spans left open (rank killed at the horizon).
    for track in coll_tracks {
        while tl.depth(node, track) > 0 {
            tl.end(node, track, horizon);
        }
    }
    tl
}

/// Span timeline of one traced node of a finished run.
///
/// The node must have been traced ([`crate::Experiment::with_trace_node`])
/// or the timeline will be empty.
pub fn timeline_of(out: &RunOutput, node: u32) -> SpanTimeline {
    timeline_from_trace(node, out.sim.kernel(node).trace(), SimTime::ZERO + out.wall)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CoschedSetup, Experiment};
    use pa_mpi::{MpiOp, OpList, RankWorkload};

    fn run(seed: u64) -> RunOutput {
        let mut wl = |_rank: u32| -> Box<dyn RankWorkload> {
            Box::new(OpList::new(vec![MpiOp::Allreduce { bytes: 8 }; 256]))
        };
        // Vanilla kernel: its 10 ms tick fires within this short run, so
        // tick/callout counters are exercised too.
        Experiment::new(2, 4)
            .with_cpus_per_node(4)
            .with_cosched(CoschedSetup::default())
            .with_trace_node(0)
            .with_seed(seed)
            .run(&mut wl)
    }

    #[test]
    fn metrics_cover_all_layers() {
        let out = run(5);
        let reg = metrics_of(&out);
        assert!(reg.counter("engine.events_popped") > 0);
        assert!(reg.counter("local.engine.windows_run") > 0);
        assert!(!reg.snapshot_json().contains("windows_"));
        // Indexed queue: cancellation removes entries, nothing lingers.
        assert_eq!(reg.gauge("engine.queue_tombstones"), Some(0));
        assert!(reg.counter("kernel.dispatches") > 0);
        assert!(reg.counter("kernel.ctx_switches") > 0);
        assert!(reg.counter("kernel.ticks") > 0);
        assert!(reg.counter("cluster.messages_routed") > 0);
        assert!(reg.counter("cluster.clock_resyncs") > 0);
        assert!(reg.counter("prog.cosched.window_applies") > 0);
        assert!(reg.counter("prog.cosched.setprio_sent") > 0);
        assert!(reg.counter("prog.mpi_rank.collectives") > 0);
        let h = reg.histogram("mpi.allreduce.global_us").expect("histogram");
        assert_eq!(h.count(), 256);
        // Waits were attributed to some band.
        let total_waits: u64 = pa_kernel::RUNQ_BANDS
            .iter()
            .map(|b| reg.counter(&format!("kernel.runq_waits.{b}")))
            .sum();
        assert!(total_waits > 0);
    }

    #[test]
    fn link_contention_metrics_surface() {
        let mut wl = |_rank: u32| -> Box<dyn RankWorkload> {
            Box::new(OpList::new(vec![MpiOp::Allreduce { bytes: 4096 }; 64]))
        };
        // A 1 MB/s link makes every concurrent cross-node send queue.
        let out = Experiment::new(2, 4)
            .with_cpus_per_node(4)
            .with_link_bandwidth(Some(1e6))
            .with_seed(5)
            .run(&mut wl);
        let reg = metrics_of(&out);
        assert!(reg.counter("fabric.link_waits") > 0);
        assert!(reg.counter("fabric.link_wait_ns") > 0);
        let h = reg
            .histogram("fabric.link_wait_ns.hist")
            .expect("histogram declared under contention");
        assert_eq!(h.count(), reg.counter("fabric.link_waits"));

        // The unlimited default records no waits and no histogram.
        let out = run(5);
        let reg = metrics_of(&out);
        assert_eq!(reg.counter("fabric.link_waits"), 0);
        assert!(reg.histogram("fabric.link_wait_ns.hist").is_none());
    }

    #[test]
    fn snapshot_is_deterministic() {
        let a = metrics_of(&run(5)).snapshot_json();
        let b = metrics_of(&run(5)).snapshot_json();
        assert_eq!(a, b);
        let c = metrics_of(&run(6)).snapshot_json();
        assert_ne!(a, c, "different seeds should differ somewhere");
    }

    #[test]
    fn blame_accounts_sum_and_path_extracts() {
        let mut wl = |_rank: u32| -> Box<dyn RankWorkload> {
            Box::new(OpList::new(
                std::iter::repeat_n(
                    [
                        MpiOp::Compute(pa_simkit::SimDur::from_micros(40)),
                        MpiOp::Allreduce { bytes: 64 },
                    ],
                    128,
                )
                .flatten()
                .collect(),
            ))
        };
        let out = Experiment::new(2, 4)
            .with_cpus_per_node(4)
            .with_cosched(CoschedSetup::default())
            .with_record_all_ranks()
            .with_seed(7)
            .run(&mut wl);
        assert!(out.completed);
        let blame = blame_of(&out, "unit");
        assert_eq!(blame.nranks, 8);
        // The exact-sum invariant is checked (panics otherwise) inside
        // analyze; spot-check the pieces are live too.
        assert!(blame.totals.compute_ns > 0, "compute must be charged");
        assert!(blame.totals.coll_wait_ns > 0, "collectives must wait");
        assert!(blame.totals.noise_ns > 0, "production noise must land");
        let path = blame.path.expect("record-all capture gives a path");
        assert_eq!(path.ops, 128, "every allreduce is on the path");
        assert_eq!(
            path.on_path.total_ns() as u64 + path.coll_release_ns,
            path.span_ns,
            "path decomposition must telescope exactly"
        );
        // Totals match the cheap scalar form used by campaign caches.
        assert_eq!(blame.totals, blame_totals(&out));
    }

    #[test]
    fn silent_noise_and_unlimited_links_blame_nothing() {
        let mut wl = |_rank: u32| -> Box<dyn RankWorkload> {
            Box::new(OpList::new(vec![MpiOp::Allreduce { bytes: 8 }; 32]))
        };
        let out = Experiment::new(2, 4)
            .with_cpus_per_node(4)
            .with_noise(pa_noise::NoiseProfile::silent())
            .with_seed(3)
            .run(&mut wl);
        let blame = blame_of(&out, "quiet");
        assert_eq!(blame.totals.noise_ns, 0, "no noise to blame");
        assert!(blame.noise.is_empty(), "no interference sources");
        assert!(blame.links.is_empty(), "unlimited links never queue");
        assert!(blame.path.is_none(), "no record-all capture, no path");
    }

    #[test]
    fn gpfs_reply_wait_is_blamed_as_io() {
        // Each rank reads 64 MiB through a GPFS server, then joins an
        // Allreduce. MPI waits poll, so the ranks' blocked time is exactly
        // their wait for the server's reply, and it is I/O, not
        // collective skew.
        let mut wl = |_rank: u32| -> Box<dyn RankWorkload> {
            Box::new(OpList::new(vec![
                MpiOp::IoRead { bytes: 64 << 20 },
                MpiOp::Allreduce { bytes: 8 },
            ]))
        };
        let out = Experiment::new(2, 2)
            .with_noise(pa_noise::NoiseProfile::production())
            .with_seed(42)
            .run(&mut wl);
        assert!(out.completed);
        let end = SimTime::ZERO + out.wall;
        let (mut blocked, mut spin) = (0, 0);
        for ep in &out.job.rank_tids {
            let a = out.sim.kernel(ep.node).thread_account(ep.tid, end);
            blocked += a.blocked_msg.nanos() + a.blocked_sleep.nanos();
            spin += a.poll_spin.nanos();
        }
        let totals = blame_totals(&out);
        assert!(blocked > 0, "the reads blocked no rank");
        assert_eq!(totals.io_wait_ns, blocked);
        assert_eq!(totals.coll_wait_ns, spin);
    }

    #[test]
    fn timeline_has_schedule_and_collectives() {
        let out = run(5);
        let tl = timeline_of(&out, 0);
        assert!(!tl.is_empty());
        // Every track is balanced: no dangling open spans.
        let trace = out.sim.kernel(0).trace();
        for ev in trace.events() {
            if ev.hook == HookId::Dispatch {
                assert_eq!(tl.depth(0, u32::from(ev.cpu)), 0);
            }
        }
        let json = tl.to_chrome_trace();
        let v = serde_json::parse(&json).expect("valid chrome trace JSON");
        let events = serde::value::get(v.as_map().unwrap(), "traceEvents")
            .and_then(|e| e.as_seq())
            .expect("traceEvents array");
        assert!(!events.is_empty());
        // An untraced node yields an empty timeline.
        assert!(timeline_of(&out, 1).is_empty());
    }
}
