//! Shard-assignment permutation tests for the work-stealing window
//! scheduler: assignment decides only *which worker* advances a shard
//! inside a window, so the canonical metrics snapshot (which omits the
//! nondeterministic `local.*` namespace), the per-node trace buffers,
//! and the blame report must all be byte-identical across every
//! schedule (static stripe, heaviest-first stealing, adversarial
//! rotating claim order) at `--sim-threads` 1/2/4/8. One ignored test
//! holds the engine's wall-clock gates; CI runs it in release with
//! `--ignored`.

use pa_campaign::PointResult;
use pa_cluster::ShardSchedule;
use pa_core::{blame_of, metrics_of, CoschedSetup, Experiment};
use pa_mpi::{MpiOp, OpList, RankWorkload};
use pa_simkit::{SeedSpace, SimDur};
use pa_workloads::{AggregateTrace, ScalingConfig};
use proptest::prelude::*;
use std::time::Instant;

/// A deliberately skewed workload: ranks on node 0 compute ~40× longer
/// per round than the rest, so the hot shard dominates every window —
/// the exact scenario the stealing order exists to absorb.
fn skewed_workload(tasks_per_node: u32) -> impl FnMut(u32) -> Box<dyn RankWorkload> {
    move |rank: u32| -> Box<dyn RankWorkload> {
        // Block layout: ranks 0..tasks_per_node live on node 0.
        let compute_us = if rank < tasks_per_node { 400 } else { 10 };
        Box::new(OpList::new(
            std::iter::repeat_n(
                [
                    MpiOp::Compute(SimDur::from_micros(compute_us)),
                    MpiOp::Allreduce { bytes: 256 },
                ],
                12,
            )
            .flatten()
            .collect(),
        ))
    }
}

/// Everything observable from one run: canonical metrics (minus
/// `local.*` by construction), node 0's trace buffer, and the blame
/// report's canonical JSON.
fn fingerprint(
    seed: u64,
    link_bw: Option<f64>,
    threads: usize,
    schedule: ShardSchedule,
) -> (String, Vec<pa_trace::TraceEvent>, String) {
    let out = Experiment::new(4, 2)
        .with_cpus_per_node(4)
        .with_trace_node(0)
        .with_record_all_ranks()
        .with_seed(seed)
        .with_link_bandwidth(link_bw)
        .with_sim_threads(threads)
        .with_shard_schedule(schedule)
        .run(&mut skewed_workload(2));
    let trace: Vec<pa_trace::TraceEvent> = out.sim.kernel(0).trace().events().copied().collect();
    let blame = pa_blame::BlameReport {
        title: "sched".into(),
        runs: vec![blame_of(&out, "sched")],
        ..pa_blame::BlameReport::default()
    }
    .to_json();
    (metrics_of(&out).snapshot_json(), trace, blame)
}

#[test]
fn shard_schedule_permutations_replay_identical_history() {
    let reference = fingerprint(42, None, 1, ShardSchedule::Stripe);
    for threads in [1usize, 2, 4, 8] {
        for schedule in [
            ShardSchedule::Stripe,
            ShardSchedule::Steal,
            ShardSchedule::StealAdversarial,
        ] {
            let got = fingerprint(42, None, threads, schedule);
            assert_eq!(
                reference.0, got.0,
                "metrics diverge at {threads} threads under {schedule:?}"
            );
            assert_eq!(
                reference.1, got.1,
                "trace diverges at {threads} threads under {schedule:?}"
            );
            assert_eq!(
                reference.2, got.2,
                "blame diverges at {threads} threads under {schedule:?}"
            );
        }
    }
}

#[test]
fn fig3_point_under_adversarial_claims_matches_one_thread() {
    // One point shaped like `fig3 --quick` (8 nodes, one seed): eight
    // workers claiming shards in the adversarial rotating order must
    // reproduce the single-thread run's cached scalars and canonical
    // metrics byte for byte.
    let cfg = ScalingConfig::fig3(true);
    let spec = cfg.point(8, 42);
    let run = |threads: usize, schedule: ShardSchedule| {
        let seeds = SeedSpace::new(spec.seed);
        let agg = spec.workload;
        let mut make = |rank: u32| -> Box<dyn RankWorkload> {
            Box::new(AggregateTrace::new(
                agg,
                seeds.stream_at("wl/agg", u64::from(rank), 0),
            ))
        };
        let out = spec
            .experiment()
            .with_sim_threads(threads)
            .with_shard_schedule(schedule)
            .run(&mut make);
        assert!(out.completed, "fig3 point cut by the horizon");
        (
            PointResult::from_run(&out),
            metrics_of(&out).snapshot_json(),
        )
    };
    let serial = run(1, ShardSchedule::Steal);
    let adversarial = run(8, ShardSchedule::StealAdversarial);
    assert_eq!(serial.0, adversarial.0, "cached scalars diverge");
    assert_eq!(serial.1, adversarial.1, "metrics diverge");
}

proptest! {
    // Random seeds and link capacities: the finite-link mode is the one
    // where barrier grouping is history-visible, so it is the strongest
    // invariance check for an assignment permutation.
    #[test]
    fn stealing_is_history_invariant_under_random_links(
        seed in 0u64..10_000,
        link_bw in (any::<bool>(), 1e6f64..1e9).prop_map(|(l, bw)| l.then_some(bw)),
    ) {
        let reference = fingerprint(seed, link_bw, 1, ShardSchedule::Stripe);
        for schedule in [ShardSchedule::Steal, ShardSchedule::StealAdversarial] {
            let got = fingerprint(seed, link_bw, 4, schedule);
            prop_assert_eq!(
                &reference.0, &got.0,
                "metrics diverge (seed={}, link_bw={:?}, {:?})", seed, link_bw, schedule
            );
            prop_assert_eq!(
                &reference.1, &got.1,
                "trace diverges (seed={}, link_bw={:?}, {:?})", seed, link_bw, schedule
            );
            prop_assert_eq!(
                &reference.2, &got.2,
                "blame diverges (seed={}, link_bw={:?}, {:?})", seed, link_bw, schedule
            );
        }
    }
}

/// The cancel-heavy co-scheduled scaling workload: skewed compute keeps
/// every CPU busy while a fast-cycling priority daemon preempts runners
/// mid-segment, each preemption cancelling a `SegEnd` timer.
fn cancel_heavy_workload(iters: u64) -> impl FnMut(u32) -> Box<dyn RankWorkload> {
    move |rank: u32| -> Box<dyn RankWorkload> {
        let mut ops = Vec::new();
        for i in 0..iters {
            let us = 200 + ((u64::from(rank) * 37 + i * 13) % 400);
            ops.push(MpiOp::Compute(SimDur::from_micros(us)));
            if i % 10 == 9 {
                ops.push(MpiOp::Allreduce { bytes: 256 });
            }
        }
        Box::new(OpList::new(ops))
    }
}

/// Wall seconds of the cancel-heavy workload on `nodes` × `tasks` at
/// each thread count. Every point must replay the serial run's events
/// and cancellations, cancel something, and end with tombstones <= live.
fn scaling_curve(nodes: u32, tasks: u32, iters: u64, threads: &[usize]) -> Vec<f64> {
    let mut serial = None;
    let mut walls = Vec::new();
    for &t in threads {
        let mut setup = CoschedSetup::default();
        setup.params.period = SimDur::from_millis(1);
        setup.params.duty = 0.5;
        let started = Instant::now();
        let out = Experiment::new(nodes, tasks)
            .with_cpus_per_node(tasks as u8)
            .with_cosched(setup)
            .with_seed(42)
            .with_sim_threads(t)
            .run(&mut cancel_heavy_workload(iters));
        walls.push(started.elapsed().as_secs_f64());
        let q = out.sim.queue_stats();
        let live = q.scheduled - q.popped - q.cancelled;
        assert!(q.tombstones <= live.max(1), "{nodes}x{tasks} at {t}: {q:?}");
        let (events, cancelled) = *serial.get_or_insert((out.events, q.cancelled));
        assert!(cancelled > 0, "{nodes}x{tasks}: no cancellations");
        assert_eq!(
            (out.events, q.cancelled),
            (events, cancelled),
            "{nodes}x{tasks} diverged from serial at {t} threads"
        );
    }
    walls
}

/// Wall seconds and steals of the one-hot-shard workload (every rank on
/// node 0 computes ~30× longer) on 8 × 2 at 4 workers under `schedule`,
/// with its event count.
fn skewed_run(schedule: ShardSchedule) -> (f64, u64, u64) {
    let mut wl = |rank: u32| -> Box<dyn RankWorkload> {
        let mut ops = Vec::new();
        for i in 0..80u64 {
            let us = if rank < 2 { 600 } else { 20 } + i % 7;
            ops.push(MpiOp::Compute(SimDur::from_micros(us)));
            if i % 10 == 9 {
                ops.push(MpiOp::Allreduce { bytes: 128 });
            }
        }
        Box::new(OpList::new(ops))
    };
    let started = Instant::now();
    let out = Experiment::new(8, 2)
        .with_cpus_per_node(2)
        .with_seed(42)
        .with_sim_threads(4)
        .with_shard_schedule(schedule)
        .run(&mut wl);
    let wall = started.elapsed().as_secs_f64();
    (wall, out.sim.steals(), out.events)
}

/// Wall-clock gates for the parallel engine, meaningful only in a release
/// build on a host with at least 4 cores: 4 threads run the 64 × 4
/// cancel-heavy curve at least 2× faster than 1, and stealing is no
/// slower than the static stripe with one hot shard. On fewer cores the
/// gates skip and say why; the history checks run everywhere.
#[test]
#[ignore = "wall-clock gates; run with --release -- --ignored"]
fn parallel_engine_scales_on_four_cores() {
    let curve = scaling_curve(64, 4, 60, &[1, 2, 4, 8, 16]);
    scaling_curve(59, 16, 10, &[1, 8]);
    let (stripe_wall, stripe_steals, stripe_events) = skewed_run(ShardSchedule::Stripe);
    let (steal_wall, _, steal_events) = skewed_run(ShardSchedule::Steal);
    assert_eq!(stripe_steals, 0, "the static stripe must never steal");
    assert_eq!(
        stripe_events, steal_events,
        "history diverged across schedules"
    );

    let speedup_4t = curve[0] / curve[2];
    let steal_skew_win = stripe_wall / steal_wall;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores < 4 {
        println!(
            "skipped speedup_4t ({speedup_4t:.2}x) and steal_skew_win \
             ({steal_skew_win:.2}x): available_parallelism {cores} < 4"
        );
        return;
    }
    assert!(
        speedup_4t >= 2.0,
        "speedup_4t {speedup_4t:.2}x < 2x on a {cores}-way host"
    );
    assert!(
        steal_skew_win >= 1.0,
        "steal_skew_win {steal_skew_win:.2}x < 1x on a {cores}-way host"
    );
}
