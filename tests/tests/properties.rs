//! Property-based tests over the stack's core invariants (proptest).

use pa_core::{metrics_of, AdminTable, CoschedParams, CoschedSetup, Experiment, PriorityRecord};
use pa_kernel::{ClockModel, DispatcherKind, Prio};
use pa_mpi::coll::{
    binomial_allreduce, dissemination_barrier, recursive_doubling_allreduce, ring_allgather,
    CollStep,
};
use pa_mpi::{MpiOp, OpList, RankWorkload};
use pa_simkit::{EventQueue, SimDur, SimTime, Summary};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet, VecDeque};

// ---------------------------------------------------------------------
// Collective schedules: deadlock freedom + full contribution, any size.
// ---------------------------------------------------------------------

/// Abstract executor: runs all ranks' schedules with in-order semantics
/// and unlimited buffering; returns per-rank contribution sets, or None
/// on deadlock.
fn simulate(schedules: &[Vec<CollStep>]) -> Option<Vec<HashSet<u32>>> {
    let n = schedules.len();
    let mut values: Vec<HashSet<u32>> = (0..n as u32).map(|r| HashSet::from([r])).collect();
    let mut pc = vec![0usize; n];
    let mut in_flight: HashMap<(u32, u32, u16), VecDeque<HashSet<u32>>> = HashMap::new();
    loop {
        let mut progressed = false;
        for r in 0..n {
            while pc[r] < schedules[r].len() {
                match schedules[r][pc[r]] {
                    CollStep::Send { peer, phase } => {
                        let v = values[r].clone();
                        in_flight
                            .entry((r as u32, peer, phase))
                            .or_default()
                            .push_back(v);
                        pc[r] += 1;
                        progressed = true;
                    }
                    CollStep::Recv {
                        peer,
                        phase,
                        reduce,
                    } => {
                        let key = (peer, r as u32, phase);
                        let Some(q) = in_flight.get_mut(&key) else {
                            break;
                        };
                        let Some(v) = q.pop_front() else { break };
                        if reduce {
                            values[r].extend(v);
                        } else {
                            values[r] = v;
                        }
                        pc[r] += 1;
                        progressed = true;
                    }
                }
            }
        }
        if pc.iter().enumerate().all(|(r, &p)| p == schedules[r].len()) {
            return Some(values);
        }
        if !progressed {
            return None;
        }
    }
}

proptest! {
    #[test]
    fn binomial_allreduce_is_correct_for_any_size(n in 1u32..260) {
        let schedules: Vec<_> = (0..n).map(|r| binomial_allreduce(r, n)).collect();
        let result = simulate(&schedules).expect("deadlock");
        let full: HashSet<u32> = (0..n).collect();
        for v in result {
            prop_assert_eq!(&v, &full);
        }
    }

    #[test]
    fn recursive_doubling_is_correct_for_any_size(n in 1u32..260) {
        let schedules: Vec<_> = (0..n).map(|r| recursive_doubling_allreduce(r, n)).collect();
        let result = simulate(&schedules).expect("deadlock");
        let full: HashSet<u32> = (0..n).collect();
        for v in result {
            prop_assert_eq!(&v, &full);
        }
    }

    #[test]
    fn barrier_and_allgather_complete(n in 1u32..160) {
        let b: Vec<_> = (0..n).map(|r| dissemination_barrier(r, n)).collect();
        prop_assert!(simulate(&b).is_some(), "barrier deadlocked at n={}", n);
        let g: Vec<_> = (0..n).map(|r| ring_allgather(r, n)).collect();
        let result = simulate(&g).expect("allgather deadlocked");
        let full: HashSet<u32> = (0..n).collect();
        for v in result {
            prop_assert_eq!(&v, &full);
        }
    }
}

// ---------------------------------------------------------------------
// Event queue: total order, cancellation safety.
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn event_queue_pops_in_nondecreasing_time(times in prop::collection::vec(0u64..1_000_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_nanos(t), i);
        }
        let mut last = SimTime::ZERO;
        let mut popped = 0usize;
        while let Some((t, _)) = q.pop() {
            prop_assert!(t >= last);
            last = t;
            popped += 1;
        }
        prop_assert_eq!(popped, times.len());
    }

    #[test]
    fn cancelled_events_never_fire(
        times in prop::collection::vec(0u64..1_000_000, 1..100),
        cancel_mask in prop::collection::vec(any::<bool>(), 1..100),
    ) {
        let mut q = EventQueue::new();
        let ids: Vec<_> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| q.schedule(SimTime::from_nanos(t), i))
            .collect();
        let mut cancelled = HashSet::new();
        for (i, id) in ids.iter().enumerate() {
            if *cancel_mask.get(i).unwrap_or(&false) {
                q.cancel(*id);
                cancelled.insert(i);
            }
        }
        let mut fired = HashSet::new();
        while let Some((_, v)) = q.pop() {
            fired.insert(v);
        }
        prop_assert!(fired.is_disjoint(&cancelled));
        prop_assert_eq!(fired.len() + cancelled.len(), times.len());
    }
}

// ---------------------------------------------------------------------
// Event queue vs the old heap: the indexed queue must replay the exact
// pop order and core stats of the structure it replaced (a plain binary
// heap + pending set) under any interleaving of
// schedule/cancel/advance_to/pop.
// ---------------------------------------------------------------------

/// Reference model of the pre-overhaul queue: ids are handed out in
/// schedule order, pops come in `(time, id)` order, and a cancelled id
/// simply never fires. Any correct priority structure must agree with
/// this observable behavior exactly.
struct ModelQueue {
    now: u64,
    next_id: u64,
    live: Vec<(u64, u64, usize)>, // (time, id, value)
    scheduled: u64,
    popped: u64,
    cancelled: u64,
}

impl ModelQueue {
    fn new() -> ModelQueue {
        ModelQueue {
            now: 0,
            next_id: 0,
            live: Vec::new(),
            scheduled: 0,
            popped: 0,
            cancelled: 0,
        }
    }
    fn schedule(&mut self, t: u64, value: usize) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.scheduled += 1;
        self.live.push((t, id, value));
        id
    }
    fn cancel(&mut self, id: u64) {
        if let Some(i) = self.live.iter().position(|&(_, lid, _)| lid == id) {
            self.live.swap_remove(i);
            self.cancelled += 1;
        }
    }
    fn pop(&mut self) -> Option<(u64, usize)> {
        let i = (0..self.live.len()).min_by_key(|&i| (self.live[i].0, self.live[i].1))?;
        let (t, _, v) = self.live.swap_remove(i);
        self.now = self.now.max(t);
        self.popped += 1;
        Some((t, v))
    }
    fn peek_time(&self) -> Option<u64> {
        self.live.iter().map(|&(t, _, _)| t).min()
    }
}

/// One step of the interleaving: `kind` selects the operation, the other
/// fields parameterize it.
#[derive(Debug, Clone)]
struct QueueOp {
    kind: u8,
    delta: u64,
    pick: usize,
}

fn arb_queue_op() -> impl Strategy<Value = QueueOp> {
    (0u8..10, 1u64..50_000, any::<usize>()).prop_map(|(kind, delta, pick)| QueueOp {
        kind,
        delta,
        pick,
    })
}

fn check_queue_against_model(ops: &[QueueOp]) -> Result<(), TestCaseError> {
    let mut q = EventQueue::<usize>::new();
    let mut model = ModelQueue::new();
    // Parallel id registries for the same logical live entry.
    let mut ids: Vec<(pa_simkit::EventId, u64)> = Vec::new();
    for (step, op) in ops.iter().enumerate() {
        match op.kind {
            // schedule (weighted heaviest)
            0..=4 => {
                let t = model.now + op.delta;
                let qid = q.schedule(SimTime::from_nanos(t), step);
                let mid = model.schedule(t, step);
                ids.push((qid, mid));
            }
            // cancel a random live entry
            5..=6 => {
                if !ids.is_empty() {
                    let (qid, mid) = ids.swap_remove(op.pick % ids.len());
                    q.cancel(qid);
                    model.cancel(mid);
                }
            }
            // advance the clock into the pending future
            7 => {
                let target = model
                    .peek_time()
                    .map_or(model.now, |t| t.min(model.now + op.delta));
                let target = target.max(model.now);
                q.advance_to(SimTime::from_nanos(target));
                model.now = target;
            }
            // pop
            _ => {
                let got = q.pop();
                let want = model.pop();
                prop_assert_eq!(
                    got.map(|(t, v)| (t.nanos(), v)),
                    want,
                    "pop diverged at step {}",
                    step
                );
                // The popped entry's id pair stays in `ids`; a later
                // cancel picking it is a no-op in both queue and model,
                // so the registries remain in lockstep.
            }
        }
        prop_assert_eq!(
            q.peek_time().map(SimTime::nanos),
            model.peek_time(),
            "peek diverged at step {}",
            step
        );
        let live = model.live.len();
        prop_assert!(
            q.stats().tombstones as usize <= live.max(1),
            "tombstones exceed live entries at step {}",
            step
        );
    }
    // Drain both to the end: full remaining order must agree.
    loop {
        let got = q.pop();
        let want = model.pop();
        prop_assert_eq!(got.map(|(t, v)| (t.nanos(), v)), want, "drain diverged");
        if want.is_none() {
            break;
        }
    }
    let s = q.stats();
    prop_assert_eq!(s.scheduled, model.scheduled);
    prop_assert_eq!(s.popped, model.popped);
    prop_assert_eq!(s.cancelled, model.cancelled);
    prop_assert_eq!(s.tombstones, 0, "drained queue still reports tombstones");
    Ok(())
}

proptest! {
    #[test]
    fn indexed_queue_matches_old_heap_model(ops in prop::collection::vec(arb_queue_op(), 1..300)) {
        check_queue_against_model(&ops)?;
    }

    #[test]
    fn queue_with_live_tombstones_roundtrips_through_checkpoint(
        times in prop::collection::vec(1u64..1_000_000, 2..80),
        cancel_mask in prop::collection::vec(any::<bool>(), 2..80),
    ) {
        // A queue mid-flight: some entries cancelled, then checkpointed
        // via the same live_entries / from_parts path the engine snapshot
        // uses. The restored queue must replay the identical pop
        // sequence, with no tombstones reported after the round trip.
        let mut q = EventQueue::<usize>::new();
        let ids: Vec<_> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| q.schedule(SimTime::from_nanos(t), i))
            .collect();
        for (i, id) in ids.iter().enumerate() {
            if *cancel_mask.get(i).unwrap_or(&false) {
                q.cancel(*id);
            }
        }
        let entries: Vec<(SimTime, u64, usize)> = q
            .live_entries()
            .into_iter()
            .map(|(t, id, v)| (t, id, *v))
            .collect();
        let mut restored =
            EventQueue::from_parts(q.now(), q.next_id_raw(), q.stats(), entries).unwrap();
        prop_assert_eq!(restored.stats().tombstones, 0);
        loop {
            let want = q.pop();
            let got = restored.pop();
            prop_assert_eq!(got, want, "restored queue diverged");
            if want.is_none() {
                break;
            }
        }
        let (a, b) = (q.stats(), restored.stats());
        prop_assert_eq!(a.scheduled - a.cancelled, b.scheduled - b.cancelled);
        prop_assert_eq!(a.popped, b.popped);
    }
}

// ---------------------------------------------------------------------
// Time and clock arithmetic.
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn align_up_lands_on_boundary_at_or_after(
        t in 0u64..u64::MAX / 4,
        period in 1u64..1_000_000_000,
        phase in 0u64..1_000_000_000,
    ) {
        let p = SimDur::from_nanos(period);
        let ph = SimDur::from_nanos(phase);
        let aligned = SimTime::from_nanos(t).align_up(p, ph);
        prop_assert!(aligned >= SimTime::from_nanos(t));
        prop_assert_eq!((aligned.nanos() + period - phase % period) % period, 0);
        prop_assert!(aligned.nanos() - t < period);
    }

    #[test]
    fn clock_roundtrip(offset in 0u64..1_000_000_000, t in 0u64..u64::MAX / 4) {
        let c = ClockModel::with_offset(SimDur::from_nanos(offset));
        let g = SimTime::from_nanos(t);
        prop_assert_eq!(c.to_global(c.to_local(g)), g);
    }
}

// ---------------------------------------------------------------------
// Statistics.
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn summary_orders_its_statistics(xs in prop::collection::vec(-1e6f64..1e6, 1..300)) {
        let s = Summary::of(&xs);
        prop_assert!(s.min <= s.median + 1e-9);
        prop_assert!(s.median <= s.p90 + 1e-9);
        prop_assert!(s.p90 <= s.p99 + 1e-9);
        prop_assert!(s.p99 <= s.max + 1e-9);
        prop_assert!(s.min <= s.mean && s.mean <= s.max);
        prop_assert!(s.stddev >= 0.0);
    }
}

// ---------------------------------------------------------------------
// Co-scheduler window arithmetic.
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn next_edge_is_future_and_within_period(
        t in 0u64..100_000_000_000u64,
        period_ms in 1u64..20_000,
        duty_pct in 0u32..=100,
    ) {
        let mut p = CoschedParams::benchmark();
        p.period = SimDur::from_millis(period_ms);
        p.duty = f64::from(duty_pct) / 100.0;
        let now = SimTime::from_nanos(t);
        let edge = p.next_edge(now);
        prop_assert!(edge > now, "edge {} not after {}", edge, now);
        prop_assert!(edge - now <= p.period);
        // The phase flips across (or the window repeats at) the edge.
        let before = p.in_favored(edge - SimDur::from_nanos(1));
        let after = p.in_favored(edge);
        if p.duty > 0.0 && p.duty < 1.0 {
            prop_assert_ne!(before, after, "no flip at {}", edge);
        }
    }
}

// ---------------------------------------------------------------------
// Sharded cluster engine: the parallel path must replay the serial
// history exactly — metrics snapshot and per-node trace buffers both.
// ---------------------------------------------------------------------

/// Run one experiment and fingerprint everything observable: the full
/// canonical metrics snapshot plus every traced node's event buffer.
fn engine_fingerprint(
    nodes: u32,
    tasks: u32,
    seed: u64,
    cosched: bool,
    bytes: u32,
    link_bw: Option<f64>,
    threads: usize,
) -> (String, Vec<pa_trace::TraceEvent>) {
    let mut wl = |_rank: u32| -> Box<dyn RankWorkload> {
        Box::new(OpList::new(vec![MpiOp::Allreduce { bytes }; 24]))
    };
    let mut e = Experiment::new(nodes, tasks)
        .with_cpus_per_node(4)
        .with_trace_node(0)
        .with_seed(seed)
        .with_link_bandwidth(link_bw)
        .with_sim_threads(threads);
    if cosched {
        e = e.with_cosched(CoschedSetup::default());
    }
    let out = e.run(&mut wl);
    let trace: Vec<pa_trace::TraceEvent> = out.sim.kernel(0).trace().events().copied().collect();
    (metrics_of(&out).snapshot_json(), trace)
}

proptest! {
    #[test]
    fn sharded_engine_replays_serial_history(
        nodes in 2u32..5,
        tasks in 1u32..3,
        seed in 0u64..10_000,
        cosched in any::<bool>(),
        bytes in 8u32..4096,
        // Link capacity from "so tight every message queues" to
        // "effectively free", plus the unlimited legacy mode.
        link_bw in (any::<bool>(), 1e6f64..1e9).prop_map(|(limited, bw)| limited.then_some(bw)),
    ) {
        let serial = engine_fingerprint(nodes, tasks, seed, cosched, bytes, link_bw, 1);
        for threads in [2usize, 4] {
            let sharded = engine_fingerprint(nodes, tasks, seed, cosched, bytes, link_bw, threads);
            prop_assert_eq!(
                &serial.0, &sharded.0,
                "metrics diverge at {} threads (nodes={}, seed={}, link_bw={:?})",
                threads, nodes, seed, link_bw
            );
            prop_assert_eq!(
                &serial.1, &sharded.1,
                "trace diverges at {} threads (nodes={}, seed={}, link_bw={:?})",
                threads, nodes, seed, link_bw
            );
        }
    }
}

/// Like [`engine_fingerprint`], but under an arbitrary dispatcher policy:
/// the sharding proof must hold for CFS and EEVDF exactly as for AIX,
/// since the dispatcher is per-node state that never crosses shards.
fn engine_fingerprint_with_dispatcher(
    nodes: u32,
    tasks: u32,
    seed: u64,
    cosched: bool,
    kind: DispatcherKind,
    threads: usize,
) -> (String, Vec<pa_trace::TraceEvent>) {
    let mut wl = |_rank: u32| -> Box<dyn RankWorkload> {
        Box::new(OpList::new(vec![MpiOp::Allreduce { bytes: 256 }; 24]))
    };
    let mut e = Experiment::new(nodes, tasks)
        .with_cpus_per_node(4)
        .with_trace_node(0)
        .with_seed(seed)
        .with_dispatcher(kind)
        .with_sim_threads(threads);
    if cosched {
        e = e.with_cosched(CoschedSetup::default());
    }
    let out = e.run(&mut wl);
    let trace: Vec<pa_trace::TraceEvent> = out.sim.kernel(0).trace().events().copied().collect();
    (metrics_of(&out).snapshot_json(), trace)
}

proptest! {
    #[test]
    fn sharded_engine_replays_serial_history_under_any_dispatcher(
        nodes in 2u32..5,
        tasks in 1u32..3,
        seed in 0u64..10_000,
        cosched in any::<bool>(),
        kind in (0usize..DispatcherKind::ALL.len()).prop_map(|i| DispatcherKind::ALL[i]),
    ) {
        let serial = engine_fingerprint_with_dispatcher(nodes, tasks, seed, cosched, kind, 1);
        for threads in [2usize, 4] {
            let sharded =
                engine_fingerprint_with_dispatcher(nodes, tasks, seed, cosched, kind, threads);
            prop_assert_eq!(
                &serial.0, &sharded.0,
                "metrics diverge at {} threads (dispatcher={}, nodes={}, seed={})",
                threads, kind.as_str(), nodes, seed
            );
            prop_assert_eq!(
                &serial.1, &sharded.1,
                "trace diverges at {} threads (dispatcher={}, nodes={}, seed={})",
                threads, kind.as_str(), nodes, seed
            );
        }
    }
}

/// A fast-cycling co-scheduler over skewed compute keeps every CPU busy
/// while the priority daemon preempts runners mid-segment — each
/// preemption cancels a live `SegEnd` out of the calendar. History must
/// be bit-identical at 1/2/4/8 threads with cancellation on the hot path.
#[test]
fn cancel_heavy_cosched_history_is_identical_at_1_2_4_8_threads() {
    let run = |threads: usize| {
        let mut wl = |rank: u32| -> Box<dyn RankWorkload> {
            let mut ops = Vec::new();
            for i in 0..60u64 {
                let us = 200 + ((u64::from(rank) * 37 + i * 13) % 400);
                ops.push(MpiOp::Compute(SimDur::from_micros(us)));
                if i % 10 == 9 {
                    ops.push(MpiOp::Allreduce { bytes: 256 });
                }
            }
            Box::new(OpList::new(ops))
        };
        let mut setup = CoschedSetup::default();
        setup.params.period = SimDur::from_millis(1);
        setup.params.duty = 0.5;
        let out = Experiment::new(8, 4)
            .with_cpus_per_node(4)
            .with_cosched(setup)
            .with_trace_node(0)
            .with_seed(9)
            .with_sim_threads(threads)
            .run(&mut wl);
        let trace: Vec<pa_trace::TraceEvent> =
            out.sim.kernel(0).trace().events().copied().collect();
        let stats = out.sim.queue_stats();
        (metrics_of(&out).snapshot_json(), trace, stats)
    };
    let serial = run(1);
    assert!(
        serial.2.cancelled > 0,
        "spec produced no cancellations: {:?}",
        serial.2
    );
    let live = serial.2.scheduled - serial.2.popped - serial.2.cancelled;
    assert!(
        serial.2.tombstones <= live.max(1),
        "tombstones unbounded: {:?}",
        serial.2
    );
    for threads in [2usize, 4, 8] {
        let sharded = run(threads);
        assert_eq!(serial.0, sharded.0, "metrics diverge at {threads} threads");
        assert_eq!(serial.1, sharded.1, "trace diverges at {threads} threads");
        assert_eq!(serial.2, sharded.2, "stats diverge at {threads} threads");
    }
}

// ---------------------------------------------------------------------
// Checkpoint/restore: resuming from a mid-run checkpoint reproduces the
// uninterrupted run bit for bit, at any engine thread count. The
// checkpoint interval is random, so across cases the restore point lands
// on arbitrary window barriers.
// ---------------------------------------------------------------------

/// Everything observable about one run that must survive a restore:
/// final clock, event count, completion, the exact mean, and node 0's
/// full trace history.
type RunPrint = (pa_simkit::SimDur, u64, bool, u64, Vec<pa_trace::TraceEvent>);

fn run_print(out: &pa_core::RunOutput) -> RunPrint {
    (
        out.wall,
        out.events,
        out.completed,
        out.mean_allreduce_us().to_bits(),
        out.sim.kernel(0).trace().events().copied().collect(),
    )
}

proptest! {
    #[test]
    fn restore_at_any_barrier_is_bit_identical(
        nodes in 2u32..5,
        tasks in 1u32..3,
        seed in 0u64..10_000,
        cosched in any::<bool>(),
        every_us in 50u64..400,
    ) {
        let base = || {
            let mut e = Experiment::new(nodes, tasks)
                .with_cpus_per_node(4)
                .with_trace_node(0)
                .with_seed(seed);
            if cosched {
                e = e.with_cosched(CoschedSetup::default());
            }
            e
        };
        let wl = || {
            |_rank: u32| -> Box<dyn RankWorkload> {
                Box::new(OpList::new(vec![MpiOp::Allreduce { bytes: 64 }; 24]))
            }
        };
        let path = std::env::temp_dir().join(format!(
            "pa-prop-ckpt-{}-{nodes}-{tasks}-{seed}-{every_us}.json",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);

        // Uninterrupted reference, then the same run writing periodic
        // checkpoints — which must not perturb anything observable.
        let want = run_print(&base().run(&mut wl()));
        let ckpt = base()
            .with_checkpoint_every(SimDur::from_micros(every_us), &path)
            .run(&mut wl());
        prop_assert_eq!(&run_print(&ckpt), &want, "checkpointing perturbed the run");

        // Resume from the last barrier checkpoint at several thread
        // counts; every resumed tail must land on the identical history.
        if ckpt.sim.checkpoints_written() > 0 {
            for threads in [1usize, 2, 4] {
                let resumed = base()
                    .with_sim_threads(threads)
                    .with_restore_from(&path)
                    .run(&mut wl());
                prop_assert_eq!(resumed.sim.checkpoint_restores(), 1);
                prop_assert_eq!(
                    &run_print(&resumed), &want,
                    "restore diverges at {} threads (nodes={}, tasks={}, seed={}, every={}µs)",
                    threads, nodes, tasks, seed, every_us
                );
            }
        }
        let _ = std::fs::remove_file(&path);
    }
}

// ---------------------------------------------------------------------
// Admin table round trip.
// ---------------------------------------------------------------------

fn arb_record() -> impl Strategy<Value = PriorityRecord> {
    (
        "[A-Z]{2,8}",
        0u32..65_536,
        1u8..100,
        1u8..120,
        1u64..3_600,
        0u32..=100,
    )
        .prop_filter_map(
            "favored must beat unfavored",
            |(class, uid, f, u, per, duty)| {
                if f >= u {
                    return None;
                }
                let mut params = CoschedParams::benchmark();
                params.favored = Prio(f);
                params.unfavored = Prio(u);
                params.period = SimDur::from_secs(per);
                params.duty = f64::from(duty) / 100.0;
                Some(PriorityRecord { class, uid, params })
            },
        )
}

proptest! {
    #[test]
    fn admin_table_render_parse_roundtrip(records in prop::collection::vec(arb_record(), 0..8)) {
        let mut t = AdminTable::new();
        for r in records {
            t.add(r);
        }
        let parsed = AdminTable::parse(&t.render()).expect("rendered table parses");
        prop_assert_eq!(parsed.render(), t.render());
    }
}
