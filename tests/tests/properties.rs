//! Property-based tests over the stack's core invariants (proptest).

use pa_core::{metrics_of, AdminTable, CoschedParams, CoschedSetup, Experiment, PriorityRecord};
use pa_kernel::{ClockModel, DispatcherKind, Prio, SchedOptions};
use pa_mpi::coll::{binomial_allreduce, CollStep};
use pa_mpi::{MpiOp, OpList, RankWorkload};
use pa_simkit::{Entry, EventQueue, QueueStats, SimDur, SimTime, Summary};
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
        timer_times in prop::collection::vec(0u64..1_000_000, 1..100),
        heap_times in prop::collection::vec(0u64..1_000_000, 0..100),
        disarm_mask in prop::collection::vec(any::<bool>(), 1..100),
    ) {
        // One timer per slot beside a heap of plain events; disarmed
        // timers must never fire, and everything else must, a timer with
        // the data word it was armed with.
        let mut q = EventQueue::with_timers(timer_times.len());
        for (key, &t) in timer_times.iter().enumerate() {
            q.arm(key, SimTime::from_nanos(t), data_word(key));
        }
        for (i, &t) in heap_times.iter().enumerate() {
            q.schedule(SimTime::from_nanos(t), i);
        }
        let mut cancelled = HashSet::new();
        for key in 0..timer_times.len() {
            if *disarm_mask.get(key).unwrap_or(&false) {
                prop_assert!(q.disarm(key));
                cancelled.insert(key);
            }
        }
        let mut fired_timers = HashSet::new();
        let mut fired_events = HashSet::new();
        while let Some((_, e)) = q.pop() {
            match e {
                Entry::Timer { key, data } => {
                    prop_assert_eq!(data, data_word(key), "timer {} fired another's word", key);
                    fired_timers.insert(key);
                }
                Entry::Event(i) => {
                    fired_events.insert(i);
                }
            }
        }
        prop_assert!(fired_timers.is_disjoint(&cancelled));
        prop_assert_eq!(fired_timers.len() + cancelled.len(), timer_times.len());
        prop_assert_eq!(fired_events.len(), heap_times.len());
    }
}

// ---------------------------------------------------------------------
// Event queue vs a flat model: the two-tier queue (heap plus keyed timer
// slots) must replay the exact pop order and every stat of one flat list
// of pending events under any interleaving of schedule/arm/disarm/
// advance_to/pop/bounded pop and checkpoint round trips.
// ---------------------------------------------------------------------

/// Timer slots the model test uses: few, so arms often find a live slot
/// and re-arm it.
const MODEL_TIMERS: usize = 4;

/// The data word armed with the timer set at step `n`: distinct per step,
/// and never a small number that could pass for a slot or a step.
fn data_word(n: usize) -> u64 {
    !(n as u64)
}

/// An entry in the model test: a heap event carries the step that
/// scheduled it, a timer its slot and the data word of its step.
type ModelPayload = Entry<usize>;

/// Reference model: ids are handed out in schedule/arm order, pops come
/// in `(time, id)` order, and a disarmed timer simply never fires. Any
/// correct priority structure must agree with this observable behavior
/// exactly.
struct ModelQueue {
    now: u64,
    next_id: u64,
    live: Vec<(u64, u64, ModelPayload)>, // (time, id, payload)
    stats: QueueStats,
}

impl ModelQueue {
    fn new() -> ModelQueue {
        ModelQueue {
            now: 0,
            next_id: 0,
            live: Vec::new(),
            stats: QueueStats::default(),
        }
    }
    fn add(&mut self, t: u64, payload: ModelPayload) {
        let id = self.next_id;
        self.next_id += 1;
        self.stats.scheduled += 1;
        self.live.push((t, id, payload));
        self.stats.max_pending = self.stats.max_pending.max(self.live.len() as u64);
    }
    fn disarm(&mut self, key: usize) -> bool {
        let armed = |e: &ModelPayload| matches!(*e, Entry::Timer { key: k, .. } if k == key);
        let Some(i) = self.live.iter().position(|(_, _, e)| armed(e)) else {
            return false;
        };
        self.live.swap_remove(i);
        self.stats.cancelled += 1;
        true
    }
    fn pop(&mut self) -> Option<(u64, ModelPayload)> {
        let i = (0..self.live.len()).min_by_key(|&i| (self.live[i].0, self.live[i].1))?;
        let (t, _, v) = self.live.swap_remove(i);
        self.now = self.now.max(t);
        self.stats.popped += 1;
        Some((t, v))
    }
    fn peek_time(&self) -> Option<u64> {
        self.live.iter().map(|&(t, _, _)| t).min()
    }
    /// Pending entries in pop order, as the queue lists them.
    fn entries(&self) -> Vec<(SimTime, u64, ModelPayload)> {
        let mut live: Vec<_> = self
            .live
            .iter()
            .map(|&(t, id, e)| (SimTime::from_nanos(t), id, e))
            .collect();
        live.sort_unstable_by_key(|&(t, id, _)| (t, id));
        live
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
    // Deltas below 4 ns half the time make same-time events across the
    // two tiers common, so the FIFO tie-break between the heap root and
    // the earliest timer is exercised.
    (0u8..12, any::<bool>(), 1u64..50_000, any::<usize>()).prop_map(|(kind, near, delta, pick)| {
        QueueOp {
            kind,
            delta: if near { delta % 4 } else { delta },
            pick,
        }
    })
}

/// The queue's pending entries in pop order, heap payloads copied.
fn queue_entries(q: &EventQueue<usize>) -> Vec<(SimTime, u64, ModelPayload)> {
    q.live_entries()
        .into_iter()
        .map(|(t, id, e)| (t, id, e.cloned()))
        .collect()
}

/// A checkpoint round trip: rebuild `q` from its scalar parts and live
/// entries, the way the engine snapshot does.
fn round_trip(q: &EventQueue<usize>) -> EventQueue<usize> {
    let entries = queue_entries(q);
    EventQueue::from_parts(q.now(), q.next_id_raw(), q.stats(), entries, MODEL_TIMERS)
        .expect("live entries rebuild")
}

fn check_queue_against_model(ops: &[QueueOp]) -> Result<(), TestCaseError> {
    let mut q = EventQueue::<usize>::with_timers(MODEL_TIMERS);
    let mut model = ModelQueue::new();
    for (step, op) in ops.iter().enumerate() {
        let t = model.now + op.delta;
        match op.kind {
            // schedule onto the heap
            0..=3 => {
                q.schedule(SimTime::from_nanos(t), step);
                model.add(t, Entry::Event(step));
            }
            // arm a timer; a live slot is disarmed first (the re-arm
            // pattern of a voided segment timer)
            4..=5 => {
                let key = op.pick % MODEL_TIMERS;
                prop_assert_eq!(
                    q.disarm(key),
                    model.disarm(key),
                    "re-arm diverged at step {}",
                    step
                );
                let data = data_word(step);
                q.arm(key, SimTime::from_nanos(t), data);
                model.add(t, Entry::Timer { key, data });
            }
            // disarm a slot, live or not
            6 => {
                let key = op.pick % MODEL_TIMERS;
                prop_assert_eq!(
                    q.disarm(key),
                    model.disarm(key),
                    "disarm diverged at step {}",
                    step
                );
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
            // checkpoint round trip mid-sequence: every timer comes back
            // in its slot with its data word
            8 => {
                prop_assert_eq!(
                    queue_entries(&q),
                    model.entries(),
                    "entries diverged at step {}",
                    step
                );
                let restored = round_trip(&q);
                prop_assert_eq!(queue_entries(&restored), model.entries());
                prop_assert_eq!(restored.next_id_raw(), q.next_id_raw());
                q = restored;
            }
            // pop, or a pop bounded below, at or above the next event
            _ => {
                let next = model.peek_time();
                let limit = match (op.pick % 4, next) {
                    (0, _) => None,
                    (1, Some(n)) => Some(n.saturating_sub(1 + op.delta % 3)),
                    (2, Some(n)) => Some(n),
                    (_, n) => Some(n.unwrap_or(model.now) + op.delta),
                };
                let (entries, len, stats) = (queue_entries(&q), q.len(), q.stats());
                let got = match limit {
                    None => q.pop(),
                    Some(last) => q.pop_until(SimTime::from_nanos(last)),
                };
                let due = next.is_some_and(|n| limit.is_none_or(|last| n <= last));
                let want = if due { model.pop() } else { None };
                prop_assert_eq!(
                    got.map(|(t, v)| (t.nanos(), v)),
                    want,
                    "pop diverged at step {} (limit {:?})",
                    step,
                    limit
                );
                if want.is_none() {
                    prop_assert_eq!(queue_entries(&q), entries, "empty pop moved entries");
                    prop_assert_eq!(q.len(), len, "empty pop changed len");
                    prop_assert_eq!(q.stats(), stats, "empty pop changed stats");
                }
            }
        }
        prop_assert_eq!(
            q.peek_time().map(SimTime::nanos),
            model.peek_time(),
            "peek diverged at step {}",
            step
        );
        prop_assert_eq!(q.len(), model.live.len(), "len diverged at step {}", step);
        prop_assert_eq!(q.stats(), model.stats, "stats diverged at step {}", step);
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
    prop_assert_eq!(q.stats(), model.stats, "stats diverged after the drain");
    Ok(())
}

proptest! {
    #[test]
    fn indexed_queue_matches_old_heap_model(ops in prop::collection::vec(arb_queue_op(), 1..300)) {
        check_queue_against_model(&ops)?;
    }

    #[test]
    fn queue_with_live_tombstones_roundtrips_through_checkpoint(
        timer_times in prop::collection::vec(1u64..1_000_000, 2..80),
        heap_times in prop::collection::vec(1u64..1_000_000, 0..80),
        disarm_mask in prop::collection::vec(any::<bool>(), 2..80),
    ) {
        // A queue mid-flight: some timers disarmed, then checkpointed via
        // the same live_entries / from_parts path the engine snapshot
        // uses. The restored queue must hold exactly the live entries,
        // replay the identical pop sequence (each timer with its slot and
        // data word), and report no tombstones.
        let timers = timer_times.len();
        let mut q = EventQueue::with_timers(timers);
        for (key, &t) in timer_times.iter().enumerate() {
            q.arm(key, SimTime::from_nanos(t), data_word(key));
        }
        for (i, &t) in heap_times.iter().enumerate() {
            q.schedule(SimTime::from_nanos(t), i);
        }
        for key in 0..timers {
            if *disarm_mask.get(key).unwrap_or(&false) {
                q.disarm(key);
            }
        }
        let entries = queue_entries(&q);
        let live = entries.len();
        // A timer entry moved to a slot the queue lacks, or into the slot
        // of another, is refused by name.
        let rebuild = |entries| EventQueue::from_parts(q.now(), q.next_id_raw(), q.stats(), entries, timers);
        let armed: Vec<usize> = entries
            .iter()
            .enumerate()
            .filter_map(|(i, e)| matches!(e.2, Entry::Timer { .. }).then_some(i))
            .collect();
        let moved = |i: usize, key: usize| {
            let mut bad = entries.clone();
            if let Entry::Timer { key: k, .. } = &mut bad[i].2 {
                *k = key;
            }
            bad
        };
        if let Some(&i) = armed.first() {
            let err = rebuild(moved(i, timers)).unwrap_err();
            prop_assert!(err.contains(&format!("timer {timers} out of range")), "{}", err);
        }
        if let [i, j, ..] = armed[..] {
            let Entry::Timer { key, .. } = entries[i].2 else { unreachable!() };
            let err = rebuild(moved(j, key)).unwrap_err();
            prop_assert!(err.contains(&format!("timer {key} holds two pending events")), "{}", err);
        }
        let mut restored = rebuild(entries).unwrap();
        prop_assert_eq!(restored.len(), live);
        prop_assert_eq!(restored.stats(), q.stats());
        prop_assert_eq!(restored.stats().tombstones, 0);
        loop {
            let want = q.pop();
            let got = restored.pop();
            prop_assert_eq!(got, want, "restored queue diverged");
            if want.is_none() {
                break;
            }
        }
        prop_assert_eq!(restored.stats(), q.stats());
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
// Sharded cluster engine: a second run from the same seed must replay
// the first exactly — metrics snapshot and per-node trace buffers both.
// Each run's hash maps get fresh iteration orders, so this also guards
// the recorder's and the metrics fold's independence from map order.
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
) -> (String, Vec<pa_trace::TraceEvent>) {
    let mut wl = |_rank: u32| -> Box<dyn RankWorkload> {
        Box::new(OpList::new(vec![MpiOp::Allreduce { bytes }; 24]))
    };
    let mut e = Experiment::new(nodes, tasks)
        .with_cpus_per_node(4)
        .with_trace_node(0)
        .with_seed(seed)
        .with_link_bandwidth(link_bw);
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
        let first = engine_fingerprint(nodes, tasks, seed, cosched, bytes, link_bw);
        let second = engine_fingerprint(nodes, tasks, seed, cosched, bytes, link_bw);
        prop_assert_eq!(
            &first.0, &second.0,
            "metrics diverge (nodes={}, seed={}, link_bw={:?})",
            nodes, seed, link_bw
        );
        prop_assert_eq!(
            &first.1, &second.1,
            "trace diverges (nodes={}, seed={}, link_bw={:?})",
            nodes, seed, link_bw
        );
    }
}

/// Like [`engine_fingerprint`], but under an arbitrary dispatcher policy:
/// replay must hold for CFS and EEVDF exactly as for AIX.
fn engine_fingerprint_with_dispatcher(
    nodes: u32,
    tasks: u32,
    seed: u64,
    cosched: bool,
    kind: DispatcherKind,
) -> (String, Vec<pa_trace::TraceEvent>) {
    let mut wl = |_rank: u32| -> Box<dyn RankWorkload> {
        Box::new(OpList::new(vec![MpiOp::Allreduce { bytes: 256 }; 24]))
    };
    let mut e = Experiment::new(nodes, tasks)
        .with_cpus_per_node(4)
        .with_trace_node(0)
        .with_seed(seed)
        .with_kernel(SchedOptions {
            dispatcher: kind,
            ..SchedOptions::vanilla()
        });
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
        let first = engine_fingerprint_with_dispatcher(nodes, tasks, seed, cosched, kind);
        let second = engine_fingerprint_with_dispatcher(nodes, tasks, seed, cosched, kind);
        prop_assert_eq!(
            &first.0, &second.0,
            "metrics diverge (dispatcher={}, nodes={}, seed={})",
            kind.as_str(), nodes, seed
        );
        prop_assert_eq!(
            &first.1, &second.1,
            "trace diverges (dispatcher={}, nodes={}, seed={})",
            kind.as_str(), nodes, seed
        );
    }
}

/// A fast-cycling co-scheduler over skewed compute keeps every CPU busy
/// while the priority daemon preempts runners mid-segment — each
/// preemption cancels a live `SegEnd` out of the calendar. Tombstones
/// must stay bounded by the live entries with cancellation on the hot
/// path.
#[test]
fn cancel_heavy_cosched_keeps_tombstones_bounded() {
    let stats = {
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
            .run(&mut wl);
        out.sim.queue_stats()
    };
    assert!(
        stats.cancelled > 0,
        "spec produced no cancellations: {stats:?}"
    );
    let live = stats.scheduled - stats.popped - stats.cancelled;
    assert!(
        stats.tombstones <= live.max(1),
        "tombstones unbounded: {stats:?}"
    );
}

// ---------------------------------------------------------------------
// Both kernel drivers run one node loop: a 1-node `ClusterSim` and a
// `SoloRunner` over the same kernel must produce the same history.
// ---------------------------------------------------------------------

/// App and daemon timings for one node-loop comparison, in microseconds.
#[derive(Debug, Clone, Copy)]
struct NodeLoopCase {
    seed: u64,
    /// CPU 0's app: one compute phase.
    compute0: u64,
    /// CPU 1's app: compute, sleep until `wake`, compute again.
    compute1: u64,
    wake: u64,
    compute2: u64,
    /// One observed daemon per CPU: `burst` every `period`.
    period: u64,
    burst: u64,
}

/// Run `case` on both drivers to a fixed horizon; fail on any difference
/// in trace, kernel stats, event count, calendar stats or clock.
fn check_cluster_matches_solo(case: NodeLoopCase) -> Result<(), TestCaseError> {
    use pa_cluster::{ClusterSim, ClusterSpec, FabricModel};
    use pa_kernel::{
        Action, CpuId, Kernel, PeriodicLoop, SchedOptions, Script, SoloRunner, ThreadSpec,
    };
    use pa_simkit::SeedSpace;
    use pa_trace::{HookMask, ThreadClass};

    let spec = ClusterSpec {
        nodes: 1,
        cpus_per_node: 2,
        options: SchedOptions::vanilla(),
        skew_max: SimDur::ZERO,
        trace_capacity: 1 << 14,
        fabric: FabricModel::default(),
    };
    let seeds = SeedSpace::new(case.seed);
    let us = SimDur::from_micros;
    let populate = |k: &mut Kernel| {
        k.trace_mut().set_mask(HookMask::ALL);
        k.spawn(
            ThreadSpec::new("app0", ThreadClass::App, Prio::USER).on_cpu(CpuId(0)),
            Box::new(Script::new(vec![Action::Compute(us(case.compute0))])),
        );
        k.spawn(
            ThreadSpec::new("app1", ThreadClass::App, Prio::USER).on_cpu(CpuId(1)),
            Box::new(Script::new(vec![
                Action::Compute(us(case.compute1)),
                Action::SleepUntil(SimTime::from_micros(case.wake)),
                Action::Compute(us(case.compute2)),
            ])),
        );
        for cpu in 0..2 {
            k.spawn(
                ThreadSpec::new("syncd", ThreadClass::Daemon, Prio::DAEMON_OBSERVED)
                    .on_cpu(CpuId(cpu)),
                Box::new(PeriodicLoop::new(
                    us(case.period),
                    us(case.burst),
                    SimDur::ZERO,
                )),
            );
        }
    };
    let horizon = SimTime::from_millis(60);

    let mut sim = ClusterSim::build(&spec, &seeds);
    populate(sim.kernel_mut(0));
    sim.boot();
    sim.run_until(horizon).unwrap();

    let mut k = Kernel::new(
        0,
        spec.cpus_per_node,
        spec.options,
        ClockModel::with_offset(SimDur::ZERO),
        seeds.stream_at("cluster/kernel", 0, 0),
        spec.trace_capacity,
    );
    populate(&mut k);
    let mut solo = SoloRunner::new(k);
    solo.boot();
    solo.run_until(horizon);

    let (ck, sk) = (sim.kernel(0), &solo.kernel);
    prop_assert_eq!(
        ck.trace().events().copied().collect::<Vec<_>>(),
        sk.trace().events().copied().collect::<Vec<_>>(),
        "trace diverges: {:?}",
        case
    );
    prop_assert_eq!(ck.stats(), sk.stats(), "kernel stats diverge: {:?}", case);
    prop_assert_eq!(
        sim.events_processed(),
        solo.events_processed(),
        "event counts diverge: {:?}",
        case
    );
    prop_assert_eq!(
        sim.queue_stats(),
        solo.queue().stats(),
        "calendar stats diverge: {:?}",
        case
    );
    prop_assert_eq!(sim.now(), solo.now(), "clocks diverge: {:?}", case);
    Ok(())
}

proptest! {
    #[test]
    fn one_node_cluster_matches_solo_runner_for_any_seed(
        seed in 0u64..10_000,
        compute0 in 1u64..60_000,
        compute1 in 1u64..30_000,
        wake in 0u64..50_000,
        compute2 in 1u64..30_000,
        period in 1_000u64..20_000,
        burst in 50u64..1_000,
    ) {
        check_cluster_matches_solo(NodeLoopCase {
            seed,
            compute0,
            compute1,
            wake,
            compute2,
            period,
            burst,
        })?;
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

        // Resume from the last barrier checkpoint; the resumed tail must
        // land on the identical history.
        if ckpt.sim.checkpoints_written() > 0 {
            let resumed = base().with_restore_from(&path).run(&mut wl());
            prop_assert_eq!(resumed.sim.checkpoint_restores(), 1);
            prop_assert_eq!(
                &run_print(&resumed), &want,
                "restore diverges (nodes={}, tasks={}, seed={}, every={}µs)",
                nodes, tasks, seed, every_us
            );
        }
        let _ = std::fs::remove_file(&path);
    }
}

/// One rank's op list from drawn op codes: an Allreduce, an exchange
/// with its ring neighbours, a GPFS read, and compute.
fn mixed_ops(codes: &[u8], rank: u32, nranks: u32) -> Vec<MpiOp> {
    let mut peers = vec![(rank + 1) % nranks, (rank + nranks - 1) % nranks];
    peers.dedup();
    codes
        .iter()
        .map(|&c| match c {
            0 => MpiOp::Allreduce { bytes: 64 },
            1 => MpiOp::Exchange {
                peers: peers.clone(),
                bytes: 256,
            },
            2 => MpiOp::IoRead { bytes: 64 << 10 },
            _ => MpiOp::Compute(SimDur::from_micros(u64::from(c) * 3)),
        })
        .collect()
}

proptest! {
    /// Checkpoints land inside Allreduces and exchanges, where ranks
    /// busy-poll, and inside GPFS reads, where a rank is blocked on the
    /// server's reply; the resumed tail must replay the uninterrupted
    /// history.
    #[test]
    fn restore_mid_collective_of_any_kind_is_bit_identical(
        nodes in 2u32..4,
        tasks in 1u32..3,
        seed in 0u64..10_000,
        codes in prop::collection::vec(0u8..5, 3..14),
        every_us in 10u64..200,
    ) {
        let nranks = nodes * tasks;
        // Production noise installs the GPFS server every read goes to.
        let base = || {
            Experiment::new(nodes, tasks)
                .with_cpus_per_node(4)
                .with_trace_node(0)
                .with_seed(seed)
                .with_noise(pa_noise::NoiseProfile::production())
        };
        let codes = &codes;
        let wl = || {
            move |rank: u32| -> Box<dyn RankWorkload> {
                Box::new(OpList::new(mixed_ops(codes, rank, nranks)))
            }
        };
        let path = std::env::temp_dir().join(format!(
            "pa-prop-mixed-ckpt-{}-{nodes}-{tasks}-{seed}-{every_us}.json",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);

        let want = run_print(&base().run(&mut wl()));
        let ckpt = base()
            .with_checkpoint_every(SimDur::from_micros(every_us), &path)
            .run(&mut wl());
        prop_assert_eq!(&run_print(&ckpt), &want, "checkpointing perturbed the run");
        if ckpt.sim.checkpoints_written() > 0 {
            let resumed = base().with_restore_from(&path).run(&mut wl());
            prop_assert_eq!(resumed.sim.checkpoint_restores(), 1);
            prop_assert_eq!(
                &run_print(&resumed), &want,
                "restore diverges (nodes={}, tasks={}, seed={}, codes={:?}, every={}µs)",
                nodes, tasks, seed, codes, every_us
            );
        }
        let _ = std::fs::remove_file(&path);
    }
}

// ---------------------------------------------------------------------
// Admin table round trip.
// ---------------------------------------------------------------------

fn arb_record() -> impl Strategy<Value = PriorityRecord> {
    (
        prop::collection::vec(b'A'..=b'Z', 2..9),
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
                let class = class.into_iter().map(char::from).collect();
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

// ---------------------------------------------------------------------
// Figure 1 overlap: the shared edge sweep behind `green_fraction` and
// `red_touch_fraction` against a brute-force reference that tests the
// all-App and any-interference predicates on every elementary interval
// between segment edges.
// ---------------------------------------------------------------------

/// Thread classes of the random traces' tids; tid 0 means "leave the CPU
/// idle" and is never dispatched.
const OVERLAP_CLASSES: [(u32, pa_trace::ThreadClass); 5] = [
    (1, pa_trace::ThreadClass::App),
    (2, pa_trace::ThreadClass::App),
    (3, pa_trace::ThreadClass::Daemon),
    (4, pa_trace::ThreadClass::Kernel),
    (5, pa_trace::ThreadClass::Cron),
];

/// One ground-truth occupancy segment: `(cpu, tid, start µs, end µs)`.
type OverlapSeg = (u8, u32, u64, u64);

/// Build a 3-CPU trace from `(gap µs, cpu, tid)` steps: each step
/// undispatches the CPU's occupant and dispatches `tid` (unless 0).
/// Returns the trace and its segments, open ones ending at `u64::MAX`.
fn overlap_trace(steps: &[(u64, u8, u32)]) -> (pa_trace::TraceBuffer, Vec<OverlapSeg>) {
    use pa_trace::{HookId, HookMask, TraceBuffer};
    let mut b = TraceBuffer::new(1 << 12);
    b.set_mask(HookMask::ALL);
    for (tid, class) in OVERLAP_CLASSES {
        b.register_thread(tid, format!("t{tid}"), class);
    }
    let mut running: [Option<(u32, u64)>; 3] = [None; 3];
    let mut segs = Vec::new();
    let mut now = 0u64;
    for &(gap, cpu, tid) in steps {
        now += gap;
        let at = SimTime::from_micros(now);
        if let Some((old, since)) = running[cpu as usize].take() {
            b.emit(at, cpu, HookId::Undispatch, old, 0);
            segs.push((cpu, old, since, now));
        }
        if tid != 0 {
            b.emit(at, cpu, HookId::Dispatch, tid, 0);
            running[cpu as usize] = Some((tid, now));
        }
    }
    for (cpu, open) in (0u8..).zip(running) {
        if let Some((tid, since)) = open {
            segs.push((cpu, tid, since, u64::MAX));
        }
    }
    (b, segs)
}

/// Brute-force `(green, red)` fractions of `[start, end)` µs over the
/// first `ntasks` CPUs.
fn overlap_reference(segs: &[OverlapSeg], ntasks: u8, start: u64, end: u64) -> (f64, f64) {
    let class = |tid: u32| OVERLAP_CLASSES.iter().find(|c| c.0 == tid).unwrap().1;
    let mut cuts = vec![start, end];
    for &(_, _, s, e) in segs {
        cuts.extend([s.clamp(start, end), e.clamp(start, end)]);
    }
    cuts.sort_unstable();
    cuts.dedup();
    let (mut green, mut red) = (0u64, 0u64);
    for w in cuts.windows(2) {
        let (a, b) = (w[0], w[1]);
        // No edge falls inside (a, b): whatever covers a covers it all.
        let on = |cpu: u8| {
            segs.iter()
                .find(|&&(c, _, s, e)| c == cpu && s <= a && b <= e)
                .map(|&(_, tid, _, _)| class(tid))
        };
        if (0..ntasks).all(|cpu| on(cpu) == Some(pa_trace::ThreadClass::App)) {
            green += b - a;
        }
        if (0..ntasks).any(|cpu| on(cpu).is_some_and(pa_trace::ThreadClass::is_interference)) {
            red += b - a;
        }
    }
    let len = ((end - start) * 1000) as f64;
    ((green * 1000) as f64 / len, (red * 1000) as f64 / len)
}

proptest! {
    #[test]
    fn overlap_sweep_matches_brute_force(
        steps in prop::collection::vec((0u64..30, 0u8..3, 0u32..6), 1..40),
        ntasks in 1u8..4,
        start in 0u64..100,
        len in 1u64..600,
    ) {
        let (trace, segs) = overlap_trace(&steps);
        let (lo, hi) = (SimTime::from_micros(start), SimTime::from_micros(start + len));
        let want = overlap_reference(&segs, ntasks, start, start + len);
        let got = (
            pa_workloads::overlap::green_fraction(&trace, ntasks, lo, hi),
            pa_workloads::overlap::red_touch_fraction(&trace, ntasks, lo, hi),
        );
        prop_assert_eq!(got.0.to_bits(), want.0.to_bits(), "green {} vs {}", got.0, want.0);
        prop_assert_eq!(got.1.to_bits(), want.1.to_bits(), "red {} vs {}", got.1, want.1);
    }
}
