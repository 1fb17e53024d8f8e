//! Engine self-profile baseline: wall-clock events/sec on representative
//! scenarios plus the observability layer's overhead, written as
//! `BENCH_engine.json`.
//!
//! Wall-clock numbers are machine-dependent and therefore live here —
//! never in a `pa-obs` metrics snapshot, which must stay byte-identical
//! across reruns. The overhead measurement runs the same experiment with
//! and without artifact extraction (metrics fold + span timeline +
//! Chrome-trace render); the acceptance threshold is 5%.
//!
//! Every acceptance check is reported as a gate object (`pass`/`skip`/
//! `fail` with the measured value and limit) in the JSON, so a host that
//! cannot meaningfully run a gate — e.g. a 2-core runner asked about
//! 4-thread speedup — records a `skip` with the reason instead of a
//! vacuous pass. The process exits non-zero only on `fail`.

use pa_bench::{Args, Mode};
use pa_cluster::ShardSchedule;
use pa_core::CoschedSetup;
use pa_mpi::{MpiOp, OpList, RankWorkload};
use pa_simkit::{EventQueue, SimDur, SimTime};
use serde_json::Value;
use std::time::Instant;

struct Scenario {
    name: &'static str,
    events: u64,
    events_per_sec: f64,
}

/// Raw event-calendar throughput (schedule + pop of 10k batches).
fn queue_scenario(batches: u32) -> Scenario {
    let started = Instant::now();
    let mut events = 0u64;
    for b in 0..batches {
        let mut q = EventQueue::<u32>::new();
        for i in 0..10_000u32 {
            let t = SimTime::from_nanos(u64::from(
                i.wrapping_mul(2_654_435_761).wrapping_add(b) % 1_000_000,
            ));
            q.schedule(t, i);
        }
        while q.pop().is_some() {}
        events += q.stats().popped;
    }
    Scenario {
        name: "event_queue/push_pop_10k",
        events,
        events_per_sec: events as f64 / started.elapsed().as_secs_f64(),
    }
}

/// Cancel-heavy calendar throughput: the timer re-arm pattern that used
/// to leak tombstones without bound. Each round re-arms a far-future
/// timer per slot (cancel + schedule) and pops one near event, asserting
/// every round that no dead entry stays resident.
fn queue_cancel_scenario(rounds: u32) -> Scenario {
    const SLOTS: usize = 512;
    let started = Instant::now();
    let mut q = EventQueue::<u32>::new();
    let mut timers = Vec::with_capacity(SLOTS);
    let far = SimTime::from_nanos(u64::MAX / 2);
    for i in 0..SLOTS {
        timers.push(q.schedule(far, i as u32));
    }
    let mut ops = 0u64;
    for r in 0..rounds {
        for (i, t) in timers.iter_mut().enumerate() {
            q.cancel(*t);
            *t = q.schedule(far, i as u32);
            ops += 2;
        }
        // One live near event keeps pops meaningful and anchors the root.
        q.schedule(q.now() + SimDur::from_nanos(1), u32::MAX);
        q.pop();
        ops += 2;
        assert_eq!(
            q.stats().tombstones,
            0,
            "round {r}: a cancelled entry stayed resident"
        );
    }
    Scenario {
        name: "event_queue/cancel_rearm_indexed",
        events: ops,
        events_per_sec: ops as f64 / started.elapsed().as_secs_f64(),
    }
}

fn experiment(seed: u64, calls: usize) -> pa_core::RunOutput {
    let mut wl = |_rank: u32| -> Box<dyn RankWorkload> {
        Box::new(OpList::new(vec![MpiOp::Allreduce { bytes: 8 }; calls]))
    };
    pa_core::Experiment::new(2, 4)
        .with_cpus_per_node(4)
        .with_cosched(CoschedSetup::default())
        .with_trace_node(0)
        .with_seed(seed)
        .run(&mut wl)
}

/// Full-stack DES throughput on a small co-scheduled cluster.
fn cluster_scenario(calls: usize) -> Scenario {
    let started = Instant::now();
    let out = experiment(42, calls);
    Scenario {
        name: "cluster/cosched_allreduce",
        events: out.events,
        events_per_sec: out.events as f64 / started.elapsed().as_secs_f64(),
    }
}

/// Span-timeline export throughput: trace events converted to Chrome
/// trace JSON per second. Export is explicit opt-in I/O (`--trace-out`),
/// so it is reported as a scenario, not counted as instrumentation.
fn timeline_scenario(calls: usize) -> Scenario {
    let out = experiment(42, calls);
    let trace_events = out.sim.kernel(0).trace().len() as u64;
    let started = Instant::now();
    let tl = pa_core::timeline_of(&out, 0);
    std::hint::black_box(tl.to_chrome_trace().len());
    Scenario {
        name: "obs/timeline_render",
        events: trace_events,
        events_per_sec: trace_events as f64 / started.elapsed().as_secs_f64(),
    }
}

/// One point of the engine's thread-scaling curve.
struct SpeedupPoint {
    threads: usize,
    events: u64,
    wall_s: f64,
    events_per_sec: f64,
    speedup: f64,
    cancelled: u64,
    tombstones: u64,
    /// Work-stealing claims off the home stripe (wall-clock fact, varies
    /// run to run; recorded from the fastest rep).
    steals: u64,
    /// True when this host has fewer cores than the point has threads:
    /// the wall-clock "speedup" is then oversubscription noise, not a
    /// measurement, and downstream floor checks must ignore it.
    unreliable: bool,
}

/// The cancel-heavy co-scheduled workload used for the scaling curves:
/// skewed compute segments keep every CPU busy while a fast-cycling
/// priority daemon preempts runners mid-segment, each preemption voiding
/// a `SegEnd` timer — exercising true cancellation on the hot path.
fn cancel_heavy_setup() -> CoschedSetup {
    let mut setup = CoschedSetup::default();
    setup.params.period = SimDur::from_millis(1);
    setup.params.duty = 0.5;
    setup
}

fn cancel_heavy_wl(rank: u32, iters: usize) -> Box<dyn RankWorkload> {
    let mut ops = Vec::with_capacity(iters + iters / 10);
    for i in 0..iters as u64 {
        let us = 200 + ((u64::from(rank) * 37 + i * 13) % 400);
        ops.push(MpiOp::Compute(SimDur::from_micros(us)));
        if i % 10 == 9 {
            ops.push(MpiOp::Allreduce { bytes: 256 });
        }
    }
    Box::new(OpList::new(ops))
}

/// Parallel-engine throughput at each worker thread count on a cluster
/// of `nodes` × `tasks` (one CPU per task). The sharded engine's history
/// is bit-identical at every point; only the wall clock moves. Each
/// point takes the minimum wall time over `reps` runs to shed scheduler
/// jitter. Asserts the workload actually exercised cancellation and that
/// event counts agree across thread counts.
fn thread_scaling(
    nodes: u32,
    tasks: u32,
    iters: usize,
    threads_list: &[usize],
    reps: u32,
) -> Vec<SpeedupPoint> {
    let host_parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    let run = |threads: usize| -> (u64, f64, u64, u64, u64) {
        let mut events = 0u64;
        let mut wall = f64::INFINITY;
        let mut cancelled = 0u64;
        let mut tombstones = 0u64;
        let mut steals = 0u64;
        for _ in 0..reps.max(1) {
            let mut wl = |rank: u32| -> Box<dyn RankWorkload> { cancel_heavy_wl(rank, iters) };
            let started = Instant::now();
            let out = pa_core::Experiment::new(nodes, tasks)
                .with_cpus_per_node(tasks as u8)
                .with_cosched(cancel_heavy_setup())
                .with_seed(42)
                .with_sim_threads(threads)
                .run(&mut wl);
            let w = started.elapsed().as_secs_f64();
            if w < wall {
                wall = w;
                steals = out.sim.steals();
            }
            events = out.events;
            let q = out.sim.queue_stats();
            cancelled = q.cancelled;
            tombstones = q.tombstones;
            let live = q.scheduled - q.popped - q.cancelled;
            assert!(
                q.tombstones <= live.max(1),
                "tombstones {} exceed {live} live entries at {threads} threads",
                q.tombstones
            );
        }
        (events, wall, cancelled, tombstones, steals)
    };
    let mut points: Vec<SpeedupPoint> = Vec::new();
    for &threads in threads_list {
        let (events, wall, cancelled, tombstones, steals) = run(threads);
        if let Some(base) = points.first() {
            assert_eq!(
                events, base.events,
                "sharded engine diverged from serial at {threads} threads"
            );
            assert_eq!(
                cancelled, base.cancelled,
                "cancellation count diverged at {threads} threads"
            );
        } else {
            assert!(
                cancelled > 0,
                "scaling workload produced no cancellations; not cancel-heavy"
            );
        }
        let base_wall = points.first().map_or(wall, |p| p.wall_s);
        points.push(SpeedupPoint {
            threads,
            events,
            wall_s: wall,
            events_per_sec: events as f64 / wall,
            speedup: base_wall / wall,
            cancelled,
            tombstones,
            steals,
            unreliable: host_parallelism < threads,
        });
    }
    points
}

/// The skewed-load comparison: one artificially hot shard (every rank on
/// node 0 computes ~30× longer per segment), run with the static stripe
/// vs the stealing schedule at the same thread count. History is
/// asserted identical; only the wall clock and the steal counter differ.
struct SkewedLoad {
    threads: usize,
    events: u64,
    stripe_wall_s: f64,
    steal_wall_s: f64,
    /// Stripe wall over steal wall: > 1 means stealing won.
    speedup: f64,
    steals: u64,
}

fn skewed_wl(rank: u32, tasks: u32, iters: usize) -> Box<dyn RankWorkload> {
    // Block layout: ranks 0..tasks live on node 0 — the hot shard.
    let hot = rank < tasks;
    let mut ops = Vec::with_capacity(iters + iters / 10);
    for i in 0..iters as u64 {
        let us = if hot { 600 } else { 20 } + (i % 7);
        ops.push(MpiOp::Compute(SimDur::from_micros(us)));
        if i % 10 == 9 {
            ops.push(MpiOp::Allreduce { bytes: 128 });
        }
    }
    Box::new(OpList::new(ops))
}

fn skewed_load(nodes: u32, tasks: u32, iters: usize, threads: usize, reps: u32) -> SkewedLoad {
    let run = |schedule: ShardSchedule| -> (f64, u64, u64) {
        let mut wall = f64::INFINITY;
        let mut steals = 0u64;
        let mut events = 0u64;
        for _ in 0..reps.max(1) {
            let mut wl = |rank: u32| -> Box<dyn RankWorkload> { skewed_wl(rank, tasks, iters) };
            let started = Instant::now();
            let out = pa_core::Experiment::new(nodes, tasks)
                .with_cpus_per_node(tasks as u8)
                .with_seed(42)
                .with_sim_threads(threads)
                .with_shard_schedule(schedule)
                .run(&mut wl);
            let w = started.elapsed().as_secs_f64();
            if w < wall {
                wall = w;
                steals = out.sim.steals();
            }
            events = out.events;
        }
        (wall, steals, events)
    };
    let (stripe_wall, stripe_steals, stripe_events) = run(ShardSchedule::Stripe);
    assert_eq!(stripe_steals, 0, "the static stripe must never steal");
    let (steal_wall, steals, steal_events) = run(ShardSchedule::Steal);
    assert_eq!(
        stripe_events, steal_events,
        "skewed-load history diverged across schedules"
    );
    SkewedLoad {
        threads,
        events: steal_events,
        stripe_wall_s: stripe_wall,
        steal_wall_s: steal_wall,
        speedup: stripe_wall / steal_wall,
        steals,
    }
}

/// Wall-time overhead `--metrics-out` adds to a run: registry fold plus
/// canonical snapshot, as a fraction of the simulation it summarizes.
/// The always-on hot-path counters cannot be compiled out and are plain
/// integer bumps; everything else the observability layer does is this
/// post-run fold. Timing the fold against its own run (minimum over
/// reps on both) avoids run-to-run scheduler jitter, which at the
/// quick scale is far larger than the quantity measured.
fn overhead_ratio(calls: usize, reps: u32) -> f64 {
    let mut run_s = f64::INFINITY;
    let mut fold_s = f64::INFINITY;
    for rep in 0..reps {
        let seed = 100 + u64::from(rep);
        let t = Instant::now();
        let out = experiment(seed, calls);
        std::hint::black_box(out.events);
        run_s = run_s.min(t.elapsed().as_secs_f64());

        let t = Instant::now();
        let reg = pa_core::metrics_of(&out);
        std::hint::black_box(reg.snapshot_json().len());
        fold_s = fold_s.min(t.elapsed().as_secs_f64());
    }
    if run_s > 0.0 && run_s.is_finite() {
        fold_s / run_s
    } else {
        0.0
    }
}

/// One acceptance gate: what was checked, what was measured, and whether
/// it passed, failed, or could not meaningfully run on this host.
struct Gate {
    name: &'static str,
    status: &'static str,
    value: f64,
    limit: f64,
    detail: String,
}

fn curve_rows(curve: &[SpeedupPoint], host_parallelism: usize) -> Vec<Value> {
    curve
        .iter()
        .map(|p| {
            Value::Map(vec![
                ("threads".into(), Value::UInt(p.threads as u64)),
                ("events".into(), Value::UInt(p.events)),
                ("wall_s".into(), Value::Float(p.wall_s)),
                ("events_per_sec".into(), Value::Float(p.events_per_sec)),
                ("speedup".into(), Value::Float(p.speedup)),
                ("cancelled".into(), Value::UInt(p.cancelled)),
                ("tombstones".into(), Value::UInt(p.tombstones)),
                ("steals".into(), Value::UInt(p.steals)),
                (
                    "host_parallelism".into(),
                    Value::UInt(host_parallelism as u64),
                ),
                ("unreliable".into(), Value::Bool(p.unreliable)),
            ])
        })
        .collect()
}

fn print_curve(label: &str, curve: &[SpeedupPoint]) {
    for p in curve {
        eprintln!(
            "  {label} @ {:>2} threads  {:>12.0} events/s  speedup {:.2}x  \
             ({} cancelled)",
            p.threads, p.events_per_sec, p.speedup, p.cancelled
        );
    }
}

fn main() {
    let args = Args::parse();
    let (batches, cancel_rounds, calls, reps, scaling_iters, sp_iters, scaling_reps, skew_iters) =
        match args.mode {
            Mode::Quick => (20, 200, 800, 3, 60, 10, 1, 80),
            Mode::Standard => (60, 800, 2_000, 5, 150, 20, 2, 200),
            Mode::Full => (200, 2_000, 6_000, 7, 400, 40, 3, 500),
        };
    let scenarios = vec![
        queue_scenario(batches),
        queue_cancel_scenario(cancel_rounds),
        cluster_scenario(calls),
        timeline_scenario(calls),
    ];
    let overhead = overhead_ratio(calls, reps);
    let threshold = 0.05;
    // The historical 64-node shape, now cancel-heavy and extended past
    // the old 4-thread knee.
    let curve = thread_scaling(64, 4, scaling_iters, &[1, 2, 4, 8, 16], scaling_reps);
    // The paper's measured configuration: 944 processes on 59 nodes
    // (16-way SP nodes, §5). Serial vs 8 workers bounds the win at scale.
    let sp_curve = thread_scaling(59, 16, sp_iters, &[1, 8], scaling_reps);
    // One hot shard among 8: the noisy-node scenario the stealing order
    // exists for. Stripe vs steal at 4 workers.
    let skew = skewed_load(8, 2, skew_iters, 4, scaling_reps);
    let host_parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    let speedup_target = 2.0;

    let mut rows = Vec::new();
    for s in &scenarios {
        eprintln!(
            "  {:<32} {:>12} events  {:>12.0} events/s",
            s.name, s.events, s.events_per_sec
        );
        rows.push(Value::Map(vec![
            ("name".into(), Value::Str(s.name.into())),
            ("events".into(), Value::UInt(s.events)),
            ("events_per_sec".into(), Value::Float(s.events_per_sec)),
        ]));
    }
    eprintln!(
        "  observability overhead: {:+.2}% (threshold {:.0}%)",
        overhead * 100.0,
        threshold * 100.0
    );
    print_curve("engine/64-node", &curve);
    print_curve("engine/944-proc", &sp_curve);
    eprintln!(
        "  engine/skewed-load @ {} threads  stripe {:.3}s vs steal {:.3}s  \
         ({:.2}x, {} steals)",
        skew.threads, skew.stripe_wall_s, skew.steal_wall_s, skew.speedup, skew.steals
    );

    // Acceptance gates. A gate that cannot meaningfully run on this host
    // is recorded as `skip` with the reason — never as a silent pass.
    let mut gates = Vec::new();
    gates.push(Gate {
        name: "obs_overhead",
        status: if overhead <= threshold {
            "pass"
        } else {
            "fail"
        },
        value: overhead,
        limit: threshold,
        detail: "metrics fold + snapshot wall-time as fraction of its run".into(),
    });
    let at4 = curve.iter().find(|p| p.threads == 4).expect("4t point");
    gates.push(if host_parallelism < 4 {
        Gate {
            name: "speedup_4t",
            status: "skip",
            value: at4.speedup,
            limit: speedup_target,
            detail: format!(
                "host parallelism {host_parallelism} < 4; wall-clock speedup \
                 on fewer cores is noise"
            ),
        }
    } else {
        Gate {
            name: "speedup_4t",
            status: if at4.speedup >= speedup_target {
                "pass"
            } else {
                "fail"
            },
            value: at4.speedup,
            limit: speedup_target,
            detail: format!("64-node curve at 4 threads on a {host_parallelism}-way host"),
        }
    });
    // Stealing must not lose to the static stripe on one hot shard.
    // Meaningful only with real cores under the 4 workers; elsewhere the
    // comparison is oversubscription noise and is recorded as a skip.
    gates.push(if host_parallelism < 4 {
        Gate {
            name: "steal_skew_win",
            status: "skip",
            value: skew.speedup,
            limit: 1.0,
            detail: format!(
                "host parallelism {host_parallelism} < {} workers; stripe-vs-steal \
                 wall-clock comparison on fewer cores is noise",
                skew.threads
            ),
        }
    } else {
        Gate {
            name: "steal_skew_win",
            status: if skew.speedup >= 1.0 { "pass" } else { "fail" },
            value: skew.speedup,
            limit: 1.0,
            detail: format!(
                "one hot shard at {} threads on a {host_parallelism}-way host \
                 (stripe wall / steal wall)",
                skew.threads
            ),
        }
    });
    let max_tomb = curve
        .iter()
        .chain(sp_curve.iter())
        .map(|p| p.tombstones)
        .max()
        .unwrap_or(0);
    gates.push(Gate {
        name: "tombstone_bound",
        status: "pass", // violations assert inside thread_scaling
        value: max_tomb as f64,
        limit: 0.0,
        detail: "cancel-heavy runs end with tombstones <= live entries".into(),
    });

    let gate_rows: Vec<Value> = gates
        .iter()
        .map(|g| {
            Value::Map(vec![
                ("name".into(), Value::Str(g.name.into())),
                ("status".into(), Value::Str(g.status.into())),
                ("value".into(), Value::Float(g.value)),
                ("limit".into(), Value::Float(g.limit)),
                ("detail".into(), Value::Str(g.detail.clone())),
            ])
        })
        .collect();

    let doc = Value::Map(vec![
        ("scenarios".into(), Value::Seq(rows)),
        ("obs_overhead_ratio".into(), Value::Float(overhead)),
        ("obs_overhead_threshold".into(), Value::Float(threshold)),
        (
            "thread_scaling_64node".into(),
            Value::Seq(curve_rows(&curve, host_parallelism)),
        ),
        (
            "thread_scaling_944proc".into(),
            Value::Seq(curve_rows(&sp_curve, host_parallelism)),
        ),
        (
            "skewed_load".into(),
            Value::Map(vec![
                ("threads".into(), Value::UInt(skew.threads as u64)),
                ("events".into(), Value::UInt(skew.events)),
                ("stripe_wall_s".into(), Value::Float(skew.stripe_wall_s)),
                ("steal_wall_s".into(), Value::Float(skew.steal_wall_s)),
                ("speedup".into(), Value::Float(skew.speedup)),
                ("steals".into(), Value::UInt(skew.steals)),
                (
                    "host_parallelism".into(),
                    Value::UInt(host_parallelism as u64),
                ),
                (
                    "unreliable".into(),
                    Value::Bool(host_parallelism < skew.threads),
                ),
            ]),
        ),
        ("speedup_target_4t".into(), Value::Float(speedup_target)),
        (
            "host_parallelism".into(),
            Value::UInt(host_parallelism as u64),
        ),
        ("gates".into(), Value::Seq(gate_rows)),
        ("mode".into(), Value::Str(format!("{:?}", args.mode))),
    ]);
    // The canonical copy lives under `results/` with the other bench
    // artifacts so the trajectory accumulates; a repo-root copy stays for
    // tools that expect the historical location. `--metrics-out` overrides
    // both with a single explicit path.
    let body = doc.to_json_string_pretty() + "\n";
    let paths: Vec<std::path::PathBuf> = match args.metrics_out.clone() {
        Some(p) => vec![p],
        None => {
            if let Err(e) = std::fs::create_dir_all("results") {
                eprintln!("error: cannot create results/: {e}");
                std::process::exit(1);
            }
            vec![
                std::path::PathBuf::from("results/BENCH_engine.json"),
                std::path::PathBuf::from("BENCH_engine.json"),
            ]
        }
    };
    for path in &paths {
        if let Err(e) = std::fs::write(path, &body) {
            eprintln!("error: cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
        println!("engine baseline written to {}", path.display());
    }
    let mut failed = false;
    for g in &gates {
        match g.status {
            "fail" => {
                failed = true;
                eprintln!(
                    "error: gate {} failed: value {:.3} vs limit {:.3} ({})",
                    g.name, g.value, g.limit, g.detail
                );
            }
            "skip" => eprintln!("note: gate {} skipped: {}", g.name, g.detail),
            _ => {}
        }
    }
    if failed {
        std::process::exit(1);
    }
}
