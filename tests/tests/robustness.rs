//! Robustness: edge configurations and failure-injection-style stress.

use pa_campaign::{run_campaign, Cache, CampaignOutcome, CheckpointCtx, ExecutorConfig, PointCtx};
use pa_core::{metrics_of, CoschedSetup, Experiment, SchedOptions};
use pa_mpi::{MpiOp, OpList, RankWorkload};
use pa_noise::NoiseProfile;
use pa_simkit::{sha256_hex, SeedSpace, SimDur};
use pa_workloads::{
    aggregate_runner, collect_scale_points, run_point_with, AggregateTrace, ScalingConfig,
};
use serde::value::Value;

fn allreduces(n: usize) -> impl FnMut(u32) -> Box<dyn RankWorkload> {
    move |_r| Box::new(OpList::new(vec![MpiOp::Allreduce { bytes: 8 }; n]))
}

#[test]
fn single_node_single_task() {
    let out = Experiment::new(1, 1)
        .with_cpus_per_node(1)
        .with_noise(NoiseProfile::silent())
        .with_progress(None)
        .with_seed(1)
        .run(&mut allreduces(50));
    assert!(out.completed, "degenerate 1×1 cluster must still work");
}

#[test]
fn one_task_per_node_cross_node_only() {
    let out = Experiment::new(8, 1)
        .with_cpus_per_node(2)
        .with_noise(NoiseProfile::dedicated())
        .with_seed(2)
        .run(&mut allreduces(100));
    assert!(out.completed);
    assert!(out.mean_allreduce_us() > 0.0);
}

#[test]
fn extreme_clock_skew_does_not_break_collectives() {
    let mut e = Experiment::new(4, 8)
        .with_cpus_per_node(8)
        .with_noise(NoiseProfile::dedicated())
        .with_seed(3);
    e.skew_max = SimDur::from_secs(2);
    let out = e.run(&mut allreduces(100));
    assert!(out.completed, "skewed clocks must not deadlock the job");
}

#[test]
fn heavy_noise_storm_still_completes() {
    // 10× production noise: a daemon storm. Slower, but never stuck.
    // Long enough (~0.5 s simulated) that every storm daemon fires.
    let out = Experiment::new(2, 16)
        .with_noise(NoiseProfile::production().without_cron().scaled(10.0))
        .with_seed(4)
        .with_horizon(SimDur::from_secs(600))
        .run(&mut allreduces(1_500));
    assert!(out.completed, "noise storm deadlocked the job");
    let calm = Experiment::new(2, 16)
        .with_noise(NoiseProfile::production().without_cron())
        .with_seed(4)
        .run(&mut allreduces(1_500));
    assert!(
        out.mean_allreduce_us() > calm.mean_allreduce_us(),
        "storm {} vs calm {}",
        out.mean_allreduce_us(),
        calm.mean_allreduce_us()
    );
}

#[test]
fn cosched_with_partial_nodes() {
    // 15 t/n with the co-scheduler: the idle CPU plus priority windows.
    let out = Experiment::new(2, 15)
        .with_kernel(SchedOptions::prototype())
        .with_cosched(CoschedSetup::default())
        .with_noise(NoiseProfile::production().without_cron())
        .with_seed(7)
        .run(&mut allreduces(200));
    assert!(out.completed);
}

#[test]
fn zero_duty_cycle_is_survivable() {
    // duty = 0: the job is permanently unfavored. It must still finish —
    // daemons are a tiny fraction of CPU; the job is just never boosted.
    let mut setup = CoschedSetup::default();
    setup.params.duty = 0.0;
    let out = Experiment::new(2, 8)
        .with_cpus_per_node(8)
        .with_kernel(SchedOptions::prototype())
        .with_cosched(setup)
        .with_noise(NoiseProfile::dedicated())
        .with_seed(8)
        .run(&mut allreduces(100));
    assert!(out.completed);
}

#[test]
fn large_payload_allreduce() {
    // 1 MiB payloads shift the fabric into the bandwidth regime.
    let small = Experiment::new(2, 8)
        .with_cpus_per_node(8)
        .with_noise(NoiseProfile::silent())
        .with_progress(None)
        .with_seed(9)
        .run(&mut |_r| {
            Box::new(OpList::new(vec![MpiOp::Allreduce { bytes: 8 }; 20])) as Box<dyn RankWorkload>
        });
    let big = Experiment::new(2, 8)
        .with_cpus_per_node(8)
        .with_noise(NoiseProfile::silent())
        .with_progress(None)
        .with_seed(9)
        .run(&mut |_r| {
            Box::new(OpList::new(vec![MpiOp::Allreduce { bytes: 1 << 20 }; 20]))
                as Box<dyn RankWorkload>
        });
    assert!(small.completed && big.completed);
    assert!(
        big.mean_allreduce_us() > 10.0 * small.mean_allreduce_us(),
        "1 MiB payloads should be bandwidth-bound: {} vs {}",
        big.mean_allreduce_us(),
        small.mean_allreduce_us()
    );
}

// ---------------------------------------------------------------------
// Interrupted campaigns: a killed invocation must resume — from the
// cache for points that finished, from a mid-run checkpoint for the
// point it died inside — to results bit-identical to an uninterrupted
// campaign's.
// ---------------------------------------------------------------------

#[test]
fn interrupted_campaign_resumes_bit_identically() {
    let mut cfg = ScalingConfig::fig3(true);
    cfg.node_counts = vec![2, 4];
    cfg.allreduces = 48;
    cfg.seeds = vec![42, 43];
    cfg.target_sim_time = None;
    let points = cfg.points();
    let every = SimDur::from_micros(200);
    let tag =
        |t: &str| std::env::temp_dir().join(format!("pa-robustness-{t}-{}", std::process::id()));
    let (dir_ref, dir_int) = (tag("ckpt-ref"), tag("ckpt-int"));
    let _ = std::fs::remove_dir_all(&dir_ref);
    let _ = std::fs::remove_dir_all(&dir_int);

    // Uninterrupted reference campaign, cold cache of its own.
    let exec_ref = ExecutorConfig::serial("ref")
        .with_cache(Cache::at(&dir_ref).unwrap())
        .with_checkpoint_every(every);
    let reference = run_campaign(&points, &exec_ref, aggregate_runner);
    assert!(reference.truncated.is_empty());

    // "Killed" campaign: the first half of the points finished and were
    // cached before the process died …
    let exec_int = || {
        ExecutorConfig::serial("int")
            .with_cache(Cache::at(&dir_int).unwrap())
            .with_checkpoint_every(every)
    };
    let half = points.len() / 2;
    let partial = run_campaign(&points[..half], &exec_int(), aggregate_runner);
    assert_eq!(partial.results, reference.results[..half]);

    // … and the invocation died inside the next point, leaving its
    // periodic checkpoint behind (emulated by running that point alone
    // with checkpointing armed at the campaign's own checkpoint path;
    // the file left behind captures a mid-run window barrier).
    let victim = &points[half];
    let ckpt_path = Cache::at(&dir_int)
        .unwrap()
        .dir()
        .join("checkpoints")
        .join(format!("{}.json", victim.content_key()));
    let killed = run_point_with(
        victim,
        &PointCtx {
            sim_threads: 1,
            checkpoint: Some(CheckpointCtx {
                path: ckpt_path.clone(),
                every,
            }),
        },
    );
    assert!(killed.completed);
    assert!(
        ckpt_path.exists(),
        "no mid-run checkpoint written — shrink `every`"
    );

    // Warm re-run of the full campaign: the cached half is served from
    // disk, the victim restores from its checkpoint and replays only the
    // tail, the rest run fresh. Results must match the uninterrupted
    // campaign bit for bit, and the served checkpoint must be gone.
    let resumed = run_campaign(&points, &exec_int(), aggregate_runner);
    assert_eq!(resumed.results, reference.results);
    assert_eq!(resumed.metrics.cache_hits, half);
    assert!(
        !ckpt_path.exists(),
        "checkpoint must be deleted once the point's result is cached"
    );

    let _ = std::fs::remove_dir_all(&dir_ref);
    let _ = std::fs::remove_dir_all(&dir_int);
}

#[test]
fn damaged_checkpoint_falls_back_to_a_fresh_run() {
    // Same policy as corrupt cache entries: a checkpoint that fails
    // verification is ignored (and removed), never fatal, and the rerun
    // reproduces the undamaged result exactly.
    let mut cfg = ScalingConfig::fig3(true);
    cfg.node_counts = vec![2];
    cfg.allreduces = 48;
    cfg.seeds = vec![42];
    cfg.target_sim_time = None;
    let spec = &cfg.points()[0];
    let every = SimDur::from_micros(200);
    let path = std::env::temp_dir().join(format!(
        "pa-robustness-damaged-ckpt-{}.json",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let ctx = PointCtx {
        sim_threads: 1,
        checkpoint: Some(CheckpointCtx {
            path: path.clone(),
            every,
        }),
    };
    let reference = run_point_with(spec, &ctx);
    assert!(path.exists(), "no checkpoint written — shrink `every`");

    // Flip one byte inside the hashed payload.
    let mut bytes = std::fs::read(&path).unwrap();
    let i = bytes.len() / 2;
    bytes[i] ^= 1;
    std::fs::write(&path, &bytes).unwrap();

    let rerun = run_point_with(spec, &ctx);
    assert_eq!(rerun.wall, reference.wall);
    assert_eq!(rerun.events, reference.events);
    assert_eq!(
        rerun.mean_allreduce_us().to_bits(),
        reference.mean_allreduce_us().to_bits()
    );
    let _ = std::fs::remove_file(&path);
}

fn entry<'v>(v: &'v mut Value, key: &str) -> &'v mut Value {
    let Value::Map(pairs) = v else {
        panic!("`{key}`'s parent is not a map");
    };
    let pair = pairs.iter_mut().find(|(k, _)| k == key);
    &mut pair.unwrap_or_else(|| panic!("no `{key}`")).1
}

/// Apply `edit` to the engine state inside the checkpoint at `path` and
/// re-hash the payload: the file still verifies and decodes.
fn edit_checkpoint(path: &std::path::Path, edit: impl FnOnce(&mut Value)) {
    let mut file = serde_json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let mut payload = serde_json::parse(entry(&mut file, "payload").as_str().unwrap()).unwrap();
    edit(entry(&mut payload, "state"));
    let payload = payload.to_json_string();
    *entry(&mut file, "sha256") = Value::Str(sha256_hex(payload.as_bytes()));
    *entry(&mut file, "payload") = Value::Str(payload);
    std::fs::write(path, file.to_json_string()).unwrap();
    pa_cluster::verify_checkpoint_file(path).expect("the edited checkpoint still verifies");
}

/// Every kernel thread recorded in a checkpoint's engine state.
fn checkpoint_threads(state: &mut Value) -> impl Iterator<Item = &mut Value> {
    let Value::Seq(shards) = entry(state, "shards") else {
        panic!("shards is not a sequence");
    };
    shards.iter_mut().flat_map(|shard| {
        let Value::Seq(threads) = entry(entry(shard, "kernel"), "threads") else {
            panic!("threads is not a sequence");
        };
        threads.iter_mut()
    })
}

/// Rename node 0's first thread inside the checkpoint at `path`: the
/// file still verifies and decodes, but no rebuilt cluster accepts it.
fn rename_first_thread(path: &std::path::Path) {
    edit_checkpoint(path, |state| {
        let first = checkpoint_threads(state).next().expect("a thread");
        *entry(first, "name") = Value::Str("renamed".into());
    });
}

#[test]
fn checkpoint_the_cluster_rejects_falls_back_to_a_fresh_run() {
    // A checkpoint that verifies but does not fit the rebuilt cluster (a
    // thread renamed, re-hashed) is ignored like a damaged one: the sweep
    // finishes with the uninterrupted sweep's results.
    let mut cfg = ScalingConfig::fig3(true);
    cfg.node_counts = vec![2];
    cfg.allreduces = 48;
    cfg.seeds = vec![42];
    cfg.target_sim_time = None;
    let points = cfg.points();
    let every = SimDur::from_micros(200);
    let tag =
        |t: &str| std::env::temp_dir().join(format!("pa-robustness-{t}-{}", std::process::id()));
    let (dir_ref, dir_int) = (tag("renamed-ref"), tag("renamed-int"));
    let _ = std::fs::remove_dir_all(&dir_ref);
    let _ = std::fs::remove_dir_all(&dir_int);
    let exec = |dir: &std::path::Path, label: &str| {
        ExecutorConfig::serial(label)
            .with_cache(Cache::at(dir).unwrap())
            .with_checkpoint_every(every)
    };
    let reference = run_campaign(&points, &exec(&dir_ref, "ref"), aggregate_runner);

    let ckpt_path = Cache::at(&dir_int)
        .unwrap()
        .dir()
        .join("checkpoints")
        .join(format!("{}.json", points[0].content_key()));
    run_point_with(
        &points[0],
        &PointCtx {
            sim_threads: 1,
            checkpoint: Some(CheckpointCtx {
                path: ckpt_path.clone(),
                every,
            }),
        },
    );
    rename_first_thread(&ckpt_path);

    let resumed = run_campaign(&points, &exec(&dir_int, "int"), aggregate_runner);
    assert_eq!(resumed.results, reference.results);
    let figure = |o: &CampaignOutcome| {
        serde_json::to_string(&collect_scale_points(&cfg, &o.results)).unwrap()
    };
    assert_eq!(figure(&resumed), figure(&reference));
    assert!(
        !ckpt_path.exists(),
        "the rejected checkpoint was left behind"
    );
    let _ = std::fs::remove_dir_all(&dir_ref);
    let _ = std::fs::remove_dir_all(&dir_int);
}

#[test]
fn checkpoint_naming_an_unknown_collective_falls_back_to_a_fresh_run() {
    // A real mid-Allreduce checkpoint whose in-flight collectives are
    // renamed `Barrier`, a kind this MPI does not have, and re-hashed:
    // restoring it is an error naming the kind, and the point runner
    // warns and reruns the point from scratch to the uninterrupted
    // result.
    let mut cfg = ScalingConfig::fig3(true);
    cfg.node_counts = vec![2];
    cfg.allreduces = 48;
    cfg.seeds = vec![42];
    cfg.target_sim_time = None;
    let spec = &cfg.points()[0];
    let path = std::env::temp_dir().join(format!(
        "pa-robustness-unknown-kind-ckpt-{}.json",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let ctx = PointCtx {
        sim_threads: 1,
        checkpoint: Some(CheckpointCtx {
            path: path.clone(),
            every: SimDur::from_micros(200),
        }),
    };
    let reference = run_point_with(spec, &PointCtx::serial());
    run_point_with(spec, &ctx);
    assert!(path.exists(), "no checkpoint written — shrink `every`");

    let mut renamed = 0;
    edit_checkpoint(&path, |state| {
        for thread in checkpoint_threads(state) {
            let Value::Map(program) = entry(thread, "program") else {
                continue;
            };
            if let Some((_, Value::Seq(cur))) = program.iter_mut().find(|(k, _)| k == "cur") {
                cur[0] = Value::Str("Barrier".into());
                renamed += 1;
            }
        }
    });
    assert!(renamed > 0, "no rank was mid-collective at the checkpoint");

    let seeds = SeedSpace::new(spec.seed);
    let err = spec
        .experiment()
        .with_restore_from(&path)
        .try_run(&mut |rank| -> Box<dyn RankWorkload> {
            Box::new(AggregateTrace::new(
                spec.workload,
                seeds.stream_at("wl/agg", u64::from(rank), 0),
            ))
        })
        .err()
        .expect("a checkpoint naming an unknown collective must not restore");
    assert!(
        err.contains("unknown OpKind variant `Barrier`"),
        "error does not name the kind: {err}"
    );

    let rerun = run_point_with(spec, &ctx);
    assert_eq!(
        rerun.sim.checkpoint_restores(),
        0,
        "the rerun must start cold"
    );
    assert_eq!(rerun.wall, reference.wall);
    assert_eq!(rerun.events, reference.events);
    assert_eq!(
        rerun.mean_allreduce_us().to_bits(),
        reference.mean_allreduce_us().to_bits()
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn large_checkpoint_verifies_and_resumes_bit_identically() {
    // An 8-node × 16-rank Fig 3 point checkpointed once, at about 60 % of
    // its run, leaves a ~350 KB checkpoint. It must verify, then resume
    // through the campaign's restore path to the uninterrupted run's
    // exact result.
    let mut cfg = ScalingConfig::fig3(true);
    cfg.target_sim_time = None;
    let spec = cfg.point(8, 42);
    let reference = run_point_with(&spec, &PointCtx::serial());
    assert!(reference.completed);
    let every = SimDur::from_nanos(reference.wall.nanos() * 6 / 10);
    let path = std::env::temp_dir().join(format!(
        "pa-robustness-large-ckpt-{}.json",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let ctx = PointCtx {
        sim_threads: 1,
        checkpoint: Some(CheckpointCtx {
            path: path.clone(),
            every,
        }),
    };
    let uninterrupted = run_point_with(&spec, &ctx);
    assert_eq!(uninterrupted.sim.checkpoints_written(), 1);
    assert_eq!(
        (uninterrupted.events, uninterrupted.wall),
        (reference.events, reference.wall),
        "periodic checkpoints must leave the run unchanged"
    );
    let bytes = std::fs::metadata(&path).unwrap().len();
    assert!(bytes > 256 << 10, "checkpoint only {bytes} bytes");
    pa_cluster::verify_checkpoint_file(&path).unwrap();

    let resumed = run_point_with(&spec, &ctx);
    assert_eq!(resumed.sim.checkpoint_restores(), 1, "run did not resume");
    assert_eq!(resumed.events, uninterrupted.events);
    assert_eq!(resumed.wall, uninterrupted.wall);
    assert_eq!(
        resumed.mean_allreduce_us().to_bits(),
        uninterrupted.mean_allreduce_us().to_bits()
    );
    assert_eq!(
        metrics_of(&resumed).snapshot_json(),
        metrics_of(&uninterrupted).snapshot_json()
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn empty_workload_exits_immediately() {
    let out = Experiment::new(2, 4)
        .with_cpus_per_node(4)
        .with_noise(NoiseProfile::dedicated())
        .with_seed(10)
        .run(&mut |_r| Box::new(OpList::new(Vec::new())) as Box<dyn RankWorkload>);
    assert!(out.completed);
    assert!(
        out.wall < SimDur::from_millis(50),
        "empty job took {}",
        out.wall
    );
}
