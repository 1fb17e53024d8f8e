//! Robustness: edge configurations and failure-injection-style stress.

use pa_campaign::{run_campaign, Cache, CheckpointCtx, ExecutorConfig, PointCtx};
use pa_core::{metrics_of, CoschedSetup, Experiment, SchedOptions};
use pa_mpi::{Algorithm, MpiConfig, MpiOp, OpList, RankWorkload};
use pa_noise::NoiseProfile;
use pa_simkit::SimDur;
use pa_workloads::{aggregate_runner, run_point_with, ScalingConfig};

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
fn blocking_mpi_mode_works() {
    // Interrupt-driven (blocking) waits instead of busy polling.
    let cfg = MpiConfig {
        polling: false,
        ..MpiConfig::default()
    };
    let out = Experiment::new(2, 8)
        .with_cpus_per_node(8)
        .with_mpi(cfg)
        .with_noise(NoiseProfile::dedicated())
        .with_seed(5)
        .run(&mut allreduces(100));
    assert!(out.completed, "blocking-mode collectives deadlocked");
}

#[test]
fn recursive_doubling_algorithm_end_to_end() {
    let cfg = MpiConfig {
        algorithm: Algorithm::RecursiveDoubling,
        ..MpiConfig::default()
    };
    // Non-power-of-two rank count exercises the fold-in/fold-out path.
    let out = Experiment::new(3, 5)
        .with_cpus_per_node(8)
        .with_mpi(cfg)
        .with_noise(NoiseProfile::dedicated())
        .with_seed(6)
        .run(&mut allreduces(80));
    assert!(out.completed);
    out.job
        .recorder
        .lock()
        .unwrap()
        .verify_complete(15)
        .expect("all 15 ranks completed every op");
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
