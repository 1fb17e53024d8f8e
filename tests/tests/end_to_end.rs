//! End-to-end scenario checks across the whole stack: kernel + noise +
//! cluster + MPI + co-scheduler + workloads.

use pa_core::{CoschedSetup, Experiment, SchedOptions};
use pa_mpi::{MpiOp, OpKind, OpList, RankWorkload};
use pa_noise::NoiseProfile;
use pa_simkit::SimDur;

fn allreduces(n: usize) -> impl FnMut(u32) -> Box<dyn RankWorkload> {
    move |_r| Box::new(OpList::new(vec![MpiOp::Allreduce { bytes: 8 }; n]))
}

#[test]
fn noise_costs_performance() {
    let run = |noise: NoiseProfile| {
        let out = Experiment::new(4, 16)
            .with_noise(noise)
            .with_seed(7)
            .run(&mut allreduces(300));
        assert!(out.completed);
        out.mean_allreduce_us()
    };
    let silent = run(NoiseProfile::silent());
    let noisy = run(NoiseProfile::production().without_cron());
    assert!(
        noisy > silent * 1.02,
        "production noise should cost something: {noisy:.1} vs {silent:.1}"
    );
}

#[test]
fn fifteen_tasks_beat_sixteen_on_vanilla() {
    // §2's operational workaround: leaving one CPU per node idle absorbs
    // the daemons.
    let run = |tpn: u32| {
        let out = Experiment::new(4, tpn)
            .with_noise(NoiseProfile::production().without_cron())
            .with_seed(9)
            .run(&mut allreduces(400));
        assert!(out.completed);
        out.mean_allreduce_us()
    };
    let full = run(16);
    let reserve = run(15);
    assert!(
        reserve < full,
        "15 t/n should be faster on the vanilla kernel: {reserve:.1} vs {full:.1}"
    );
}

#[test]
fn prototype_recovers_the_reserve_cpu() {
    // The paper's punchline: fully-populated prototype nodes beat
    // 15-task vanilla nodes per-task, removing the efficiency ceiling.
    let vanilla15 = {
        let out = Experiment::new(6, 15)
            .with_noise(NoiseProfile::production().without_cron())
            .with_seed(11)
            .run(&mut allreduces(400));
        assert!(out.completed);
        out.mean_allreduce_us()
    };
    let proto16 = {
        let out = Experiment::new(6, 16)
            .with_kernel(SchedOptions::prototype())
            .with_cosched(CoschedSetup::default())
            .with_noise(NoiseProfile::production().without_cron())
            .with_seed(11)
            .run(&mut allreduces(400));
        assert!(out.completed);
        out.mean_allreduce_us()
    };
    // Same or better per-collective performance with 16/16 CPUs in use.
    assert!(
        proto16 <= vanilla15 * 1.15,
        "prototype 16 t/n ({proto16:.1}µs) should be competitive with vanilla 15 t/n ({vanilla15:.1}µs)"
    );
}

#[test]
fn whole_stack_is_deterministic() {
    let run = || {
        let out = Experiment::new(3, 16)
            .with_kernel(SchedOptions::prototype())
            .with_cosched(CoschedSetup::default())
            .with_noise(NoiseProfile::production())
            .with_seed(1234)
            .run(&mut allreduces(200));
        (
            out.wall,
            out.events,
            out.mean_allreduce_us().to_bits(),
            out.interference_fraction().to_bits(),
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn different_seeds_differ() {
    let run = |seed| {
        Experiment::new(2, 16)
            .with_noise(NoiseProfile::production().without_cron())
            .with_seed(seed)
            .run(&mut allreduces(200))
            .mean_allreduce_us()
    };
    assert_ne!(run(1).to_bits(), run(2).to_bits());
}

#[test]
fn every_collective_completes_on_every_rank() {
    let out = Experiment::new(3, 16)
        .with_kernel(SchedOptions::prototype())
        .with_cosched(CoschedSetup::default())
        .with_noise(NoiseProfile::production())
        .with_seed(5)
        .run(&mut allreduces(150));
    assert!(out.completed);
    let rec = out.job.recorder.lock().unwrap();
    assert_eq!(rec.count(OpKind::Allreduce), 150);
    rec.verify_complete(48).expect("every rank in every op");
}

#[test]
fn mixed_collectives_work_under_cosched() {
    let mut make = |r: u32| -> Box<dyn RankWorkload> {
        let mut ops = Vec::new();
        for i in 0..40u32 {
            ops.push(MpiOp::Compute(SimDur::from_micros(50)));
            ops.push(match i % 2 {
                0 => MpiOp::Allreduce { bytes: 8 },
                _ => MpiOp::Exchange {
                    peers: vec![(r + 1) % 32, (r + 31) % 32],
                    bytes: 64,
                },
            });
        }
        Box::new(OpList::new(ops))
    };
    let out = Experiment::new(2, 16)
        .with_kernel(SchedOptions::prototype())
        .with_cosched(CoschedSetup::default())
        .with_noise(NoiseProfile::production().without_cron())
        .with_seed(77)
        .run(&mut make);
    assert!(out.completed, "mixed collectives deadlocked");
    let rec = out.job.recorder.lock().unwrap();
    assert_eq!(rec.count(OpKind::Allreduce), 20);
    assert_eq!(rec.count(OpKind::Exchange), 20);
    rec.verify_complete(32).expect("complete");
}

#[test]
fn interference_fraction_is_sane() {
    let out = Experiment::new(2, 16)
        .with_noise(NoiseProfile::production().without_cron())
        .with_seed(3)
        .run(&mut allreduces(200));
    let f = out.interference_fraction();
    assert!(f > 0.0 && f < 0.2, "interference fraction {f}");
}
