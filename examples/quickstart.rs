//! Quickstart: simulate the paper's headline experiment at desk scale.
//!
//! Builds a 4-node × 16-way cluster, runs a loop of MPI_Allreduce calls
//! under (a) a stock AIX-like kernel and (b) the parallel-aware prototype
//! kernel + co-scheduler, and prints the comparison.
//!
//! Run with: `cargo run --release -p pa-examples --bin quickstart`

use pa_core::{CoschedSetup, Experiment, SchedOptions};
use pa_mpi::{MpiOp, OpList, RankWorkload};
use pa_noise::NoiseProfile;

fn run(label: &str, prototype: bool) -> f64 {
    // 300 Allreduces of 8 bytes per rank — the aggregate_trace shape.
    let mut make = |_rank: u32| -> Box<dyn RankWorkload> {
        Box::new(OpList::new(vec![MpiOp::Allreduce { bytes: 8 }; 300]))
    };

    let mut experiment = Experiment::new(4, 16) // 4 nodes × 16 tasks
        .with_noise(NoiseProfile::production().without_cron())
        .with_seed(42);
    if prototype {
        experiment = experiment
            .with_kernel(SchedOptions::prototype()) // big ticks, aligned ticks,
            // improved RT preemption, global daemon queue (§3)
            .with_cosched(CoschedSetup::default()); // favored 30 / unfavored 100,
                                                    // 5 s window, 90% duty (§4)
    }
    let out = experiment.run(&mut make);
    assert!(out.completed, "the job should finish");
    let mean = out.mean_allreduce_us();
    println!(
        "{label:<28} mean Allreduce {mean:8.1} µs   (job wall time {},  {} sim events)",
        out.wall, out.events
    );
    mean
}

fn main() {
    pa_examples::section("PACE quickstart: 64 ranks, production noise");
    let vanilla = run("vanilla AIX-like kernel", false);
    let proto = run("prototype + co-scheduler", true);
    pa_examples::section("result");
    println!(
        "speedup on synchronizing collectives: {:.2}x (grows with scale; >3x at 944 procs)",
        vanilla / proto
    );
}
