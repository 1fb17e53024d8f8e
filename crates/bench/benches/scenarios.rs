//! Criterion benches over end-to-end simulation scenarios: what a
//! figure-regeneration point costs. Reported as wall time per simulated
//! run; the figure binaries are sized off these numbers.

use criterion::{criterion_group, criterion_main, Criterion};
use pa_core::{CoschedSetup, Experiment};
use pa_mpi::{MpiOp, OpList, RankWorkload};
use pa_noise::NoiseProfile;
use pa_simkit::{SimDur, SimTime};
use pa_trace::{AttributionReport, CpuTimeline};
use std::hint::black_box;

fn small_cluster_allreduces(cosched: bool) -> f64 {
    let mut make = |_r: u32| -> Box<dyn RankWorkload> {
        Box::new(OpList::new(vec![MpiOp::Allreduce { bytes: 8 }; 64]))
    };
    let mut e = Experiment::new(2, 8)
        .with_cpus_per_node(8)
        .with_noise(NoiseProfile::dedicated())
        .with_seed(7);
    if cosched {
        e = e
            .with_kernel(pa_kernel::SchedOptions::prototype())
            .with_cosched(CoschedSetup::default());
    }
    let out = e.run(&mut make);
    assert!(out.completed);
    out.mean_allreduce_us()
}

fn bench_cluster(c: &mut Criterion) {
    let mut g = c.benchmark_group("scenario");
    g.sample_size(10);
    g.bench_function("16rank_allreduce_vanilla", |b| {
        b.iter(|| black_box(small_cluster_allreduces(false)))
    });
    g.bench_function("16rank_allreduce_prototype", |b| {
        b.iter(|| black_box(small_cluster_allreduces(true)))
    });
    g.bench_function("ale3d_proxy_2x8", |b| {
        b.iter(|| {
            let spec = pa_workloads::Ale3dSpec {
                timesteps: 4,
                compute_per_step: SimDur::from_millis(2),
                initial_read_bytes: 1 << 18,
                restart_bytes: 1 << 18,
                plot_every: 0,
                ..pa_workloads::Ale3dSpec::default()
            };
            black_box(pa_workloads::run_ale3d(
                2,
                spec,
                pa_workloads::AleMode::IoAware,
                7,
                1,
            ))
        })
    });
    g.finish();
}

fn bench_trace_analysis(c: &mut Criterion) {
    // Build one traced run, then measure the attribution analysis.
    let mut make = |_r: u32| -> Box<dyn RankWorkload> {
        Box::new(OpList::new(vec![MpiOp::Allreduce { bytes: 8 }; 256]))
    };
    let out = Experiment::new(1, 8)
        .with_cpus_per_node(8)
        .with_noise(NoiseProfile::production().without_cron())
        .with_seed(7)
        .with_trace_node(0)
        .run(&mut make);
    let end = SimTime::ZERO + out.wall;
    c.bench_function("trace/timeline_and_attribution", |b| {
        b.iter(|| {
            let tl = CpuTimeline::build(out.sim.kernel(0).trace(), end);
            black_box(AttributionReport::analyze(
                out.sim.kernel(0).trace(),
                &tl,
                SimTime::ZERO,
                end,
            ))
        })
    });
    c.bench_function("trace/green_fraction", |b| {
        b.iter(|| {
            black_box(pa_workloads::green_fraction(
                out.sim.kernel(0).trace(),
                8,
                SimTime::ZERO,
                end,
            ))
        })
    });
}

criterion_group!(benches, bench_cluster, bench_trace_analysis);
criterion_main!(benches);
