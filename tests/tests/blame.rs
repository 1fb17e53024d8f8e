//! Property and integration tests of the wait-state blame layer
//! (`pa-blame`): the exact per-rank sum invariant over random specs, a
//! byte-identical `BlameReport` across runs and campaign job counts, and
//! zero attribution when there is nothing to blame.

use pa_campaign::{run_campaign, ExecutorConfig};
use pa_core::{blame_of, blame_totals, CoschedSetup, Experiment};
use pa_mpi::{MpiOp, OpList, RankWorkload};
use pa_simkit::SimDur;
use pa_workloads::{aggregate_runner, campaign_blame_totals, ScalingConfig};
use proptest::prelude::*;

/// Compute/Allreduce pairs — the shape whose laggard-driven barrier
/// waits the blame layer exists to attribute.
fn workload(pairs: usize, compute_us: u64) -> impl FnMut(u32) -> Box<dyn RankWorkload> {
    move |_rank: u32| -> Box<dyn RankWorkload> {
        Box::new(OpList::new(
            std::iter::repeat_n(
                [
                    MpiOp::Compute(SimDur::from_micros(compute_us)),
                    MpiOp::Allreduce { bytes: 64 },
                ],
                pairs,
            )
            .flatten()
            .collect(),
        ))
    }
}

proptest! {
    /// (a) Every rank's six categories sum exactly to its wall time —
    /// `analyze` panics on any violation, so constructing the blame is
    /// the assertion; the per-rank and run-total identities are then
    /// re-checked explicitly, including against the cheap scalar fold
    /// that campaign caches store.
    #[test]
    fn rank_categories_sum_to_wall_exactly(
        nodes in 2u32..5,
        tasks in 1u32..3,
        seed in 0u64..10_000,
        cosched in any::<bool>(),
        compute_us in 0u64..80,
        link_bw in (any::<bool>(), 1e6f64..1e9).prop_map(|(l, bw)| l.then_some(bw)),
    ) {
        let mut e = Experiment::new(nodes, tasks)
            .with_cpus_per_node(4)
            .with_record_all_ranks()
            .with_link_bandwidth(link_bw)
            .with_seed(seed);
        if cosched {
            e = e.with_cosched(CoschedSetup::default());
        }
        let out = e.run(&mut workload(16, compute_us));
        let blame = blame_of(&out, "prop");
        prop_assert_eq!(blame.nranks, nodes * tasks);
        for r in &blame.ranks {
            prop_assert_eq!(
                r.cats.total_ns(), r.wall_ns as i64,
                "rank {} categories do not sum to wall", r.rank
            );
        }
        prop_assert_eq!(&blame.totals, &blame_totals(&out));
        // Full capture was on, so the critical path must exist and its
        // decomposition must telescope exactly over the walked span.
        let path = blame.path.expect("record-all capture gives a path");
        prop_assert_eq!(
            path.on_path.total_ns() as u64 + path.coll_release_ns,
            path.span_ns
        );
    }

    /// (b) The rendered report is byte-identical across two runs of the
    /// same spec: blame is derived post-hoc from canonical state, and each
    /// run's hash maps get fresh iteration orders, so no map order may
    /// move a single byte.
    #[test]
    fn blame_report_is_byte_identical_across_runs(
        nodes in 2u32..5,
        tasks in 1u32..3,
        seed in 0u64..10_000,
        cosched in any::<bool>(),
    ) {
        let run = || {
            let mut e = Experiment::new(nodes, tasks)
                .with_cpus_per_node(4)
                .with_record_all_ranks()
                .with_seed(seed);
            if cosched {
                e = e.with_cosched(CoschedSetup::default());
            }
            let out = e.run(&mut workload(12, 20));
            pa_blame::BlameReport {
                title: "prop".into(),
                runs: vec![blame_of(&out, "prop")],
                ..pa_blame::BlameReport::default()
            }
            .to_json()
        };
        prop_assert_eq!(run(), run(), "report diverges between runs");
    }

    /// (c) A silent-noise run on unlimited links attributes nothing to
    /// the noise or link categories, for any spec.
    #[test]
    fn quiet_runs_attribute_nothing_to_noise_or_links(
        nodes in 2u32..5,
        tasks in 1u32..3,
        seed in 0u64..10_000,
    ) {
        let out = Experiment::new(nodes, tasks)
            .with_cpus_per_node(4)
            .with_noise(pa_noise::NoiseProfile::silent())
            .with_seed(seed)
            .run(&mut workload(12, 10));
        let blame = blame_of(&out, "quiet");
        prop_assert_eq!(blame.totals.noise_ns, 0);
        prop_assert!(blame.noise.is_empty(), "no interference sources");
        prop_assert!(blame.links.is_empty(), "unlimited links never queue");
        for n in &blame.nodes {
            prop_assert_eq!(n.link_waits, 0);
            prop_assert_eq!(n.link_wait_ns, 0);
        }
    }
}

/// (b, campaign half) The `blame.*` extras every cached point carries
/// fold to the same campaign totals whether the sweep ran serially or on
/// four worker jobs — checked at the byte level through the canonical
/// report, exactly as `--blame-out` would emit it.
#[test]
fn campaign_blame_extras_are_identical_at_any_job_count() {
    let mut cfg = ScalingConfig::fig3(true);
    cfg.node_counts = vec![2, 4];
    cfg.allreduces = 48;
    cfg.seeds = vec![42, 43];
    cfg.target_sim_time = None;
    let points = cfg.points();
    let serial = run_campaign(
        &points,
        &ExecutorConfig::serial("blame-jobs1"),
        aggregate_runner,
    );
    let parallel = run_campaign(
        &points,
        &ExecutorConfig::serial("blame-jobs4").with_jobs(4),
        aggregate_runner,
    );
    assert_eq!(serial.results, parallel.results);
    let report = |results| pa_blame::BlameReport {
        title: "jobs".into(),
        campaigns: vec![campaign_blame_totals("fig3", results)],
        ..pa_blame::BlameReport::default()
    };
    let a = report(&serial.results);
    let b = report(&parallel.results);
    assert_eq!(a.to_json(), b.to_json());
    let totals = &a.campaigns[0];
    assert_eq!(totals.points, points.len() as u64);
    assert!(
        totals.wall_ns > 0,
        "campaign points must carry blame extras"
    );
    assert!(
        totals.cats.coll_wait_ns > 0,
        "a noisy fig3 sweep must accumulate collective wait"
    );
}
