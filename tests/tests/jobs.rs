//! Cross-crate determinism properties of the batch layer.
//!
//! The contract under test: a multi-job schedule — arrivals, placements,
//! gang windows, malleable resizes, completions — produces bit-identical
//! manifests, metrics, and span timelines on every run, and a
//! policy-comparison campaign produces identical results at any `--jobs`
//! worker count and cache state.

use pa_campaign::{ExecutorConfig, PointResult};
use pa_jobs::{JobRequest, JobsEngine, JobsOutcome, MultiJobSpec, PolicyKind};
use pa_noise::NoiseProfile;
use pa_simkit::SimDur;
use pa_workloads::{batch_point, batch_scenario, multi_job_runner, BatchScale};
use proptest::prelude::*;

/// A small mixed scenario from random draws: a malleable lead job plus a
/// rigid stream with sorted (hence valid) submission times.
fn random_scenario(arrivals: &[(u64, u32, u32)]) -> MultiJobSpec {
    let mut jobs = vec![JobRequest {
        iters_per_chunk: 3,
        work_per_iter: SimDur::from_micros(200),
        estimate: SimDur::from_millis(8),
        ..JobRequest::malleable("m", SimDur::ZERO, 2, 1, 4, 3)
    }];
    let mut sorted = arrivals.to_vec();
    sorted.sort();
    for (i, &(submit_ms, width, chunks)) in sorted.iter().enumerate() {
        jobs.push(JobRequest {
            iters_per_chunk: 3,
            work_per_iter: SimDur::from_micros(150),
            chunks,
            estimate: SimDur::from_millis(4),
            ..JobRequest::rigid(format!("r{i}"), SimDur::from_millis(submit_ms), width)
        });
    }
    MultiJobSpec {
        nodes: 4,
        cpus_per_node: 2,
        quantum: SimDur::from_millis(2),
        gang_period: SimDur::from_millis(1),
        jobs,
        ..MultiJobSpec::default()
    }
}

fn assert_same_history(base: &JobsOutcome, other: &JobsOutcome, what: &str) {
    assert_eq!(
        base.manifest_json(),
        other.manifest_json(),
        "manifest diverged: {what}"
    );
    assert_eq!(
        base.metrics.snapshot_json(),
        other.metrics.snapshot_json(),
        "metrics diverged: {what}"
    );
    assert_eq!(
        base.spans.to_chrome_trace(),
        other.spans.to_chrome_trace(),
        "spans diverged: {what}"
    );
}

proptest! {
    /// Any random multi-job schedule, any policy: a second run replays
    /// the full history, whatever order each run's hash maps iterate in.
    #[test]
    fn multi_job_history_replays_exactly(
        arrivals in prop::collection::vec((0u64..6, 1u32..=3, 1u32..=2), 1..3),
        policy_idx in 0usize..4,
        seed in 0u64..1_000,
    ) {
        let spec = random_scenario(&arrivals);
        let policy = PolicyKind::ALL[policy_idx];
        let run = || JobsEngine::new(spec.clone(), policy).with_seed(seed).run();
        let base = run();
        prop_assert!(base.completed, "{} left the queue undrained", policy.name());
        assert_same_history(&base, &run(), policy.name());
    }
}

/// The standard quick scenario under equipartition resizes in both
/// directions.
#[test]
fn malleable_resize_grows_and_shrinks() {
    let base = JobsEngine::new(batch_scenario(BatchScale::Quick), PolicyKind::EquiPartition)
        .with_seed(42)
        .with_noise(NoiseProfile::production())
        .with_link_bandwidth(Some(350e6))
        .run();
    assert!(base.completed);
    let m = &base.jobs[0];
    assert!(
        m.grows > 0 && m.shrinks > 0,
        "the scenario must exercise a malleable grow AND shrink, widths = {:?}",
        m.widths
    );
}

/// The policy-comparison campaign returns identical results at any
/// `--jobs` worker count (cache disabled, so every point runs fresh).
#[test]
fn campaign_results_are_job_count_invariant() {
    let scenario = batch_scenario(BatchScale::Quick);
    let noise = NoiseProfile::production();
    let specs: Vec<_> = PolicyKind::ALL
        .iter()
        .map(|&p| batch_point(&scenario, p, 42, Some(350e6), &noise))
        .collect();
    let run = |jobs: usize| -> Vec<PointResult> {
        pa_campaign::run_campaign(
            &specs,
            &ExecutorConfig::serial("jobs-invariance").with_jobs(jobs),
            multi_job_runner,
        )
        .results
    };
    let base = run(1);
    assert_eq!(base, run(4), "campaign results diverged at --jobs 4");
    let equi = &base[3];
    assert!(equi.completed);
    assert!(
        equi.extra["jobs.grows"] >= 1.0 && equi.extra["jobs.shrinks"] >= 1.0,
        "equipartition point must resize both ways: {:?}",
        equi.extra
    );
}
