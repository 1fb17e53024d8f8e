//! The multi-job batch-scheduling sweep: one `pa-jobs` scenario run under
//! several placement policies and compared on makespan, queue wait, and
//! utilization.
//!
//! The scenario builder produces a deliberately mixed stream — wide and
//! narrow rigid jobs plus at least one malleable job whose fair share
//! first grows (an empty machine) and later shrinks (rigid arrivals) —
//! so a single sweep exercises every code path the batch layer adds:
//! head-of-line blocking under FCFS, shadow-respecting EASY backfill,
//! pressure-aware packing, and equipartition resize in both directions.

use pa_campaign::{ExecutorConfig, PointCtx, PointResult, PointSpec};
use pa_jobs::{JobRequest, JobsEngine, JobsOutcome, MultiJobSpec, PolicyKind};
use pa_kernel::SchedOptions;
use pa_noise::NoiseProfile;
use pa_simkit::SimDur;
use serde::Serialize;

/// Scenario scale for the multi-job sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchScale {
    /// 4 nodes, 6 jobs; seconds of wall clock.
    Quick,
    /// 8 nodes, 10 jobs; the default.
    Standard,
    /// 16 nodes, 18 jobs.
    Full,
}

/// Build the standard mixed scenario at `scale`.
///
/// Submission times are spread so the queue is never trivially empty,
/// and the malleable job arrives first: it launches wide on the idle
/// machine (grow) and is squeezed once the rigid stream lands (shrink).
pub fn batch_scenario(scale: BatchScale) -> MultiJobSpec {
    let (nodes, njobs) = match scale {
        BatchScale::Quick => (4u32, 6usize),
        BatchScale::Standard => (8, 10),
        BatchScale::Full => (16, 18),
    };
    let mut jobs = Vec::new();
    // The malleable lead job: prefers half the machine, tolerates 1..all.
    // Enough chunks to outlive the rigid stream, so its fair share both
    // shrinks (rigid arrivals) and grows back (the stream drains).
    jobs.push(JobRequest {
        iters_per_chunk: 4,
        work_per_iter: SimDur::from_micros(300),
        estimate: SimDur::from_millis(30),
        ..JobRequest::malleable("stretch", SimDur::ZERO, nodes / 2, 1, nodes, 14)
    });
    // A rigid stream with alternating widths: wide jobs block FCFS heads,
    // short narrow jobs give backfill something to slip through.
    for i in 1..njobs {
        let wide = i % 3 == 0;
        let width = if wide {
            nodes / 2 + 1
        } else {
            1 + (i as u32 % 2)
        };
        jobs.push(JobRequest {
            iters_per_chunk: if wide { 8 } else { 4 },
            work_per_iter: SimDur::from_micros(if wide { 400 } else { 200 }),
            estimate: SimDur::from_millis(if wide { 10 } else { 4 }),
            ..JobRequest::rigid(format!("r{i}"), SimDur::from_millis(2 * i as u64), width)
        });
    }
    MultiJobSpec {
        nodes,
        cpus_per_node: 2,
        quantum: SimDur::from_millis(2),
        gang_period: SimDur::from_millis(1),
        jobs,
        ..MultiJobSpec::default()
    }
}

/// The campaign point for one (scenario, policy) pair; the pair is the
/// point's workload.
pub fn batch_point(
    scenario: &MultiJobSpec,
    policy: PolicyKind,
    seed: u64,
    link_bandwidth: Option<f64>,
    noise: &NoiseProfile,
) -> PointSpec<(MultiJobSpec, PolicyKind)> {
    PointSpec {
        family: "multi_job".into(),
        nodes: scenario.nodes,
        // Widths vary per job; the spec-level fields describe the machine.
        tasks_per_node: 0,
        cpus_per_node: scenario.cpus_per_node as u8,
        kernel: if scenario.gang {
            SchedOptions::prototype()
        } else {
            SchedOptions::vanilla()
        },
        cosched: None,
        noise: noise.clone(),
        progress: None,
        workload: (scenario.clone(), policy),
        seed,
        horizon: None,
        link_bandwidth,
    }
}

/// Run one multi-job point: the campaign runner for the `multi_job`
/// family. Pure in the spec, bit-identical at any `--sim-threads`.
pub fn multi_job_runner(
    spec: &PointSpec<(MultiJobSpec, PolicyKind)>,
    ctx: &PointCtx,
) -> PointResult {
    let outcome = run_batch_point(spec, ctx.sim_threads);
    point_result(&outcome)
}

/// Run the engine for one point and keep the full outcome (metrics and
/// spans included) — what the binary uses for `--metrics-out`.
pub fn run_batch_point(
    spec: &PointSpec<(MultiJobSpec, PolicyKind)>,
    sim_threads: usize,
) -> JobsOutcome {
    let (scenario, policy) = &spec.workload;
    JobsEngine::new(scenario.clone(), *policy)
        .with_seed(spec.seed)
        .with_sim_threads(sim_threads)
        .with_link_bandwidth(spec.link_bandwidth)
        .with_noise(spec.noise.clone())
        .run()
}

/// Fold a [`JobsOutcome`] into the cacheable scalar form.
fn point_result(out: &JobsOutcome) -> PointResult {
    let mut extra = std::collections::BTreeMap::new();
    extra.insert("jobs.makespan_us".into(), out.makespan.micros() as f64);
    extra.insert("jobs.mean_queue_wait_us".into(), out.mean_queue_wait_us());
    extra.insert("jobs.utilization".into(), out.utilization);
    extra.insert(
        "jobs.reconfigurations".into(),
        f64::from(out.reconfigurations),
    );
    let grows: u32 = out.jobs.iter().map(|j| j.grows).sum();
    let shrinks: u32 = out.jobs.iter().map(|j| j.shrinks).sum();
    extra.insert("jobs.grows".into(), f64::from(grows));
    extra.insert("jobs.shrinks".into(), f64::from(shrinks));
    // Wait-state category sums over all jobs' rank threads, matching
    // the scaling points' `blame.*` extras so campaign blame totals
    // merge uniformly across figure and batch sweeps.
    let mut cats = pa_blame::Categories::default();
    let mut wall = 0u64;
    for jb in &out.blame {
        cats.add(&jb.cats);
        wall += jb.wall_ns;
    }
    extra.insert("blame.compute_ns".into(), cats.compute_ns as f64);
    extra.insert("blame.coll_wait_ns".into(), cats.coll_wait_ns as f64);
    extra.insert("blame.runq_wait_ns".into(), cats.runq_wait_ns as f64);
    extra.insert("blame.noise_ns".into(), cats.noise_ns as f64);
    extra.insert("blame.io_wait_ns".into(), cats.io_wait_ns as f64);
    extra.insert("blame.overhead_ns".into(), cats.overhead_ns as f64);
    extra.insert("blame.wall_ns".into(), wall as f64);
    PointResult {
        mean_allreduce_us: 0.0,
        wall_s: out.makespan.as_secs_f64(),
        completed: out.completed,
        events: out.events,
        extra,
    }
}

/// One row of the policy-comparison table.
#[derive(Debug, Clone, Serialize)]
pub struct PolicyRow {
    /// Policy name.
    pub policy: String,
    /// Time to drain the whole job stream, ms.
    pub makespan_ms: f64,
    /// Mean queue wait per job, ms.
    pub mean_queue_wait_ms: f64,
    /// Occupied node-time over capacity, percent.
    pub utilization_pct: f64,
    /// Malleable width changes (grows + shrinks).
    pub reconfigurations: u32,
    /// Did every job finish?
    pub completed: bool,
}

/// Compare `policies` on one scenario through the campaign executor
/// (cached, parallel over `--jobs`, deterministic).
pub fn policy_comparison(
    scenario: &MultiJobSpec,
    policies: &[PolicyKind],
    seed: u64,
    link_bandwidth: Option<f64>,
    noise: &NoiseProfile,
    exec: &ExecutorConfig,
) -> Vec<PolicyRow> {
    let specs: Vec<_> = policies
        .iter()
        .map(|&p| batch_point(scenario, p, seed, link_bandwidth, noise))
        .collect();
    let outcome = pa_campaign::run_campaign(&specs, exec, multi_job_runner);
    policies
        .iter()
        .zip(&outcome.results)
        .map(|(p, r)| PolicyRow {
            policy: p.name().to_string(),
            makespan_ms: r.extra["jobs.makespan_us"] / 1_000.0,
            mean_queue_wait_ms: r.extra["jobs.mean_queue_wait_us"] / 1_000.0,
            utilization_pct: r.extra["jobs.utilization"] * 100.0,
            reconfigurations: r.extra["jobs.reconfigurations"] as u32,
            completed: r.completed,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_scenario_validates_and_has_a_malleable_job() {
        let s = batch_scenario(BatchScale::Quick);
        s.validate().expect("builder output must validate");
        assert!(s.jobs.iter().any(|j| j.is_malleable()));
        assert!(s.jobs.len() >= 4);
    }

    #[test]
    fn standard_scenario_mixes_wide_and_narrow() {
        let s = batch_scenario(BatchScale::Standard);
        s.validate().unwrap();
        let widths: Vec<u32> = s.jobs.iter().map(|j| j.nodes).collect();
        assert!(widths.iter().any(|&w| w > s.nodes / 2));
        assert!(widths.contains(&1));
    }

    #[test]
    fn batch_points_key_on_their_policy() {
        let scenario = batch_scenario(BatchScale::Quick);
        let noise = NoiseProfile::silent();
        let key = |p| batch_point(&scenario, p, 42, None, &noise).content_key();
        assert_eq!(key(PolicyKind::Backfill), key(PolicyKind::Backfill));
        assert_ne!(key(PolicyKind::Backfill), key(PolicyKind::FcfsFirstFit));
    }

    #[test]
    fn quick_scenario_grows_and_shrinks_under_equipartition() {
        let spec = batch_point(
            &batch_scenario(BatchScale::Quick),
            PolicyKind::EquiPartition,
            42,
            None,
            &NoiseProfile::silent(),
        );
        let r = multi_job_runner(&spec, &PointCtx::serial());
        assert!(r.completed);
        assert!(
            r.extra["jobs.grows"] >= 1.0 && r.extra["jobs.shrinks"] >= 1.0,
            "scenario must exercise both directions: {:?}",
            r.extra
        );
    }

    #[test]
    fn policies_rank_sanely_on_the_quick_scenario() {
        let scenario = batch_scenario(BatchScale::Quick);
        let noise = NoiseProfile::silent();
        let rows: Vec<(PolicyKind, PointResult)> = PolicyKind::ALL
            .iter()
            .map(|&p| {
                let spec = batch_point(&scenario, p, 42, None, &noise);
                (p, multi_job_runner(&spec, &PointCtx::serial()))
            })
            .collect();
        for (p, r) in &rows {
            assert!(r.completed, "{} must drain the queue", p.name());
        }
        let wait = |k: PolicyKind| {
            rows.iter()
                .find(|(p, _)| *p == k)
                .map(|(_, r)| r.extra["jobs.mean_queue_wait_us"])
                .unwrap()
        };
        // Backfill must not wait longer than strict FCFS on a stream
        // where narrow jobs can slip past blocked wide heads.
        assert!(
            wait(PolicyKind::Backfill) <= wait(PolicyKind::FcfsFirstFit) + 1e-9,
            "backfill {} vs fcfs {}",
            wait(PolicyKind::Backfill),
            wait(PolicyKind::FcfsFirstFit)
        );
    }
}
