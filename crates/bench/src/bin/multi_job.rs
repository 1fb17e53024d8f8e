//! Multi-job batch sweep: one mixed job stream (rigid wide/narrow jobs
//! plus a malleable lead job) run under each placement policy, compared
//! on makespan, mean queue wait, utilization, and reconfiguration count.
//!
//! The scenario is scaled by mode (`--quick`: 4 nodes / 6 jobs,
//! default: 8 / 10, `--full`: 16 / 18) and honors `--link-bandwidth`
//! for fabric contention. Noise is the production profile, so policies
//! are compared under the interference the paper measures. Output is
//! bit-identical at any `--jobs`.

use pa_bench::{banner, emit, write_blame, write_metrics, write_trace, Args};
use pa_jobs::PolicyKind;
use pa_noise::NoiseProfile;
use pa_simkit::{report, Table};
use pa_workloads::{batch_point, batch_scenario, policy_comparison, run_batch_point, BatchScale};

fn main() {
    let args = Args::parse("multi_job");
    banner("Multi-job batch policies", args.mode);
    let scale = match args.mode {
        pa_bench::Mode::Quick => BatchScale::Quick,
        pa_bench::Mode::Standard => BatchScale::Standard,
        pa_bench::Mode::Full => BatchScale::Full,
    };
    let scenario = batch_scenario(scale);
    let policies: Vec<PolicyKind> = args
        .policies
        .clone()
        .unwrap_or_else(|| PolicyKind::ALL.to_vec());
    let noise = NoiseProfile::production();
    let rows = policy_comparison(
        &scenario,
        &policies,
        args.seed,
        args.link_bandwidth,
        &noise,
        &args.campaign("multi_job"),
    );
    emit(args.json, &rows, || {
        let mut t = Table::new(
            format!(
                "Batch policies on {} nodes, {} jobs (1 malleable)",
                scenario.nodes,
                scenario.jobs.len()
            ),
            &[
                "policy",
                "makespan ms",
                "wait ms",
                "util %",
                "reconfigs",
                "done",
            ],
        );
        for r in &rows {
            t.row(&[
                r.policy.clone(),
                report::fnum(r.makespan_ms, 2),
                report::fnum(r.mean_queue_wait_ms, 2),
                report::fnum(r.utilization_pct, 1),
                r.reconfigurations.to_string(),
                if r.completed { "yes" } else { "NO" }.to_string(),
            ]);
        }
        print!("{}", t.render());
    });
    if args.metrics_out.is_some() || args.trace_out.is_some() || args.blame_out.is_some() {
        // Re-run the first policy fresh to keep its full observability
        // output (the cache holds scalars only). Deterministic, so this
        // matches what the campaign measured.
        let spec = batch_point(
            &scenario,
            policies[0],
            args.seed,
            args.link_bandwidth,
            &noise,
        );
        let out = run_batch_point(&spec);
        write_metrics(&args, &out.metrics);
        write_trace(&args, &out.spans);
        if args.blame_out.is_some() {
            // Per-job sections from the fresh run, plus its fold as a
            // one-point campaign total for uniformity with the figures.
            let mut cats = pa_blame::Categories::default();
            let mut wall = 0u64;
            for jb in &out.blame {
                cats.add(&jb.cats);
                wall += jb.wall_ns;
            }
            let report = pa_blame::BlameReport {
                title: "multi_job".into(),
                jobs: out.blame.clone(),
                campaigns: vec![pa_blame::CampaignTotals {
                    label: format!("multi_job/{}", policies[0].name()),
                    points: 1,
                    wall_ns: wall,
                    cats,
                }],
                ..pa_blame::BlameReport::default()
            };
            write_blame(&args, &report);
        }
    }
}
