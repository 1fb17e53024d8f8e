//! Figure 3: mean Allreduce time vs. processor count, 16 tasks/node,
//! standard (vanilla) kernel. Expect roughly linear growth with large
//! run-to-run variability — not the logarithmic curve the tree algorithm
//! predicts.

use pa_bench::{
    banner, campaign_registry, emit, require_complete, scale_sweep, write_blame, write_metrics,
    Args, Mode,
};
use pa_simkit::{report, Table};
use pa_workloads::{campaign_blame_totals, run_blame_point, run_scaling_campaign, ScalingConfig};

fn main() {
    let args = Args::parse("fig3");
    banner(
        "Figure 3 · Allreduce µs vs processors (vanilla, 16 t/n)",
        args.mode,
    );
    let cfg = scale_sweep(ScalingConfig::fig3(args.mode == Mode::Quick), &args);
    let (points, outcome) = require_complete(run_scaling_campaign(&cfg, &args.campaign("fig3")));
    write_metrics(&args, &campaign_registry("fig3", &outcome));
    if args.blame_out.is_some() {
        // One representative point re-runs fresh with full collective
        // capture (critical path needs per-op samples); the sweep's
        // cached category sums merge alongside it.
        let report = pa_blame::BlameReport {
            title: "fig3".into(),
            runs: vec![run_blame_point(&cfg, "fig3")],
            campaigns: vec![campaign_blame_totals("fig3", &outcome.results)],
            ..pa_blame::BlameReport::default()
        };
        write_blame(&args, &report);
    }
    emit(args.json, &points, || {
        let mut t = Table::new(
            "Allreduce scaling — vanilla AIX-like kernel",
            &["procs", "mean µs", "stddev", "min", "max"],
        );
        for p in &points {
            t.row(&[
                p.procs.to_string(),
                report::fnum(p.mean_us, 1),
                report::fnum(p.std_us, 1),
                report::fnum(p.min_us, 1),
                report::fnum(p.max_us, 1),
            ]);
        }
        print!("{}", t.render());
        println!("(paper: linear, high variability; fitted y = 0.70x + 166)");
    });
}
