//! Figure 5: mean Allreduce time vs. processor count, 16 tasks/node, the
//! prototype kernel plus co-scheduler. Expect a large improvement and far
//! smaller variability than Figure 3.

use pa_bench::{
    banner, campaign_registry, emit, require_complete, scale_sweep, write_blame, write_metrics,
    Args, Mode,
};
use pa_simkit::{report, Table};
use pa_workloads::{campaign_blame_totals, run_blame_point, run_scaling_campaign, ScalingConfig};

fn main() {
    let args = Args::parse("fig5");
    banner(
        "Figure 5 · Allreduce µs vs processors (prototype + cosched, 16 t/n)",
        args.mode,
    );
    let cfg = scale_sweep(ScalingConfig::fig5(args.mode == Mode::Quick), &args);
    let (points, outcome) = require_complete(run_scaling_campaign(&cfg, &args.campaign("fig5")));
    write_metrics(&args, &campaign_registry("fig5", &outcome));
    if args.blame_out.is_some() {
        let report = pa_blame::BlameReport {
            title: "fig5".into(),
            runs: vec![run_blame_point(&cfg, "fig5")],
            campaigns: vec![campaign_blame_totals("fig5", &outcome.results)],
            ..pa_blame::BlameReport::default()
        };
        write_blame(&args, &report);
    }
    emit(args.json, &points, || {
        let mut t = Table::new(
            "Allreduce scaling — prototype kernel + co-scheduler",
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
        println!("(paper: ~3x faster than vanilla, small variability; fitted y = 0.22x + 210)");
    });
}
