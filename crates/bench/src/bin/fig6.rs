//! Figure 6: the fitted lines over the Figure 3 and Figure 5 data and the
//! headline slope ratio (paper: 0.70/0.22 ≈ 3.2×, "a speedup of over
//! 300% on synchronizing collectives").

use pa_bench::{
    banner, campaign_registry, emit, require_complete, scale_sweep, write_blame, write_metrics,
    Args, Mode,
};
use pa_simkit::report;
use pa_workloads::{
    campaign_blame_totals, fig6, run_blame_point, run_scaling_campaign, ScalingConfig,
};

fn main() {
    let args = Args::parse("fig6");
    banner("Figure 6 · fitted scaling lines", args.mode);
    let quick = args.mode == Mode::Quick;
    let vcfg = scale_sweep(ScalingConfig::fig3(quick), &args);
    let pcfg = scale_sweep(ScalingConfig::fig5(quick), &args);
    let (vanilla, vout) =
        require_complete(run_scaling_campaign(&vcfg, &args.campaign("fig6/vanilla")));
    let (prototype, pout) = require_complete(run_scaling_campaign(
        &pcfg,
        &args.campaign("fig6/prototype"),
    ));
    let result = fig6(&vanilla, &prototype);
    let mut reg = campaign_registry("fig6.vanilla", &vout);
    reg.merge(&campaign_registry("fig6.prototype", &pout))
        .expect("fig6 registries share histogram layouts");
    write_metrics(&args, &reg);
    if args.blame_out.is_some() {
        // Side-by-side sections: where vanilla loses its time vs. where
        // the prototype spends it — the mechanism behind the slope ratio.
        let report = pa_blame::BlameReport {
            title: "fig6".into(),
            runs: vec![
                run_blame_point(&vcfg, "vanilla"),
                run_blame_point(&pcfg, "prototype"),
            ],
            campaigns: vec![
                campaign_blame_totals("vanilla", &vout.results),
                campaign_blame_totals("prototype", &pout.results),
            ],
            ..pa_blame::BlameReport::default()
        };
        write_blame(&args, &report);
    }
    emit(args.json, &result, || {
        println!(
            "vanilla   : y = {}x + {}   (r² {})",
            report::fnum(result.vanilla.slope, 3),
            report::fnum(result.vanilla.intercept, 1),
            report::fnum(result.vanilla.r2, 3)
        );
        println!(
            "prototype : y = {}x + {}   (r² {})",
            report::fnum(result.prototype.slope, 3),
            report::fnum(result.prototype.intercept, 1),
            report::fnum(result.prototype.r2, 3)
        );
        println!(
            "slope ratio (vanilla/prototype): {}x   (paper: 0.70/0.22 = 3.2x)",
            report::fnum(result.slope_ratio, 2)
        );
        for (procs, s) in &result.speedups {
            println!("  speedup at {procs:>5} procs: {}x", report::fnum(*s, 2));
        }
    });
}
