//! Figure 4: sorted per-call Allreduce times on one node of a 944-proc
//! run, and the trace-driven culprit analysis of the slowest call
//! (paper: an administrative cron job consuming >600 ms).

use pa_bench::{banner, emit, write_metrics, write_trace, Args, Mode};
use pa_simkit::report;
use pa_workloads::{fig4_with_output, Fig4Config};

fn main() {
    let args = Args::parse("fig4");
    banner(
        "Figure 4 · sorted Allreduce times + outlier attribution",
        args.mode,
    );
    let mut cfg = Fig4Config::paper(args.mode != Mode::Full);
    cfg.seed = args.seed;
    cfg.sim_threads = args.sim_threads;
    if args.mode == Mode::Quick {
        cfg.nodes = 4;
        cfg.cron.phase = pa_simkit::SimDur::from_millis(80);
        cfg.cron.component_median = pa_simkit::SimDur::from_millis(6);
    }
    let (r, out) = fig4_with_output(&cfg);
    write_metrics(&args, &pa_core::metrics_of(&out));
    // Node 0 hosts the watched rank; its timeline shows the cron firing
    // tearing through the Allreduce loop.
    write_trace(&args, &pa_core::timeline_of(&out, 0));
    emit(args.json, &r, || {
        println!(
            "samples {} | model {}µs | fastest {} | median {} | mean {} | slowest {}",
            r.sorted_us.len(),
            report::fnum(r.model_us, 0),
            report::fnum(r.fastest_us, 1),
            report::fnum(r.median_us, 1),
            report::fnum(r.mean_us, 1),
            report::fnum(r.slowest_us, 1)
        );
        println!(
            "fastest/model = {} (paper ~1.1) | median/model = {} (paper ~1.35) | mean/model = {} (paper ~6)",
            report::fnum(r.fastest_us / r.model_us, 2),
            report::fnum(r.median_us / r.model_us, 2),
            report::fnum(r.mean_us / r.model_us, 2)
        );
        println!(
            "slowest call consumed {}% of total loop time (paper: >50%)",
            report::fnum(100.0 * r.slowest_share, 1)
        );
        println!("sorted sample deciles (µs):");
        let n = r.sorted_us.len();
        for d in 0..=10 {
            let idx = ((n - 1) * d) / 10;
            print!(" {:>9.1}", r.sorted_us[idx]);
        }
        println!();
        println!("culprits during the slowest call (cluster-wide CPU time):");
        for c in &r.culprits {
            println!("  {:<16} {:<10} {:>10.1}µs", c.name, c.class, c.us);
        }
    });
}
