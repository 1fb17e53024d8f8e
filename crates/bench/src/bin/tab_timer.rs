//! T-timer: the MPI timer-thread ("progress engine") interference and the
//! MP_POLLING_INTERVAL mitigation (§5.3).

use pa_bench::{banner, emit, Args, Mode};
use pa_simkit::{report, Table};
use pa_workloads::tab_timer;

fn main() {
    let args = Args::parse("tab_timer");
    banner("T-timer · MPI progress-engine interference", args.mode);
    let nodes = match args.mode {
        Mode::Quick => 2,
        Mode::Standard => 8,
        Mode::Full => 59,
    };
    let r = tab_timer(nodes, args.mode != Mode::Full, args.seed);
    emit(args.json, &r, || {
        let mut t = Table::new(
            format!("Per-call global Allreduce duration at {nodes} nodes, 15 t/n"),
            &["configuration", "mean µs", "p99 µs", "max µs"],
        );
        for (label, mean, p99, max) in &r.rows {
            t.row(&[
                label.clone(),
                report::fnum(*mean, 1),
                report::fnum(*p99, 1),
                report::fnum(*max, 1),
            ]);
        }
        print!("{}", t.render());
        println!(
            "tail (max) improvement from mitigation: {}x (paper: 'this removed the interference')",
            report::fnum(r.p99_improvement, 2)
        );
    });
}
