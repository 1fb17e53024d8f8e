//! A-ablate: contribution of each prototype mechanism (big ticks, aligned
//! ticks, improved RT preemption, global daemon queue, co-scheduler) to
//! the Allreduce improvement.

use pa_bench::{banner, emit, require_complete, Args, Mode};
use pa_simkit::{report, Table};
use pa_workloads::tab_ablation;

fn main() {
    let args = Args::parse("tab_ablation");
    banner("A-ablate · mechanism ablation", args.mode);
    let nodes = match args.mode {
        Mode::Quick => 4,
        Mode::Standard => 16,
        Mode::Full => 59,
    };
    let rows = require_complete(tab_ablation(
        nodes,
        args.mode == Mode::Quick,
        &args.campaign("tab_ablation"),
    ));
    emit(args.json, &rows, || {
        let base = rows[0].value;
        let mut t = Table::new(
            format!("Mean Allreduce µs at {nodes} nodes"),
            &["configuration", "mean µs", "vs vanilla"],
        );
        for r in &rows {
            t.row(&[
                r.label.clone(),
                report::fnum(r.value, 1),
                format!("{}x", report::fnum(base / r.value, 2)),
            ]);
        }
        print!("{}", t.render());
    });
}
