//! Duty-cycle sensitivity: §4 gives the administrator "wide latitude" and
//! warns that an over-aggressive favored window starves the node; the
//! study settled on 90%.

use pa_bench::{banner, emit, require_complete, Args, Mode};
use pa_simkit::{report, Table};
use pa_workloads::duty_cycle_sweep;

fn main() {
    let args = Args::parse("tab_duty");
    banner("Duty-cycle sensitivity", args.mode);
    let nodes = match args.mode {
        Mode::Quick => 4,
        Mode::Standard => 16,
        Mode::Full => 59,
    };
    // Tick-aligned duties for the compressed 1.25 s window.
    let duties = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0];
    let rows = require_complete(duty_cycle_sweep(
        nodes,
        &duties,
        args.mode == Mode::Quick,
        &args.campaign("tab_duty"),
    ));
    emit(args.json, &rows, || {
        let mut t = Table::new(
            format!("Mean Allreduce µs vs favored duty cycle at {nodes} nodes"),
            &["duty", "mean µs"],
        );
        for (duty, us) in &rows {
            t.row(&[report::fnum(*duty, 2), report::fnum(*us, 1)]);
        }
        print!("{}", t.render());
    });
}
