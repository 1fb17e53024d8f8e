//! T-15v16: the reserve-CPU workaround (§2) vs the prototype — including
//! the paper's claim that 100 fully-populated prototype nodes beat 100
//! vanilla nodes running 15 tasks each by 154%.

use pa_bench::{banner, emit, require_complete, Args, Mode};
use pa_simkit::{report, Table};
use pa_workloads::tab_15v16;

fn main() {
    let args = Args::parse("tab_15v16");
    banner("T-15v16 · reserve CPU vs prototype", args.mode);
    let nodes = match args.mode {
        Mode::Quick => 4,
        Mode::Standard => 32,
        Mode::Full => 100,
    };
    let r = require_complete(tab_15v16(
        nodes,
        args.mode == Mode::Quick,
        &args.campaign("tab_15v16"),
    ));
    emit(args.json, &r, || {
        let mut t = Table::new(
            format!("Mean Allreduce µs at {nodes} nodes"),
            &["configuration", "mean µs"],
        );
        for row in &r.rows {
            t.row(&[row.label.clone(), report::fnum(row.value, 1)]);
        }
        print!("{}", t.render());
        println!(
            "vanilla 16/15 ratio: {}x (15 t/n should be faster) | prototype-16 vs vanilla-15 speedup: {}x (paper: 1.54x)",
            report::fnum(r.van16_over_van15, 2),
            report::fnum(r.proto16_speedup_vs_van15, 2)
        );
    });
}
