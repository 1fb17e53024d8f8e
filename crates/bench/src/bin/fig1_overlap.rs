//! Figure 1: the overlap argument — the same interference budget costs
//! the application far less all-CPU availability when it is coordinated.

use pa_bench::{banner, emit, Args, Mode};
use pa_simkit::report;
use pa_workloads::fig1;

fn main() {
    let args = Args::parse("fig1_overlap");
    banner(
        "Figure 1 · interference overlap vs all-CPU availability",
        args.mode,
    );
    let r = fig1(args.seed, args.mode == Mode::Quick);
    emit(args.json, &r, || {
        println!("                     green (all CPUs run app)   red (some CPU runs noise)");
        println!(
            "random (vanilla)   : {:>8}                      {:>8}",
            report::fnum(r.green_vanilla, 3),
            report::fnum(r.red_vanilla, 3)
        );
        println!(
            "coordinated (proto): {:>8}                      {:>8}",
            report::fnum(r.green_prototype, 3),
            report::fnum(r.red_prototype, 3)
        );
        println!("(paper: same total red; coordinated scheduling leaves much more green)");
    });
}
