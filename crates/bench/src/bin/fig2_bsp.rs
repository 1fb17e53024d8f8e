//! Figure 2: the Bulk-Synchronous SPMD cycle — per-rank phase breakdown
//! of the ALE3D proxy's timesteps.

use pa_bench::{banner, emit, Args};
use pa_simkit::report;
use pa_workloads::fig2;

fn main() {
    let args = Args::parse("fig2_bsp");
    banner(
        "Figure 2 · BSP phase structure (ALE3D proxy, node 0)",
        args.mode,
    );
    let rows = fig2(args.seed);
    emit(args.json, &rows, || {
        println!(
            "{:>5} {:>12} {:>12} {:>12}",
            "rank", "compute ms", "exchange ms", "reduce ms"
        );
        for r in &rows {
            println!(
                "{:>5} {:>12} {:>12} {:>12}",
                r.rank,
                report::fnum(r.compute_ms, 2),
                report::fnum(r.exchange_ms, 2),
                report::fnum(r.reduce_ms, 2)
            );
        }
        println!("(each rank alternates computation and communication phases — Figure 2's cycle)");
    });
}
