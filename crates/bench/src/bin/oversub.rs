//! Oversubscribed multi-runtime gang scheduling across dispatcher
//! policies: the scenario grid from `pa_workloads::oversub`, one row per
//! (dispatcher, gang) cell. With `--dispatcher`, only that policy's two
//! rows run.

use pa_bench::{banner, emit, Args, Mode};
use pa_simkit::report;
use pa_workloads::{oversub_comparison, run_oversub, OversubRow, OversubSpec};

fn main() {
    let args = Args::parse("oversub");
    banner(
        "Oversubscription · gang scheduling vs dispatcher",
        args.mode,
    );
    let mut spec = if args.mode == Mode::Quick {
        OversubSpec::quick()
    } else {
        OversubSpec::default()
    };
    spec.seed = args.seed;

    let rows: Vec<OversubRow> = match args.dispatcher {
        Some(k) => [false, true]
            .map(|gang| run_oversub(&spec, k, gang))
            .to_vec(),
        None => oversub_comparison(&spec),
    };

    emit(args.json, &rows, || {
        println!(
            "{} runtimes x {} workers on {} CPUs, {} work each",
            spec.runtimes, spec.workers_per_runtime, spec.cpus, spec.work_per_worker
        );
        println!(
            "{:<10} {:>5} {:>12} {:>12} {:>11} {:>11} {:>12}",
            "dispatcher", "gang", "makespan_ms", "spread_ms", "dispatches", "preempts", "runq_ms"
        );
        for r in &rows {
            println!(
                "{:<10} {:>5} {:>12} {:>12} {:>11} {:>11} {:>12}",
                r.dispatcher,
                if r.gang { "on" } else { "off" },
                report::fnum(r.makespan_ms, 1),
                report::fnum(r.finish_spread_ms, 1),
                r.dispatches,
                r.preemptions,
                report::fnum(r.runq_wait_ms, 1)
            );
        }
    });
}
