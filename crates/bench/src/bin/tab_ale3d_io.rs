//! T-ale3d-io: the §5.3 I/O starvation story — naive favored priorities
//! starve GPFS and *slow the application down*; the detach API helps the
//! bulk phases; I/O-aware priorities (mmfsd 40 / favored 41) fix it.

use pa_bench::{banner, emit, Args, Mode};
use pa_simkit::{report, Table};
use pa_workloads::{tab_ale3d_io, Ale3dSpec};

fn main() {
    let args = Args::parse("tab_ale3d_io");
    banner("T-ale3d-io · I/O starvation ablation", args.mode);
    let (nodes, spec) = match args.mode {
        Mode::Quick => (
            2,
            Ale3dSpec {
                timesteps: 8,
                compute_per_step: pa_simkit::SimDur::from_millis(5),
                initial_read_bytes: 1 << 20,
                restart_bytes: 2 << 20,
                plot_every: 2,
                plot_bytes: 1 << 20,
                ..Ale3dSpec::default()
            },
        ),
        Mode::Standard => (8, Ale3dSpec::default()),
        Mode::Full => (59, Ale3dSpec::default()),
    };
    let rows = tab_ale3d_io(nodes, spec, args.seed);
    // A proxy run cut off by the simulation horizon is not a
    // reproduction; report it and exit non-zero after showing the rows.
    let cut: Vec<&str> = rows
        .iter()
        .filter(|r| !r.completed)
        .map(|r| r.label.as_str())
        .collect();
    emit(args.json, &rows, || {
        let mut t = Table::new(
            format!("ALE3D proxy I/O configurations at {nodes} nodes x 16"),
            &["configuration", "run time s", "completed"],
        );
        for r in &rows {
            t.row(&[
                r.label.clone(),
                report::fnum(r.wall_s, 2),
                r.completed.to_string(),
            ]);
        }
        print!("{}", t.render());
        println!(
            "(paper: naive co-scheduling slowed ALE3D; favored=41 just above mmfsd=40 fixed it)"
        );
    });
    if !cut.is_empty() {
        eprintln!(
            "error: T-ale3d-io: {} run(s) cut by the horizon: {}",
            cut.len(),
            cut.join(", ")
        );
        std::process::exit(1);
    }
}
