//! T-ale3d: end-to-end ALE3D proxy run time, vanilla vs the I/O-aware
//! prototype (paper: 1315 s → 1152 s at 944 processors).

use pa_bench::{banner, emit, Args, Mode};
use pa_simkit::{report, Table};
use pa_workloads::{tab_ale3d, Ale3dSpec};

fn main() {
    let args = Args::parse("tab_ale3d");
    banner("T-ale3d · ALE3D proxy run time", args.mode);
    let (nodes, spec) = ale3d_scale(args.mode);
    let rows = tab_ale3d(nodes, spec, args.seed);
    // A proxy run cut off by the simulation horizon is not a
    // reproduction; report it and exit non-zero after showing the rows.
    let cut: Vec<&str> = rows
        .iter()
        .filter(|r| !r.completed)
        .map(|r| r.label.as_str())
        .collect();
    emit(args.json, &rows, || {
        let mut t = Table::new(
            format!("ALE3D proxy at {nodes} nodes x 16",),
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
        let speedup = rows[0].wall_s / rows[1].wall_s;
        println!(
            "vanilla/io-aware ratio: {}x (paper: 1315s -> 1152s, ratio 1.14x)",
            report::fnum(speedup, 2)
        );
    });
    if !cut.is_empty() {
        eprintln!(
            "error: T-ale3d: {} run(s) cut by the horizon: {}",
            cut.len(),
            cut.join(", ")
        );
        std::process::exit(1);
    }
}

fn ale3d_scale(mode: Mode) -> (u32, Ale3dSpec) {
    match mode {
        Mode::Quick => (
            2,
            Ale3dSpec {
                timesteps: 8,
                compute_per_step: pa_simkit::SimDur::from_millis(5),
                initial_read_bytes: 1 << 20,
                restart_bytes: 2 << 20,
                ..Ale3dSpec::default()
            },
        ),
        Mode::Standard => (8, Ale3dSpec::default()),
        Mode::Full => (59, Ale3dSpec::default()),
    }
}
