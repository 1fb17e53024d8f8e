//! T-overhead: the §2 claim that OS + daemon activity consumes 0.2%–1.1%
//! of each CPU on production 16-way SP nodes.

use pa_bench::{banner, emit, Args, Mode};
use pa_kernel::SchedOptions;
use pa_noise::NoiseProfile;
use pa_simkit::{report, SimDur, Table};
use pa_workloads::audit_node;

fn main() {
    let args = Args::parse("tab_overhead");
    banner("T-overhead · background load audit", args.mode);
    let window = match args.mode {
        Mode::Quick => SimDur::from_secs(30),
        Mode::Standard => SimDur::from_secs(120),
        Mode::Full => SimDur::from_secs(1_800), // one full cron period
    };
    let r = audit_node(
        &NoiseProfile::production(),
        SchedOptions::vanilla(),
        16,
        window,
        args.seed,
    );
    emit(args.json, &r, || {
        let mut t = Table::new(
            format!("Per-thread background CPU over {window}"),
            &["thread", "class", "cpu time", "% of one CPU"],
        );
        for row in &r.rows {
            t.row(&[
                row.name.clone(),
                format!("{:?}", row.class),
                row.cpu_time.to_string(),
                report::fnum(100.0 * row.one_cpu_share, 3),
            ]);
        }
        print!("{}", t.render());
        println!(
            "node total: {}% of one CPU  |  per-CPU: {}%   (paper band: 0.2%–1.1% per CPU)",
            report::fnum(100.0 * r.total_one_cpu_share, 2),
            report::fnum(100.0 * r.per_cpu_share, 3)
        );
    });
}
