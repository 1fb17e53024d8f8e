//! # pa-bench — figure/table regeneration harness
//!
//! One binary per paper figure and table (see DESIGN.md's per-experiment
//! index). Each binary reads only the flags its row of [`BINARIES`]
//! declares, documented once in [`FLAGS`]; `<bin> --help` lists that
//! subset. Any other flag exits 2 naming the binary and the flag, so an
//! accepted flag always changes what the binary does.
//!
//! The default mode is a balanced configuration that reproduces every
//! qualitative result in a few minutes.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use pa_campaign::{Cache, ExecutorConfig, TruncatedPoints};
use serde::Serialize;

/// Scale at which to run a regeneration binary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Smoke scale.
    Quick,
    /// Balanced default.
    Standard,
    /// Paper scale.
    Full,
}

/// Every flag a binary can read: name (`|` separates spellings of one
/// setting), value placeholder (empty for a switch) and help text. Usage
/// lines, `--help` and value errors are built from it.
pub const FLAGS: &[(&str, &str, &str)] = &[
    (
        "--quick|--full",
        "",
        "seconds-scale smoke run, or the paper-scale one (default: balanced)",
    ),
    ("--json", "", "machine-readable output instead of tables"),
    ("--seed", "N", "master seed (default 42)"),
    (
        "--jobs",
        "N",
        "campaign worker threads (>= 1), the way to use more cores; \
        output is byte-identical at any count",
    ),
    ("--no-cache", "", "skip the results/cache/ result cache"),
    (
        "--rerun",
        "",
        "ignore cached entries but refresh them with new runs",
    ),
    (
        "--link-bandwidth",
        "B|unlimited",
        "per-node link bytes/sec (> 0); default unlimited",
    ),
    (
        "--checkpoint-every",
        "DUR",
        "checkpoint fresh points every DUR of sim time, an integer \
        with an optional ns/us/ms/s suffix (bare: ms); a killed run resumes bit-identically",
    ),
    (
        "--metrics-out",
        "PATH",
        "write a canonical-JSON metrics snapshot",
    ),
    (
        "--trace-out",
        "PATH",
        "write a Chrome trace-event span timeline (Perfetto)",
    ),
    (
        "--blame-out",
        "PATH",
        "write a wait-state blame report (JSON; tables to stderr)",
    ),
    (
        "--policies",
        "LIST",
        "batch placement policies, comma-separated fcfs,backfill,pack,equi",
    ),
    (
        "--dispatcher",
        "aix|cfs|eevdf",
        "kernel dispatcher; aix (the paper's) unless given, \
        except oversub, which runs all three",
    ),
];

/// One direct run per configuration.
const RUN: &str = "--quick|--full --json --seed";
/// Campaign sweeps over fixed seeds.
const TABLE_SWEEP: &str = "--quick|--full --json --jobs --no-cache --rerun --checkpoint-every";
/// The Figure 3/5/6 scaling sweeps.
const SCALING_SWEEP: &str = "--quick|--full --json --seed --jobs --no-cache --rerun \
    --link-bandwidth --checkpoint-every --metrics-out --blame-out --dispatcher";

/// The [`FLAGS`] rows each binary reads, beyond `--help`.
pub const BINARIES: &[(&str, &str)] = &[
    ("fig1_overlap", RUN),
    ("fig2_bsp", RUN),
    ("fig3", SCALING_SWEEP),
    (
        "fig4",
        "--quick|--full --json --seed --metrics-out --trace-out",
    ),
    ("fig5", SCALING_SWEEP),
    ("fig6", SCALING_SWEEP),
    (
        "multi_job",
        "--quick|--full --json --seed --jobs --no-cache --rerun \
        --link-bandwidth --metrics-out --trace-out --blame-out --policies",
    ),
    ("oversub", "--quick|--full --json --seed --dispatcher"),
    ("tab_15v16", TABLE_SWEEP),
    ("tab_ablation", TABLE_SWEEP),
    ("tab_ale3d", RUN),
    ("tab_ale3d_io", RUN),
    ("tab_duty", TABLE_SWEEP),
    ("tab_overhead", "--quick|--full --json --seed"),
    ("tab_timer", RUN),
];

/// Parsed command-line arguments. Settings a binary does not declare in
/// [`BINARIES`] keep their defaults.
#[derive(Debug, Clone)]
pub struct Args {
    /// Selected scale.
    pub mode: Mode,
    /// Emit JSON.
    pub json: bool,
    /// Master seed.
    pub seed: u64,
    /// Campaign worker threads.
    pub jobs: usize,
    /// Disable the result cache.
    pub no_cache: bool,
    /// Ignore cached entries (but refresh them).
    pub rerun: bool,
    /// Per-node link capacity, bytes/sec; `None` = unlimited (legacy
    /// free-overlap fabric, the default).
    pub link_bandwidth: Option<f64>,
    /// Periodic mid-run checkpoint interval (sim time) for fresh campaign
    /// points; `None` disables checkpointing. Never set together with
    /// `no_cache`: checkpoints live under `results/cache/checkpoints/`.
    pub checkpoint_every: Option<SimDur>,
    /// Write a `pa-obs` metrics snapshot (canonical JSON) here.
    pub metrics_out: Option<std::path::PathBuf>,
    /// Write a Chrome trace-event span timeline here (open in Perfetto
    /// or `chrome://tracing`).
    pub trace_out: Option<std::path::PathBuf>,
    /// Write a wait-state blame report (canonical JSON) here. Scaling
    /// sweeps re-run one representative point with full collective
    /// capture for the critical path and merge the remaining points'
    /// cached category sums.
    pub blame_out: Option<std::path::PathBuf>,
    /// Batch placement policies to compare (`multi_job` only): names from
    /// `pa_jobs::PolicyKind::parse`, comma-separated. `None` = all.
    pub policies: Option<Vec<pa_jobs::PolicyKind>>,
    /// Kernel dispatcher policy (`aix`/`cfs`/`eevdf`); `None` when not
    /// given, which the sweeps read as the paper-faithful `aix`.
    pub dispatcher: Option<pa_kernel::DispatcherKind>,
}

impl Args {
    /// Parse `std::env::args` against `bin`'s row of [`BINARIES`]. Prints
    /// help and exits 0 on `--help`/`-h`; prints the error and usage and
    /// exits 2 on anything [`Args::parse_from`] rejects.
    pub fn parse(bin: &str) -> Args {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        if argv.iter().any(|a| a == "--help" || a == "-h") {
            print!("{}", help(bin));
            std::process::exit(0);
        }
        Args::parse_from(bin, &argv).unwrap_or_else(|e| {
            eprintln!("error: {e}\n{}", usage(bin));
            std::process::exit(2);
        })
    }

    /// Parse `argv` (without the program name) against `bin`'s row of
    /// [`BINARIES`]. Every error names the binary and the flag at fault.
    pub fn parse_from(bin: &str, argv: &[String]) -> Result<Args, String> {
        let mut args = Args {
            mode: Mode::Standard,
            json: false,
            seed: 42,
            jobs: 1,
            no_cache: false,
            rerun: false,
            link_bandwidth: None,
            checkpoint_every: None,
            metrics_out: None,
            trace_out: None,
            blame_out: None,
            policies: None,
            dispatcher: None,
        };
        let mut it = argv.iter().map(String::as_str);
        while let Some(flag) = it.next() {
            let (_, value, help) = flags_of(bin)
                .find(|(names, ..)| names.split('|').any(|n| n == flag))
                .ok_or_else(|| format!("{bin} does not take '{flag}' (see {bin} --help)"))?;
            args.apply(flag, &mut it)
                .ok_or_else(|| format!("{bin}: {flag} needs {value}: {help}"))?;
        }
        if args.checkpoint_every.is_some() && args.no_cache {
            return Err(format!(
                "{bin}: --checkpoint-every needs the cache; drop --no-cache"
            ));
        }
        Ok(args)
    }

    /// Apply one declared flag, taking its value from `rest`; `None` when
    /// the value is missing or malformed.
    fn apply<'a>(&mut self, flag: &str, rest: &mut impl Iterator<Item = &'a str>) -> Option<()> {
        let mut value = || rest.next();
        match flag {
            "--quick" => self.mode = Mode::Quick,
            "--full" => self.mode = Mode::Full,
            "--json" => self.json = true,
            "--seed" => self.seed = value()?.parse().ok()?,
            "--jobs" => self.jobs = value()?.parse().ok().filter(|&n| n >= 1)?,
            "--no-cache" => self.no_cache = true,
            "--rerun" => self.rerun = true,
            "--link-bandwidth" => {
                self.link_bandwidth = match value()? {
                    "unlimited" => None,
                    v => Some(v.parse().ok().filter(|b: &f64| b.is_finite() && *b > 0.0)?),
                }
            }
            "--checkpoint-every" => self.checkpoint_every = Some(parse_sim_dur(value()?)?),
            "--metrics-out" => self.metrics_out = Some(value()?.into()),
            "--trace-out" => self.trace_out = Some(value()?.into()),
            "--blame-out" => self.blame_out = Some(value()?.into()),
            "--policies" => {
                let names = value()?.split(',');
                self.policies = Some(
                    names
                        .map(|p| pa_jobs::PolicyKind::parse(p).ok())
                        .collect::<Option<_>>()?,
                );
            }
            "--dispatcher" => self.dispatcher = Some(pa_kernel::DispatcherKind::parse(value()?)?),
            _ => unreachable!("{flag} is in FLAGS but no arm reads it"),
        }
        Some(())
    }

    /// Build the campaign executor these arguments describe: `--jobs`
    /// workers, the `results/cache/` content-addressed cache unless
    /// `--no-cache`,
    /// lookups bypassed under `--rerun`, checkpoints every
    /// `--checkpoint-every`. Progress goes to stderr so stdout stays
    /// byte-identical across cache states and job counts.
    pub fn campaign(&self, label: &str) -> ExecutorConfig {
        let mut exec = ExecutorConfig::serial(label).with_jobs(self.jobs);
        exec.progress = true;
        exec.rerun = self.rerun;
        exec.checkpoint_every = self.checkpoint_every;
        if !self.no_cache {
            match Cache::at(Cache::default_dir()) {
                Ok(c) => exec = exec.with_cache(c),
                Err(e) => eprintln!("warning: result cache disabled: {e}"),
            }
        }
        exec
    }
}

/// The rows of [`FLAGS`] that `bin` declares in [`BINARIES`], in table
/// order; none for an unknown binary.
fn flags_of(
    bin: &str,
) -> impl Iterator<Item = &'static (&'static str, &'static str, &'static str)> {
    let declared = BINARIES
        .iter()
        .find(|(b, _)| *b == bin)
        .map_or("", |(_, d)| d);
    FLAGS
        .iter()
        .filter(move |(name, ..)| declared.split_whitespace().any(|d| d == *name))
}

/// One-line usage listing `bin`'s flags.
pub fn usage(bin: &str) -> String {
    let opts = flags_of(bin).map(|(name, value, _)| format!(" [{}]", spelling(name, value)));
    format!("usage: {bin}{}", opts.collect::<String>())
}

/// `--help` text: the usage line, then one described line per flag.
pub fn help(bin: &str) -> String {
    let mut text = usage(bin) + "\n\n";
    for (name, value, help) in flags_of(bin) {
        text += &format!("  {:<30}  {help}\n", spelling(name, value));
    }
    text + &format!("  {:<30}  print this help\n", "--help")
}

/// A flag as typed: its name, then its value placeholder if it has one.
fn spelling(name: &str, value: &str) -> String {
    format!("{name} {value}").trim_end().to_string()
}

/// Parse a simulated duration: an integer with an optional `ns`/`us`/
/// `ms`/`s` suffix; bare integers are milliseconds. Returns `None` for
/// malformed or zero values.
pub fn parse_sim_dur(s: &str) -> Option<SimDur> {
    let (digits, mul) = if let Some(d) = s.strip_suffix("ns") {
        (d, 1u64)
    } else if let Some(d) = s.strip_suffix("us") {
        (d, 1_000)
    } else if let Some(d) = s.strip_suffix("ms") {
        (d, 1_000_000)
    } else if let Some(d) = s.strip_suffix('s') {
        (d, 1_000_000_000)
    } else {
        (s, 1_000_000)
    };
    let n: u64 = digits.parse().ok()?;
    let ns = n.checked_mul(mul)?;
    (ns > 0).then(|| SimDur::from_nanos(ns))
}

/// Write `body()` to `path` if its `--*-out` flag was given, noting it
/// on stderr; exit 1 if the write fails.
fn write_out(path: &Option<std::path::PathBuf>, what: &str, body: impl FnOnce() -> String) {
    if let Some(path) = path {
        if let Err(e) = std::fs::write(path, body()) {
            eprintln!("error: cannot write {what} to {}: {e}", path.display());
            std::process::exit(1);
        }
        eprintln!("{what} written to {}", path.display());
    }
}

/// Write the metrics snapshot if `--metrics-out` was given. The snapshot
/// is canonical JSON of simulation-deterministic values only, so it is
/// byte-identical across reruns of the same seed.
pub fn write_metrics(args: &Args, reg: &pa_obs::MetricsRegistry) {
    write_out(&args.metrics_out, "metrics snapshot", || {
        reg.snapshot_json()
    });
}

/// Write the Chrome trace-event timeline if `--trace-out` was given.
/// Open the file in Perfetto (<https://ui.perfetto.dev>) or
/// `chrome://tracing`.
pub fn write_trace(args: &Args, timeline: &pa_obs::SpanTimeline) {
    let what = format!("span timeline ({} events)", timeline.len());
    write_out(&args.trace_out, &what, || timeline.to_chrome_trace());
}

/// Write the blame report if `--blame-out` was given: canonical JSON to
/// the file (byte-identical at any `--jobs`) and the
/// human-readable tables to stderr, so stdout stays byte-stable for the
/// figure output itself.
pub fn write_blame(args: &Args, report: &pa_blame::BlameReport) {
    if args.blame_out.is_some() {
        eprint!("{}", report.render());
    }
    write_out(&args.blame_out, "blame report", || report.to_json());
}

/// Deterministic campaign-level metrics: derived only from per-point
/// results (identical whether points came from the cache or fresh runs,
/// at any `--jobs`). Wall-clock campaign stats stay in the manifest.
pub fn campaign_registry(
    label: &str,
    outcome: &pa_campaign::CampaignOutcome,
) -> pa_obs::MetricsRegistry {
    let mut reg = pa_obs::MetricsRegistry::new();
    reg.inc("campaign.points", outcome.results.len() as u64);
    reg.inc("campaign.truncated", outcome.truncated.len() as u64);
    for r in &outcome.results {
        reg.inc("campaign.sim_events", r.events);
        reg.inc("campaign.completed", u64::from(r.completed));
        // Link-contention totals ride along in each point's extras (exact
        // u64 counts stored as f64); summed here they stay deterministic
        // across cache states and job counts like everything else.
        for key in [
            "fabric.link_waits",
            "fabric.link_wait_ns",
            "kernel.dispatches",
        ] {
            if let Some(&v) = r.extra.get(key) {
                reg.inc(key, v as u64);
            }
        }
    }
    let edges: Vec<u64> = pa_core::observe::COLL_US_EDGES.to_vec();
    let name = format!("{label}.mean_allreduce_us");
    reg.declare_histogram(&name, &edges);
    for r in &outcome.results {
        reg.observe(&name, r.mean_allreduce_us.max(0.0).round() as u64);
    }
    reg
}

/// Unwrap a campaign result, exiting non-zero if a fixed-call-count run
/// was cut by the simulation horizon (an incomplete reproduction must
/// not pass silently in scripts or CI).
pub fn require_complete<T>(r: Result<T, TruncatedPoints>) -> T {
    r.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    })
}

/// Print a serializable result as JSON or run the text closure.
pub fn emit<T: Serialize>(json: bool, value: &T, text: impl FnOnce()) {
    if json {
        println!(
            "{}",
            serde_json::to_string_pretty(value).expect("result serializes")
        );
    } else {
        text();
    }
}

/// Shared header line for the text reports.
pub fn banner(title: &str, mode: Mode) {
    println!("=== PACE reproduction · {title} · mode: {mode:?} ===");
}

use pa_simkit::SimDur;
use pa_workloads::ScalingConfig;

/// Apply the common arguments (mode, seed, link bandwidth, dispatcher)
/// to a Figure-3/5 sweep configuration.
pub fn scale_sweep(mut cfg: ScalingConfig, args: &Args) -> ScalingConfig {
    let seed = args.seed;
    match args.mode {
        Mode::Quick => {
            cfg.node_counts = vec![2, 4, 8];
            cfg.allreduces = 192;
            cfg.seeds = vec![seed, seed.wrapping_add(1)];
            cfg.target_sim_time = None;
        }
        Mode::Standard => {
            cfg.node_counts = vec![4, 8, 16, 32, 59];
            cfg.seeds = vec![seed, seed.wrapping_add(1)];
            cfg.target_sim_time = Some(SimDur::from_millis(2_000));
        }
        Mode::Full => {
            cfg.seeds = vec![seed, seed.wrapping_add(1), seed.wrapping_add(2)];
        }
    }
    cfg.link_bandwidth = args.link_bandwidth;
    cfg.kernel.dispatcher = args.dispatcher.unwrap_or(pa_kernel::DispatcherKind::Aix);
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// An argument vector from a command line's words.
    fn argv(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    /// A valid value for each placeholder in [`FLAGS`].
    fn sample(value: &str) -> &'static str {
        match value {
            "" => "",
            "N" => "3",
            "B|unlimited" => "1e6",
            "DUR" => "5ms",
            "PATH" => "out.json",
            "LIST" => "fcfs,equi",
            "aix|cfs|eevdf" => "cfs",
            other => panic!("no sample value for placeholder {other}"),
        }
    }

    #[test]
    fn every_binary_has_a_row_of_known_flags() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/src/bin");
        let mut bins: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().replace(".rs", ""))
            .collect();
        bins.sort();
        let rows: Vec<&str> = BINARIES.iter().map(|(b, _)| *b).collect();
        assert_eq!(bins, rows, "BINARIES must list src/bin, sorted");
        for (bin, declared) in BINARIES {
            for name in declared.split_whitespace() {
                let known = FLAGS.iter().any(|(n, ..)| *n == name);
                assert!(known, "{bin} declares {name}, which FLAGS lacks");
            }
        }
    }

    #[test]
    fn accepted_pairs_match_the_audit() {
        let pairs: usize = BINARIES
            .iter()
            .map(|(_, d)| d.split_whitespace().count())
            .sum();
        assert_eq!(
            pairs, 89,
            "(binary, flag) pairs, --quick|--full counted once"
        );
    }

    #[test]
    fn each_binary_takes_its_flags_and_refuses_the_rest() {
        for (bin, _) in BINARIES {
            for (names, value, _) in FLAGS {
                for flag in names.split('|') {
                    let v = argv(&format!("{flag} {}", sample(value)));
                    let got = Args::parse_from(bin, &v);
                    let listed = usage(bin).contains(flag) && help(bin).contains(flag);
                    if flags_of(bin).any(|(n, ..)| n == names) {
                        assert!(got.is_ok() && listed, "{bin} {v:?}: {got:?}");
                    } else {
                        let e = got.unwrap_err();
                        assert_eq!(
                            e,
                            format!("{bin} does not take '{flag}' (see {bin} --help)")
                        );
                        assert!(!usage(bin).contains(flag) && !help(bin).contains(flag));
                    }
                }
            }
            // A removed flag fails like any unknown one.
            for flag in ["--bogus", "--sim-threads"] {
                let e = Args::parse_from(bin, &argv(&format!("{flag} 2"))).unwrap_err();
                assert_eq!(
                    e,
                    format!("{bin} does not take '{flag}' (see {bin} --help)")
                );
            }
        }
    }

    #[test]
    fn values_reach_their_fields() {
        let line = "--full --json --seed 7 --jobs 2 --rerun \
            --link-bandwidth 1e6 --checkpoint-every 2s --metrics-out m.json \
            --blame-out b.json --dispatcher eevdf";
        let a = Args::parse_from("fig3", &argv(line)).unwrap();
        assert_eq!((a.mode, a.json, a.seed, a.jobs), (Mode::Full, true, 7, 2));
        assert!(a.rerun && !a.no_cache);
        assert_eq!(a.link_bandwidth, Some(1e6));
        assert_eq!(a.checkpoint_every, Some(SimDur::from_secs(2)));
        assert_eq!(a.metrics_out, Some("m.json".into()));
        assert_eq!(a.blame_out, Some("b.json".into()));
        assert_eq!(a.dispatcher, Some(pa_kernel::DispatcherKind::Eevdf));
        let a = Args::parse_from(
            "multi_job",
            &argv("--trace-out t.json --policies equi,fcfs"),
        );
        let a = a.unwrap();
        assert_eq!(a.trace_out, Some("t.json".into()));
        let equi_fcfs = [
            pa_jobs::PolicyKind::EquiPartition,
            pa_jobs::PolicyKind::FcfsFirstFit,
        ];
        assert_eq!(a.policies.as_deref(), Some(&equi_fcfs[..]));
        let a = Args::parse_from("fig3", &argv("--link-bandwidth unlimited")).unwrap();
        assert_eq!((a.link_bandwidth, a.dispatcher), (None, None));
    }

    #[test]
    fn bad_values_and_conflicts_name_binary_and_flag() {
        for (line, flag) in [
            ("--seed", "--seed"),
            ("--seed -1", "--seed"),
            ("--jobs 0", "--jobs"),
            ("--link-bandwidth inf", "--link-bandwidth"),
            ("--checkpoint-every 0ms", "--checkpoint-every"),
            ("--dispatcher fifo", "--dispatcher"),
            ("--json --metrics-out", "--metrics-out"),
        ] {
            let e = Args::parse_from("fig3", &argv(line)).unwrap_err();
            assert!(
                e.starts_with(&format!("fig3: {flag} needs ")),
                "{line}: {e}"
            );
        }
        let e = Args::parse_from("multi_job", &argv("--policies equi,lifo")).unwrap_err();
        assert!(e.starts_with("multi_job: --policies needs LIST"), "{e}");
        let e = Args::parse_from("tab_duty", &argv("--no-cache --checkpoint-every 5ms"));
        let want = "tab_duty: --checkpoint-every needs the cache; drop --no-cache";
        assert_eq!(e.unwrap_err(), want);
    }

    #[test]
    fn max_seed_wraps_instead_of_overflowing() {
        for (mode, seeds) in [
            ("--quick", vec![u64::MAX, 0]),
            ("--full", vec![u64::MAX, 0, 1]),
        ] {
            let a = Args::parse_from("fig3", &argv(&format!("{mode} --seed {}", u64::MAX)));
            assert_eq!(
                scale_sweep(ScalingConfig::fig3(true), &a.unwrap()).seeds,
                seeds
            );
        }
        let e = Args::parse_from("fig3", &argv("--seed 18446744073709551616")).unwrap_err();
        assert!(e.starts_with("fig3: --seed needs N"), "{e}");
    }

    /// Values the fuzzer gives flags: valid ones, garbage and edge cases
    /// (plus the empty word, below).
    const WORDS: &str = "0 1 3 -1 -0 1e6 1e309 nan inf 18446744073709551615 \
        18446744073709551616 unlimited 5ms 2s 0ms 7ns 3us ms s 18446744073709551615s \
        fcfs,equi fcfs, , pack aix cfs eevdf AIX out.json é --seed=3 - --";

    proptest! {
        #[test]
        fn random_argument_vectors_parse_or_name_their_fault(
            bin in 0..BINARIES.len(),
            pairs in prop::collection::vec((0usize..1000, 0usize..1000), 0..8),
        ) {
            // Mostly the binary's own flags, valued flags usually followed
            // by a value word and switches rarely; every prefix is parsed,
            // so a flag can also lose its value to truncation.
            let (bin, _) = BINARIES[bin];
            let rows = flags_of(bin).chain(FLAGS);
            let mut pool: Vec<(&str, bool)> = rows
                .flat_map(|(n, v, _)| n.split('|').map(move |f| (f, !v.is_empty())))
                .collect();
            pool.extend([("--help", false), ("--bogus", false), ("", false)]);
            let words: Vec<&str> = WORDS.split(' ').chain([""]).collect();
            let mut v: Vec<String> = Vec::new();
            for &(f, w) in &pairs {
                let (flag, valued) = pool[f % pool.len()];
                v.push(flag.into());
                if (w % 6 != 0) == valued {
                    v.push(words[w % words.len()].into());
                }
            }
            for cut in 0..=v.len() {
                if let Err(e) = Args::parse_from(bin, &v[..cut]) {
                    let named = v[..cut].iter().any(|a| {
                        e.contains(&format!("'{a}'")) || e.contains(&format!("{a} needs"))
                    });
                    prop_assert!(e.contains(bin) && named, "{bin} {:?}: {e}", &v[..cut]);
                }
            }
        }
    }
}
