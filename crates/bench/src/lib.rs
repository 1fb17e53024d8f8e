//! # pa-bench — figure/table regeneration harness
//!
//! One binary per paper figure and table (see DESIGN.md's per-experiment
//! index) plus Criterion benches over the simulation engine. Every binary
//! accepts:
//!
//! * `--quick` — a seconds-scale smoke configuration (small cluster);
//! * `--full`  — the paper-shaped configuration (≥59 nodes; tens of
//!   minutes for the scaling sweeps);
//! * `--json`  — machine-readable output instead of tables;
//! * `--seed N` — override the master seed;
//! * `--jobs N` — campaign worker threads (results are bit-identical at
//!   any job count);
//! * `--sim-threads N` — cluster-engine worker threads inside each run
//!   (results are bit-identical at any setting: the engine is
//!   conservatively parallel with a deterministic barrier merge);
//! * `--no-cache` — skip the `results/cache/` result cache entirely;
//! * `--rerun` — ignore cached entries but refresh them with new runs;
//! * `--link-bandwidth B|unlimited` — per-node link capacity in bytes/sec
//!   (finite values enable switch contention; default `unlimited` keeps
//!   the legacy free-overlap fabric);
//! * `--checkpoint-every DUR` — write a mid-run checkpoint for each fresh
//!   campaign point every DUR of simulated time (integer with optional
//!   `ns`/`us`/`ms`/`s` suffix; bare integers are ms). Needs the result
//!   cache; a killed invocation resumes each partially-run point from its
//!   last checkpoint, and the resumed results are bit-identical to an
//!   uninterrupted run's;
//! * `--policies LIST` — batch placement policies for the `multi_job`
//!   sweep (comma-separated `fcfs`/`backfill`/`pack`/`equi`; default all);
//! * `--dispatcher NAME` — kernel dispatcher policy (`aix` reproduces the
//!   2003 priority-band semantics, the default; `cfs`/`eevdf` re-ask the
//!   paper's question under weighted-fair scheduling).
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

/// Parsed common CLI arguments.
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
    /// Cluster-engine worker threads per run. Binaries hand it to every
    /// run they make: campaign points through [`Args::campaign`], direct
    /// runs through their workload's configuration.
    pub sim_threads: usize,
    /// Disable the result cache.
    pub no_cache: bool,
    /// Ignore cached entries (but refresh them).
    pub rerun: bool,
    /// Per-node link capacity, bytes/sec; `None` = unlimited (legacy
    /// free-overlap fabric, the default).
    pub link_bandwidth: Option<f64>,
    /// Periodic mid-run checkpoint interval (sim time) for fresh campaign
    /// points; `None` disables checkpointing. Requires the result cache
    /// (checkpoints live under `results/cache/checkpoints/`).
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
    /// Kernel dispatcher policy (`aix`/`cfs`/`eevdf`); `aix` is the
    /// paper-faithful default.
    pub dispatcher: pa_kernel::DispatcherKind,
}

impl Args {
    /// Parse `std::env::args`, exiting with usage on error.
    pub fn parse() -> Args {
        let mut args = Args {
            mode: Mode::Standard,
            json: false,
            seed: 42,
            jobs: 1,
            sim_threads: 1,
            no_cache: false,
            rerun: false,
            link_bandwidth: None,
            checkpoint_every: None,
            metrics_out: None,
            trace_out: None,
            blame_out: None,
            policies: None,
            dispatcher: pa_kernel::DispatcherKind::Aix,
        };
        let mut it = std::env::args().skip(1);
        while let Some(a) = it.next() {
            match a.as_str() {
                "--quick" => args.mode = Mode::Quick,
                "--full" => args.mode = Mode::Full,
                "--json" => args.json = true,
                "--seed" => {
                    args.seed = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage("--seed needs an integer"));
                }
                "--jobs" => {
                    args.jobs = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&n| n >= 1)
                        .unwrap_or_else(|| usage("--jobs needs a positive integer"));
                }
                "--sim-threads" => {
                    args.sim_threads = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&n| n >= 1)
                        .unwrap_or_else(|| usage("--sim-threads needs a positive integer"));
                }
                "--no-cache" => args.no_cache = true,
                "--rerun" => args.rerun = true,
                "--link-bandwidth" => {
                    let v = it.next().unwrap_or_else(|| {
                        usage("--link-bandwidth needs bytes/sec or 'unlimited'")
                    });
                    args.link_bandwidth = if v == "unlimited" {
                        None
                    } else {
                        Some(
                            v.parse::<f64>()
                                .ok()
                                .filter(|b| b.is_finite() && *b > 0.0)
                                .unwrap_or_else(|| {
                                    usage(
                                        "--link-bandwidth needs a positive finite bytes/sec \
                                         value or 'unlimited'",
                                    )
                                }),
                        )
                    };
                }
                "--checkpoint-every" => {
                    let v = it.next().unwrap_or_else(|| {
                        usage("--checkpoint-every needs a sim duration (e.g. 500ms, 2s)")
                    });
                    args.checkpoint_every = Some(parse_sim_dur(&v).unwrap_or_else(|| {
                        usage(
                            "--checkpoint-every needs a positive sim duration: an integer \
                             with an optional ns/us/ms/s suffix (bare integers are ms)",
                        )
                    }));
                }
                "--metrics-out" => {
                    args.metrics_out = Some(
                        it.next()
                            .map(std::path::PathBuf::from)
                            .unwrap_or_else(|| usage("--metrics-out needs a path")),
                    );
                }
                "--trace-out" => {
                    args.trace_out = Some(
                        it.next()
                            .map(std::path::PathBuf::from)
                            .unwrap_or_else(|| usage("--trace-out needs a path")),
                    );
                }
                "--blame-out" => {
                    args.blame_out = Some(
                        it.next()
                            .map(std::path::PathBuf::from)
                            .unwrap_or_else(|| usage("--blame-out needs a path")),
                    );
                }
                "--policies" => {
                    let v = it.next().unwrap_or_else(|| {
                        usage("--policies needs a comma-separated list (e.g. fcfs,backfill)")
                    });
                    let parsed: Result<Vec<_>, _> =
                        v.split(',').map(pa_jobs::PolicyKind::parse).collect();
                    args.policies =
                        Some(parsed.unwrap_or_else(|e| usage(&format!("--policies: {e}"))));
                }
                "--dispatcher" => {
                    let v = it
                        .next()
                        .unwrap_or_else(|| usage("--dispatcher needs aix, cfs, or eevdf"));
                    args.dispatcher = pa_kernel::DispatcherKind::parse(&v).unwrap_or_else(|| {
                        usage(&format!(
                            "--dispatcher: unknown policy '{v}' (aix/cfs/eevdf)"
                        ))
                    });
                }
                "--help" | "-h" => usage(""),
                other => usage(&format!("unknown argument '{other}'")),
            }
        }
        args
    }

    /// Build the campaign executor these arguments describe: `--jobs`
    /// workers running each point on `--sim-threads` engine threads, the
    /// `results/cache/` content-addressed cache unless `--no-cache`,
    /// lookups bypassed under `--rerun`. Progress goes to stderr so stdout
    /// stays byte-identical across cache states and job counts.
    pub fn campaign(&self, label: &str) -> ExecutorConfig {
        let mut exec = ExecutorConfig::serial(label)
            .with_jobs(self.jobs)
            .with_sim_threads(self.sim_threads);
        exec.progress = true;
        exec.rerun = self.rerun;
        if !self.no_cache {
            match Cache::at(Cache::default_dir()) {
                Ok(c) => exec = exec.with_cache(c),
                Err(e) => eprintln!("warning: result cache disabled: {e}"),
            }
        }
        if let Some(every) = self.checkpoint_every {
            if exec.cache.is_some() {
                exec = exec.with_checkpoint_every(every);
            } else {
                eprintln!("warning: --checkpoint-every ignored: checkpoints need the result cache");
            }
        }
        exec
    }
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

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}");
    }
    eprintln!(
        "usage: <bin> [--quick|--full] [--json] [--seed N] [--jobs N] [--sim-threads N] \
         [--no-cache] [--rerun] \
         [--link-bandwidth B|unlimited] [--checkpoint-every DUR] \
         [--metrics-out PATH] [--trace-out PATH] [--blame-out PATH] [--policies LIST] \
         [--dispatcher aix|cfs|eevdf]"
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}

/// Write the metrics snapshot if `--metrics-out` was given. The snapshot
/// is canonical JSON of simulation-deterministic values only, so it is
/// byte-identical across reruns of the same seed.
pub fn write_metrics(args: &Args, reg: &pa_obs::MetricsRegistry) {
    if let Some(path) = &args.metrics_out {
        if let Err(e) = std::fs::write(path, reg.snapshot_json()) {
            eprintln!("error: cannot write metrics to {}: {e}", path.display());
            std::process::exit(1);
        }
        eprintln!("metrics snapshot written to {}", path.display());
    }
}

/// Write the Chrome trace-event timeline if `--trace-out` was given.
/// Open the file in Perfetto (<https://ui.perfetto.dev>) or
/// `chrome://tracing`.
pub fn write_trace(args: &Args, timeline: &pa_obs::SpanTimeline) {
    if let Some(path) = &args.trace_out {
        if let Err(e) = std::fs::write(path, timeline.to_chrome_trace()) {
            eprintln!("error: cannot write trace to {}: {e}", path.display());
            std::process::exit(1);
        }
        eprintln!(
            "span timeline ({} events) written to {}",
            timeline.len(),
            path.display()
        );
    }
}

/// Write the blame report if `--blame-out` was given: canonical JSON to
/// the file (byte-identical at any `--sim-threads`/`--jobs`) and the
/// human-readable tables to stderr, so stdout stays byte-stable for the
/// figure output itself.
pub fn write_blame(args: &Args, report: &pa_blame::BlameReport) {
    if let Some(path) = &args.blame_out {
        if let Err(e) = std::fs::write(path, report.to_json()) {
            eprintln!(
                "error: cannot write blame report to {}: {e}",
                path.display()
            );
            std::process::exit(1);
        }
        eprint!("{}", report.render());
        eprintln!("blame report written to {}", path.display());
    }
}

/// Note on stderr that this binary has no span source for `--trace-out`
/// (campaign sweeps keep only cacheable scalars per point; use `fig4` or
/// `noise_audit` for timelines).
pub fn no_trace_source(args: &Args, binary: &str) {
    if args.trace_out.is_some() {
        eprintln!(
            "warning: {binary} aggregates cached campaign scalars and keeps no trace; \
             --trace-out ignored (fig4 and examples/noise_audit emit timelines)"
        );
    }
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

/// Apply the common arguments (mode, seed, link bandwidth, dispatcher,
/// engine threads) to a Figure-3/5 sweep configuration.
pub fn scale_sweep(mut cfg: ScalingConfig, args: &Args) -> ScalingConfig {
    let seed = args.seed;
    match args.mode {
        Mode::Quick => {
            cfg.node_counts = vec![2, 4, 8];
            cfg.allreduces = 192;
            cfg.seeds = vec![seed, seed + 1];
            cfg.target_sim_time = None;
        }
        Mode::Standard => {
            cfg.node_counts = vec![4, 8, 16, 32, 59];
            cfg.seeds = vec![seed, seed + 1];
            cfg.target_sim_time = Some(SimDur::from_millis(2_000));
        }
        Mode::Full => {
            cfg.seeds = vec![seed, seed + 1, seed + 2];
        }
    }
    cfg.link_bandwidth = args.link_bandwidth;
    cfg.kernel.dispatcher = args.dispatcher;
    cfg.sim_threads = args.sim_threads;
    cfg
}
