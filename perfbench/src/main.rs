//! The repository benchmark. It runs one named workload for a host-time
//! budget, times each layer from outside through its crate's public API,
//! and prints one JSON result as the last line of stdout.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig6-944 --seed 42 --seconds 35 --trace 0
//! ```
//!
//! With `--trace 0` the result holds the end-to-end metrics. With
//! `--trace 1` half the budget goes to untraced passes and half to traced
//! ones (allocation counting on, restore timed on its own), and the
//! result holds the per-layer metrics. The line before the result records
//! the host and the host-independent work counters.
//!
//! End-to-end times are scaled to a nominal host speed, measured after
//! every pass (see [`speed`]). Beyond that drift, other tenants slow some
//! passes, by up to half, in bursts; nothing speeds one up. So a pass
//! time is reported as the lower quartile over the run's passes (a rate
//! as the upper quartile), which such bursts leave alone unless they
//! cover most of the run. Per-layer times are host seconds, with the
//! reference loop's own time beside them as `host.ref_s`.

mod alloc;
mod pass;
mod speed;
mod workloads;

use pa_simkit::SimDur;
use pass::{median, quantile, Pass, Run, COUNTERS};
use serde_json::Value;
use std::path::Path;
use std::time::Instant;
use workloads::Workload;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage: perfbench --workload fig6-944|machine-8192|resume-report \
                     [--seed N] [--seconds S] [--trace 0|1]";

/// Untraced passes a `--trace 0` run makes at least, so that `wall_s` is
/// a quartile of three or more.
const MIN_PASSES: usize = 3;
/// A set-up sample repeats an engine run's set-up at least this often…
const SETUP_MIN_REPS: u32 = 3;
/// …and until the repetitions took this many host seconds.
const SETUP_SAMPLE_S: f64 = 0.05;
/// Quantile of the passes' times that a time metric reports.
const FAST_QUARTILE: f64 = 0.25;
/// Largest share of a traced pass's wall time that its timed calls may
/// leave unaccounted.
const MAX_OTHER_SHARE: f64 = 0.05;
/// Scratch files live here, under the directory the benchmark runs from.
const WORK_DIR: &str = ".bench_work";
/// Per-layer allocation metrics: the layer, then its count and byte names.
const ALLOC_LAYERS: [(&str, &str, &str); 5] = [
    ("cluster", "alloc.count.cluster", "alloc.bytes.cluster"),
    (
        "checkpoint",
        "alloc.count.checkpoint",
        "alloc.bytes.checkpoint",
    ),
    ("campaign", "alloc.count.campaign", "alloc.bytes.campaign"),
    ("obs", "alloc.count.obs", "alloc.bytes.obs"),
    ("blame", "alloc.count.blame", "alloc.bytes.blame"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = workloads::DEFAULT_SEED;
    let mut seconds = 20.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::by_name(&value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(seconds > 0.0 && seconds < 3600.0) {
                    return Err(format!("--seconds must be in (0, 3600), got {value}"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                };
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("error: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let dir = Path::new(WORK_DIR).join(format!("{}-{}", args.workload.name(), std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("error: cannot create {}: {e}", dir.display());
        std::process::exit(1);
    }

    let started = Instant::now();
    let (plain, traced) = if args.trace {
        let plain = passes(&args, &dir, false, started, args.seconds / 2.0, 1);
        let traced = passes(&args, &dir, true, started, args.seconds, 1);
        (plain, traced)
    } else {
        let plain = passes(&args, &dir, false, started, args.seconds, MIN_PASSES);
        (plain, Vec::new())
    };
    let _ = std::fs::remove_dir_all(&dir);
    // Succeeds only once no other run is using the directory.
    let _ = std::fs::remove_dir(WORK_DIR);

    let metrics = if args.trace {
        layer_metrics(&plain, &traced)
    } else {
        end_to_end(&plain)
    };
    let all: Vec<&Pass> = plain.iter().chain(&traced).collect();
    let attempted: u64 = all.iter().map(|p| p.attempted).sum();
    let failed: u64 = all.iter().map(|p| p.failed).sum();
    let last = all.last().expect("every run makes a pass");
    let ref_s = median(all.iter().map(|p| p.ref_s).collect());
    println!("{}", record(&args, all.len(), last, ref_s).to_json_string());
    let metrics = metrics
        .into_iter()
        .map(|(name, value, unit)| {
            let m = vec![
                ("value".to_string(), Value::Float(value)),
                ("unit".to_string(), Value::Str(unit.to_string())),
            ];
            (name.to_string(), Value::Map(m))
        })
        .collect();
    let result = Value::Map(vec![
        ("correct".into(), Value::Bool(failed == 0)),
        ("attempted".into(), Value::UInt(attempted)),
        ("failed".into(), Value::UInt(failed)),
        ("metrics".into(), Value::Map(metrics)),
    ]);
    println!("{}", result.to_json_string());
}

/// Mean host seconds `run` spends before its first event, over enough
/// repetitions to outlast the timer's and the cache's noise: the same
/// experiment with a 1 ns horizon stops right after build and boot.
fn setup_seconds(run: &Run) -> f64 {
    let mut reps = 0;
    let mut total = 0.0;
    while reps < SETUP_MIN_REPS || total < SETUP_SAMPLE_S {
        let e = run.experiment().with_horizon(SimDur::from_nanos(1));
        let started = Instant::now();
        let out = run.execute(e);
        total += started.elapsed().as_secs_f64();
        drop(out);
        reps += 1;
    }
    total / f64::from(reps)
}

/// Whole passes until `until` seconds after `started`, and at least
/// `min` of them.
fn passes(
    args: &Args,
    dir: &Path,
    traced: bool,
    started: Instant,
    until: f64,
    min: usize,
) -> Vec<Pass> {
    alloc::set_counting(traced);
    let mut done = Vec::new();
    while done.len() < min || started.elapsed().as_secs_f64() < until {
        let mut p = Pass::new(traced);
        let (allocs, bytes) = alloc::totals();
        let pass_started = Instant::now();
        args.workload.pass(&mut p, args.seed, dir);
        p.wall_s = pass_started.elapsed().as_secs_f64();
        let (allocs_now, bytes_now) = alloc::totals();
        p.allocs = (allocs_now - allocs, bytes_now - bytes);
        p.peak_rss_mb = peak_rss_mb();
        p.setup_s = args
            .workload
            .engine_runs(args.seed)
            .iter()
            .map(setup_seconds)
            .collect();
        p.ref_s = speed::reference_seconds();
        if traced {
            let other = p.other_s();
            let wall = p.wall_s;
            p.check(
                &format!("timed calls account for the pass: other_s {other:.4} s of {wall:.4} s"),
                other >= 0.0 && other <= MAX_OTHER_SHARE * wall,
            );
        }
        done.push(p);
    }
    alloc::set_counting(false);
    done
}

fn end_to_end(passes: &[Pass]) -> Vec<(&'static str, f64, &'static str)> {
    let at = |q: f64, f: &dyn Fn(&Pass) -> f64| quantile(passes.iter().map(f).collect(), q);
    vec![
        (
            "setup_s",
            median(
                passes
                    .iter()
                    .map(|p| p.setup_total() * p.to_nominal())
                    .collect(),
            ),
            "s",
        ),
        (
            "wall_s",
            at(FAST_QUARTILE, &|p| p.wall_s * p.to_nominal()),
            "s",
        ),
        (
            "events_per_s",
            at(1.0 - FAST_QUARTILE, &|p| p.events_per_s() / p.to_nominal()),
            "1/s",
        ),
        (
            "report_s",
            at(FAST_QUARTILE, &|p| p.report_s() * p.to_nominal()),
            "s",
        ),
        // After the first pass: later passes repeat the same work, and
        // only add allocator fragmentation that grows with their number.
        ("peak_rss_mb", passes[0].peak_rss_mb, "MB"),
    ]
}

fn layer_metrics(plain: &[Pass], traced: &[Pass]) -> Vec<(&'static str, f64, &'static str)> {
    let med = |f: &dyn Fn(&Pass) -> f64| median(traced.iter().map(f).collect());
    let last = traced.last().expect("a traced run makes a traced pass");
    let run_s = med(&|p| p.secs("cluster.run") - p.setup_total());
    let events = last.count("cluster.events");
    // The restored experiment is the checkpointed run, the pass's first.
    let restore_s = |p: &Pass| p.secs("checkpoint.restore") - p.setup_s[0];
    let mut m = vec![
        ("cluster.run_s", run_s, "s"),
        ("cluster.ns_per_event", run_s * 1e9 / events, "ns"),
        (
            "cluster.events_per_window",
            events / last.count("cluster.windows"),
            "count",
        ),
        (
            "cluster.teardown_s",
            med(&|p| p.secs("cluster.teardown")),
            "s",
        ),
        (
            "checkpoint.write_s",
            med(&|p| p.secs("checkpoint.write")),
            "s",
        ),
        (
            "checkpoint.verify_s",
            med(&|p| p.secs("checkpoint.verify")),
            "s",
        ),
        (
            "checkpoint.restore_s",
            med(&|p| {
                if p.ran("checkpoint.restore") {
                    restore_s(p)
                } else {
                    0.0
                }
            }),
            "s",
        ),
        (
            "checkpoint.resume_s",
            med(&|p| p.secs("checkpoint.verify") + p.secs("checkpoint.resume")),
            "s",
        ),
        ("campaign.cold_s", med(&|p| p.secs("campaign.cold")), "s"),
        ("campaign.warm_s", med(&|p| p.secs("campaign.warm")), "s"),
        ("obs.fold_s", med(&|p| p.secs("obs.fold")), "s"),
        ("obs.timeline_s", med(&|p| p.secs("obs.timeline")), "s"),
        ("blame.analyze_s", med(&|p| p.secs("blame.analyze")), "s"),
        ("alloc.count", med(&|p| p.allocs.0 as f64), "count"),
        ("alloc.bytes", med(&|p| p.allocs.1 as f64), "bytes"),
    ];
    for (layer, count, bytes) in ALLOC_LAYERS {
        m.push((count, med(&|p| p.layer_allocs(layer).0 as f64), "count"));
        m.push((bytes, med(&|p| p.layer_allocs(layer).1 as f64), "bytes"));
    }
    for (name, unit) in COUNTERS {
        m.push((name, last.count(name), unit));
    }
    let untraced_wall = median(plain.iter().map(|p| p.wall_s).collect());
    m.push(("other_s", med(&|p| p.other_s()), "s"));
    m.push((
        "trace.overhead",
        med(&|p| p.wall_s) / untraced_wall,
        "ratio",
    ));
    m.push((
        "host.ref_s",
        median(plain.iter().map(|p| p.ref_s).collect()),
        "s",
    ));
    m
}

/// The run's record: what ran, on which host, and the host-independent
/// work counters that tell a slower host or a noisy run apart from a
/// regression.
fn record(args: &Args, passes: usize, last: &Pass, ref_s: f64) -> Value {
    let mut work: Vec<(String, Value)> = [
        "cluster.events",
        "cluster.windows",
        "cluster.shard_visits",
        "cluster.messages",
        "checkpoint.bytes",
    ]
    .iter()
    .map(|&k| (k.to_string(), Value::Float(last.count(k))))
    .collect();
    if last.traced {
        work.push(("alloc.count".into(), Value::UInt(last.allocs.0)));
        work.push(("alloc.bytes".into(), Value::UInt(last.allocs.1)));
    }
    Value::Map(vec![(
        "record".into(),
        Value::Map(vec![
            ("workload".into(), Value::Str(args.workload.name().into())),
            ("seed".into(), Value::UInt(args.seed)),
            ("seconds".into(), Value::Float(args.seconds)),
            ("trace".into(), Value::Bool(args.trace)),
            ("passes".into(), Value::UInt(passes as u64)),
            ("host".into(), host()),
            ("host_ref_s".into(), Value::Float(ref_s)),
            ("work".into(), Value::Map(work)),
        ]),
    )])
}

/// Host fingerprint: cores, CPU model, compiler and checked-out commit.
fn host() -> Value {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|v| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    Value::Map(vec![
        ("nproc".into(), Value::UInt(nproc as u64)),
        ("cpu".into(), Value::Str(cpu)),
        ("rustc".into(), Value::Str(rustc)),
        (
            "git_rev".into(),
            Value::Str(git_rev().unwrap_or_else(|| "unknown".into())),
        ),
    ])
}

/// The commit checked out in the current directory, read from `.git`
/// itself: the benchmark may run from an export that has none.
fn git_rev() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(Path::new(".git").join(name)) {
        return Some(rev.trim().to_string());
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()?
        .lines()
        .find_map(|l| l.strip_suffix(name)?.strip_suffix(' ').map(str::to_string))
}

/// Peak resident set of this process (`VmHWM`), MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
