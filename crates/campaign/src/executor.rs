//! The campaign executor: a scoped pool of std threads claiming points
//! through a shared atomic index. Each point's result is fully determined
//! by its spec, so results are bit-identical at any `--jobs`; the
//! executor restores submission order before returning.

use crate::cache::{Cache, Lookup, PointResult};
use crate::manifest::{CampaignManifest, CampaignMetrics, ManifestPoint};
use crate::spec::PointSpec;
use pa_simkit::SimDur;
use serde::Serialize;
use std::fmt;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::Instant;

/// How a campaign executes: parallelism, caching, reporting.
#[derive(Debug)]
pub struct ExecutorConfig {
    /// Worker threads (clamped to at least 1).
    pub jobs: usize,
    /// Result cache; `None` disables caching entirely.
    pub cache: Option<Cache>,
    /// Ignore existing cache entries (but still store fresh results).
    pub rerun: bool,
    /// Print per-point progress lines to stderr (stdout stays reserved
    /// for figure output, which must be byte-identical across runs).
    pub progress: bool,
    /// Campaign label, used for progress lines and the manifest name.
    pub label: String,
    /// Periodic mid-run checkpoint interval (sim time) for fresh points.
    /// Requires a cache (checkpoints live under `<cache>/checkpoints/`,
    /// keyed by point content hash); `None` disables checkpointing.
    pub checkpoint_every: Option<SimDur>,
    /// Engine worker threads each fresh point simulates on (at least 1).
    /// Results are bit-identical at any value, so it is not part of any
    /// point's content key.
    pub sim_threads: usize,
}

impl ExecutorConfig {
    /// One worker, no cache, no progress — the in-process default used
    /// by library helpers and tests.
    pub fn serial(label: impl Into<String>) -> ExecutorConfig {
        ExecutorConfig {
            jobs: 1,
            cache: None,
            rerun: false,
            progress: false,
            label: label.into(),
            checkpoint_every: None,
            sim_threads: 1,
        }
    }

    /// Set the worker count.
    pub fn with_jobs(mut self, jobs: usize) -> ExecutorConfig {
        self.jobs = jobs;
        self
    }

    /// Attach a cache.
    pub fn with_cache(mut self, cache: Cache) -> ExecutorConfig {
        self.cache = Some(cache);
        self
    }

    /// Checkpoint fresh points every `every` of sim time (needs a cache).
    pub fn with_checkpoint_every(mut self, every: SimDur) -> ExecutorConfig {
        self.checkpoint_every = Some(every);
        self
    }

    /// Simulate each fresh point on `threads` engine workers.
    pub fn with_sim_threads(mut self, threads: usize) -> ExecutorConfig {
        self.sim_threads = threads.max(1);
        self
    }
}

/// How the executor asks a runner to run one fresh point. Nothing here
/// changes the point's result, which is why none of it is part of the
/// spec or its content key.
#[derive(Debug, Clone)]
pub struct PointCtx {
    /// Engine worker threads for the point's simulation.
    pub sim_threads: usize,
    /// Mid-run checkpointing, when the campaign arms it.
    pub checkpoint: Option<CheckpointCtx>,
}

impl PointCtx {
    /// One engine thread, no checkpointing.
    pub fn serial() -> PointCtx {
        PointCtx {
            sim_threads: 1,
            checkpoint: None,
        }
    }
}

/// Mid-run checkpoint context of one fresh point ([`PointCtx`]): where
/// the point's checkpoint lives (restore from it when present — a
/// previous invocation was killed mid-run) and how often to write it.
#[derive(Debug, Clone)]
pub struct CheckpointCtx {
    /// Checkpoint file, `<cache>/checkpoints/<content_key>.json`.
    pub path: PathBuf,
    /// Periodic checkpoint interval (sim time).
    pub every: SimDur,
}

/// Everything a campaign produced.
#[derive(Debug)]
pub struct CampaignOutcome {
    /// One result per input spec, in input order.
    pub results: Vec<PointResult>,
    /// Invocation statistics.
    pub metrics: CampaignMetrics,
    /// Indices of fixed-work points (no horizon override) that were
    /// nevertheless cut off — each one a failed reproduction.
    pub truncated: Vec<usize>,
}

/// Error listing the points a campaign failed to complete.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TruncatedPoints {
    /// Campaign label.
    pub label: String,
    /// Offending point indices.
    pub indices: Vec<usize>,
}

impl fmt::Display for TruncatedPoints {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "campaign '{}': {} fixed-work point(s) cut by the horizon (indices {:?})",
            self.label,
            self.indices.len(),
            self.indices
        )
    }
}

impl CampaignOutcome {
    /// Fail if any fixed-work point was cut by the horizon.
    pub fn ensure_complete(&self, label: &str) -> Result<(), TruncatedPoints> {
        if self.truncated.is_empty() {
            Ok(())
        } else {
            Err(TruncatedPoints {
                label: label.to_string(),
                indices: self.truncated.clone(),
            })
        }
    }
}

/// One worker-to-reporter message. Workers never print: every progress
/// line flows through this single channel and is written by the caller
/// thread, so `--jobs N` output is never torn across threads.
enum WorkerMsg {
    /// A fresh (uncached) simulation is starting.
    Started { index: usize },
    /// A point finished (fresh run or cache hit). `corrupt` marks a point
    /// whose cache entry was unusable; `store_error` is set when a fresh
    /// result could not be cached, and its checkpoint is kept.
    Done {
        index: usize,
        result: PointResult,
        cached: bool,
        corrupt: bool,
        store_error: Option<io::Error>,
    },
}

/// Run every spec through `runner`, in parallel, consulting the cache.
///
/// `runner` must be a pure function of the spec (the DES guarantees
/// this: one seed, a history identical at any engine thread count);
/// under that contract the returned results are identical for any `jobs`
/// value. Each fresh point comes with a [`PointCtx`]: the engine thread
/// count, and — when the config arms `checkpoint_every` and has a cache —
/// a [`CheckpointCtx`] telling the runner where to write periodic
/// checkpoints and where to restore from if an earlier invocation died
/// mid-point. Restored tails replay bit-identically, so results still
/// match an uninterrupted campaign's; a point's checkpoint is deleted
/// once its result is cached.
pub fn run_campaign<W, F>(
    specs: &[PointSpec<W>],
    cfg: &ExecutorConfig,
    runner: F,
) -> CampaignOutcome
where
    W: Serialize + Sync,
    F: Fn(&PointSpec<W>, &PointCtx) -> PointResult + Sync,
{
    let started = Instant::now();
    let total = specs.len();
    let keys: Vec<String> = specs.iter().map(|s| s.content_key()).collect();

    let jobs = cfg.jobs.max(1).min(total.max(1));
    let cache = cfg.cache.as_ref();
    let runner = &runner;
    let keys_ref = &keys;
    let next = &AtomicUsize::new(0);
    let (msg_tx, msg_rx) = mpsc::channel::<WorkerMsg>();

    let mut slots: Vec<Option<(PointResult, bool)>> = (0..total).map(|_| None).collect();
    // Corrupt entries re-run this invocation: overwritten, or not cached
    // because the store failed.
    let (mut overwritten, mut unstored) = (0u64, 0u64);
    // A panicking worker drops its sender and the others run dry, so the
    // reporter loop ends and the scope re-raises the panic on join.
    std::thread::scope(|s| {
        for _ in 0..jobs {
            let msg_tx = msg_tx.clone();
            s.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= total {
                    break;
                }
                let spec = &specs[i];
                let key = &keys_ref[i];
                let found = match cache {
                    Some(c) if !cfg.rerun => c.lookup(key),
                    _ => Lookup::Absent,
                };
                let corrupt = found == Lookup::Corrupt;
                let mut store_error = None;
                let (result, cached) = match found {
                    Lookup::Hit(r) => (r, true),
                    Lookup::Absent | Lookup::Corrupt => {
                        let _ = msg_tx.send(WorkerMsg::Started { index: i });
                        let ctx = PointCtx {
                            sim_threads: cfg.sim_threads.max(1),
                            checkpoint: match (cache, cfg.checkpoint_every) {
                                (Some(c), Some(every)) => Some(CheckpointCtx {
                                    path: c.dir().join("checkpoints").join(format!("{key}.json")),
                                    every,
                                }),
                                _ => None,
                            },
                        };
                        let r = runner(spec, &ctx);
                        if let Some(c) = cache {
                            store_error = c.store(key, spec, &r).err();
                        }
                        // Once the result is durable, the mid-run
                        // checkpoint has served its purpose; until then it
                        // is the point's only resume point.
                        if let (None, Some(cx)) = (&store_error, &ctx.checkpoint) {
                            let _ = std::fs::remove_file(&cx.path);
                        }
                        (r, false)
                    }
                };
                let done = WorkerMsg::Done {
                    index: i,
                    result,
                    cached,
                    corrupt,
                    store_error,
                };
                if msg_tx.send(done).is_err() {
                    break;
                }
            });
        }
        drop(msg_tx);
        for msg in msg_rx {
            match msg {
                WorkerMsg::Started { index } => {
                    if cfg.progress {
                        let spec = &specs[index];
                        let line =
                            progress_line(&cfg.label, index, total, spec, "running...", None);
                        eprintln!("{line}");
                    }
                }
                WorkerMsg::Done {
                    index,
                    result,
                    cached,
                    corrupt,
                    store_error,
                } => {
                    match (corrupt, store_error.is_some()) {
                        (true, false) => overwritten += 1,
                        (true, true) => unstored += 1,
                        (false, _) => {}
                    }
                    if let Some(e) = store_error {
                        eprintln!(
                            "  [{}] warning: result {} not cached: {e}",
                            cfg.label, keys[index]
                        );
                    }
                    if cfg.progress {
                        let status = if cached { "cache hit" } else { "ran" };
                        let (spec, mean) = (&specs[index], Some(result.mean_allreduce_us));
                        let line = progress_line(&cfg.label, index, total, spec, status, mean);
                        eprintln!("{line}");
                    }
                    slots[index] = Some((result, cached));
                }
            }
        }
    });

    let wall_s = started.elapsed().as_secs_f64();
    let mut results = Vec::with_capacity(total);
    let mut cache_hits = 0usize;
    let mut sim_events = 0u64;
    let mut cached_flags = Vec::with_capacity(total);
    for slot in slots {
        let (r, cached) = slot.expect("every point produced a result");
        if cached {
            cache_hits += 1;
        } else {
            sim_events += r.events;
        }
        cached_flags.push(cached);
        results.push(r);
    }
    let truncated: Vec<usize> = specs
        .iter()
        .zip(&results)
        .enumerate()
        .filter(|(_, (s, r))| s.horizon.is_none() && !r.completed)
        .map(|(i, _)| i)
        .collect();
    let metrics = CampaignMetrics {
        points_total: total,
        points_run: total - cache_hits,
        cache_hits,
        corrupt_entries: overwritten,
        sim_events,
        wall_s,
        events_per_sec: if wall_s > 0.0 {
            sim_events as f64 / wall_s
        } else {
            0.0
        },
    };
    if cfg.progress {
        eprintln!(
            "  [{}] {} points ({} cache hits) in {:.2}s — {:.0} events/s",
            cfg.label, total, cache_hits, wall_s, metrics.events_per_sec
        );
        for (n, fate) in [
            (overwritten, "and overwritten"),
            (unstored, "but not cached"),
        ] {
            if n > 0 {
                eprintln!(
                    "  [{}] warning: {n} corrupt cache entr{} re-run {fate}",
                    cfg.label,
                    if n == 1 { "y" } else { "ies" }
                );
            }
        }
    }

    if let Some(c) = cache {
        let manifest = CampaignManifest {
            label: cfg.label.clone(),
            schema: crate::cache::CACHE_SCHEMA_VERSION,
            points: specs
                .iter()
                .enumerate()
                .map(|(i, s)| ManifestPoint {
                    index: i,
                    key: keys[i].clone(),
                    family: s.family.clone(),
                    nodes: s.nodes,
                    procs: s.procs(),
                    seed: s.seed,
                    cached: cached_flags[i],
                    completed: results[i].completed,
                    mean_allreduce_us: results[i].mean_allreduce_us,
                    events: results[i].events,
                    extra: results[i].extra.clone(),
                })
                .collect(),
            metrics: metrics.clone(),
        };
        if let Err(e) = manifest.write(c.dir()) {
            eprintln!("  [{}] warning: manifest not written: {e}", cfg.label);
        }
    }

    CampaignOutcome {
        results,
        metrics,
        truncated,
    }
}

/// The progress line of point `index` (of `total`): its size and seed,
/// then `status` and the point's mean Allreduce time, if it has one. A
/// batch point has no ranks of its own (its jobs carry their widths) and
/// no Allreduce mean, so it is sized by its node count and prints no µs
/// figure.
fn progress_line<W>(
    label: &str,
    index: usize,
    total: usize,
    spec: &PointSpec<W>,
    status: &str,
    mean_us: Option<f64>,
) -> String {
    let size = match spec.procs() {
        0 => format!("{} nodes", spec.nodes),
        procs => format!("{procs} procs"),
    };
    let mean = match mean_us {
        Some(us) if us > 0.0 => format!(" ({us:.1} µs)"),
        _ => String::new(),
    };
    let point = index + 1;
    format!(
        "  [{label}] point {point}/{total}: {size} seed {} — {status}{mean}",
        spec.seed
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use pa_kernel::SchedOptions;
    use pa_noise::NoiseProfile;
    use std::collections::BTreeMap;

    fn spec(seed: u64) -> PointSpec<u64> {
        PointSpec {
            family: "unit".into(),
            nodes: 2,
            tasks_per_node: 2,
            cpus_per_node: 4,
            kernel: SchedOptions::vanilla(),
            cosched: None,
            noise: NoiseProfile::dedicated(),
            progress: None,
            workload: seed * 10,
            seed,
            horizon: None,
            link_bandwidth: None,
        }
    }

    /// A cheap deterministic stand-in for a DES run.
    fn fake_runner(s: &PointSpec<u64>, _ctx: &PointCtx) -> PointResult {
        PointResult {
            mean_allreduce_us: (s.seed * 3 + s.workload) as f64,
            wall_s: 0.0,
            completed: s.seed != 99,
            events: s.seed,
            extra: BTreeMap::new(),
        }
    }

    #[test]
    fn progress_line_sizes_mpi_and_batch_points() {
        let mpi = spec(3);
        assert_eq!(
            progress_line("fig3", 0, 4, &mpi, "ran", Some(412.34)),
            "  [fig3] point 1/4: 4 procs seed 3 — ran (412.3 µs)"
        );
        assert_eq!(
            progress_line("fig3", 0, 4, &mpi, "running...", None),
            "  [fig3] point 1/4: 4 procs seed 3 — running..."
        );
        let batch = PointSpec {
            tasks_per_node: 0,
            ..spec(5)
        };
        assert_eq!(
            progress_line("multi_job", 2, 6, &batch, "cache hit", Some(0.0)),
            "  [multi_job] point 3/6: 2 nodes seed 5 — cache hit"
        );
    }

    #[test]
    fn results_keep_submission_order_at_any_job_count() {
        let specs: Vec<_> = (0..20).map(spec).collect();
        let serial = run_campaign(&specs, &ExecutorConfig::serial("t"), fake_runner);
        let parallel = run_campaign(
            &specs,
            &ExecutorConfig::serial("t").with_jobs(4),
            fake_runner,
        );
        assert_eq!(serial.results, parallel.results);
        assert_eq!(serial.results[7].mean_allreduce_us, 7.0 * 3.0 + 70.0);
        assert_eq!(serial.metrics.points_total, 20);
        assert_eq!(serial.metrics.cache_hits, 0);
    }

    #[test]
    fn cache_turns_second_run_into_all_hits() {
        let dir = std::env::temp_dir().join(format!("pa-exec-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let specs: Vec<_> = (0..6).map(spec).collect();
        let cfg = |rerun| ExecutorConfig {
            jobs: 3,
            cache: Some(Cache::at(&dir).unwrap()),
            rerun,
            progress: false,
            label: "cached".into(),
            checkpoint_every: None,
            sim_threads: 1,
        };
        let first = run_campaign(&specs, &cfg(false), fake_runner);
        assert_eq!(first.metrics.cache_hits, 0);
        let second = run_campaign(&specs, &cfg(false), fake_runner);
        assert_eq!(second.metrics.cache_hits, 6);
        assert_eq!(first.results, second.results);
        // --rerun bypasses lookups but results stay identical.
        let third = run_campaign(&specs, &cfg(true), fake_runner);
        assert_eq!(third.metrics.cache_hits, 0);
        assert_eq!(first.results, third.results);
        // The manifest was written alongside the entries.
        assert!(dir.join("cached.manifest.json").exists());
    }

    #[test]
    fn corrupt_cache_entries_are_rerun_not_fatal() {
        let dir = std::env::temp_dir().join(format!("pa-exec-corrupt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let specs: Vec<_> = (0..4).map(spec).collect();
        let cfg = || ExecutorConfig {
            jobs: 2,
            cache: Some(Cache::at(&dir).unwrap()),
            rerun: false,
            progress: false,
            label: "corrupt".into(),
            checkpoint_every: None,
            sim_threads: 1,
        };
        let first = run_campaign(&specs, &cfg(), fake_runner);
        assert_eq!(first.metrics.corrupt_entries, 0);
        // Truncate one entry (a half-written file) and garble another
        // with a wrong-schema body; the campaign must re-run both points
        // and overwrite the bad entries, not abort.
        let c = Cache::at(&dir).unwrap();
        std::fs::write(c.path_for(&specs[1].content_key()), "{\"schema\": 1,").unwrap();
        std::fs::write(
            c.path_for(&specs[2].content_key()),
            "{\"schema\": 999, \"key\": \"nope\"}",
        )
        .unwrap();
        let second = run_campaign(&specs, &cfg(), fake_runner);
        assert_eq!(second.results, first.results);
        assert_eq!(second.metrics.cache_hits, 2);
        assert_eq!(second.metrics.points_run, 2);
        assert_eq!(second.metrics.corrupt_entries, 2);
        // The overwritten entries now serve hits again.
        let third = run_campaign(&specs, &cfg(), fake_runner);
        assert_eq!(third.metrics.cache_hits, 4);
        assert_eq!(third.metrics.corrupt_entries, 0);
    }

    #[test]
    fn corrupt_entries_count_only_the_ones_overwritten() {
        let dir = std::env::temp_dir().join(format!("pa-exec-unstored-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let specs: Vec<_> = (0..2).map(spec).collect();
        let cache = Cache::at(&dir).unwrap();
        // A garbled entry the re-run overwrites, and a directory at the
        // other entry's path that reads as corrupt and cannot be replaced.
        std::fs::write(cache.path_for(&specs[0].content_key()), "{\"schema\": 1,").unwrap();
        std::fs::create_dir_all(cache.path_for(&specs[1].content_key())).unwrap();
        let out = run_campaign(
            &specs,
            &ExecutorConfig::serial("unstored").with_cache(cache),
            fake_runner,
        );
        assert_eq!(out.metrics.points_run, 2);
        assert_eq!(out.metrics.corrupt_entries, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_fixed_work_points_are_flagged() {
        let mut specs = vec![spec(1), spec(99), spec(3)];
        let out = run_campaign(&specs, &ExecutorConfig::serial("t"), fake_runner);
        assert_eq!(out.truncated, vec![1]);
        assert!(out.ensure_complete("t").is_err());
        // A horizon-bounded point is allowed to be cut.
        specs[1].horizon = Some(pa_simkit::SimDur::from_millis(10));
        let out = run_campaign(&specs, &ExecutorConfig::serial("t"), fake_runner);
        assert!(out.truncated.is_empty());
        assert!(out.ensure_complete("t").is_ok());
    }

    #[test]
    fn failed_store_keeps_the_checkpoint_and_no_temp_file() {
        let dir = std::env::temp_dir().join(format!("pa-exec-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let specs = vec![spec(1)];
        let cache = Cache::at(&dir).unwrap();
        // A directory at the entry's path: the lookup misses and the
        // store's rename fails.
        std::fs::create_dir_all(cache.path_for(&specs[0].content_key())).unwrap();
        let cfg = ExecutorConfig::serial("store")
            .with_cache(cache)
            .with_checkpoint_every(SimDur::from_millis(5));
        let out = run_campaign(&specs, &cfg, |s, ctx| {
            let path = &ctx.checkpoint.as_ref().expect("checkpointing armed").path;
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(path, "stand-in checkpoint").unwrap();
            fake_runner(s, ctx)
        });
        assert_eq!(out.metrics.points_run, 1);
        let ckpt = dir
            .join("checkpoints")
            .join(format!("{}.json", specs[0].content_key()));
        assert!(ckpt.exists(), "the point's only resume point was deleted");
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|name| name.starts_with(".tmp-"))
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files left behind: {leftovers:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_panicking_point_fails_the_campaign_without_hanging() {
        let specs: Vec<_> = (0..6).map(spec).collect();
        let cfg = ExecutorConfig::serial("panic").with_jobs(2);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_campaign(&specs, &cfg, |s, ctx| {
                assert_ne!(s.seed, 3, "deliberate runner panic");
                fake_runner(s, ctx)
            })
        }));
        assert!(outcome.is_err(), "a point's panic must fail the campaign");
    }
}
