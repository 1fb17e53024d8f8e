//! Content-addressed on-disk result cache: one JSON file per point at
//! `results/cache/<key>.json`, where `<key>` is the spec's content hash.
//! Invalidation is purely by key: changing any spec field or the schema
//! version changes the key, so stale entries are never read — only
//! orphaned (and can be deleted freely).

use crate::spec::PointSpec;
use pa_core::RunOutput;
use serde::value::{get, Value};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Bump when the meaning of cached fields changes; old entries become
/// unreachable (different keys) rather than misread.
/// v3: `PointSpec` gained `link_bandwidth` and `PointResult.extra` gained
/// the `fabric.link_*` contention counters.
/// v4: campaign points may be produced by checkpoint-resumed runs; bumped
/// with the engine checkpoint/restore feature so entries written before
/// the restore path existed are unreachable.
/// v5: `PointSpec` gained the `policy` field for multi-job batch points;
/// v4 entries (which lack it) must read as misses, never as results for
/// a policy-bearing spec.
/// v6: `PointResult.extra` gained the `blame.*` wait-state category sums
/// (and the kernel's wait-state accounting changed what a run records);
/// v5 entries lack them and must not satisfy blame-merging campaigns.
/// v7: the event queue gained true cancellation — kernel-voided segment
/// timers are removed from the calendar instead of popping as stale
/// no-ops — so per-run event counts shifted; v6 entries would disagree
/// with a fresh run of the same spec.
/// v8: `PointSpec` gained the `dispatcher` canonical key (pluggable
/// dispatcher policies) and `PointResult.extra` gained the
/// `kernel.dispatches` counter; v7 entries lack both and must read as
/// misses, never as results for a dispatcher-bearing spec.
/// v9: the widened-window checkpoint cap now *shortens* daemon-idle
/// windows so periodic checkpoints land at their due time instead of up
/// to a lookahead late, shifting `engine.windows_*` (and checkpoint
/// cadence) for checkpoint-armed runs; v8 entries would disagree with a
/// fresh run of the same spec.
/// Still v9: the `dispatcher` key later left `PointSpec`, which repeated
/// `kernel.dispatcher`, and so did `policy`, which moved into the
/// multi-job workload. Dropping a canonical field changes every content
/// key, so old entries already read as misses.
pub const CACHE_SCHEMA_VERSION: u32 = 9;

/// The cacheable extract of one run. `RunOutput` itself holds the whole
/// post-run cluster and is deliberately not serialized; campaigns cache
/// the scalars the figures and tables consume.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PointResult {
    /// Mean per-rank Allreduce time, µs (the scaling figures' y-axis).
    pub mean_allreduce_us: f64,
    /// Simulated job duration, seconds.
    pub wall_s: f64,
    /// Did every rank exit before the horizon?
    pub completed: bool,
    /// Events the simulator processed (throughput metric input).
    pub events: u64,
    /// Driver-specific extra scalars (e.g. p99 for the timer table).
    pub extra: BTreeMap<String, f64>,
}

impl PointResult {
    /// Standard extraction from a finished run.
    pub fn from_run(out: &RunOutput) -> PointResult {
        let mut extra = BTreeMap::new();
        // Link-contention counters ride along so sweeps can report
        // queueing without re-running cached points. Both are exact u64
        // counts; f64 is lossless far beyond any realistic run.
        extra.insert("fabric.link_waits".into(), out.sim.link_waits() as f64);
        extra.insert("fabric.link_wait_ns".into(), out.sim.link_wait_ns() as f64);
        // Total dispatcher decisions across the cluster: the activity
        // proof per dispatcher policy (CI asserts it nonzero) and a cheap
        // context-switch-pressure signal for fair-vs-AIX comparisons.
        let dispatches = out.sim.kernel_stats().dispatches;
        extra.insert("kernel.dispatches".into(), dispatches as f64);
        // Wait-state category sums (ns over all ranks). Exact u64/i64
        // counts; f64 is lossless far beyond any realistic run. Cached so
        // campaign blame totals merge without re-running points.
        let cats = pa_core::blame_totals(out);
        extra.insert("blame.compute_ns".into(), cats.compute_ns as f64);
        extra.insert("blame.coll_wait_ns".into(), cats.coll_wait_ns as f64);
        extra.insert("blame.runq_wait_ns".into(), cats.runq_wait_ns as f64);
        extra.insert("blame.noise_ns".into(), cats.noise_ns as f64);
        extra.insert("blame.io_wait_ns".into(), cats.io_wait_ns as f64);
        extra.insert("blame.overhead_ns".into(), cats.overhead_ns as f64);
        extra.insert("blame.wall_ns".into(), cats.total_ns() as f64);
        PointResult {
            mean_allreduce_us: out.mean_allreduce_us(),
            wall_s: out.wall.as_secs_f64(),
            completed: out.completed,
            events: out.events,
            extra,
        }
    }
}

static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// What [`Cache::lookup`] found for one key.
#[derive(Debug, PartialEq)]
pub enum Lookup {
    /// No entry on disk: a plain miss.
    Absent,
    /// An entry on disk that is unusable (unreadable, unparseable, wrong
    /// schema, wrong key, or a malformed result). It reads as a miss —
    /// the point is re-run and its result stored over the entry — but is
    /// reported so silent corruption is visible.
    Corrupt,
    /// A valid stored result.
    Hit(PointResult),
}

/// Handle on one cache directory.
#[derive(Debug)]
pub struct Cache {
    dir: PathBuf,
}

impl Cache {
    /// Open (creating if needed) a cache at `dir`.
    pub fn at(dir: impl Into<PathBuf>) -> io::Result<Cache> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(Cache { dir })
    }

    /// The conventional location relative to the repo root.
    pub fn default_dir() -> PathBuf {
        PathBuf::from("results").join("cache")
    }

    /// The directory this cache lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// File that does (or would) hold `key`'s entry.
    pub fn path_for(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{key}.json"))
    }

    /// Read the stored result for `key`. Corrupt or mismatched entries
    /// read as [`Lookup::Corrupt`], never as wrong data or a panic.
    pub fn lookup(&self, key: &str) -> Lookup {
        let text = match std::fs::read_to_string(self.path_for(key)) {
            Ok(text) => text,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Lookup::Absent,
            Err(_) => return Lookup::Corrupt,
        };
        let parsed = (|| {
            let value = serde_json::parse(&text).ok()?;
            let map = value.as_map()?;
            if get(map, "schema")?.as_u64()? != u64::from(CACHE_SCHEMA_VERSION) {
                return None;
            }
            if get(map, "key")?.as_str()? != key {
                return None;
            }
            PointResult::from_value(get(map, "result")?).ok()
        })();
        parsed.map_or(Lookup::Corrupt, Lookup::Hit)
    }

    /// Store an entry atomically (temp file + rename), so a concurrent
    /// reader sees either nothing or a complete entry. On error the temp
    /// file is removed.
    pub fn store<W: Serialize>(
        &self,
        key: &str,
        spec: &PointSpec<W>,
        result: &PointResult,
    ) -> io::Result<()> {
        let entry = Value::Map(vec![
            ("schema".into(), CACHE_SCHEMA_VERSION.to_value()),
            ("key".into(), key.to_value()),
            ("spec".into(), spec.to_value()),
            ("result".into(), result.to_value()),
        ]);
        let tmp = self.dir.join(format!(
            ".tmp-{}-{}-{key}",
            std::process::id(),
            TMP_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::write(&tmp, entry.to_json_string_pretty() + "\n")
            .and_then(|()| std::fs::rename(&tmp, self.path_for(key)))
            .inspect_err(|_| {
                let _ = std::fs::remove_file(&tmp);
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pa_kernel::SchedOptions;
    use pa_noise::NoiseProfile;

    fn spec() -> PointSpec<u32> {
        PointSpec {
            family: "unit".into(),
            nodes: 2,
            tasks_per_node: 4,
            cpus_per_node: 4,
            kernel: SchedOptions::vanilla(),
            cosched: None,
            noise: NoiseProfile::dedicated(),
            progress: None,
            workload: 1,
            seed: 5,
            horizon: None,
            link_bandwidth: None,
        }
    }

    fn result() -> PointResult {
        let mut extra = BTreeMap::new();
        extra.insert("global_p99_us".into(), 123.5);
        PointResult {
            mean_allreduce_us: 456.25,
            wall_s: 1.5,
            completed: true,
            events: 100_000,
            extra,
        }
    }

    fn tmp_cache(tag: &str) -> Cache {
        let dir = std::env::temp_dir().join(format!("pa-cache-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Cache::at(dir).unwrap()
    }

    #[test]
    fn round_trip_preserves_result_exactly() {
        let cache = tmp_cache("roundtrip");
        let s = spec();
        let key = s.content_key();
        assert_eq!(cache.lookup(&key), Lookup::Absent, "cold cache must miss");
        cache.store(&key, &s, &result()).unwrap();
        let Lookup::Hit(back) = cache.lookup(&key) else {
            panic!("stored entry must read back");
        };
        assert_eq!(back, result());
        assert_eq!(
            back.mean_allreduce_us.to_bits(),
            result().mean_allreduce_us.to_bits()
        );
    }

    #[test]
    fn key_mismatch_and_corruption_read_as_misses() {
        let cache = tmp_cache("corrupt");
        let s = spec();
        let key = s.content_key();
        cache.store(&key, &s, &result()).unwrap();
        // An absent entry is a plain miss, not corruption.
        assert_eq!(cache.lookup(&"f".repeat(64)), Lookup::Absent);
        // An entry stored under the wrong name must not satisfy lookups.
        let other = "0".repeat(64);
        std::fs::copy(cache.path_for(&key), cache.path_for(&other)).unwrap();
        assert_eq!(cache.lookup(&other), Lookup::Corrupt);
        // Truncated JSON (a half-written entry) reads as a miss, not an
        // error.
        std::fs::write(cache.path_for(&key), "{\"schema\": 1,").unwrap();
        assert_eq!(cache.lookup(&key), Lookup::Corrupt);
        // Valid JSON from a different schema version also misses.
        std::fs::write(
            cache.path_for(&key),
            format!("{{\"schema\": 999, \"key\": \"{key}\"}}"),
        )
        .unwrap();
        assert_eq!(cache.lookup(&key), Lookup::Corrupt);
        // Re-running the point overwrites the bad entry in place.
        cache.store(&key, &s, &result()).unwrap();
        assert_eq!(cache.lookup(&key), Lookup::Hit(result()));
    }

    #[test]
    fn pre_policy_schema_entries_read_as_misses() {
        // Well-formed entries written under older schemas — v4 (before
        // `PointSpec.policy`) and v7 (before `PointSpec.dispatcher` and
        // the `kernel.dispatches` extra) — must read as misses under the
        // current schema, never as results; each reads as corrupt.
        for (tag, old) in [("schema-v4", 4u32), ("schema-v7", 7u32)] {
            let cache = tmp_cache(tag);
            let s = spec();
            let key = s.content_key();
            cache.store(&key, &s, &result()).unwrap();
            let entry = std::fs::read_to_string(cache.path_for(&key)).unwrap();
            let downgraded = entry.replacen(
                &format!("\"schema\": {CACHE_SCHEMA_VERSION}"),
                &format!("\"schema\": {old}"),
                1,
            );
            assert_ne!(entry, downgraded, "entry must carry the schema field");
            std::fs::write(cache.path_for(&key), downgraded).unwrap();
            assert_eq!(
                cache.lookup(&key),
                Lookup::Corrupt,
                "v{old} entry must not satisfy a v{CACHE_SCHEMA_VERSION} lookup"
            );
        }
    }
}
