//! Integration tests of the campaign subsystem against the real DES:
//! content-key stability, cache round-trips through disk, and the
//! bit-identical-results-at-any-job-count guarantee.

use pa_campaign::{run_campaign, Cache, ExecutorConfig, PointCtx, PointSpec};
use pa_workloads::{aggregate_runner, ScalingConfig};
use std::path::PathBuf;

fn quick_cfg() -> ScalingConfig {
    let mut cfg = ScalingConfig::fig3(true);
    cfg.node_counts = vec![2, 4];
    cfg.allreduces = 48;
    cfg.seeds = vec![42, 43];
    cfg.target_sim_time = None;
    cfg
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pa-campaign-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn content_keys_are_stable_across_processes() {
    // The key must not depend on iteration order, hashing randomness, or
    // anything else that varies between invocations: a fixed spec has a
    // fixed key forever (until CACHE_SCHEMA_VERSION is bumped).
    let points = quick_cfg().points();
    let again = quick_cfg().points();
    for (a, b) in points.iter().zip(&again) {
        assert_eq!(a.content_key(), b.content_key());
    }
    // Keys separate every point in the sweep.
    let mut keys: Vec<String> = points.iter().map(PointSpec::content_key).collect();
    keys.sort();
    keys.dedup();
    assert_eq!(keys.len(), points.len(), "key collision inside one sweep");
}

#[test]
fn cache_round_trips_real_results_bit_exactly() {
    let dir = temp_dir("roundtrip");
    let cfg = quick_cfg();
    let points = cfg.points();
    let spec = &points[0];
    let key = spec.content_key();
    let cache = Cache::at(&dir).unwrap();
    let fresh = aggregate_runner(spec, &PointCtx::serial());
    cache.store(&key, spec, &fresh).unwrap();
    let loaded = cache.lookup(&key).expect("stored entry must load");
    // f64s survive the JSON round-trip exactly, not approximately.
    assert_eq!(loaded, fresh);
    assert_eq!(
        serde_json::to_string(&loaded).unwrap(),
        serde_json::to_string(&fresh).unwrap()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn job_count_never_changes_results() {
    // Each DES run is single-threaded and fully determined by its spec,
    // so a 4-worker campaign must reproduce the serial one bit for bit.
    let points = quick_cfg().points();
    let serial = run_campaign(&points, &ExecutorConfig::serial("jobs1"), aggregate_runner);
    let parallel = run_campaign(
        &points,
        &ExecutorConfig::serial("jobs4").with_jobs(4),
        aggregate_runner,
    );
    assert_eq!(serial.results, parallel.results);
    assert!(serial.truncated.is_empty(), "fixed-work points must finish");
}

#[test]
fn second_campaign_is_served_from_cache() {
    let dir = temp_dir("hits");
    let points = quick_cfg().points();
    let exec = || {
        ExecutorConfig::serial("cache-it")
            .with_jobs(2)
            .with_cache(Cache::at(&dir).unwrap())
    };
    let first = run_campaign(&points, &exec(), aggregate_runner);
    assert_eq!(first.metrics.cache_hits, 0);
    assert_eq!(first.metrics.points_run, points.len());
    let second = run_campaign(&points, &exec(), aggregate_runner);
    assert_eq!(second.metrics.cache_hits, points.len());
    assert_eq!(second.metrics.points_run, 0);
    assert_eq!(first.results, second.results);
    let _ = std::fs::remove_dir_all(&dir);
}
