//! Integration tests for the observability layer (`pa-obs` + the
//! `pa_core::observe` fold): registry determinism across reruns and
//! worker counts, histogram bucket semantics, span nesting and track
//! assignment, and Chrome trace JSON round-tripping through the
//! serde_json shim.

use pa_campaign::{run_campaign, ExecutorConfig, PointResult};
use pa_core::{metrics_of, timeline_of, CoschedSetup, Experiment};
use pa_mpi::{MpiOp, OpList, RankWorkload};
use pa_obs::{Histogram, MetricsRegistry, SpanTimeline};
use pa_simkit::SimTime;
use pa_workloads::{aggregate_runner, ScalingConfig};

fn observed_run(seed: u64) -> pa_core::RunOutput {
    // Long enough (~tens of ms simulated) that ticks fire and the
    // seed-dependent noise actually lands inside the window.
    let mut wl = |_rank: u32| -> Box<dyn RankWorkload> {
        Box::new(OpList::new(vec![MpiOp::Allreduce { bytes: 8 }; 256]))
    };
    Experiment::new(2, 4)
        .with_cpus_per_node(4)
        .with_cosched(CoschedSetup::default())
        .with_trace_node(0)
        .with_seed(seed)
        .run(&mut wl)
}

#[test]
fn same_seed_gives_byte_identical_snapshot() {
    let a = metrics_of(&observed_run(31)).snapshot_json();
    let b = metrics_of(&observed_run(31)).snapshot_json();
    assert_eq!(a, b, "snapshot must be byte-identical for one seed");
    let c = metrics_of(&observed_run(32)).snapshot_json();
    assert_ne!(a, c, "different seed should change the snapshot");
}

#[test]
fn campaign_metrics_identical_at_any_job_count() {
    // The determinism contract extends through the worker pool: fold the
    // per-point results from serial and 4-way executions into registries
    // and require byte-identical snapshots.
    let mut cfg = ScalingConfig::fig3(true);
    cfg.node_counts = vec![1, 2];
    cfg.allreduces = 48;
    cfg.seeds = vec![21, 22];
    let fold = |results: &[PointResult]| {
        let mut reg = MetricsRegistry::new();
        for r in results {
            reg.inc("campaign.sim_events", r.events);
            reg.inc("campaign.completed", u64::from(r.completed));
        }
        reg.snapshot_json()
    };
    let serial = run_campaign(
        &cfg.points(),
        &ExecutorConfig::serial("obs"),
        aggregate_runner,
    );
    let parallel = run_campaign(
        &cfg.points(),
        &ExecutorConfig::serial("obs").with_jobs(4),
        aggregate_runner,
    );
    assert_eq!(fold(&serial.results), fold(&parallel.results));
}

#[test]
fn histogram_bucket_edges_are_inclusive_upper_bounds() {
    let mut h = Histogram::new(&[10, 100, 1000]);
    for v in [0, 10, 11, 100, 999, 1000, 1001, u64::MAX] {
        h.record(v);
    }
    // Buckets: <=10, <=100, <=1000, overflow.
    assert_eq!(h.counts(), &[2, 2, 2, 2]);
    assert_eq!(h.count(), 8);
    assert_eq!(h.min(), Some(0));
    assert_eq!(h.max(), Some(u64::MAX));
}

#[test]
fn span_nesting_and_track_assignment() {
    let mut tl = SpanTimeline::new();
    let t = SimTime::from_micros;
    // Nested spans on one track; an independent span on another track
    // and another process must not interfere.
    tl.begin(0, 1, "outer", t(10));
    tl.begin(0, 1, "inner", t(20));
    assert_eq!(tl.depth(0, 1), 2);
    tl.begin(0, 2, "other-track", t(15));
    tl.begin(7, 1, "other-node", t(15));
    assert_eq!(tl.depth(0, 2), 1);
    assert_eq!(tl.depth(7, 1), 1);
    assert_eq!(tl.end(0, 1, t(30)).as_deref(), Some("inner"));
    assert_eq!(tl.end(0, 1, t(40)).as_deref(), Some("outer"));
    assert_eq!(tl.depth(0, 1), 0);
    // Unmatched end: rejected, not recorded.
    assert_eq!(tl.end(0, 1, t(50)), None);
}

#[test]
fn chrome_trace_round_trips_through_serde_json() {
    let mut tl = SpanTimeline::new();
    tl.name_process(3, "node3");
    tl.name_track(3, 0, "cpu0");
    tl.begin(3, 0, "mpi_rank_0", SimTime::from_micros(5));
    tl.instant(3, 0, "tick", SimTime::from_micros(7));
    tl.end(3, 0, SimTime::from_micros(9));
    tl.complete(
        3,
        1,
        "coll#1",
        SimTime::from_micros(5),
        pa_simkit::SimDur::from_micros(3),
    );
    let json = tl.to_chrome_trace();
    let v = serde_json::parse(&json).expect("chrome trace parses");
    let top = v.as_map().expect("top-level object");
    let events = serde::value::get(top, "traceEvents")
        .and_then(|e| e.as_seq())
        .expect("traceEvents seq");
    // 3 metadata (named process + named track 0 + fallback name for the
    // unnamed track 1) + B + i + E + X.
    assert_eq!(events.len(), 7);
    for ev in events {
        let m = ev.as_map().expect("event object");
        for key in ["ph", "pid", "tid"] {
            assert!(serde::value::get(m, key).is_some(), "missing {key}");
        }
    }
    // Round-trip: parse -> serialize -> parse gives the same value.
    let re = serde_json::parse(&v.to_json_string()).expect("reparse");
    assert_eq!(v, re);
}

#[test]
fn fig4_style_run_yields_valid_artifacts() {
    let out = observed_run(33);
    let reg = metrics_of(&out);
    assert!(serde_json::parse(&reg.snapshot_json()).is_ok());
    let tl = timeline_of(&out, 0);
    assert!(!tl.is_empty());
    assert!(serde_json::parse(&tl.to_chrome_trace()).is_ok());
}
