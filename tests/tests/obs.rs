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

/// The three report artifacts of a small observed run: node 0's Chrome
/// trace, the blame report JSON and the metrics snapshot. Production
/// noise and the co-scheduler put daemon dispatches, ticks and
/// `setprio` instants in the trace; record-all capture gives the blame
/// report a critical path over all 128 Allreduces.
fn report_artifacts() -> [String; 3] {
    let mut wl = |_rank: u32| -> Box<dyn RankWorkload> {
        Box::new(OpList::new(
            std::iter::repeat_n(
                [
                    MpiOp::Compute(pa_simkit::SimDur::from_micros(40)),
                    MpiOp::Allreduce { bytes: 64 },
                ],
                128,
            )
            .flatten()
            .collect(),
        ))
    };
    let out = Experiment::new(2, 4)
        .with_cpus_per_node(4)
        .with_noise(pa_noise::NoiseProfile::production())
        .with_cosched(CoschedSetup::default())
        .with_trace_node(0)
        .with_record_all_ranks()
        .with_seed(42)
        .run(&mut wl);
    assert!(out.completed, "run did not finish");
    let trace = timeline_of(&out, 0).to_chrome_trace();
    assert!(
        trace.contains("setprio "),
        "the co-scheduler sets priorities"
    );
    let blame = pa_blame::BlameReport {
        title: "report".into(),
        runs: vec![pa_core::blame_of(&out, "report")],
        ..pa_blame::BlameReport::default()
    }
    .to_json();
    assert!(
        blame.contains("\"ops\": 128"),
        "every Allreduce is on the path"
    );
    let metrics = metrics_of(&out).snapshot_json();
    [trace, blame, metrics]
}

#[test]
fn report_artifacts_known_answer() {
    let got = report_artifacts().map(|a| pa_simkit::sha256_hex(a.as_bytes()));
    // Recorded from the tree-building writers (a `Value` tree per trace
    // event, nested-map path grouping); the streamed writers must
    // reproduce them byte for byte.
    let want = [
        "76432094b0aa09258ef272afb2ddf0f7655694058e6faae7196e87e6c7cda066",
        "f3fbba3798eafe2556125221b290c067341437e2e2c4055117cacc34516ba72b",
        "8378d478c021fbde4ae3635797408273d832c03c25496da48960d7d6dec475e7",
    ];
    assert_eq!(got, want.map(String::from), "[trace, blame, metrics]");
}

/// Characters a span or lane name is drawn from: plain ASCII, every
/// character the writer escapes by name, raw control characters (the
/// `\u00xx` path), DEL, and multi-byte UTF-8 that passes through raw.
const NAME_CHARS: [char; 16] = [
    'a', 'Z', ' ', '#', '"', '\\', '\n', '\r', '\t', '\u{0}', '\u{1f}', '\u{7f}', 'é', '→',
    '\u{2028}', '😀',
];

fn name_of(chars: &[usize]) -> String {
    chars.iter().map(|&i| NAME_CHARS[i]).collect()
}

/// A time in `[0, 2^53)` ns, in one of four regimes: whole µs, below
/// 10^15 ns (where the writer formats from integers), anywhere, or a
/// short run's sub-millisecond values.
fn time_of(mode: u64, raw: u64) -> u64 {
    match mode {
        0 => raw / 1_000 * 1_000,
        1 => raw % 1_000_000_000_000_000,
        2 => raw,
        _ => raw % 1_000_000,
    }
}

proptest::proptest! {
    #[test]
    fn chrome_trace_is_its_own_canonical_rendering(
        ops in proptest::prelude::prop::collection::vec(
            (
                0u32..6,
                (0u32..3, 0u32..4),
                proptest::prelude::prop::collection::vec(0usize..NAME_CHARS.len(), 0..6),
                (0u64..4, 0u64..(1 << 53)),
                (0u64..4, 0u64..(1 << 53)),
            ),
            0..40,
        )
    ) {
        // Every event kind, explicit and fallback lane names, and
        // unmatched ends (which record nothing).
        let mut tl = SpanTimeline::new();
        for (kind, (pid, tid), chars, (tm, traw), (dm, draw)) in ops {
            let name = name_of(&chars);
            let t = SimTime::from_nanos(time_of(tm, traw));
            let dur = pa_simkit::SimDur::from_nanos(time_of(dm, draw));
            match kind {
                0 => tl.begin(pid, tid, name, t),
                1 => drop(tl.end(pid, tid, t)),
                2 => tl.complete(pid, tid, name, t, dur),
                3 => tl.instant(pid, tid, name, t),
                4 => tl.name_process(pid, name),
                _ => tl.name_track(pid, tid, name),
            }
        }
        let trace = tl.to_chrome_trace();
        let parsed = serde_json::parse(&trace);
        proptest::prop_assert!(parsed.is_ok(), "trace does not parse: {trace}");
        let rendered = parsed.unwrap().to_json_string() + "\n";
        proptest::prop_assert_eq!(rendered, trace);
    }
}
