//! One pass over a workload: the timed calls it made into each layer's
//! public API, the layer counters it read, and the checks it ran.

use crate::{alloc, speed};
use pa_campaign::PointSpec;
use pa_core::{Experiment, RunOutput};
use pa_mpi::RankWorkload;
use pa_simkit::SeedSpace;
use pa_workloads::{AggregateSpec, AggregateTrace};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Layer counters a pass reads from public accessors, with their units.
/// Engine counters sum over the pass's `cluster.run` calls; a counter a
/// workload never reaches reads 0.
pub const COUNTERS: [(&str, &str); 24] = [
    ("cluster.events", "count"),
    ("cluster.windows", "count"),
    ("cluster.shard_visits", "count"),
    ("cluster.messages", "count"),
    ("cluster.bytes", "bytes"),
    ("cluster.fifo_clamps", "count"),
    ("simkit.scheduled", "count"),
    ("simkit.cancelled", "count"),
    ("simkit.compactions", "count"),
    ("kernel.dispatches", "count"),
    ("kernel.preemptions", "count"),
    ("kernel.ctx_switches", "count"),
    ("kernel.ticks", "count"),
    ("cosched.window_applies", "count"),
    ("cosched.setprio_sent", "count"),
    ("mpi.mean_allreduce_us.vanilla", "us"),
    ("mpi.mean_allreduce_us.prototype", "us"),
    ("mpi.speedup_944", "ratio"),
    ("checkpoint.bytes", "bytes"),
    ("campaign.points", "count"),
    ("campaign.cache_hits", "count"),
    ("obs.snapshot_bytes", "bytes"),
    ("obs.trace_bytes", "bytes"),
    ("blame.report_bytes", "bytes"),
];

/// One timed call into a layer, named `<layer>.<call>`.
struct Span {
    name: &'static str,
    secs: f64,
    allocs: u64,
    bytes: u64,
}

/// One engine configuration: a campaign point.
pub struct Run {
    /// Names the run in checks and recorded fingerprints.
    pub label: &'static str,
    /// The point's configuration and seed.
    pub spec: PointSpec<AggregateSpec>,
    /// Trace node 0 and record every rank's collectives, so that the
    /// run's report has a Chrome trace and a critical path.
    pub observed: bool,
}

impl Run {
    /// The run's experiment, ready for further options.
    pub fn experiment(&self) -> Experiment {
        let e = self.spec.experiment();
        if self.observed {
            e.with_trace_node(0).with_record_all_ranks()
        } else {
            e
        }
    }

    /// Run `e` with the point's per-rank aggregate benchmark, seeded the
    /// way the campaign runner seeds it, so results match cached points.
    pub fn execute(&self, e: Experiment) -> RunOutput {
        let seeds = SeedSpace::new(self.spec.seed);
        let agg = self.spec.workload;
        e.run(&mut |rank: u32| -> Box<dyn RankWorkload> {
            Box::new(AggregateTrace::new(
                agg,
                seeds.stream_at("wl/agg", u64::from(rank), 0),
            ))
        })
    }
}

/// What one pass measured and checked.
#[derive(Default)]
pub struct Pass {
    /// Allocation counting is on, and restore is timed on its own.
    pub traced: bool,
    spans: Vec<Span>,
    counts: BTreeMap<&'static str, f64>,
    /// Checked operations.
    pub attempted: u64,
    /// Checked operations whose check failed.
    pub failed: u64,
    /// Host seconds of the whole pass.
    pub wall_s: f64,
    /// Allocations and bytes over the whole pass (zero unless traced).
    pub allocs: (u64, u64),
    /// The process's peak resident set when the pass ended, MB.
    pub peak_rss_mb: f64,
    /// Set-up seconds of each engine run, sampled after the pass.
    pub setup_s: Vec<f64>,
    /// Host seconds of the reference loop, timed after the set-up.
    pub ref_s: f64,
}

impl Pass {
    pub fn new(traced: bool) -> Pass {
        Pass {
            traced,
            ..Pass::default()
        }
    }

    /// Time one call, with the allocations it made.
    pub fn time<T>(&mut self, name: &'static str, call: impl FnOnce() -> T) -> T {
        let (allocs, bytes) = alloc::totals();
        let started = Instant::now();
        let out = call();
        let secs = started.elapsed().as_secs_f64();
        let (allocs_now, bytes_now) = alloc::totals();
        self.spans.push(Span {
            name,
            secs,
            allocs: allocs_now - allocs,
            bytes: bytes_now - bytes,
        });
        out
    }

    /// Seconds spent in calls named `name`.
    pub fn secs(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold(0.0, |total, s| total + s.secs)
    }

    /// Whether any call named `name` was made.
    pub fn ran(&self, name: &str) -> bool {
        self.spans.iter().any(|s| s.name == name)
    }

    /// Allocations and bytes of the calls into `layer`.
    pub fn layer_allocs(&self, layer: &str) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name.split('.').next() == Some(layer))
            .fold((0, 0), |(n, b), s| (n + s.allocs, b + s.bytes))
    }

    /// What turns this pass's host seconds into seconds on the nominal
    /// host (see [`speed`]).
    pub fn to_nominal(&self) -> f64 {
        speed::NOMINAL_REF_S / self.ref_s
    }

    /// Set-up seconds of all the pass's engine runs.
    pub fn setup_total(&self) -> f64 {
        self.setup_s.iter().sum()
    }

    /// Simulated events per host second over the pass's engine phase.
    pub fn events_per_s(&self) -> f64 {
        self.count("cluster.events") / (self.secs("cluster.run") - self.setup_total())
    }

    /// Wall time that no timed call accounts for.
    pub fn other_s(&self) -> f64 {
        self.wall_s - self.spans.iter().map(|s| s.secs).sum::<f64>()
    }

    /// Seconds spent turning finished runs into artifacts.
    pub fn report_s(&self) -> f64 {
        self.secs("obs.fold") + self.secs("obs.timeline") + self.secs("blame.analyze")
    }

    /// A counter's value (0 when the pass never set it).
    pub fn count(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.counts.insert(name, value);
    }

    fn add(&mut self, name: &'static str, value: u64) {
        *self.counts.entry(name).or_default() += value as f64;
    }

    /// One checked operation: counted as attempted, and as failed when
    /// `ok` is false. A failure is reported and the pass goes on.
    pub fn check(&mut self, what: &str, ok: bool) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {what}");
        }
        ok
    }

    /// Run `e` as one timed `cluster.run` call and read the engine's
    /// counters.
    pub fn engine(&mut self, run: &Run, e: Experiment) -> RunOutput {
        let out = self.time("cluster.run", || run.execute(e));
        self.check(
            &format!("{}: the run completes its work", run.label),
            out.completed,
        );
        let sim = &out.sim;
        let q = sim.queue_stats();
        self.add("cluster.events", out.events);
        self.add("cluster.windows", sim.windows_run());
        self.add(
            "cluster.shard_visits",
            sim.windows_run() * u64::from(sim.nodes()),
        );
        self.add("cluster.messages", sim.messages_routed());
        self.add("cluster.bytes", sim.bytes_routed());
        self.add("cluster.fifo_clamps", sim.fifo_clamps());
        self.add("simkit.scheduled", q.scheduled);
        self.add("simkit.cancelled", q.cancelled);
        self.add("simkit.compactions", q.compactions);
        for node in 0..sim.nodes() {
            let k = sim.kernel(node).stats();
            self.add("kernel.dispatches", k.dispatches);
            self.add("kernel.preemptions", k.preemptions);
            self.add("kernel.ctx_switches", k.ctx_switches);
            self.add("kernel.ticks", k.ticks);
        }
        out
    }

    /// Fold a finished run into its metrics snapshot, written under
    /// `dir`, as a timed call, and read the co-scheduler's counters from
    /// it. Returns the snapshot's digest.
    pub fn snapshot(&mut self, out: &RunOutput, dir: &Path) -> u64 {
        let (metrics, snapshot, written) = self.time("obs.fold", || {
            let metrics = pa_core::metrics_of(out);
            let snapshot = metrics.snapshot_json();
            let written = std::fs::write(dir.join("metrics.json"), &snapshot);
            (metrics, snapshot, written)
        });
        self.add("obs.snapshot_bytes", snapshot.len() as u64);
        self.add(
            "cosched.window_applies",
            metrics.counter("prog.cosched.window_applies"),
        );
        self.add(
            "cosched.setprio_sent",
            metrics.counter("prog.cosched.setprio_sent"),
        );
        self.check("the metrics snapshot is written", written.is_ok());
        snapshot_digest(&snapshot)
    }

    /// Write an observed run's other two artifacts under `dir`, each a
    /// timed call: node 0's Chrome trace and the blame report.
    pub fn report(&mut self, out: &RunOutput, label: &str, dir: &Path) {
        let (trace_bytes, trace_written) = self.time("obs.timeline", || {
            let trace = pa_core::timeline_of(out, 0).to_chrome_trace();
            let written = std::fs::write(dir.join("trace.json"), &trace);
            (trace.len(), written)
        });
        let (blame_bytes, blame_written) = self.time("blame.analyze", || {
            let report = pa_blame::BlameReport {
                title: label.to_string(),
                runs: vec![pa_core::blame_of(out, label)],
                ..pa_blame::BlameReport::default()
            }
            .to_json();
            let written = std::fs::write(dir.join("blame.json"), &report);
            (report.len(), written)
        });
        self.add("obs.trace_bytes", trace_bytes as u64);
        self.add("blame.report_bytes", blame_bytes as u64);
        self.check(
            &format!("{label}: trace and blame report are written"),
            trace_written.is_ok() && blame_written.is_ok(),
        );
    }

    /// Drop a finished run as a timed call: freeing a 512-node cluster
    /// takes measurable time.
    pub fn teardown(&mut self, out: RunOutput) {
        self.time("cluster.teardown", || drop(out));
    }
}

/// FNV-1a over a metrics snapshot, skipping the window counters: a run
/// restored from a checkpoint counts only the windows it ran itself.
pub fn snapshot_digest(snapshot: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for line in snapshot
        .lines()
        .filter(|l| !l.contains("\"engine.windows_"))
    {
        for b in line.bytes().chain([b'\n']) {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// The `q` quantile of `xs`, interpolated between the closest ranks
/// (0 for none).
pub fn quantile(mut xs: Vec<f64>, q: f64) -> f64 {
    xs.sort_by(f64::total_cmp);
    if xs.is_empty() {
        return 0.0;
    }
    let at = q * (xs.len() - 1) as f64;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    xs[lo] + (xs[hi] - xs[lo]) * (at - lo as f64)
}

/// Median of `xs` (0 for none).
pub fn median(xs: Vec<f64>) -> f64 {
    quantile(xs, 0.5)
}
