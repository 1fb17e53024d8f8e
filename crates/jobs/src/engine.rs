//! The batch-scheduling engine.
//!
//! [`JobsEngine`] owns one [`ClusterSim`] and drives it in *segments*:
//! the simulation runs normally between decision instants, and at each
//! instant — a job arrival or a scheduler-quantum boundary — the engine
//! acts while every shard is quiescent at a window barrier. All batch
//! decisions (arrival intake, completion detection, placement, malleable
//! resize) therefore see settled state, and the injected actions (thread
//! spawns, daemon shutdown messages) land at the barrier time in a
//! canonical order, so the whole multi-job history is a function of the
//! spec and seed alone.
//!
//! Completion detection is *polled*, like a real batch daemon: a chunk
//! whose ranks exit mid-quantum is noticed at the next decision instant,
//! never mid-window. That quantization is part of the model (LoadLeveler
//! does not trap job exit either) and is what keeps detection
//! deterministic.
//!
//! A *malleable* job is a sequence of chunks. Between chunks the engine
//! consults the policy for a new width, releases the old node set, and
//! re-installs the next chunk on the granted set with freshly numbered
//! ranks — the checkpoint-style "capture at a barrier, restart wider or
//! narrower" reconfiguration the paper's gang-scheduling discussion
//! anticipates.

use crate::policy::{Launch, PolicyKind, QueuedJob, RunningJob, SchedView};
use crate::spec::{JobRequest, MultiJobSpec};
use crate::workload::ChunkWorkload;
use pa_blame::{Categories, JobBlame};
use pa_cluster::{ClusterSim, ClusterSpec, FabricModel};
use pa_core::{CoschedDaemon, CoschedParams, SchedOptions};
use pa_kernel::{Endpoint, Message, Prio, ThreadSpec, ThreadState};
use pa_mpi::{install_job, CtrlOp, Job, JobSpec};
use pa_noise::NoiseProfile;
use pa_obs::{MetricsRegistry, SpanTimeline};
use pa_simkit::{SeedSpace, SimDur, SimTime};
use pa_trace::ThreadClass;
use serde::value::Value;
use serde::Serialize;

/// Queue-wait histogram bucket edges, microseconds.
const QUEUE_WAIT_EDGES_US: [u64; 8] = [100, 500, 1_000, 5_000, 10_000, 50_000, 100_000, 1_000_000];

/// Span-timeline process id used for the batch layer.
const BATCH_PID: u32 = 1;

/// Why the engine's cluster runs cannot fail: only a periodic checkpoint
/// write can, and the batch layer arms none.
const NO_PERIODIC_CHECKPOINT: &str = "the batch engine arms no periodic checkpoint";

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Not yet arrived.
    Pending,
    /// Arrived, waiting for nodes (fresh or between chunks).
    Queued,
    /// A chunk is installed and running.
    Running,
    /// All chunks finished.
    Done,
}

/// Engine-side record of one job.
struct JobRec {
    req: JobRequest,
    submit: SimTime,
    phase: Phase,
    first_start: Option<SimTime>,
    finished: Option<SimTime>,
    chunks_done: u32,
    /// Width granted per launched chunk.
    widths: Vec<u32>,
    grows: u32,
    shrinks: u32,
}

impl JobRec {
    /// Width the next launch should ask for (last granted, or the
    /// requested width before the first launch).
    fn want_width(&self) -> u32 {
        self.widths.last().copied().unwrap_or(self.req.nodes)
    }
}

/// One installed chunk.
struct Active {
    job: usize,
    nodes: Vec<u32>,
    handles: Job,
    cosched: Vec<Endpoint>,
    started: SimTime,
}

/// Per-job statistics of a finished run.
#[derive(Debug, Clone, Serialize)]
pub struct JobStats {
    /// Submission index.
    pub id: u32,
    /// Job name from the spec.
    pub name: String,
    /// Submission time, µs.
    pub submit_us: u64,
    /// First launch time, µs (None: never started).
    pub start_us: Option<u64>,
    /// Completion time, µs (None: unfinished at the horizon).
    pub end_us: Option<u64>,
    /// Width granted per chunk.
    pub widths: Vec<u32>,
    /// Width increases across chunk boundaries.
    pub grows: u32,
    /// Width decreases across chunk boundaries.
    pub shrinks: u32,
}

/// Everything a multi-job run produces.
pub struct JobsOutcome {
    /// Policy that made the decisions.
    pub policy: PolicyKind,
    /// Per-job statistics, submission order.
    pub jobs: Vec<JobStats>,
    /// Time from t=0 to the last completion (the horizon if unfinished).
    pub makespan: SimDur,
    /// Occupied node-time over `nodes × makespan`.
    pub utilization: f64,
    /// Sum of all jobs' queue waits (submission to first launch).
    pub total_queue_wait: SimDur,
    /// Chunk-boundary width changes across all jobs.
    pub reconfigurations: u32,
    /// Did every job finish before the horizon?
    pub completed: bool,
    /// Events the simulator processed.
    pub events: u64,
    /// `jobs.*` metrics (canonical: identical for equal specs and seeds).
    pub metrics: MetricsRegistry,
    /// Per-job spans and instants for Perfetto.
    pub spans: SpanTimeline,
    /// Per-job wall-time blame (submission order): the six-way category
    /// decomposition summed over every rank thread the job ever ran,
    /// chunks included, plus its queue wait. Canonical.
    pub blame: Vec<JobBlame>,
}

impl JobsOutcome {
    /// Canonical JSON manifest: equal specs must yield byte-identical
    /// manifests at any `--jobs` setting.
    pub fn manifest_json(&self) -> String {
        let v = Value::Map(vec![
            ("policy".into(), self.policy.name().to_value()),
            ("completed".into(), self.completed.to_value()),
            ("makespan_us".into(), self.makespan.micros().to_value()),
            (
                "utilization_ppm".into(),
                ((self.utilization * 1e6).round() as u64).to_value(),
            ),
            (
                "total_queue_wait_us".into(),
                self.total_queue_wait.micros().to_value(),
            ),
            ("reconfigurations".into(), self.reconfigurations.to_value()),
            ("events".into(), self.events.to_value()),
            ("jobs".into(), self.jobs.to_value()),
        ]);
        let mut s = v.to_json_string_pretty();
        s.push('\n');
        s
    }

    /// Mean queue wait per job, µs.
    pub fn mean_queue_wait_us(&self) -> f64 {
        if self.jobs.is_empty() {
            return 0.0;
        }
        self.total_queue_wait.as_micros_f64() / self.jobs.len() as f64
    }
}

/// The multi-job driver. Build with [`JobsEngine::new`], adjust with the
/// `with_*` methods, then [`JobsEngine::run`].
pub struct JobsEngine {
    spec: MultiJobSpec,
    policy: PolicyKind,
    seed: u64,
    link_bandwidth: Option<f64>,
    noise: NoiseProfile,
    horizon: SimDur,
}

impl JobsEngine {
    /// New engine over `spec` deciding with `policy`.
    pub fn new(spec: MultiJobSpec, policy: PolicyKind) -> JobsEngine {
        JobsEngine {
            spec,
            policy,
            seed: 42,
            link_bandwidth: None,
            noise: NoiseProfile::silent(),
            horizon: SimDur::from_secs(10),
        }
    }

    /// Set the master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set (or disable, with `None`) the per-node link capacity in bytes
    /// per second.
    pub fn with_link_bandwidth(mut self, bytes_per_sec: Option<f64>) -> Self {
        self.link_bandwidth = bytes_per_sec;
        self
    }

    /// Install an interference profile on every node.
    pub fn with_noise(mut self, noise: NoiseProfile) -> Self {
        self.noise = noise;
        self
    }

    /// Set the give-up horizon.
    pub fn with_horizon(mut self, horizon: SimDur) -> Self {
        self.horizon = horizon;
        self
    }

    /// Gang parameters for job `id`: the spec's window period, with
    /// co-resident-job stagger mapping each job onto one of four phase
    /// slots when enabled.
    fn gang_params(&self, id: u32) -> CoschedParams {
        let period = self.spec.gang_period;
        let phase = if self.spec.gang_stagger {
            period.mul_f64(f64::from(id % 4) * 0.25)
        } else {
            SimDur::ZERO
        };
        CoschedParams {
            period,
            phase,
            ..CoschedParams::benchmark()
        }
    }

    /// Run to completion (or the horizon).
    ///
    /// # Panics
    /// Panics when the spec fails validation; validate first to surface
    /// the named-value error without a panic.
    pub fn run(self) -> JobsOutcome {
        self.spec
            .validate()
            .unwrap_or_else(|e| panic!("invalid MultiJobSpec: {e}"));
        let spec = &self.spec;
        let seeds = SeedSpace::new(self.seed);
        let cspec = ClusterSpec {
            nodes: spec.nodes,
            cpus_per_node: u8::try_from(spec.cpus_per_node)
                .unwrap_or_else(|_| panic!("cpus_per_node = {} exceeds 255", spec.cpus_per_node)),
            options: if spec.gang {
                SchedOptions::prototype()
            } else {
                SchedOptions::vanilla()
            },
            skew_max: SimDur::from_millis(10),
            trace_capacity: 1 << 14,
            fabric: FabricModel {
                link_bandwidth: self.link_bandwidth,
                ..FabricModel::default()
            },
        };
        let mut sim = ClusterSim::build(&cspec, &seeds);
        if spec.gang {
            // The co-scheduler startup procedure (§4): sync node clocks to
            // the switch clock so window grids line up across a job.
            sim.sync_clocks(&seeds, SimDur::from_micros(20));
        }
        for node in 0..spec.nodes {
            self.noise.install(sim.kernel_mut(node), &seeds, node);
        }
        sim.boot();

        let mut metrics = MetricsRegistry::new();
        metrics.declare_histogram("jobs.queue_wait_us", &QUEUE_WAIT_EDGES_US);
        let mut spans = SpanTimeline::new();
        spans.name_process(BATCH_PID, format!("batch[{}]", self.policy.name()));

        let mut recs: Vec<JobRec> = spec
            .jobs
            .iter()
            .enumerate()
            .map(|(id, req)| {
                spans.name_track(BATCH_PID, id as u32, req.name.clone());
                JobRec {
                    req: req.clone(),
                    submit: SimTime::ZERO + req.submit_at,
                    phase: Phase::Pending,
                    first_start: None,
                    finished: None,
                    chunks_done: 0,
                    widths: Vec::new(),
                    grows: 0,
                    shrinks: 0,
                }
            })
            .collect();
        let mut active: Vec<Active> = Vec::new();
        // Per-job blame accumulator: (categories, summed rank wall ns,
        // rank-thread count), folded chunk by chunk as chunks retire —
        // the handles are dropped then, so the accounts must be read at
        // the same decision instant the completion is detected.
        let mut job_acct: Vec<(Categories, u64, u32)> =
            vec![(Categories::default(), 0, 0); recs.len()];
        let mut node_free = vec![true; spec.nodes as usize];
        let mut node_busy = vec![SimDur::ZERO; spec.nodes as usize];
        let mut next_arrival = 0usize; // index into recs, submission order
        let horizon_t = SimTime::ZERO + self.horizon;

        // First decision instant: the earliest submission.
        let mut t = recs[0].submit.min(horizon_t);
        sim.run_until(t).expect(NO_PERIODIC_CHECKPOINT);

        let completed = loop {
            // 1. Arrivals (submission order == canonical id order).
            while next_arrival < recs.len() && recs[next_arrival].submit <= t {
                let rec = &mut recs[next_arrival];
                rec.phase = Phase::Queued;
                metrics.inc("jobs.submitted", 1);
                spans.instant(BATCH_PID, next_arrival as u32, "submit", rec.submit);
                next_arrival += 1;
            }

            // 2. Completions, in job-id order. A chunk is complete when
            // every rank thread has exited; detection happens here, at
            // the decision instant — the batch daemon's poll.
            let mut still = Vec::with_capacity(active.len());
            for a in active.drain(..) {
                let done = a
                    .handles
                    .rank_tids
                    .iter()
                    .all(|ep| sim.kernel(ep.node).thread_state(ep.tid) == ThreadState::Exited);
                if !done {
                    still.push(a);
                    continue;
                }
                fold_chunk_blame(&sim, &a.handles, t, &mut job_acct[a.job]);
                for &n in &a.nodes {
                    node_busy[n as usize] += t.since(a.started);
                    node_free[n as usize] = true;
                }
                // Retire the chunk's gang daemons: base priorities back,
                // then exit — within one window period.
                for &ep in &a.cosched {
                    sim.inject_message(Message {
                        src: ep,
                        dst: ep,
                        tag: CtrlOp::Shutdown.tag(),
                        bytes: 16,
                        sent_at: SimTime::ZERO,
                        payload: 0,
                    });
                }
                spans.end(BATCH_PID, a.job as u32, t);
                let rec = &mut recs[a.job];
                rec.chunks_done += 1;
                if rec.chunks_done == rec.req.chunks {
                    rec.phase = Phase::Done;
                    rec.finished = Some(t);
                    metrics.inc("jobs.completed", 1);
                    spans.instant(BATCH_PID, a.job as u32, "done", t);
                } else {
                    // Between chunks: back into the queue; the placement
                    // pass below may relaunch it at a different width.
                    rec.phase = Phase::Queued;
                }
            }
            active = still;

            // 3. Placement, from a canonically ordered view.
            let mut queue_ids: Vec<usize> = recs
                .iter()
                .enumerate()
                .filter(|(_, r)| r.phase == Phase::Queued)
                .map(|(i, _)| i)
                .collect();
            queue_ids.sort_by(|&a, &b| {
                let (ra, rb) = (&recs[a], &recs[b]);
                rb.req
                    .priority
                    .cmp(&ra.req.priority)
                    .then(ra.submit.cmp(&rb.submit))
                    .then(a.cmp(&b))
            });
            if !queue_ids.is_empty() {
                let view = SchedView {
                    now: t,
                    free: node_free.clone(),
                    busy_time: node_busy.clone(),
                    queue: queue_ids
                        .iter()
                        .map(|&i| QueuedJob {
                            id: i as u32,
                            nodes: recs[i].want_width(),
                            min_nodes: recs[i].req.min_nodes,
                            max_nodes: recs[i].req.max_nodes,
                            estimate: recs[i].req.estimate,
                        })
                        .collect(),
                    running: active
                        .iter()
                        .map(|a| RunningJob {
                            id: a.job as u32,
                            width: a.nodes.len() as u32,
                            est_end: recs[a.job].first_start.unwrap_or(t)
                                + recs[a.job].req.estimate,
                            malleable: recs[a.job].req.is_malleable(),
                        })
                        .collect(),
                };
                for launch in self.policy.place(&view) {
                    let a = self.install_chunk(&mut sim, &seeds, &mut recs, &launch, t);
                    for &n in &a.nodes {
                        node_free[n as usize] = false;
                    }
                    let rec = &mut recs[launch.job as usize];
                    if rec.first_start.is_none() {
                        rec.first_start = Some(t);
                        let wait = t.since(rec.submit);
                        metrics.observe("jobs.queue_wait_us", wait.micros());
                    }
                    if let Some(&prev) = rec.widths.last() {
                        if launch.width != prev {
                            metrics.inc("jobs.reconfigurations", 1);
                            if launch.width > prev {
                                rec.grows += 1;
                                metrics.inc("jobs.grows", 1);
                            } else {
                                rec.shrinks += 1;
                                metrics.inc("jobs.shrinks", 1);
                            }
                        }
                    }
                    rec.widths.push(launch.width);
                    rec.phase = Phase::Running;
                    metrics.inc("jobs.launched_chunks", 1);
                    spans.begin(
                        BATCH_PID,
                        launch.job,
                        format!("chunk{}[{}n]", rec.chunks_done, launch.width),
                        t,
                    );
                    active.push(a);
                }
                active.sort_by_key(|a| a.job);
            }

            // 4. Next decision instant.
            if recs.iter().all(|r| r.phase == Phase::Done) {
                break true;
            }
            let mut next: Option<SimTime> = None;
            if !active.is_empty() || !queue_ids.is_empty() {
                next = Some(t + spec.quantum);
            }
            if next_arrival < recs.len() {
                let na = recs[next_arrival].submit;
                next = Some(next.map_or(na, |n| n.min(na)));
            }
            let Some(next) = next else { break true };
            if next > horizon_t {
                break false;
            }
            t = next;
            sim.run_until(t).expect(NO_PERIODIC_CHECKPOINT);
        };

        // Account partially-run chunks (horizon overrun) into busy time
        // and blame (their accounts close at the final decision instant).
        for a in &active {
            fold_chunk_blame(&sim, &a.handles, t, &mut job_acct[a.job]);
            for &n in &a.nodes {
                node_busy[n as usize] += t.since(a.started);
            }
        }

        let makespan = if completed {
            recs.iter()
                .filter_map(|r| r.finished)
                .max()
                .map(|end| end.since(SimTime::ZERO))
                .unwrap_or(SimDur::ZERO)
        } else {
            self.horizon
        };
        let busy_ns: u128 = node_busy.iter().map(|d| u128::from(d.nanos())).sum();
        let cap_ns = u128::from(spec.nodes) * u128::from(makespan.nanos());
        let utilization = if cap_ns == 0 {
            0.0
        } else {
            busy_ns as f64 / cap_ns as f64
        };
        let total_queue_wait = recs
            .iter()
            .filter_map(|r| r.first_start.map(|s| s.since(r.submit)))
            .fold(SimDur::ZERO, |acc, w| acc + w);
        let reconfigurations: u32 = recs.iter().map(|r| r.grows + r.shrinks).sum();

        metrics.set_gauge("jobs.makespan_us", makespan.micros() as i64);
        metrics.set_gauge("jobs.utilization_ppm", (utilization * 1e6).round() as i64);
        metrics.set_gauge(
            "jobs.unfinished",
            recs.iter().filter(|r| r.phase != Phase::Done).count() as i64,
        );

        let jobs = recs
            .iter()
            .enumerate()
            .map(|(id, r)| JobStats {
                id: id as u32,
                name: r.req.name.clone(),
                submit_us: r.submit.since(SimTime::ZERO).micros(),
                start_us: r.first_start.map(|s| s.since(SimTime::ZERO).micros()),
                end_us: r.finished.map(|e| e.since(SimTime::ZERO).micros()),
                widths: r.widths.clone(),
                grows: r.grows,
                shrinks: r.shrinks,
            })
            .collect();
        let blame = recs
            .iter()
            .enumerate()
            .map(|(id, r)| JobBlame {
                job: id as u32,
                name: r.req.name.clone(),
                queue_wait_ns: r.first_start.map_or(0, |s| s.since(r.submit).nanos()),
                nranks: job_acct[id].2,
                wall_ns: job_acct[id].1,
                cats: job_acct[id].0,
            })
            .collect();
        JobsOutcome {
            policy: self.policy,
            jobs,
            makespan,
            utilization,
            total_queue_wait,
            reconfigurations,
            completed,
            events: sim.events_processed(),
            metrics,
            spans,
            blame,
        }
    }

    /// Install one chunk on its granted node set at barrier time `t`:
    /// per-node gang daemons first (so ranks can register), then the rank
    /// threads. All spawns land at `t` in canonical (node, cpu) order.
    fn install_chunk(
        &self,
        sim: &mut ClusterSim,
        seeds: &SeedSpace,
        recs: &mut [JobRec],
        launch: &Launch,
        t: SimTime,
    ) -> Active {
        let id = launch.job;
        let rec = &recs[id as usize];
        let chunk = rec.chunks_done;
        let req = &rec.req;
        let mut cosched = Vec::new();
        if self.spec.gang {
            let params = self.gang_params(id);
            for &node in &launch.nodes {
                let tid = sim.spawn_thread(
                    node,
                    ThreadSpec::new(
                        format!("j{id}.c{chunk}.cosched"),
                        ThreadClass::Cosched,
                        Prio::COSCHED,
                    ),
                    Box::new(CoschedDaemon::new(params, req.tasks_per_node)),
                );
                cosched.push(Endpoint { node, tid });
            }
        }
        let job_spec = JobSpec {
            tasks_per_node: req.tasks_per_node,
            // No MPI progress timers: their threads never exit, which
            // would defeat exit-based completion detection. A documented
            // idealization of the batch layer.
            progress: None,
        };
        let nranks = launch.width * req.tasks_per_node;
        let chunk_key = (u64::from(id) << 20) | u64::from(chunk);
        let (iters, work, bytes, jitter) = (
            req.iters_per_chunk,
            req.work_per_iter,
            req.bytes,
            req.jitter,
        );
        let handles = install_job(
            sim,
            &job_spec,
            seeds,
            &launch.nodes,
            &format!("j{id}.c{chunk}."),
            &mut |rank| {
                Box::new(ChunkWorkload::new(
                    iters,
                    work,
                    nranks,
                    bytes,
                    jitter,
                    seeds.stream_at("jobs/rank", chunk_key, u64::from(rank)),
                ))
            },
        );
        handles.freeze_layout(cosched.iter().copied(), []);
        Active {
            job: id as usize,
            nodes: launch.nodes.clone(),
            handles,
            cosched,
            started: t,
        }
    }
}

/// Fold one chunk's rank-thread accounts into a job's blame
/// accumulator. `end` closes any interval still open (a horizon cut);
/// for retired chunks every thread has exited and `end` is inert. The
/// wall identity per thread is exact, so the folded categories sum to
/// the folded wall to the nanosecond.
fn fold_chunk_blame(
    sim: &ClusterSim,
    handles: &Job,
    end: SimTime,
    acc: &mut (Categories, u64, u32),
) {
    for ep in &handles.rank_tids {
        let (cats, wall_ns) = pa_core::rank_categories(sim.kernel(ep.node), ep.tid, end);
        acc.0.add(&cats);
        acc.1 += wall_ns;
        acc.2 += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::JobRequest;

    fn small_spec(jobs: Vec<JobRequest>) -> MultiJobSpec {
        MultiJobSpec {
            nodes: 4,
            cpus_per_node: 2,
            quantum: SimDur::from_millis(2),
            gang_period: SimDur::from_millis(1),
            jobs,
            ..MultiJobSpec::default()
        }
    }

    fn quick_job(name: &str, at_ms: u64, nodes: u32) -> JobRequest {
        JobRequest {
            iters_per_chunk: 5,
            work_per_iter: SimDur::from_micros(200),
            estimate: SimDur::from_millis(5),
            ..JobRequest::rigid(name, SimDur::from_millis(at_ms), nodes)
        }
    }

    #[test]
    fn single_job_runs_to_completion() {
        let spec = small_spec(vec![quick_job("solo", 0, 2)]);
        let out = JobsEngine::new(spec, PolicyKind::FcfsFirstFit).run();
        assert!(out.completed);
        assert_eq!(out.jobs[0].widths, vec![2]);
        assert_eq!(out.metrics.counter("jobs.submitted"), 1);
        assert_eq!(out.metrics.counter("jobs.completed"), 1);
        assert!(out.makespan > SimDur::ZERO);
        assert!(out.utilization > 0.0 && out.utilization <= 1.0);
        // Blame: one job, every rank thread folded, exact category sum.
        assert_eq!(out.blame.len(), 1);
        let b = &out.blame[0];
        assert_eq!(b.nranks, 2 * out.jobs[0].widths[0]);
        assert_eq!(b.cats.total_ns(), b.wall_ns as i64, "exact sum per job");
        assert!(b.cats.compute_ns > 0, "chunk compute must be charged");
    }

    #[test]
    fn blame_covers_queued_and_multi_chunk_jobs() {
        let spec = small_spec(vec![quick_job("a", 0, 4), quick_job("b", 0, 4)]);
        let out = JobsEngine::new(spec, PolicyKind::FcfsFirstFit).run();
        assert!(out.completed);
        let b = &out.blame[1];
        assert!(b.queue_wait_ns > 0, "queued job must show its wait");
        for jb in &out.blame {
            assert_eq!(jb.cats.total_ns(), jb.wall_ns as i64, "job {}", jb.job);
            assert!(jb.wall_ns > 0);
        }
    }

    #[test]
    fn fcfs_queues_second_job_when_machine_full() {
        let spec = small_spec(vec![quick_job("a", 0, 4), quick_job("b", 0, 4)]);
        let out = JobsEngine::new(spec, PolicyKind::FcfsFirstFit).run();
        assert!(out.completed);
        let (a, b) = (&out.jobs[0], &out.jobs[1]);
        assert!(
            b.start_us.unwrap() >= a.end_us.unwrap(),
            "b must wait for a: {out:?}",
            out = (a.end_us, b.start_us)
        );
        assert!(out.total_queue_wait > SimDur::ZERO);
    }

    #[test]
    fn equipartition_grows_and_shrinks_malleable_job() {
        // One malleable job alone at first (grows toward max), then two
        // rigid arrivals force its fair share down (shrinks).
        let malleable = JobRequest {
            iters_per_chunk: 4,
            work_per_iter: SimDur::from_micros(300),
            chunks: 6,
            estimate: SimDur::from_millis(10),
            ..JobRequest::malleable("stretch", SimDur::ZERO, 2, 1, 4, 6)
        };
        let spec = small_spec(vec![
            malleable,
            quick_job("r1", 3, 1),
            quick_job("r2", 3, 1),
        ]);
        let out = JobsEngine::new(spec, PolicyKind::EquiPartition).run();
        assert!(out.completed, "jobs: {:?}", out.jobs);
        let m = &out.jobs[0];
        assert!(
            m.grows > 0 && m.shrinks > 0,
            "expected both grow and shrink, widths = {:?}",
            m.widths
        );
        assert_eq!(out.reconfigurations, m.grows + m.shrinks);
        assert_eq!(
            out.metrics.counter("jobs.reconfigurations"),
            u64::from(out.reconfigurations)
        );
    }

    #[test]
    fn all_policies_complete_a_mixed_scenario() {
        for policy in PolicyKind::ALL {
            let spec = small_spec(vec![
                quick_job("w1", 0, 2),
                quick_job("w2", 1, 2),
                JobRequest {
                    iters_per_chunk: 4,
                    chunks: 2,
                    estimate: SimDur::from_millis(8),
                    ..JobRequest::malleable("m", SimDur::from_millis(1), 1, 1, 2, 2)
                },
                quick_job("w3", 4, 1),
            ]);
            let out = JobsEngine::new(spec, policy).run();
            assert!(out.completed, "{} left jobs unfinished", policy.name());
            assert_eq!(out.metrics.counter("jobs.completed"), 4);
            assert!(out.makespan > SimDur::ZERO);
        }
    }

    #[test]
    fn horizon_stops_an_unfinishable_run() {
        let spec = small_spec(vec![JobRequest {
            iters_per_chunk: 10_000,
            work_per_iter: SimDur::from_millis(10),
            ..quick_job("endless", 0, 2)
        }]);
        let out = JobsEngine::new(spec, PolicyKind::FcfsFirstFit)
            .with_horizon(SimDur::from_millis(20))
            .run();
        assert!(!out.completed);
        assert_eq!(out.metrics.gauge("jobs.unfinished"), Some(1));
        assert_eq!(out.makespan, SimDur::from_millis(20));
    }

    #[test]
    fn gangless_run_matches_itself_and_differs_in_no_daemons() {
        let spec = MultiJobSpec {
            gang: false,
            ..small_spec(vec![quick_job("a", 0, 2), quick_job("b", 0, 2)])
        };
        let out = JobsEngine::new(spec, PolicyKind::PackByPressure).run();
        assert!(out.completed);
        assert_eq!(out.metrics.counter("jobs.completed"), 2);
    }
}
