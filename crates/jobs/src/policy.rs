//! Space-sharing placement and queueing policies.
//!
//! A policy is a pure function from a [`SchedView`] — the queue in
//! canonical order plus per-node occupancy — to a set of launch
//! decisions, and (for malleable jobs) a target width at reconfiguration
//! points. Keeping policies free of engine state makes them unit-testable
//! and trivially deterministic: the engine always presents the view in
//! the same canonical order, so identical views yield identical
//! decisions.

use pa_simkit::{SimDur, SimTime};
use serde::{Deserialize, Serialize};

/// The shipped placement/queueing policies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PolicyKind {
    /// Strict arrival order with head-of-line blocking; lowest-numbered
    /// free nodes first. The LoadLeveler-style baseline.
    FcfsFirstFit,
    /// EASY backfill: FCFS head reservation, later jobs may jump the
    /// queue if they fit in the spare nodes or finish (per their own
    /// estimate) before the head's shadow time.
    Backfill,
    /// Greedy fit in queue order (no head-of-line blocking), placing each
    /// job on the nodes with the least accumulated busy time — spreading
    /// cache and scheduler pressure instead of packing low node ids.
    PackByPressure,
    /// Like `PackByPressure` for placement, but drives malleable jobs
    /// toward an equal share of the cluster (`nodes / active jobs`) at
    /// every reconfiguration point — the policy that exercises both grow
    /// and shrink.
    EquiPartition,
}

impl PolicyKind {
    /// All shipped policies, in comparison-table order.
    pub const ALL: [PolicyKind; 4] = [
        PolicyKind::FcfsFirstFit,
        PolicyKind::Backfill,
        PolicyKind::PackByPressure,
        PolicyKind::EquiPartition,
    ];

    /// Stable CLI / metrics name.
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::FcfsFirstFit => "fcfs",
            PolicyKind::Backfill => "backfill",
            PolicyKind::PackByPressure => "pack",
            PolicyKind::EquiPartition => "equi",
        }
    }

    /// Parse a CLI name, naming the offending value on failure.
    pub fn parse(s: &str) -> Result<PolicyKind, String> {
        PolicyKind::ALL
            .into_iter()
            .find(|p| p.name() == s)
            .ok_or_else(|| {
                let names: Vec<&str> = PolicyKind::ALL.iter().map(|p| p.name()).collect();
                format!("unknown policy {s:?}, expected one of {}", names.join(", "))
            })
    }
}

/// A queued (not yet running) job, as the policy sees it.
#[derive(Debug, Clone)]
pub struct QueuedJob {
    /// Engine job id (submission index).
    pub id: u32,
    /// Width the job wants at launch.
    pub nodes: u32,
    /// Malleable lower bound.
    pub min_nodes: u32,
    /// Malleable upper bound.
    pub max_nodes: u32,
    /// User runtime estimate (backfill shadow input).
    pub estimate: SimDur,
}

/// A running job, as the policy sees it.
#[derive(Debug, Clone)]
pub struct RunningJob {
    /// Engine job id.
    pub id: u32,
    /// Nodes currently occupied.
    pub width: u32,
    /// Launch time plus the user estimate — when backfill may assume the
    /// nodes come back. Estimates are advisory; the engine never kills an
    /// overrunning job.
    pub est_end: SimTime,
    /// Whether this job can be resized at its next chunk boundary.
    pub malleable: bool,
}

/// Scheduler-visible cluster state at one decision instant.
///
/// `queue` is already in canonical order (priority desc, submit asc, id
/// asc) and `free`/`busy_time` are indexed by physical node id, so every
/// policy decision is a deterministic fold over this struct.
#[derive(Debug)]
pub struct SchedView {
    /// Decision instant.
    pub now: SimTime,
    /// Per-node: is the node unoccupied?
    pub free: Vec<bool>,
    /// Per-node accumulated occupied time (pressure proxy).
    pub busy_time: Vec<SimDur>,
    /// Waiting jobs in canonical order.
    pub queue: Vec<QueuedJob>,
    /// Running jobs in launch order.
    pub running: Vec<RunningJob>,
}

impl SchedView {
    fn free_count(&self) -> u32 {
        self.free.iter().filter(|f| **f).count() as u32
    }

    /// Lowest-numbered `n` free nodes.
    fn first_fit(&self, n: u32) -> Option<Vec<u32>> {
        let picked: Vec<u32> = self
            .free
            .iter()
            .enumerate()
            .filter(|(_, f)| **f)
            .map(|(i, _)| i as u32)
            .take(n as usize)
            .collect();
        (picked.len() == n as usize).then_some(picked)
    }

    /// `n` free nodes with the least accumulated busy time (ties broken
    /// by node id — canonical).
    fn coolest_fit(&self, n: u32) -> Option<Vec<u32>> {
        let mut frees: Vec<u32> = self
            .free
            .iter()
            .enumerate()
            .filter(|(_, f)| **f)
            .map(|(i, _)| i as u32)
            .collect();
        if frees.len() < n as usize {
            return None;
        }
        frees.sort_by_key(|&i| (self.busy_time[i as usize], i));
        frees.truncate(n as usize);
        frees.sort_unstable();
        Some(frees)
    }

    /// Earliest instant at which `need` nodes are simultaneously free,
    /// trusting the running jobs' estimates (EASY shadow time). Also
    /// returns the node surplus available *before* that instant.
    fn shadow(&self, need: u32) -> (SimTime, u32) {
        let mut avail = self.free_count();
        if avail >= need {
            return (self.now, avail - need);
        }
        let mut ends: Vec<&RunningJob> = self.running.iter().collect();
        ends.sort_by_key(|r| (r.est_end, r.id));
        for r in &ends {
            avail += r.width;
            if avail >= need {
                return (r.est_end.max(self.now), avail - need);
            }
        }
        // Queue head wider than the whole machine is rejected by
        // validation, so this is unreachable with a validated spec.
        (SimTime::ZERO + SimDur::from_nanos(u64::MAX), 0)
    }
}

/// One launch decision: start queue entry `job` on `nodes`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Launch {
    /// Engine job id.
    pub job: u32,
    /// Width granted at launch.
    pub width: u32,
    /// Physical nodes granted (sorted ascending).
    pub nodes: Vec<u32>,
}

fn clamp_width(want: u32, min: u32, max: u32) -> u32 {
    want.clamp(min, max)
}

/// Fair share for `active` jobs on a `total`-node machine (at least 1).
fn fair_share(total: u32, active: u32) -> u32 {
    total.checked_div(active).map_or(total, |w| w.max(1))
}

impl PolicyKind {
    /// Launch decisions for one scheduling pass. The returned launches
    /// are disjoint and already accounted against `view`'s free set.
    pub fn place(self, view: &SchedView) -> Vec<Launch> {
        let mut free = view.free.clone();
        let mut launches = Vec::new();
        let claim = |nodes: &[u32], free: &mut Vec<bool>| {
            for &n in nodes {
                debug_assert!(free[n as usize]);
                free[n as usize] = false;
            }
        };
        match self {
            PolicyKind::FcfsFirstFit => {
                for q in &view.queue {
                    let v = SchedView {
                        free: free.clone(),
                        busy_time: view.busy_time.clone(),
                        queue: Vec::new(),
                        running: Vec::new(),
                        now: view.now,
                    };
                    match v.first_fit(q.nodes) {
                        Some(nodes) => {
                            claim(&nodes, &mut free);
                            launches.push(Launch {
                                job: q.id,
                                width: q.nodes,
                                nodes,
                            });
                        }
                        None => break, // head-of-line blocking
                    }
                }
            }
            PolicyKind::Backfill => {
                let mut queue = view.queue.iter();
                // Serve the head(s) strictly FCFS while they fit.
                let mut blocked: Option<&QueuedJob> = None;
                for q in queue.by_ref() {
                    let v = SchedView {
                        free: free.clone(),
                        busy_time: view.busy_time.clone(),
                        queue: Vec::new(),
                        running: Vec::new(),
                        now: view.now,
                    };
                    match v.first_fit(q.nodes) {
                        Some(nodes) => {
                            claim(&nodes, &mut free);
                            launches.push(Launch {
                                job: q.id,
                                width: q.nodes,
                                nodes,
                            });
                        }
                        None => {
                            blocked = Some(q);
                            break;
                        }
                    }
                }
                // EASY: reserve the head's shadow; backfill later jobs
                // that either fit in the surplus or finish before it.
                if let Some(head) = blocked {
                    let shadow_view = SchedView {
                        free: free.clone(),
                        busy_time: view.busy_time.clone(),
                        queue: Vec::new(),
                        running: view.running.clone(),
                        now: view.now,
                    };
                    let (shadow, spare) = shadow_view.shadow(head.nodes);
                    for q in queue {
                        let fits_now = SchedView {
                            free: free.clone(),
                            busy_time: view.busy_time.clone(),
                            queue: Vec::new(),
                            running: Vec::new(),
                            now: view.now,
                        }
                        .first_fit(q.nodes);
                        let Some(nodes) = fits_now else { continue };
                        let ends_in_time = view.now + q.estimate <= shadow;
                        let within_spare = q.nodes <= spare;
                        if ends_in_time || within_spare {
                            claim(&nodes, &mut free);
                            launches.push(Launch {
                                job: q.id,
                                width: q.nodes,
                                nodes,
                            });
                        }
                    }
                }
            }
            PolicyKind::PackByPressure | PolicyKind::EquiPartition => {
                let total = view.free.len() as u32;
                // Active = running + still-queued jobs ahead of this one.
                let active = (view.running.len() + view.queue.len()) as u32;
                for q in &view.queue {
                    let width = if self == PolicyKind::EquiPartition {
                        clamp_width(fair_share(total, active), q.min_nodes, q.max_nodes)
                    } else {
                        q.nodes
                    };
                    let v = SchedView {
                        free: free.clone(),
                        busy_time: view.busy_time.clone(),
                        queue: Vec::new(),
                        running: Vec::new(),
                        now: view.now,
                    };
                    if let Some(nodes) = v.coolest_fit(width) {
                        claim(&nodes, &mut free);
                        launches.push(Launch {
                            job: q.id,
                            width,
                            nodes,
                        });
                    }
                    // greedy fit: a blocked job does not block the rest
                }
            }
        }
        launches
    }

    /// Target width for a malleable `running` job at a chunk boundary.
    /// `queued_demand` is the number of jobs still waiting.
    pub fn resize(self, view: &SchedView, job: &RunningJob, min: u32, max: u32) -> u32 {
        match self {
            // Only equipartition reshapes running jobs; the others keep
            // the launch width for the job's whole lifetime.
            PolicyKind::FcfsFirstFit | PolicyKind::Backfill | PolicyKind::PackByPressure => {
                job.width
            }
            PolicyKind::EquiPartition => {
                let total = view.free.len() as u32;
                let active = (view.running.len() + view.queue.len()).max(1) as u32;
                clamp_width(fair_share(total, active), min, max)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(id: u32, nodes: u32, est_ms: u64) -> QueuedJob {
        QueuedJob {
            id,
            nodes,
            min_nodes: nodes,
            max_nodes: nodes,
            estimate: SimDur::from_millis(est_ms),
        }
    }

    fn view(free: &[bool]) -> SchedView {
        SchedView {
            now: SimTime::ZERO + SimDur::from_millis(1),
            free: free.to_vec(),
            busy_time: vec![SimDur::ZERO; free.len()],
            queue: Vec::new(),
            running: Vec::new(),
        }
    }

    #[test]
    fn policy_names_roundtrip() {
        for p in PolicyKind::ALL {
            assert_eq!(PolicyKind::parse(p.name()).unwrap(), p);
        }
        let err = PolicyKind::parse("sjf").unwrap_err();
        assert!(err.contains("\"sjf\"") && err.contains("fcfs"), "{err}");
    }

    #[test]
    fn fcfs_blocks_behind_wide_head() {
        let mut v = view(&[true, true, false, false]);
        v.queue = vec![q(0, 3, 10), q(1, 1, 10)];
        let launches = PolicyKind::FcfsFirstFit.place(&v);
        assert!(
            launches.is_empty(),
            "head needs 3 of 2 free nodes; FCFS must block everyone: {launches:?}"
        );
    }

    #[test]
    fn fcfs_takes_lowest_free_nodes() {
        let mut v = view(&[false, true, true, true]);
        v.queue = vec![q(0, 2, 10)];
        let launches = PolicyKind::FcfsFirstFit.place(&v);
        assert_eq!(launches.len(), 1);
        assert_eq!(launches[0].nodes, vec![1, 2]);
    }

    #[test]
    fn backfill_jumps_short_job_past_blocked_head() {
        // 2 free nodes; head wants 4, freed at t=20ms by the running job.
        // A 1-node job estimating 5ms ends before the shadow — backfill it.
        let mut v = view(&[true, true, false, false]);
        v.queue = vec![q(0, 4, 10), q(1, 1, 5)];
        v.running = vec![RunningJob {
            id: 9,
            width: 2,
            est_end: SimTime::ZERO + SimDur::from_millis(20),
            malleable: false,
        }];
        let launches = PolicyKind::Backfill.place(&v);
        assert_eq!(launches.len(), 1, "{launches:?}");
        assert_eq!(launches[0].job, 1);
    }

    #[test]
    fn backfill_respects_shadow_reservation() {
        // Same as above but the backfill candidate estimates 50ms: it
        // would overrun the head's shadow and is wider than the spare
        // (shadow leaves 0 spare) — must NOT start.
        let mut v = view(&[true, true, false, false]);
        v.queue = vec![q(0, 4, 10), q(1, 1, 50)];
        v.running = vec![RunningJob {
            id: 9,
            width: 2,
            est_end: SimTime::ZERO + SimDur::from_millis(20),
            malleable: false,
        }];
        let launches = PolicyKind::Backfill.place(&v);
        assert!(launches.is_empty(), "{launches:?}");
    }

    #[test]
    fn pack_prefers_cool_nodes_and_skips_blocked() {
        let mut v = view(&[true, true, true, false]);
        v.busy_time = vec![
            SimDur::from_millis(9),
            SimDur::from_millis(1),
            SimDur::from_millis(5),
            SimDur::ZERO,
        ];
        v.queue = vec![q(0, 2, 10), q(1, 4, 10), q(2, 1, 10)];
        let launches = PolicyKind::PackByPressure.place(&v);
        // Job 0 takes the two coolest free nodes (1, 2); job 1 cannot fit
        // and is skipped; job 2 takes the remaining node 0.
        assert_eq!(launches.len(), 2, "{launches:?}");
        assert_eq!(launches[0].nodes, vec![1, 2]);
        assert_eq!(launches[1].job, 2);
        assert_eq!(launches[1].nodes, vec![0]);
    }

    #[test]
    fn equipartition_launches_at_fair_share() {
        // 8 nodes, 2 active jobs -> fair share 4; the malleable job asked
        // for 2 but accepts [1, 8], so it launches at 4.
        let mut v = view(&[true; 8]);
        v.queue = vec![QueuedJob {
            id: 0,
            nodes: 2,
            min_nodes: 1,
            max_nodes: 8,
            estimate: SimDur::from_millis(10),
        }];
        v.running = vec![RunningJob {
            id: 9,
            width: 0, // width irrelevant here
            est_end: SimTime::ZERO,
            malleable: true,
        }];
        let launches = PolicyKind::EquiPartition.place(&v);
        assert_eq!(launches.len(), 1);
        assert_eq!(launches[0].width, 4);
    }

    #[test]
    fn equipartition_resize_tracks_active_jobs() {
        let running = RunningJob {
            id: 0,
            width: 2,
            est_end: SimTime::ZERO,
            malleable: true,
        };
        // Alone on 8 nodes: grow to max.
        let mut v = view(&[true; 8]);
        v.running = vec![running.clone()];
        assert_eq!(PolicyKind::EquiPartition.resize(&v, &running, 1, 6), 6);
        // Three other active jobs: shrink toward 8/4 = 2.
        v.queue = vec![q(1, 2, 10), q(2, 2, 10), q(3, 2, 10)];
        assert_eq!(PolicyKind::EquiPartition.resize(&v, &running, 1, 6), 2);
        // Rigid policies never resize.
        assert_eq!(PolicyKind::FcfsFirstFit.resize(&v, &running, 1, 6), 2);
    }
}
