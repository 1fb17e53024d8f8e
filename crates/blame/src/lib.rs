//! Wait-state accounting and critical-path blame attribution.
//!
//! The paper's core claim is causal — OS noise hits one rank, barriers
//! amplify it across all ranks — and this crate turns that mechanism
//! into a computed artifact. It consumes only deterministic,
//! simulation-derived inputs (per-thread kernel accounts, collective
//! timing samples, per-node link counters) and produces a
//! [`BlameReport`]: per-rank wall-time decomposition with an exact-sum
//! invariant, a happens-before critical path with per-category time on
//! it, per-node rankings, and top noise/link culprits. The report's
//! canonical JSON is byte-identical at any `--sim-threads`/`--jobs`
//! because every input already is.
//!
//! ## The wait-state model
//!
//! Each rank's wall time splits into six exhaustive, mutually exclusive
//! categories, in integer nanoseconds:
//!
//! * `compute` — workload compute completed by the rank program,
//! * `coll_wait` — collective/message wait: busy-poll spin (every MPI
//!   collective and exchange wait polls),
//! * `runq_wait` — ready-queue time before dispatch (where daemon
//!   preemption and gang-stagger idle manifest),
//! * `noise` — device-interrupt debt served inside the rank's segments,
//! * `io_wait` — blocked time: blocked receives plus callout sleeps.
//!   MPI waits poll, so a rank blocks only on a GPFS reply, and its
//!   blocked time is its I/O,
//! * `overhead` — the signed residual: send/recv/context-switch costs,
//!   collective-internal reduce work, tick/IPI steal. Signed because a
//!   horizon cut can leave charged-but-unserved interference debt.
//!
//! The invariant `wall == compute + coll_wait + runq_wait + noise +
//! io_wait + overhead` holds *exactly* — it is checked by
//! [`RankAccount::check_sum`] and proptested at the workspace level.
//! Link-capacity wait is reported as a per-node overlay rather than a
//! seventh category: a link-delayed message surfaces on the receiving
//! rank as collective wait, and the per-node link counters say how much
//! of it the fabric induced.

use pa_simkit::{report, Table};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

mod path;

pub use path::{CriticalPath, OpSpan, PathNode};

/// The six-way wall-time decomposition, in integer nanoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Categories {
    /// Useful workload compute.
    pub compute_ns: u64,
    /// Barrier/collective wait: poll spin (MPI waits poll).
    pub coll_wait_ns: u64,
    /// Ready-queue (dispatch) delay.
    pub runq_wait_ns: u64,
    /// Noise-daemon preemption served as interrupt debt.
    pub noise_ns: u64,
    /// Blocked time: blocked receives (a rank's only one is a GPFS
    /// reply, since MPI waits poll) plus sleeps.
    pub io_wait_ns: u64,
    /// Signed residual: protocol and kernel overheads.
    pub overhead_ns: i64,
}

impl Categories {
    /// Exact signed sum of all six categories.
    pub fn total_ns(&self) -> i64 {
        self.unsigned_ns() as i64 + self.overhead_ns
    }

    fn unsigned_ns(&self) -> u64 {
        self.compute_ns + self.coll_wait_ns + self.runq_wait_ns + self.noise_ns + self.io_wait_ns
    }

    /// Fold another decomposition in.
    pub fn add(&mut self, other: &Categories) {
        self.compute_ns += other.compute_ns;
        self.coll_wait_ns += other.coll_wait_ns;
        self.runq_wait_ns += other.runq_wait_ns;
        self.noise_ns += other.noise_ns;
        self.io_wait_ns += other.io_wait_ns;
        self.overhead_ns += other.overhead_ns;
    }

    /// `(label, signed ns)` rows in canonical order.
    pub fn rows(&self) -> [(&'static str, i64); 6] {
        [
            ("compute", self.compute_ns as i64),
            ("coll_wait", self.coll_wait_ns as i64),
            ("runq_wait", self.runq_wait_ns as i64),
            ("noise", self.noise_ns as i64),
            ("io_wait", self.io_wait_ns as i64),
            ("overhead", self.overhead_ns),
        ]
    }
}

/// One rank's accounted wall time.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RankAccount {
    /// Global rank id.
    pub rank: u32,
    /// Node hosting the rank.
    pub node: u32,
    /// Accounted wall time (spawn to exit, or to the horizon cut).
    pub wall_ns: u64,
    /// The six-way decomposition; sums exactly to `wall_ns`.
    pub cats: Categories,
}

impl RankAccount {
    /// Verify the exact-sum invariant.
    pub fn check_sum(&self) -> Result<(), String> {
        let total = self.cats.total_ns();
        if total != self.wall_ns as i64 {
            return Err(format!(
                "rank {}: categories sum to {} ns but wall is {} ns",
                self.rank, total, self.wall_ns
            ));
        }
        Ok(())
    }
}

/// One interference thread's on-CPU usage on a node.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NoiseSource {
    /// Node the daemon/interrupt ran on.
    pub node: u32,
    /// Thread name from the noise profile.
    pub name: String,
    /// Its total on-CPU time, ns.
    pub cpu_ns: u64,
}

/// One node's fabric-contention counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinkUsage {
    /// Node whose shard charged the waits (its egress + its ingress).
    pub node: u32,
    /// Messages delayed behind a busy link.
    pub waits: u64,
    /// Total queueing delay, ns.
    pub wait_ns: u64,
}

/// Everything [`analyze`] needs about one run — all of it derived from
/// deterministic simulation state.
#[derive(Debug, Clone, Default)]
pub struct BlameInput {
    /// Section label (e.g. "fig3 59 nodes seed 1").
    pub label: String,
    /// Run wall time (makespan), ns.
    pub wall_ns: u64,
    /// Per-rank accounts.
    pub ranks: Vec<RankAccount>,
    /// Interference threads per node (noise daemons, interrupt sources).
    pub noise: Vec<NoiseSource>,
    /// Per-node link contention.
    pub links: Vec<LinkUsage>,
    /// Per-rank collective samples; empty when record-all capture was
    /// off (the critical path is then omitted).
    pub samples: Vec<OpSpan>,
    /// Accounting epoch for the critical-path head segment (job start).
    pub epoch_ns: u64,
    /// Trace-ring events lost to capacity — surfaced as a warning.
    pub dropped_events: u64,
}

/// Per-node aggregate of the rank accounts, plus the link overlay.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodeBlame {
    /// Node id.
    pub node: u32,
    /// Ranks hosted there.
    pub nranks: u32,
    /// Summed rank decompositions.
    pub cats: Categories,
    /// Summed rank wall, ns.
    pub wall_ns: u64,
    /// Link-contention overlay (zero without `--link-bandwidth`).
    pub link_waits: u64,
    /// Link queueing delay overlay, ns.
    pub link_wait_ns: u64,
}

impl NodeBlame {
    /// Ranking key: time lost to waiting (the blameworthy share).
    fn blame_ns(&self) -> u64 {
        self.cats.coll_wait_ns + self.cats.runq_wait_ns + self.cats.noise_ns
    }
}

/// One noise source's induced critical-path delay.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NoiseBlame {
    /// Node the source ran on.
    pub node: u32,
    /// Source thread name.
    pub name: String,
    /// Its on-CPU time, ns.
    pub cpu_ns: u64,
    /// Critical-path noise attributed to it: the node's on-path noise
    /// share, split across the node's sources by on-CPU weight.
    pub path_noise_ns: u64,
}

/// One analyzed run: the per-rank table, per-node ranking, critical
/// path, and culprit lists.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunBlame {
    /// Section label.
    pub label: String,
    /// Run wall time, ns.
    pub wall_ns: u64,
    /// Ranks accounted.
    pub nranks: u32,
    /// Summed decomposition across ranks.
    pub totals: Categories,
    /// Per-rank table (rank order).
    pub ranks: Vec<RankAccount>,
    /// Per-node ranking, most blameworthy first.
    pub nodes: Vec<NodeBlame>,
    /// Happens-before critical path; `None` without samples.
    pub path: Option<CriticalPath>,
    /// Noise sources ranked by induced critical-path delay (by on-CPU
    /// time when no path was extracted).
    pub noise: Vec<NoiseBlame>,
    /// Link contention ranked by induced delay.
    pub links: Vec<LinkUsage>,
    /// Non-fatal analysis warnings (e.g. dropped trace events).
    pub warnings: Vec<String>,
}

/// One job's section of a multi-job blame report.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct JobBlame {
    /// Job id (submission order).
    pub job: u32,
    /// Job name.
    pub name: String,
    /// Queue wait before first launch, ns.
    pub queue_wait_ns: u64,
    /// Rank-chunk threads accounted.
    pub nranks: u32,
    /// Summed wall across those threads, ns.
    pub wall_ns: u64,
    /// Summed decomposition.
    pub cats: Categories,
}

/// Category totals summed across the points of a campaign, merged the
/// same way scalar metrics are.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CampaignTotals {
    /// Campaign label.
    pub label: String,
    /// Points folded in.
    pub points: u64,
    /// Summed rank wall across points, ns.
    pub wall_ns: u64,
    /// Summed decomposition across points.
    pub cats: Categories,
}

/// The exported artifact: labeled run sections, per-job sections, and
/// campaign-merged totals, with a canonical-JSON encoding and a
/// human-readable rendering.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BlameReport {
    /// Report title (the figure/sweep name).
    pub title: String,
    /// Analyzed representative runs.
    pub runs: Vec<RunBlame>,
    /// Per-job sections (multi-job sweeps only).
    pub jobs: Vec<JobBlame>,
    /// Campaign-merged category totals.
    pub campaigns: Vec<CampaignTotals>,
}

/// Decompose one run: verify the per-rank invariant, aggregate per
/// node, extract the critical path, and rank the culprits.
///
/// # Panics
/// Panics if any rank violates the exact-sum invariant — that is a
/// kernel accounting bug, not an input problem.
pub fn analyze(input: &BlameInput) -> RunBlame {
    let mut totals = Categories::default();
    let mut by_node: BTreeMap<u32, NodeBlame> = BTreeMap::new();
    for r in &input.ranks {
        r.check_sum()
            .unwrap_or_else(|e| panic!("blame invariant violated: {e}"));
        totals.add(&r.cats);
        let nb = by_node.entry(r.node).or_insert(NodeBlame {
            node: r.node,
            nranks: 0,
            cats: Categories::default(),
            wall_ns: 0,
            link_waits: 0,
            link_wait_ns: 0,
        });
        nb.nranks += 1;
        nb.cats.add(&r.cats);
        nb.wall_ns += r.wall_ns;
    }
    for l in &input.links {
        if let Some(nb) = by_node.get_mut(&l.node) {
            nb.link_waits = l.waits;
            nb.link_wait_ns = l.wait_ns;
        }
    }
    let mut nodes: Vec<NodeBlame> = by_node.into_values().collect();
    nodes.sort_by(|a, b| b.blame_ns().cmp(&a.blame_ns()).then(a.node.cmp(&b.node)));

    let path = path::extract(input);
    let noise = attribute_noise(input, path.as_ref());
    let mut links: Vec<LinkUsage> = input
        .links
        .iter()
        .filter(|l| l.waits > 0)
        .copied()
        .collect();
    links.sort_by(|a, b| b.wait_ns.cmp(&a.wait_ns).then(a.node.cmp(&b.node)));

    let mut warnings = Vec::new();
    if input.dropped_events > 0 {
        warnings.push(format!(
            "trace ring dropped {} events; span exports are partial (accounting is unaffected)",
            input.dropped_events
        ));
    }

    RunBlame {
        label: input.label.clone(),
        wall_ns: input.wall_ns,
        nranks: input.ranks.len() as u32,
        totals,
        ranks: input.ranks.clone(),
        nodes,
        path,
        noise,
        links,
        warnings,
    }
}

/// Split each node's on-path noise across its interference threads by
/// on-CPU weight (integer mul/div — deterministic). Without a path,
/// fall back to ranking sources by raw on-CPU time.
fn attribute_noise(input: &BlameInput, path: Option<&CriticalPath>) -> Vec<NoiseBlame> {
    let mut node_cpu: BTreeMap<u32, u64> = BTreeMap::new();
    for s in &input.noise {
        *node_cpu.entry(s.node).or_insert(0) += s.cpu_ns;
    }
    let path_noise: BTreeMap<u32, u64> = path
        .map(|p| p.nodes.iter().map(|n| (n.node, n.cats.noise_ns)).collect())
        .unwrap_or_default();
    let mut rows: Vec<NoiseBlame> = input
        .noise
        .iter()
        .filter(|s| s.cpu_ns > 0)
        .map(|s| {
            let total = node_cpu.get(&s.node).copied().unwrap_or(0);
            let on_path = path_noise.get(&s.node).copied().unwrap_or(0);
            let attributed = if total == 0 {
                0
            } else {
                ((u128::from(on_path) * u128::from(s.cpu_ns)) / u128::from(total)) as u64
            };
            NoiseBlame {
                node: s.node,
                name: s.name.clone(),
                cpu_ns: s.cpu_ns,
                path_noise_ns: attributed,
            }
        })
        .collect();
    rows.sort_by(|a, b| {
        b.path_noise_ns
            .cmp(&a.path_noise_ns)
            .then(b.cpu_ns.cmp(&a.cpu_ns))
            .then(a.node.cmp(&b.node))
            .then(a.name.cmp(&b.name))
    });
    rows
}

impl BlameReport {
    /// Canonical JSON (struct-declaration key order, trailing newline).
    /// Byte-identical for identical runs — the CI diff target.
    pub fn to_json(&self) -> String {
        let mut s = self.to_value().to_json_string_pretty();
        s.push('\n');
        s
    }

    /// The human-readable summary tables.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("Blame report: {}\n", self.title));
        for run in &self.runs {
            out.push_str(&render_run(run));
        }
        if !self.jobs.is_empty() {
            let mut t = Table::new(
                "Per-job blame",
                &[
                    "job",
                    "name",
                    "queue ms",
                    "compute %",
                    "coll %",
                    "runq %",
                    "noise %",
                    "io %",
                ],
            );
            for j in &self.jobs {
                let w = j.wall_ns.max(1) as f64;
                t.row(&[
                    j.job.to_string(),
                    j.name.clone(),
                    report::fnum(j.queue_wait_ns as f64 / 1e6, 2),
                    pct(j.cats.compute_ns as f64, w),
                    pct(j.cats.coll_wait_ns as f64, w),
                    pct(j.cats.runq_wait_ns as f64, w),
                    pct(j.cats.noise_ns as f64, w),
                    pct(j.cats.io_wait_ns as f64, w),
                ]);
            }
            out.push_str(&t.render());
        }
        for c in &self.campaigns {
            let mut t = Table::new(
                format!("Campaign totals: {} ({} points)", c.label, c.points),
                &["category", "time ms", "% of rank wall"],
            );
            for (name, ns) in c.cats.rows() {
                t.row(&[
                    name.to_string(),
                    report::fnum(ns as f64 / 1e6, 2),
                    pct(ns as f64, c.wall_ns.max(1) as f64),
                ]);
            }
            out.push_str(&t.render());
        }
        out
    }
}

fn pct(part: f64, whole: f64) -> String {
    report::fnum(100.0 * part / whole, 1)
}

fn render_run(run: &RunBlame) -> String {
    let mut out = String::new();
    for w in &run.warnings {
        out.push_str(&format!("WARNING: {w}\n"));
    }
    let wall = (run.totals.total_ns().max(1)) as f64;
    let mut t = Table::new(
        format!(
            "{} — {} ranks, wall {} ms",
            run.label,
            run.nranks,
            report::fnum(run.wall_ns as f64 / 1e6, 2)
        ),
        &[
            "category",
            "time ms",
            "% of rank wall",
            "on critical path ms",
        ],
    );
    let path_rows: BTreeMap<&'static str, i64> = run
        .path
        .as_ref()
        .map(|p| p.on_path.rows().into_iter().collect())
        .unwrap_or_default();
    for (name, ns) in run.totals.rows() {
        t.row(&[
            name.to_string(),
            report::fnum(ns as f64 / 1e6, 2),
            pct(ns as f64, wall),
            path_rows
                .get(name)
                .map_or_else(|| "-".into(), |&p| report::fnum(p as f64 / 1e6, 3)),
        ]);
    }
    out.push_str(&t.render());
    if let Some(p) = &run.path {
        out.push_str(&format!(
            "critical path: {} ops, span {} ms, release cascade {} ms\n",
            p.ops,
            report::fnum(p.span_ns as f64 / 1e6, 3),
            report::fnum(p.coll_release_ns as f64 / 1e6, 3),
        ));
    }
    let mut t = Table::new(
        "Most blamed nodes",
        &[
            "node",
            "ranks",
            "coll %",
            "runq %",
            "noise %",
            "link-wait ms",
        ],
    );
    for nb in run.nodes.iter().take(8) {
        let w = nb.wall_ns.max(1) as f64;
        t.row(&[
            nb.node.to_string(),
            nb.nranks.to_string(),
            pct(nb.cats.coll_wait_ns as f64, w),
            pct(nb.cats.runq_wait_ns as f64, w),
            pct(nb.cats.noise_ns as f64, w),
            report::fnum(nb.link_wait_ns as f64 / 1e6, 3),
        ]);
    }
    out.push_str(&t.render());
    if !run.noise.is_empty() {
        let mut t = Table::new(
            "Top noise sources",
            &["node", "source", "cpu ms", "induced path delay ms"],
        );
        for s in run.noise.iter().take(8) {
            t.row(&[
                s.node.to_string(),
                s.name.clone(),
                report::fnum(s.cpu_ns as f64 / 1e6, 3),
                report::fnum(s.path_noise_ns as f64 / 1e6, 3),
            ]);
        }
        out.push_str(&t.render());
    }
    if !run.links.is_empty() {
        let mut t = Table::new("Top contended links", &["node", "delayed msgs", "wait ms"]);
        for l in run.links.iter().take(8) {
            t.row(&[
                l.node.to_string(),
                l.waits.to_string(),
                report::fnum(l.wait_ns as f64 / 1e6, 3),
            ]);
        }
        out.push_str(&t.render());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn acct(rank: u32, node: u32, cats: Categories) -> RankAccount {
        RankAccount {
            rank,
            node,
            wall_ns: cats.total_ns() as u64,
            cats,
        }
    }

    #[test]
    fn sum_invariant_is_enforced() {
        let good = acct(
            0,
            0,
            Categories {
                compute_ns: 70,
                coll_wait_ns: 20,
                runq_wait_ns: 5,
                noise_ns: 3,
                io_wait_ns: 1,
                overhead_ns: 1,
            },
        );
        assert!(good.check_sum().is_ok());
        let bad = RankAccount {
            wall_ns: good.wall_ns + 1,
            ..good
        };
        assert!(bad.check_sum().is_err());
    }

    #[test]
    fn negative_overhead_still_sums() {
        // Horizon cut: charged-but-unserved debt makes the residual
        // negative; the invariant must stay exact, not saturate.
        let cats = Categories {
            compute_ns: 100,
            coll_wait_ns: 0,
            runq_wait_ns: 0,
            noise_ns: 30,
            io_wait_ns: 0,
            overhead_ns: -20,
        };
        assert_eq!(cats.total_ns(), 110);
        let r = RankAccount {
            rank: 0,
            node: 0,
            wall_ns: 110,
            cats,
        };
        assert!(r.check_sum().is_ok());
    }

    #[test]
    fn analyze_ranks_nodes_by_wait_share() {
        let quiet = Categories {
            compute_ns: 90,
            coll_wait_ns: 10,
            ..Categories::default()
        };
        let noisy = Categories {
            compute_ns: 40,
            coll_wait_ns: 40,
            noise_ns: 20,
            ..Categories::default()
        };
        let input = BlameInput {
            label: "t".into(),
            wall_ns: 100,
            ranks: vec![acct(0, 0, quiet), acct(1, 1, noisy)],
            noise: vec![NoiseSource {
                node: 1,
                name: "cron".into(),
                cpu_ns: 20,
            }],
            ..BlameInput::default()
        };
        let run = analyze(&input);
        assert_eq!(run.nranks, 2);
        assert_eq!(run.nodes[0].node, 1, "noisy node must rank first");
        assert_eq!(run.totals.compute_ns, 130);
        assert!(run.path.is_none(), "no samples, no path");
        assert_eq!(run.noise[0].name, "cron");
        assert!(run.warnings.is_empty());
        let report = BlameReport {
            title: "t".into(),
            runs: vec![run],
            ..BlameReport::default()
        };
        let json = report.to_json();
        assert!(json.ends_with('\n'));
        assert!(json.contains("\"coll_wait_ns\""));
        assert!(!report.render().is_empty());
    }

    #[test]
    fn dropped_events_surface_as_warning() {
        let input = BlameInput {
            label: "t".into(),
            dropped_events: 7,
            ..BlameInput::default()
        };
        let run = analyze(&input);
        assert_eq!(run.warnings.len(), 1);
        assert!(run.warnings[0].contains("dropped 7 events"));
        let report = BlameReport {
            title: "t".into(),
            runs: vec![run],
            ..BlameReport::default()
        };
        assert!(report.render().contains("WARNING"));
    }

    #[test]
    #[should_panic(expected = "blame invariant violated")]
    fn analyze_rejects_broken_accounts() {
        let input = BlameInput {
            label: "t".into(),
            ranks: vec![RankAccount {
                rank: 0,
                node: 0,
                wall_ns: 5,
                cats: Categories::default(),
            }],
            ..BlameInput::default()
        };
        let _ = analyze(&input);
    }
}
