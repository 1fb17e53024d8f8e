//! `pa-jobs` — the cluster batch layer.
//!
//! The lower crates model one parallel job on one set of nodes. This
//! crate adds the piece the paper's evaluation presumes but never
//! simulates: a *batch system* feeding the machine. It contributes:
//!
//! - **A deterministic submission queue** ([`spec`]): jobs arrive at
//!   simulated instants with widths, runtimes, priorities, and runtime
//!   estimates, validated with named-value errors.
//! - **Space-sharing placement** ([`policy`]): pluggable policies carve
//!   node sets out of the cluster — FCFS first-fit, EASY backfill,
//!   pack-by-pressure, and hierarchical equipartition.
//! - **Per-job gang scheduling** ([`engine`]): each launched job gets
//!   its own co-scheduler daemons on its nodes, extending the single-job
//!   window machinery to multiple concurrent jobs, with optional phase
//!   stagger between co-resident jobs.
//! - **Malleable jobs** ([`workload`], [`engine`]): a job is a sequence
//!   of chunks; at chunk boundaries (barrier-aligned reconfiguration
//!   points) the policy may grow or shrink the job's node set.
//!
//! Everything is decided at simulation window barriers from canonically
//! ordered state, so histories, metrics, and traces are bit-identical at
//! any `--jobs` setting.

pub mod engine;
pub mod policy;
pub mod spec;
pub mod workload;

pub use engine::{JobStats, JobsEngine, JobsOutcome};
pub use policy::{Launch, PolicyKind, QueuedJob, RunningJob, SchedView};
pub use spec::{JobRequest, MultiJobSpec};
pub use workload::ChunkWorkload;
