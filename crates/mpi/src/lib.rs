//! # pa-mpi — the MPI-like runtime on the PACE simulator
//!
//! Implements the message-passing layer the study's benchmarks exercise:
//!
//! * [`coll`] — the Allreduce's real communication schedule (the
//!   paper's binomial "standard tree");
//! * [`RankProgram`] / [`RankWorkload`] — MPI ranks as kernel threads that
//!   busy-poll their receives (IBM MPI user-space polling) and register
//!   with the node co-scheduler through the control pipe (§4);
//! * [`ProgressThread`] — the 400 ms MPI timer threads §5.3 identifies as
//!   a residual interference source, with the `MP_POLLING_INTERVAL`
//!   mitigation;
//! * [`RunRecorder`] — per-operation timing capture (mean per-task times
//!   for Figures 3/5/6, per-call series for Figure 4);
//! * [`install_job`] — POE-style job start on nodes of a
//!   [`ClusterSim`](pa_cluster::ClusterSim), before boot or at a window
//!   barrier, with a write-once [`JobLayout`] the caller freezes
//!   ([`Job::freeze_layout`]) before the ranks run.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod coll;
pub mod job;
pub mod layout;
pub mod progress;
pub mod rank;
pub mod recorder;
pub mod tags;

pub use coll::CollStep;
pub use job::{install_job, Job, JobSpec};
pub use layout::{JobLayout, LayoutHandle};
pub use progress::{ProgressSpec, ProgressThread};
pub use rank::{MpiOp, OpList, RankProgram, RankWorkload};
pub use recorder::{OpAgg, OpKind, OpSample, RecorderHandle, RunRecorder};
pub use tags::CtrlOp;
