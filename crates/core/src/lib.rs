//! # pa-core — parallel-aware co-scheduling (the paper's contribution)
//!
//! The PACE reproduction of *"Improving the Scalability of Parallel Jobs
//! by adding Parallel Awareness to the Operating System"* (Jones et al.,
//! SC'03). This crate is the paper's system proper, built on the
//! simulated substrates (`pa-kernel`, `pa-cluster`, `pa-mpi`, `pa-noise`):
//!
//! * [`CoschedParams`] / [`CoschedDaemon`] — the POE-style co-scheduler:
//!   per-node priority cycling between favored and unfavored windows,
//!   second-boundary alignment over the switch-synchronized clock,
//!   control-pipe task registration, and the attach/detach escape hatch
//!   for I/O phases (§4);
//! * [`AdminTable`] — the `/etc/poe.priority` administrative interface
//!   and `MP_PRIORITY` request flow;
//! * kernel parallel-awareness options re-exported from `pa-kernel`:
//!   [`SchedOptions::vanilla`] (stock AIX) vs [`SchedOptions::prototype`]
//!   (big ticks, simultaneous ticks, improved RT preemption, global
//!   daemon queue — §3);
//! * [`Experiment`] — the façade that assembles a full study-style run.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod admin;
pub mod cosched;
pub mod experiment;
pub mod observe;
pub mod schedtune;

pub use admin::{AdminTable, PriorityGrant, PriorityRecord};
pub use cosched::{CoschedDaemon, CoschedParams};
pub use experiment::{CoschedSetup, Experiment, RunOutput};
pub use observe::{
    blame_input_of, blame_of, blame_totals, metrics_of, rank_categories, timeline_from_trace,
    timeline_of,
};
pub use schedtune::{render as schedtune_render, schedtune};

// The two kernels the paper compares, re-exported for discoverability.
pub use pa_kernel::SchedOptions;
