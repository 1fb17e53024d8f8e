//! # pa-workloads — benchmarks, applications, and experiment drivers
//!
//! The workloads the SC'03 study measured, plus one driver per figure and
//! table of §5:
//!
//! * [`AggregateTrace`] — the `aggregate_trace.c` synthetic benchmark
//!   (loops of Allreduce calls with trace markers every 64th call);
//! * [`Ale3d`] — the ALE3D proxy: BSP timesteps of jittered compute,
//!   3-D halo exchange, global reductions, and GPFS-routed I/O phases;
//! * [`figures`] — Figures 3/5 scaling sweeps, the Figure 6 line fits,
//!   and the Figure 4 outlier/attribution study;
//! * [`tables`] — 15-vs-16 tasks, MPI timer threads, the ALE3D runs, the
//!   mechanism ablation, and the duty-cycle sensitivity sweep;
//! * [`illustrations`] — the Figure 1 overlap measurement and Figure 2
//!   BSP phase breakdown;
//! * [`multi_job`] — the batch-layer sweep: one job stream under several
//!   `pa-jobs` placement policies, compared on makespan/wait/utilization;
//! * [`oversub`] — the oversubscribed multi-runtime gang scenario: every
//!   dispatcher policy, gang coordinators off and on, on one node;
//! * [`overlap`] / [`audit`] — the underlying trace analyses.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod aggregate;
pub mod ale3d;
pub mod audit;
pub mod figures;
pub mod illustrations;
pub mod multi_job;
pub mod overlap;
pub mod oversub;
pub mod tables;

pub use aggregate::{AggregateSpec, AggregateTrace};
pub use ale3d::{grid3d_neighbors, Ale3d, Ale3dSpec};
pub use audit::{audit_node, audit_node_timeline, AuditResult, AuditRow};
pub use figures::{
    aggregate_runner, campaign_blame_totals, collect_scale_points, fig4, fig4_with_output, fig6,
    run_blame_point, run_one, run_point_with, run_scaling_campaign, Fig4Config, Fig4Result,
    Fig6Result, ScalePoint, ScalingConfig,
};
pub use illustrations::{fig1, fig2, BspRankRow, Fig1Result};
pub use multi_job::{
    batch_point, batch_scenario, multi_job_runner, policy_comparison, run_batch_point, BatchScale,
    PolicyRow,
};
pub use overlap::{green_fraction, red_touch_fraction};
pub use oversub::{oversub_comparison, run_oversub, OversubRow, OversubSpec};
pub use tables::{
    duty_cycle_sweep, run_ale3d, tab_15v16, tab_ablation, tab_ale3d, tab_ale3d_io, tab_timer,
    AleMode, AleRow, LabeledRow, T15v16Result, TimerResult,
};
