//! # pa-noise — system-software interference models
//!
//! The daemon zoo, cron job, interrupt handlers, and GPFS service loop
//! that the SC'03 study observed stealing CPUs from MPI ranks (§2, §5.3),
//! as [`Program`](pa_kernel::Program)s for the simulated kernel:
//!
//! * [`DaemonSpec`] / [`DaemonProgram`] — periodic daemons (syncd, hatsd,
//!   mld, LoadL_startd, ...) with lognormal bursts and page-fault
//!   inflation;
//! * [`CronSpec`] / [`CronJob`] — the 15-minute health-check job whose
//!   600 ms of priority-56 components caused the worst Figure-4 outlier;
//! * [`GpfsServer`] — mmfsd as the message-served I/O server that every
//!   rank's reads and writes wait on, with its
//!   [`IoServiceModel`](gpfs::IoServiceModel) (the §5.3 ALE3D starvation
//!   mechanism);
//! * [`NoiseProfile`] — calibrated bundles (`production`, `dedicated`,
//!   `silent`) installable on a node in one call.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cron;
pub mod daemons;
pub mod gpfs;
pub mod profile;

pub use cron::{CronJob, CronSpec};
pub use daemons::{DaemonProgram, DaemonSpec};
pub use gpfs::GpfsServer;
pub use profile::{InstalledNoise, InterruptDesc, NoiseProfile};
