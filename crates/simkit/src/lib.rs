//! # pa-simkit — deterministic discrete-event simulation kit
//!
//! Foundation crate for the PACE reproduction of *"Improving the Scalability
//! of Parallel Jobs by adding Parallel Awareness to the Operating System"*
//! (Jones et al., SC'03).
//!
//! Provides the pieces every higher layer builds on:
//!
//! * [`SimTime`] / [`SimDur`] — nanosecond-resolution simulation time;
//! * [`EventQueue`] — a deterministic event calendar with keyed timers;
//! * [`SeedSpace`] / [`SimRng`] — per-component reproducible RNG streams;
//! * [`stats`] — Welford accumulators, summaries, percentiles, OLS fits;
//! * [`report`] — the aligned text table the figure harnesses print.
//!
//! The crate is intentionally free of any OS- or MPI-specific notions: it
//! knows nothing about CPUs, daemons, or collectives.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod events;
pub mod hash;
pub mod report;
pub mod rng;
pub mod stats;
pub mod time;

pub use events::{EventQueue, QueueStats};
pub use hash::{sha256_hex, Sha256};
pub use report::Table;
pub use rng::{RngState, SeedSpace, SimRng};
pub use stats::{linfit, LineFit, OnlineStats, Summary};
pub use time::{SimDur, SimTime};
