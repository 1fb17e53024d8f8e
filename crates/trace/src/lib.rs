//! # pa-trace — AIX-trace-style event tracing for the PACE simulator
//!
//! The SC'03 study's methodology (§5.2) leans on the AIX `trace` facility:
//! hook-selectable kernel event records, application-written markers, and
//! post-hoc analysis of "what else ran during this Allreduce". This crate
//! reproduces that tooling for the simulated cluster:
//!
//! * [`HookId`] / [`HookMask`] — the event vocabulary and enable masks;
//! * [`TraceBuffer`] — a bounded per-node ring of [`TraceEvent`] records
//!   plus the thread-name/class registry;
//! * [`CpuTimeline`] / [`AttributionReport`] — occupancy reconstruction and
//!   the outlier culprit analysis used for Figure 4.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod attribution;
pub mod buffer;
pub mod hooks;

pub use attribution::{AttributionReport, CpuTimeline, Culprit, Segment};
pub use buffer::{TraceBuffer, TraceEvent};
pub use hooks::{HookId, HookMask, ThreadClass};
