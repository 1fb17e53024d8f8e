//! Trace hook identifiers and thread classification.
//!
//! AIX `trace` records kernel events tagged with *hook ids*; the study in
//! §5 of the paper enabled a specific set of hooks plus event records
//! written by the `aggregate` benchmark itself. This module defines the
//! equivalent vocabulary for the simulator.

use serde::{Deserialize, Serialize};

/// What kind of event a trace record describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum HookId {
    /// A thread was placed on a CPU.
    Dispatch,
    /// A thread left a CPU (blocked, preempted, or exited).
    Undispatch,
    /// Periodic timer ("decrementer") interrupt processed on a CPU.
    Tick,
    /// Inter-processor interrupt delivered (preemption request).
    Ipi,
    /// A message was handed to the fabric.
    MsgSend,
    /// A message was consumed by its destination thread.
    MsgRecv,
    /// A thread's priority was changed (aux = new priority).
    PrioChange,
    /// A page fault inflated a burst (aux = extra nanoseconds).
    PageFault,
    /// Application marker written by the workload (e.g. every 64th
    /// Allreduce in `aggregate_trace`); aux = marker value.
    AppMarker,
    /// A collective operation began on this rank (aux = sequence number).
    CollBegin,
    /// A collective operation completed on this rank (aux = sequence number).
    CollEnd,
}

impl HookId {
    /// All hook ids, for building enable masks.
    pub const ALL: [HookId; 11] = [
        HookId::Dispatch,
        HookId::Undispatch,
        HookId::Tick,
        HookId::Ipi,
        HookId::MsgSend,
        HookId::MsgRecv,
        HookId::PrioChange,
        HookId::PageFault,
        HookId::AppMarker,
        HookId::CollBegin,
        HookId::CollEnd,
    ];

    /// Stable small index for bitmask use.
    pub fn index(self) -> usize {
        match self {
            HookId::Dispatch => 0,
            HookId::Undispatch => 1,
            HookId::Tick => 2,
            HookId::Ipi => 3,
            HookId::MsgSend => 4,
            HookId::MsgRecv => 5,
            HookId::PrioChange => 6,
            HookId::PageFault => 7,
            HookId::AppMarker => 8,
            HookId::CollBegin => 9,
            HookId::CollEnd => 10,
        }
    }
}

/// Coarse classification of a schedulable entity, used by the attribution
/// reports ("what stole the CPU during this Allreduce?").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ThreadClass {
    /// A task of the parallel application (an MPI rank).
    App,
    /// An MPI auxiliary/progress ("timer") thread.
    MpiAux,
    /// A system daemon (syncd, mmfsd, hatsd, ...).
    Daemon,
    /// A transient interrupt-handler-like activity (caddpin, phxentdd).
    Interrupt,
    /// Components of the periodic administrative cron job.
    Cron,
    /// The co-scheduler daemon itself.
    Cosched,
    /// Kernel-internal bookkeeping (idle loop shows up as this).
    Kernel,
}

impl ThreadClass {
    /// True for the classes the paper counts as *interference* to the
    /// parallel job (everything that is not the application itself).
    pub fn is_interference(self) -> bool {
        !matches!(self, ThreadClass::App | ThreadClass::Kernel)
    }
}

/// Set of enabled hooks (AIX lets the operator enable hook subsets; the
/// study enabled tracing "only during the time that the loop of calls to
/// MPI_Allreduce was active").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HookMask(u32);

impl HookMask {
    /// No hooks enabled.
    pub const NONE: HookMask = HookMask(0);
    /// Every hook enabled.
    pub const ALL: HookMask = HookMask((1 << 11) - 1);

    /// Mask with exactly the given hooks.
    pub fn of(hooks: &[HookId]) -> HookMask {
        let mut m = 0u32;
        for h in hooks {
            m |= 1 << h.index();
        }
        HookMask(m)
    }

    /// The hooks the §5 methodology used: dispatching, ticks, IPIs and the
    /// application's own markers.
    pub fn study() -> HookMask {
        HookMask::of(&[
            HookId::Dispatch,
            HookId::Undispatch,
            HookId::Tick,
            HookId::Ipi,
            HookId::AppMarker,
            HookId::CollBegin,
            HookId::CollEnd,
            HookId::PageFault,
            HookId::PrioChange,
        ])
    }

    /// Is `hook` enabled?
    pub fn contains(self, hook: HookId) -> bool {
        self.0 & (1 << hook.index()) != 0
    }

    /// Enable `hook` in a copy of the mask.
    pub fn with(self, hook: HookId) -> HookMask {
        HookMask(self.0 | (1 << hook.index()))
    }

    /// Disable `hook` in a copy of the mask.
    pub fn without(self, hook: HookId) -> HookMask {
        HookMask(self.0 & !(1 << hook.index()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_are_unique_and_dense() {
        let mut seen = [false; 11];
        for h in HookId::ALL {
            assert!(!seen[h.index()], "duplicate index for {h:?}");
            seen[h.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn mask_membership() {
        let m = HookMask::of(&[HookId::Tick, HookId::Ipi]);
        assert!(m.contains(HookId::Tick));
        assert!(m.contains(HookId::Ipi));
        assert!(!m.contains(HookId::Dispatch));
    }

    #[test]
    fn mask_all_and_none() {
        for h in HookId::ALL {
            assert!(HookMask::ALL.contains(h));
            assert!(!HookMask::NONE.contains(h));
        }
    }

    #[test]
    fn with_without_roundtrip() {
        let m = HookMask::NONE.with(HookId::Dispatch);
        assert!(m.contains(HookId::Dispatch));
        assert!(!m.without(HookId::Dispatch).contains(HookId::Dispatch));
    }

    #[test]
    fn interference_classes() {
        assert!(!ThreadClass::App.is_interference());
        assert!(!ThreadClass::Kernel.is_interference());
        assert!(ThreadClass::Daemon.is_interference());
        assert!(ThreadClass::Cron.is_interference());
        assert!(ThreadClass::MpiAux.is_interference());
        assert!(ThreadClass::Cosched.is_interference());
        assert!(ThreadClass::Interrupt.is_interference());
    }

    #[test]
    fn study_mask_has_dispatch_pairs() {
        let m = HookMask::study();
        assert!(m.contains(HookId::Dispatch));
        assert!(m.contains(HookId::Undispatch));
        assert!(!m.contains(HookId::MsgSend));
    }
}
