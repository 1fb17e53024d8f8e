//! Core identifier and policy types for the simulated node kernel.

use serde::{Deserialize, Serialize};

/// Node-local thread identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Tid(pub u32);

/// CPU index within a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct CpuId(pub u8);

/// AIX-style dispatching priority: **lower numeric value = more favored**.
///
/// The paper's reference points (§4, §5.3):
/// * normal priority is 60; "real-time" processes run between 40 and 60;
/// * a favored value below 40 defers most daemon activity;
/// * ordinary user processes range between 90 and 120;
/// * the observed interfering daemons ran at 56;
/// * the study settled on favored = 30, unfavored = 100;
/// * the I/O-aware ALE3D runs used mmfsd = 40, favored = 41.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Prio(pub u8);

impl Prio {
    /// The co-scheduler daemon itself ("an even more favored priority").
    pub const COSCHED: Prio = Prio(20);
    /// The favored task priority used in the study's benchmark runs.
    pub const FAVORED: Prio = Prio(30);
    /// GPFS mmfsd pinned priority in the I/O-aware configuration.
    pub const MMFSD: Prio = Prio(40);
    /// Priority of the observed long-running daemons in the traces.
    pub const DAEMON_OBSERVED: Prio = Prio(56);
    /// AIX "normal" priority.
    pub const NORMAL: Prio = Prio(60);
    /// Typical degraded user-process priority (user range is 90–120).
    pub const USER: Prio = Prio(90);
    /// The unfavored task priority used in the study's benchmark runs.
    pub const UNFAVORED: Prio = Prio(100);
    /// Numerically worst priority (the idle loop).
    pub const IDLE: Prio = Prio(127);

    /// True iff `self` is strictly more favored (numerically lower).
    pub fn beats(self, other: Prio) -> bool {
        self.0 < other.0
    }
}

/// Where a thread's ready work is queued (§3.1.2 of the paper):
/// AIX queues work to a specific processor for storage locality, or to all
/// processors to minimize dispatching latency. The prototype kernel forces
/// everything except the parallel job onto the global queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum QueueDiscipline {
    /// Queue to one CPU (its "home"); another idle CPU may still steal it.
    Pinned(CpuId),
    /// Queue to all CPUs; dispatched wherever a slot frees first, at a
    /// small locality penalty while executing.
    Global,
}

/// Thread lifecycle state as seen by the dispatcher.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ThreadState {
    /// Waiting in a run queue.
    Ready,
    /// Occupying a CPU (including busy-poll waits).
    Running,
    /// Not runnable (sleeping or blocked on a receive).
    Blocked,
    /// Finished; slot retained for accounting.
    Exited,
}

/// How tick interrupts are phased across the CPUs of a node (§3.2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TickAlign {
    /// AIX default: CPU *i* ticks at offset `i·period/ncpus` so that timer
    /// code never runs concurrently on two CPUs.
    Staggered,
    /// The prototype option: all CPUs tick at the same local-time boundary.
    /// Whether ticks also align *across* nodes depends purely on how well
    /// node clocks are synchronized (§4 item 1).
    Aligned,
}

/// How cross-CPU preemption is accomplished (§3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PreemptMode {
    /// Default AIX: the busy processor notices a requested preemption only
    /// at its next tick, interrupt or block — up to one full tick late.
    Lazy,
    /// The pre-existing "real time scheduling" option: a hardware
    /// interrupt is forced, but (a) only for forward preemptions and
    /// (b) only one interrupt in flight at a time.
    RtIpi,
    /// The paper's improved option: IPIs are also generated for *reverse*
    /// preemptions (a running thread's priority lowered below a waiting
    /// one) and to multiple processors concurrently.
    RtIpiImproved,
}

/// Which dispatcher policy orders the ready queues (see
/// [`dispatch`](crate::dispatch)). The AIX policy reproduces the paper's
/// 2003 priority-band semantics bit for bit; the fair policies answer the
/// "does parallel awareness still pay under a modern scheduler?" question.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum DispatcherKind {
    /// 2003 AIX semantics: strict priority dispatch, FIFO within a level,
    /// fixed round-robin timeslice. The default; bit-identical to the
    /// pre-trait kernel.
    #[default]
    Aix,
    /// CFS-style weighted-fair scheduling: ready order keyed by virtual
    /// runtime (nice-to-weight table), sched-latency slice targeting, and
    /// a wakeup-granularity preemption threshold.
    Cfs,
    /// EEVDF-style scheduling: ready order keyed by virtual deadline
    /// (eligible virtual runtime plus a weight-scaled request), earliest
    /// deadline dispatched first.
    Eevdf,
}

impl DispatcherKind {
    /// Every policy, in canonical (CLI/docs) order.
    pub const ALL: [DispatcherKind; 3] = [
        DispatcherKind::Aix,
        DispatcherKind::Cfs,
        DispatcherKind::Eevdf,
    ];

    /// Parse the CLI spelling (`aix`, `cfs`, `eevdf`).
    pub fn parse(s: &str) -> Option<DispatcherKind> {
        match s {
            "aix" => Some(DispatcherKind::Aix),
            "cfs" => Some(DispatcherKind::Cfs),
            "eevdf" => Some(DispatcherKind::Eevdf),
            _ => None,
        }
    }

    /// The CLI spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            DispatcherKind::Aix => "aix",
            DispatcherKind::Cfs => "cfs",
            DispatcherKind::Eevdf => "eevdf",
        }
    }
}

/// Queue policy applied to non-application threads (§3.1.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DaemonQueuePolicy {
    /// AIX default: daemons are queued to their home CPU.
    PerCpu,
    /// Prototype: daemons are queued to all CPUs ("maximum parallelism"),
    /// trading per-daemon locality for overlap.
    Global,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lower_priority_value_beats_higher() {
        assert!(Prio::FAVORED.beats(Prio::DAEMON_OBSERVED));
        assert!(Prio::DAEMON_OBSERVED.beats(Prio::USER));
        assert!(Prio::USER.beats(Prio::UNFAVORED));
        assert!(!Prio::UNFAVORED.beats(Prio::UNFAVORED));
        assert!(Prio::COSCHED.beats(Prio::FAVORED));
    }

    #[test]
    fn paper_priority_table_is_ordered() {
        // §4/§5.3 ordering: cosched < favored < mmfsd ≤ daemons < normal
        // < user < unfavored < idle.
        let chain = [
            Prio::COSCHED,
            Prio::FAVORED,
            Prio::MMFSD,
            Prio::DAEMON_OBSERVED,
            Prio::NORMAL,
            Prio::USER,
            Prio::UNFAVORED,
            Prio::IDLE,
        ];
        for w in chain.windows(2) {
            assert!(
                w[0].0 < w[1].0,
                "{:?} should be more favored than {:?}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn dispatcher_kind_round_trips_cli_names() {
        for k in DispatcherKind::ALL {
            assert_eq!(DispatcherKind::parse(k.as_str()), Some(k));
        }
        assert_eq!(DispatcherKind::parse("o1"), None);
        assert_eq!(DispatcherKind::default(), DispatcherKind::Aix);
    }

    #[test]
    fn io_aware_priorities_sandwich_mmfsd() {
        // §5.3: mmfsd at 40, favored tasks at 41 — mmfsd may preempt tasks
        // but tasks beat every other daemon.
        let favored_io_aware = Prio(41);
        assert!(Prio::MMFSD.beats(favored_io_aware));
        assert!(favored_io_aware.beats(Prio::DAEMON_OBSERVED));
    }
}
