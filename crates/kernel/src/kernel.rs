//! The simulated SMP-node kernel: dispatcher, ticks, preemption, callouts.
//!
//! One [`Kernel`] models one node of the cluster (e.g. a 16-way Power3 SP
//! node). It owns the node's threads, per-CPU and global run queues, the
//! tick machinery, the timer-callout queue, the I/O request path, and a
//! trace buffer. It is driven externally, by the node event loop
//! ([`NodeLoop`](crate::solo::NodeLoop)): the loop pops events from the
//! node's calendar and hands each to the kernel, which returns new events
//! and outbound messages through an effects buffer.
//!
//! ## Fidelity notes (mapping to the paper)
//!
//! * **Delayed preemption** — readying a better-priority thread does *not*
//!   immediately preempt a busy CPU. Under [`PreemptMode::Lazy`] the switch
//!   waits for that CPU's next tick, interrupt, or block (worst case one
//!   full tick, §3); the RT modes force an IPI with the paper's
//!   "tenths of a millisecond" latency.
//! * **Tick-batched callouts** — `SleepUntil` wakeups ride the callout
//!   queue and are serviced only during tick processing, so the big-tick
//!   option naturally batches daemon wakeups (§3.1.1).
//! * **Busy-poll receives** — a polling thread occupies its CPU while
//!   waiting and, if preempted, cannot notice message arrival until
//!   redispatched; this is the amplification mechanism behind the
//!   cascading collective stalls of §2.
//! * **Interference as debt** — interrupt-context time (ticks, IPIs,
//!   device interrupts) extends the running thread's current busy segment
//!   rather than context-switching, matching interrupt semantics.

use crate::clock::ClockModel;
use crate::dispatch::{make_dispatcher, Dispatcher};
use crate::interrupts::{InterruptSource, InterruptSourceSpec};
use crate::io::{IoRequest, IoServiceModel};
use crate::msg::{Mailbox, Message, SrcSel, TagSel};
use crate::options::SchedOptions;
use crate::program::{Action, Program, StepCtx, WaitMode};
use crate::runq::{DispatchKey, ReadyQueue};
use crate::types::{
    CpuId, DaemonQueuePolicy, PreemptMode, Prio, QueueDiscipline, ThreadState, Tid,
};
use pa_simkit::{RngState, SimDur, SimRng, SimTime};
use pa_trace::{HookId, ThreadClass, TraceBuffer, TraceEvent};
use serde::value::Value;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};

/// Events addressed to one node's kernel.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum KernelEvent {
    /// Periodic timer interrupt on a CPU.
    Tick {
        /// CPU taking the tick.
        cpu: CpuId,
    },
    /// The running thread's busy segment completes (if `token` is current).
    SegEnd {
        /// CPU whose segment ends.
        cpu: CpuId,
        /// Occupancy token at scheduling time; stale tokens are ignored.
        token: u64,
    },
    /// A preemption inter-processor interrupt arrives.
    Ipi {
        /// Target CPU.
        cpu: CpuId,
    },
    /// A running busy-poller notices a delivered message (if still current).
    PollNotice {
        /// CPU of the poller.
        cpu: CpuId,
        /// Occupancy token at delivery time.
        token: u64,
    },
    /// A message arrives at this node (routed by the cluster fabric).
    Deliver {
        /// The message.
        msg: Message,
    },
    /// A device interrupt from the given source fires.
    DeviceInterrupt {
        /// Index into the kernel's interrupt source table.
        source: usize,
    },
    /// A device interrupt handler finishes (trace bookkeeping + resched).
    InterruptEnd {
        /// CPU that was interrupted.
        cpu: CpuId,
        /// Pseudo-tid of the handler.
        itid: Tid,
    },
    /// Scheduler nudge after a post-boot spawn
    /// ([`NodeLoop::spawn_at`](crate::solo::NodeLoop::spawn_at)): run
    /// the dispatcher on `cpu` so a freshly Ready thread is picked up
    /// without waiting for the next tick. Unlike [`KernelEvent::Ipi`] this
    /// models no interrupt cost — job launch overhead is accounted by the
    /// batch layer, not the node kernel.
    Resched {
        /// CPU whose dispatcher runs.
        cpu: CpuId,
    },
}

/// A voided in-flight [`KernelEvent::SegEnd`] timer. The kernel already
/// guards against stale timers with occupancy tokens; this tells the
/// driver the calendar entry itself is dead so it can be removed instead
/// of surfacing later as a no-op pop (the tombstone source in
/// cancel-heavy co-scheduled runs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SegCancel {
    /// CPU whose outstanding segment timer is void.
    pub cpu: CpuId,
    /// Number of `Effects::schedule` entries already emitted when this
    /// cancel was recorded. A handler may void a segment and then arm a
    /// new one for the same CPU in a single event, so the driver must
    /// interleave cancels with schedules in program order: apply this
    /// cancel after scheduling exactly `after` entries of the batch.
    pub after: u32,
}

/// Side effects of handling one event, drained by the node loop.
#[derive(Debug, Default)]
pub(crate) struct Effects {
    /// Events to schedule for this same node (global time).
    pub schedule: Vec<(SimTime, KernelEvent)>,
    /// Messages leaving this thread context; the fabric routes them (both
    /// cross-node and node-local loopback).
    pub outbound: Vec<Message>,
    /// Segment timers voided by this event, watermarked against
    /// `schedule` (see [`SegCancel::after`]).
    pub cancels: Vec<SegCancel>,
}

impl Effects {
    /// Record that `cpu`'s in-flight segment timer is void, watermarked
    /// at the current position in `schedule`.
    pub(crate) fn cancel_seg(&mut self, cpu: CpuId) {
        self.cancels.push(SegCancel {
            cpu,
            after: self.schedule.len() as u32,
        });
    }
}

/// Specification for spawning a thread.
#[derive(Debug, Clone)]
pub struct ThreadSpec {
    /// Name shown in traces and usage reports.
    pub name: String,
    /// Attribution class.
    pub class: ThreadClass,
    /// Initial dispatching priority.
    pub prio: Prio,
    /// Preferred home CPU. Application threads are pinned 1:1 to it; for
    /// other classes it seeds the per-CPU queue policy and is assigned
    /// round-robin when `None`.
    pub home_cpu: Option<CpuId>,
}

impl ThreadSpec {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, class: ThreadClass, prio: Prio) -> ThreadSpec {
        ThreadSpec {
            name: name.into(),
            class,
            prio,
            home_cpu: None,
        }
    }

    /// Pin/home the thread to a CPU.
    pub fn on_cpu(mut self, cpu: CpuId) -> ThreadSpec {
        self.home_cpu = Some(cpu);
        self
    }
}

/// What a thread resumes into when it next holds the CPU.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
enum Cont {
    /// Previous action finished; call `Program::step`.
    Step,
    /// Finish a send: emit the message, then step.
    FinishSend(Message),
    /// Finish a receive: the matched message is in `in_msg`.
    FinishRecv,
    /// Busy-polling for a matching message (occupies the CPU).
    PollWait { tag: TagSel, src: SrcSel },
    /// Blocked waiting for a matching message.
    BlockedRecv { tag: TagSel, src: SrcSel },
    /// Blocked in the callout queue.
    Sleeping,
    /// Blocked on an I/O completion.
    IoWait,
    /// I/O daemon blocked waiting for work.
    IoIdle,
}

/// Why a thread entered [`ThreadState::Blocked`], latched at block time.
///
/// Latching matters: [`Kernel::on_deliver`] rewrites `cont` to
/// `FinishRecv` *before* waking the sleeper, so the reason can no longer
/// be inferred from the continuation at wake time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
enum BlockReason {
    /// Not blocked (or reason already consumed by a wake).
    None,
    /// Blocked in `Recv { wait: Block }` — collective/message wait.
    Msg,
    /// Blocked on an I/O completion (or the I/O daemon idling).
    Io,
    /// Blocked in the callout queue (`SleepUntil`).
    Sleep,
}

/// One thread's kernel-side state.
struct ThreadSlot {
    name: String,
    class: ThreadClass,
    prio: Prio,
    discipline: QueueDiscipline,
    state: ThreadState,
    program: Option<Box<dyn Program>>,
    mailbox: Mailbox,
    cont: Cont,
    /// Remaining CPU demand of the current busy segment when off-CPU.
    remaining: SimDur,
    /// Message to hand to the program at the next step.
    in_msg: Option<Message>,
    /// Accumulated on-CPU time.
    cpu_time: SimDur,
    last_dispatch: SimTime,
    /// When the thread last entered a ready queue (runqueue-wait stats).
    enqueued_at: SimTime,
    /// When the thread last started busy-polling on a CPU (spin stats).
    poll_since: SimTime,
    // --- per-thread wait-state accounting (pa-blame substrate) ---
    /// When the thread was spawned (accounting epoch).
    spawned_at: SimTime,
    /// Total closed ready-queue wait.
    runq_wait: SimDur,
    /// Total closed busy-poll spin (subset of `cpu_time`).
    poll_spin: SimDur,
    /// Device-interrupt time charged into this thread's segments as debt
    /// (subset of `cpu_time` once the debt is served).
    noise_debt: SimDur,
    /// Total closed blocked time, split by the latched [`BlockReason`].
    blk_msg: SimDur,
    blk_io: SimDur,
    blk_sleep: SimDur,
    /// When the thread last entered [`ThreadState::Blocked`].
    blocked_since: SimTime,
    /// Why it is blocked (valid while state is Blocked).
    block_reason: BlockReason,
    /// When the thread exited; end of its accounting interval.
    exited_at: Option<SimTime>,
}

/// One CPU's dispatcher state.
struct Cpu {
    running: Option<Tid>,
    /// Bumped on every occupancy change; stale tokens void in-flight events.
    token: u64,
    /// Global end time of the scheduled busy segment (None while polling
    /// or idle).
    seg_end: Option<SimTime>,
    /// Interference accumulated during the current segment.
    debt: SimDur,
    slice_start: SimTime,
    local_q: ReadyQueue,
    ipi_pending: bool,
}

/// A row of the per-thread usage report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UsageRow {
    /// Thread name.
    pub name: String,
    /// Thread class.
    pub class: ThreadClass,
    /// Total on-CPU time.
    pub cpu_time: SimDur,
}

/// Exhaustive wall-time decomposition of one thread, produced by
/// [`Kernel::thread_account`].
///
/// Invariant (exact, in integer nanoseconds): for any query time `end`
/// at or after every event this kernel has handled,
/// `wall == cpu + runq_wait + blocked_msg + blocked_io + blocked_sleep`.
/// Every instant of the thread's life is in exactly one bucket: it is
/// Running (cpu), Ready in a queue (runq_wait), or Blocked (one of the
/// three latched reasons). `poll_spin` and `noise_debt` are *subsets* of
/// `cpu`, not additional buckets: spinning happens on-CPU, and served
/// interference debt extends on-CPU segments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ThreadAccount {
    /// Start of the accounting interval (spawn time).
    pub spawned_at: SimTime,
    /// End of the accounting interval (exit time, or the query time for
    /// threads still live at a horizon cut).
    pub end: SimTime,
    /// `end - spawned_at`.
    pub wall: SimDur,
    /// On-CPU time, including busy-poll spin and served debt.
    pub cpu: SimDur,
    /// Ready-queue wait before dispatch.
    pub runq_wait: SimDur,
    /// Blocked waiting for a message (`Recv { wait: Block }`).
    pub blocked_msg: SimDur,
    /// Blocked on I/O completion (or the I/O daemon idling).
    pub blocked_io: SimDur,
    /// Blocked in the callout queue (`SleepUntil`).
    pub blocked_sleep: SimDur,
    /// Busy-poll spin; subset of `cpu`.
    pub poll_spin: SimDur,
    /// Device-interrupt debt charged into this thread's segments; subset
    /// of `cpu` once served (a horizon cut can leave charged debt
    /// unserved — consumers treat the compute residual as signed).
    pub noise_debt: SimDur,
}

/// Display names of the runqueue-wait priority bands (see [`prio_band`]).
pub const RUNQ_BANDS: [&str; 4] = ["rt", "daemon", "normal", "user"];

/// Map a priority to its runqueue-wait accounting band: co-scheduler/RT
/// favored (< 40), observed daemons (40–59), normal timeshare (60–89),
/// user/unfavored (≥ 90). AIX semantics: lower value = more favored.
pub fn prio_band(prio: Prio) -> usize {
    match prio.0 {
        0..=39 => 0,
        40..=59 => 1,
        60..=89 => 2,
        _ => 3,
    }
}

/// Dispatcher counters for one node, bumped inline on the hot path
/// (plain `u64` adds; the sim is single-threaded so there are no locks).
/// Everything here is simulation-determined — fold into a `pa-obs`
/// registry post-run without breaking snapshot identity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Threads placed on a CPU.
    pub dispatches: u64,
    /// Dispatches that resumed a preempted segment (context-switch cost
    /// charged into the resumed demand).
    pub ctx_switches: u64,
    /// Running threads taken off a CPU and requeued (preemption, yield,
    /// round-robin).
    pub preemptions: u64,
    /// Preemption IPIs scheduled (zero under `PreemptMode::Lazy`).
    pub ipis_sent: u64,
    /// Preemption IPIs taken.
    pub ipis_taken: u64,
    /// Decrementer ticks processed.
    pub ticks: u64,
    /// Callouts fired from tick processing (daemon wakeup batches).
    pub callouts_fired: u64,
    /// CPU time burnt busy-polling for messages, in ns (§2's cascade
    /// amplifier: a preempted poller spins again once redispatched).
    pub poll_spin_ns: u64,
    /// Total ready-queue wait before dispatch, in ns, per priority band.
    pub runq_wait_ns: [u64; 4],
    /// Dispatches counted into each priority band.
    pub runq_waits: [u64; 4],
}

/// One ready queue's checkpointed contents: `(key, arrival seq, tid)`
/// entries in dispatch order plus the arrival-sequence allocator.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct RunqSnap {
    entries: Vec<(DispatchKey, u64, Tid)>,
    next_seq: u64,
}

impl RunqSnap {
    fn capture(q: &ReadyQueue) -> RunqSnap {
        let (entries, next_seq) = q.snapshot();
        RunqSnap { entries, next_seq }
    }

    fn rebuild(&self) -> Result<ReadyQueue, String> {
        ReadyQueue::from_parts(self.entries.clone(), self.next_seq)
    }
}

/// One CPU's checkpointed dispatcher state.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct CpuSnap {
    running: Option<Tid>,
    token: u64,
    seg_end: Option<SimTime>,
    debt: SimDur,
    slice_start: SimTime,
    local_q: RunqSnap,
    ipi_pending: bool,
}

/// One thread's checkpointed kernel-side state. The program itself is
/// rebuilt from the experiment spec on restore; only its opaque
/// [`Program::snapshot_state`] value travels in the checkpoint.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ThreadSnap {
    name: String,
    state: ThreadState,
    prio: Prio,
    cont: Cont,
    remaining: SimDur,
    in_msg: Option<Message>,
    cpu_time: SimDur,
    last_dispatch: SimTime,
    enqueued_at: SimTime,
    poll_since: SimTime,
    spawned_at: SimTime,
    runq_wait: SimDur,
    poll_spin: SimDur,
    noise_debt: SimDur,
    blk_msg: SimDur,
    blk_io: SimDur,
    blk_sleep: SimDur,
    blocked_since: SimTime,
    block_reason: BlockReason,
    exited_at: Option<SimTime>,
    mailbox: Vec<Message>,
    program: Value,
}

/// [`KernelStats`] in serializable form (the per-band arrays become
/// vectors because the wire format has no fixed-size arrays).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct KernelStatsSnap {
    dispatches: u64,
    ctx_switches: u64,
    preemptions: u64,
    ipis_sent: u64,
    ipis_taken: u64,
    ticks: u64,
    callouts_fired: u64,
    poll_spin_ns: u64,
    runq_wait_ns: Vec<u64>,
    runq_waits: Vec<u64>,
}

/// The trace ring's checkpointed contents (capacity, mask, and thread
/// registrations are construction-time state, rebuilt from the spec).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct TraceSnap {
    events: Vec<TraceEvent>,
    dropped: u64,
    evicted_until: Option<SimTime>,
}

/// Complete mutable state of a booted [`Kernel`], produced by
/// [`Kernel::snapshot`] and consumed by [`Kernel::restore`].
///
/// A snapshot is an *overlay*, not a free-standing kernel: restore
/// requires a kernel rebuilt through the identical assembly sequence
/// (same spawns in the same order, same options, same interrupt sources)
/// and then booted, so that construction-time state — programs, trace
/// registrations, queue disciplines, the I/O model — already exists.
/// `restore` validates node id, CPU/thread counts, thread names, and
/// scheduler options, and fails loudly on any mismatch.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KernelSnapshot {
    node: u32,
    clock: ClockModel,
    opts: SchedOptions,
    cpus: Vec<CpuSnap>,
    threads: Vec<ThreadSnap>,
    global_q: RunqSnap,
    callouts: Vec<(SimTime, u64, Tid)>,
    callout_seq: u64,
    io_pending: Vec<IoRequest>,
    io_next_token: u64,
    rng: RngState,
    ipi_in_flight: bool,
    app_alive: u64,
    next_daemon_home: u8,
    /// Opaque policy state of the active dispatcher (`Null` for AIX).
    disp: Value,
    stats: KernelStatsSnap,
    trace: TraceSnap,
}

fn band_array(v: &[u64], what: &str) -> Result<[u64; 4], String> {
    v.try_into()
        .map_err(|_| format!("{what} has {} priority bands, expected 4", v.len()))
}

/// Hard cap on consecutive zero-cost program actions, to catch programs
/// that livelock the stepping loop.
const MAX_ZERO_COST_STEPS: u32 = 100_000;

/// The simulated node kernel. See module docs.
pub struct Kernel {
    node: u32,
    ncpus: u8,
    opts: SchedOptions,
    clock: ClockModel,
    cpus: Vec<Cpu>,
    threads: Vec<ThreadSlot>,
    global_q: ReadyQueue,
    /// Active dispatcher policy (selected by `opts.dispatcher`).
    disp: Box<dyn Dispatcher>,
    /// (local wake time, seq) -> tid. Serviced during tick processing.
    callouts: BTreeMap<(SimTime, u64), Tid>,
    callout_seq: u64,
    io_pending: VecDeque<IoRequest>,
    io_daemon: Option<Tid>,
    io_model: IoServiceModel,
    io_next_token: u64,
    trace: TraceBuffer,
    rng: SimRng,
    /// RtIpi mode: at most one preemption IPI in flight node-wide.
    ipi_in_flight: bool,
    interrupt_sources: Vec<InterruptSource>,
    app_alive: usize,
    next_daemon_home: u8,
    booted: bool,
    stats: KernelStats,
}

impl Kernel {
    /// Create a kernel for node `node` with `ncpus` CPUs.
    ///
    /// # Panics
    /// Panics if the options fail [`SchedOptions::validate`] or `ncpus` is 0.
    pub fn new(
        node: u32,
        ncpus: u8,
        opts: SchedOptions,
        clock: ClockModel,
        rng: SimRng,
        trace_capacity: usize,
    ) -> Kernel {
        opts.validate()
            .unwrap_or_else(|e| panic!("invalid SchedOptions: {e}"));
        assert!(ncpus > 0, "a node needs at least one CPU");
        Kernel {
            node,
            ncpus,
            opts,
            clock,
            cpus: (0..ncpus)
                .map(|_| Cpu {
                    running: None,
                    token: 0,
                    seg_end: None,
                    debt: SimDur::ZERO,
                    slice_start: SimTime::ZERO,
                    local_q: ReadyQueue::new(),
                    ipi_pending: false,
                })
                .collect(),
            threads: Vec::new(),
            global_q: ReadyQueue::new(),
            disp: make_dispatcher(opts.dispatcher),
            callouts: BTreeMap::new(),
            callout_seq: 0,
            io_pending: VecDeque::new(),
            io_daemon: None,
            io_model: IoServiceModel::default(),
            io_next_token: 0,
            trace: TraceBuffer::new(trace_capacity),
            rng,
            ipi_in_flight: false,
            interrupt_sources: Vec::new(),
            app_alive: 0,
            next_daemon_home: 0,
            booted: false,
            stats: KernelStats::default(),
        }
    }

    // ------------------------------------------------------------------
    // Setup API (before boot)
    // ------------------------------------------------------------------

    /// Node index.
    pub fn node_id(&self) -> u32 {
        self.node
    }

    /// Number of CPUs.
    pub fn ncpus(&self) -> u8 {
        self.ncpus
    }

    /// The active option block.
    pub fn options(&self) -> &SchedOptions {
        &self.opts
    }

    /// The node clock (mutable: the co-scheduler's startup sync uses this).
    pub fn clock_mut(&mut self) -> &mut ClockModel {
        &mut self.clock
    }

    /// The node clock.
    pub fn clock(&self) -> &ClockModel {
        &self.clock
    }

    /// The node's trace buffer.
    pub fn trace(&self) -> &TraceBuffer {
        &self.trace
    }

    /// Mutable trace buffer (for enabling hooks).
    pub fn trace_mut(&mut self) -> &mut TraceBuffer {
        &mut self.trace
    }

    /// Replace the I/O service model.
    pub fn set_io_model(&mut self, model: IoServiceModel) {
        self.io_model = model;
    }

    /// The I/O service model.
    pub fn io_model(&self) -> &IoServiceModel {
        &self.io_model
    }

    /// Spawn a thread. Threads spawned before boot start Ready; for
    /// mid-run arrivals (the batch-queue layer's job launches) use
    /// [`NodeLoop::spawn_at`](crate::solo::NodeLoop::spawn_at) instead.
    pub fn spawn(&mut self, spec: ThreadSpec, program: Box<dyn Program>) -> Tid {
        assert!(!self.booted, "spawn after boot: use spawn_at");
        self.spawn_inner(spec, program, SimTime::ZERO).0
    }

    /// Spawn a thread on a *booted* node at global time `now` — a mid-run
    /// job arrival. The thread becomes Ready immediately and a
    /// [`KernelEvent::Resched`] is scheduled for its home CPU so an idle
    /// or preemptible CPU picks it up without waiting for the next tick.
    /// `now` must not precede any event already handled by this kernel;
    /// the cluster engine guarantees this by spawning only at window
    /// barriers.
    pub(crate) fn spawn_at(
        &mut self,
        now: SimTime,
        spec: ThreadSpec,
        program: Box<dyn Program>,
        fx: &mut Effects,
    ) -> Tid {
        assert!(self.booted, "spawn_at before boot: use spawn");
        let (tid, home) = self.spawn_inner(spec, program, now);
        fx.schedule.push((now, KernelEvent::Resched { cpu: home }));
        tid
    }

    fn spawn_inner(
        &mut self,
        spec: ThreadSpec,
        program: Box<dyn Program>,
        enq_at: SimTime,
    ) -> (Tid, CpuId) {
        let tid = Tid(self.threads.len() as u32);
        let home = spec.home_cpu.unwrap_or_else(|| {
            let h = CpuId(self.next_daemon_home % self.ncpus);
            self.next_daemon_home = self.next_daemon_home.wrapping_add(1);
            h
        });
        assert!(home.0 < self.ncpus, "home CPU {home:?} out of range");
        let discipline = if spec.class == ThreadClass::App {
            QueueDiscipline::Pinned(home)
        } else {
            match self.opts.daemon_queue {
                DaemonQueuePolicy::PerCpu => QueueDiscipline::Pinned(home),
                DaemonQueuePolicy::Global => QueueDiscipline::Global,
            }
        };
        if spec.class == ThreadClass::App {
            self.app_alive += 1;
        }
        self.trace
            .register_thread(tid.0, spec.name.clone(), spec.class);
        self.threads.push(ThreadSlot {
            name: spec.name,
            class: spec.class,
            prio: spec.prio,
            discipline,
            state: ThreadState::Ready,
            program: Some(program),
            mailbox: Mailbox::new(),
            cont: Cont::Step,
            remaining: SimDur::ZERO,
            in_msg: None,
            cpu_time: SimDur::ZERO,
            last_dispatch: SimTime::ZERO,
            enqueued_at: enq_at,
            poll_since: SimTime::ZERO,
            spawned_at: enq_at,
            runq_wait: SimDur::ZERO,
            poll_spin: SimDur::ZERO,
            noise_debt: SimDur::ZERO,
            blk_msg: SimDur::ZERO,
            blk_io: SimDur::ZERO,
            blk_sleep: SimDur::ZERO,
            blocked_since: SimTime::ZERO,
            block_reason: BlockReason::None,
            exited_at: None,
        });
        // Policy state must exist before the first enqueue keys it.
        self.disp.on_spawn(tid);
        self.enqueue(tid, enq_at);
        (tid, home)
    }

    /// Register a device-interrupt source. Returns its pseudo-tid.
    pub fn add_interrupt_source(&mut self, spec: InterruptSourceSpec) -> Tid {
        assert!(!self.booted, "add interrupt sources before boot");
        let itid = Tid(self.threads.len() as u32);
        self.trace
            .register_thread(itid.0, spec.name.clone(), ThreadClass::Interrupt);
        // Pseudo slot so tid indexing stays uniform; never scheduled.
        self.threads.push(ThreadSlot {
            name: spec.name.clone(),
            class: ThreadClass::Interrupt,
            prio: Prio(0),
            discipline: QueueDiscipline::Global,
            state: ThreadState::Exited,
            program: None,
            mailbox: Mailbox::new(),
            cont: Cont::Step,
            remaining: SimDur::ZERO,
            in_msg: None,
            cpu_time: SimDur::ZERO,
            last_dispatch: SimTime::ZERO,
            enqueued_at: SimTime::ZERO,
            poll_since: SimTime::ZERO,
            spawned_at: SimTime::ZERO,
            runq_wait: SimDur::ZERO,
            poll_spin: SimDur::ZERO,
            noise_debt: SimDur::ZERO,
            blk_msg: SimDur::ZERO,
            blk_io: SimDur::ZERO,
            blk_sleep: SimDur::ZERO,
            blocked_since: SimTime::ZERO,
            block_reason: BlockReason::None,
            exited_at: Some(SimTime::ZERO),
        });
        // Pseudo-slots keep policy state tid-dense too (never dispatched).
        self.disp.on_spawn(itid);
        self.interrupt_sources.push(InterruptSource { spec, itid });
        itid
    }

    /// Designate the I/O daemon thread servicing [`Action::IoSubmit`].
    pub fn set_io_daemon(&mut self, tid: Tid) {
        self.io_daemon = Some(tid);
    }

    /// Boot the node at `now`: schedules first ticks and interrupt
    /// arrivals, then fills every CPU from the ready queues.
    pub(crate) fn boot(&mut self, now: SimTime, fx: &mut Effects) {
        assert!(!self.booted, "boot called twice");
        self.booted = true;
        let period = self.opts.tick_period();
        for c in 0..self.ncpus {
            let phase = self.opts.tick_phase(c, self.ncpus);
            let first = self.clock.next_local_boundary(now, period, phase);
            fx.schedule
                .push((first, KernelEvent::Tick { cpu: CpuId(c) }));
        }
        for i in 0..self.interrupt_sources.len() {
            let mean = self.interrupt_sources[i].spec.mean_interval;
            let gap = self.rng.exp_dur(mean);
            fx.schedule
                .push((now + gap, KernelEvent::DeviceInterrupt { source: i }));
        }
        for c in 0..self.ncpus {
            if self.cpus[c as usize].running.is_none() {
                self.dispatch_next(CpuId(c), now, fx);
            }
        }
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// Number of live application threads.
    pub fn app_alive(&self) -> usize {
        self.app_alive
    }

    /// Current priority of a thread.
    pub fn thread_prio(&self, tid: Tid) -> Prio {
        self.threads[tid.0 as usize].prio
    }

    /// Current state of a thread.
    pub fn thread_state(&self, tid: Tid) -> ThreadState {
        self.threads[tid.0 as usize].state
    }

    /// Accumulated on-CPU time of a thread (updated when it leaves a CPU).
    pub fn thread_cpu_time(&self, tid: Tid) -> SimDur {
        self.threads[tid.0 as usize].cpu_time
    }

    /// Exhaustive wall-time decomposition of a thread at query time
    /// `end`, which must be at or after every event this kernel has
    /// handled (the cluster driver's final time qualifies). Open
    /// intervals — a thread still running, queued, or blocked at a
    /// horizon cut — are closed against `end` by its current state, so
    /// the [`ThreadAccount`] sum invariant holds mid-run too.
    pub fn thread_account(&self, tid: Tid, end: SimTime) -> ThreadAccount {
        let t = &self.threads[tid.0 as usize];
        let mut acc = ThreadAccount {
            spawned_at: t.spawned_at,
            end,
            wall: SimDur::ZERO,
            cpu: t.cpu_time,
            runq_wait: t.runq_wait,
            blocked_msg: t.blk_msg,
            blocked_io: t.blk_io,
            blocked_sleep: t.blk_sleep,
            poll_spin: t.poll_spin,
            noise_debt: t.noise_debt,
        };
        match t.state {
            ThreadState::Running => {
                acc.cpu += end.since(t.last_dispatch);
                if matches!(t.cont, Cont::PollWait { .. }) {
                    acc.poll_spin += end.since(t.poll_since);
                }
            }
            ThreadState::Ready => acc.runq_wait += end.since(t.enqueued_at),
            ThreadState::Blocked => {
                let open = end.since(t.blocked_since);
                match t.block_reason {
                    BlockReason::Msg => acc.blocked_msg += open,
                    BlockReason::Io => acc.blocked_io += open,
                    BlockReason::Sleep => acc.blocked_sleep += open,
                    BlockReason::None => {
                        debug_assert!(false, "blocked thread without a latched reason")
                    }
                }
            }
            ThreadState::Exited => acc.end = t.exited_at.unwrap_or(t.spawned_at),
        }
        acc.wall = acc.end.since(acc.spawned_at);
        acc
    }

    /// Deterministic counters of one thread's program (empty for
    /// programless pseudo-threads). Exited threads keep their programs,
    /// so final counters stay readable.
    pub fn thread_program_metrics(&self, tid: Tid) -> Vec<(&'static str, u64)> {
        self.threads[tid.0 as usize]
            .program
            .as_ref()
            .map_or_else(Vec::new, |p| p.metrics())
    }

    /// Per-thread usage rows (for the overhead audit experiment).
    pub fn usage_report(&self) -> Vec<UsageRow> {
        self.threads
            .iter()
            .filter(|t| t.program.is_some() || t.cpu_time > SimDur::ZERO)
            .map(|t| UsageRow {
                name: t.name.clone(),
                class: t.class,
                cpu_time: t.cpu_time,
            })
            .collect()
    }

    /// Thread currently running on `cpu`.
    pub fn running_on(&self, cpu: CpuId) -> Option<Tid> {
        self.cpus[cpu.0 as usize].running
    }

    /// Dispatcher counters accumulated since boot.
    pub fn stats(&self) -> &KernelStats {
        &self.stats
    }

    /// Deterministic per-program counters: one `(kind, metric, value)` row
    /// per metric of every thread whose program reports any (exited
    /// threads included — programs are retained after `Action::Exit`).
    pub fn program_metrics(&self) -> Vec<(&'static str, &'static str, u64)> {
        let mut rows = Vec::new();
        for t in &self.threads {
            if let Some(p) = &t.program {
                let kind = p.kind();
                rows.extend(p.metrics().into_iter().map(|(name, v)| (kind, name, v)));
            }
        }
        rows
    }

    // ------------------------------------------------------------------
    // Event handling
    // ------------------------------------------------------------------

    /// Handle one event at global time `now`.
    pub(crate) fn handle(&mut self, now: SimTime, ev: KernelEvent, fx: &mut Effects) {
        debug_assert!(self.booted, "events before boot");
        match ev {
            KernelEvent::Tick { cpu } => self.on_tick(cpu, now, fx),
            KernelEvent::SegEnd { cpu, token } => self.on_seg_end(cpu, token, now, fx),
            KernelEvent::Ipi { cpu } => self.on_ipi(cpu, now, fx),
            KernelEvent::PollNotice { cpu, token } => self.on_poll_notice(cpu, token, now, fx),
            KernelEvent::Deliver { msg } => self.on_deliver(msg, now, fx),
            KernelEvent::DeviceInterrupt { source } => self.on_device_interrupt(source, now, fx),
            KernelEvent::InterruptEnd { cpu, itid } => self.on_interrupt_end(cpu, itid, now, fx),
            KernelEvent::Resched { cpu } => self.resched(cpu, now, fx),
        }
    }

    fn on_tick(&mut self, cpu: CpuId, now: SimTime, fx: &mut Effects) {
        let ci = cpu.0 as usize;
        // Decrementer processing steals time from the running thread.
        let mut steal = self.opts.costs.tick_cost;

        // Service callouts due in local time. Every CPU's tick services the
        // node-wide queue (master-agnostic; wake granularity is set by tick
        // phasing, which is the point of §3.2.1).
        let local_now = self.clock.to_local(now);
        let mut woken = Vec::new();
        while let Some((&(t, seq), &tid)) = self.callouts.first_key_value() {
            if t > local_now {
                break;
            }
            self.callouts.remove(&(t, seq));
            woken.push(tid);
        }
        steal += self.opts.costs.callout_cost * woken.len() as u64;

        self.stats.ticks += 1;
        self.stats.callouts_fired += woken.len() as u64;
        let running = self.cpus[ci].running.map_or(0, |t| t.0);
        self.trace
            .emit(now, cpu.0, HookId::Tick, running, steal.nanos());
        if self.cpus[ci].seg_end.is_some() {
            self.cpus[ci].debt += steal;
        }

        for tid in woken {
            self.wake(tid, now, fx);
        }

        // The tick is the lazy kernel's notice point for pending
        // preemptions and the round-robin boundary.
        self.resched(cpu, now, fx);

        // Next tick for this CPU.
        let period = self.opts.tick_period();
        let phase = self.opts.tick_phase(cpu.0, self.ncpus);
        let local_next = self.clock.to_local(now).next_boundary(period, phase);
        fx.schedule
            .push((self.clock.to_global(local_next), KernelEvent::Tick { cpu }));
    }

    fn on_seg_end(&mut self, cpu: CpuId, token: u64, now: SimTime, fx: &mut Effects) {
        let ci = cpu.0 as usize;
        if self.cpus[ci].token != token {
            return; // stale: occupancy changed since scheduling
        }
        let Some(tid) = self.cpus[ci].running else {
            return;
        };
        debug_assert!(self.cpus[ci].seg_end.is_some(), "SegEnd without a segment");
        // Interference extended the segment: keep running for the debt.
        let debt = self.cpus[ci].debt;
        if !debt.is_zero() {
            self.cpus[ci].debt = SimDur::ZERO;
            let end = now + debt;
            self.cpus[ci].seg_end = Some(end);
            let token = self.cpus[ci].token;
            fx.schedule.push((end, KernelEvent::SegEnd { cpu, token }));
            return;
        }
        self.cpus[ci].seg_end = None;
        self.threads[tid.0 as usize].remaining = SimDur::ZERO;
        self.seg_complete(cpu, tid, now, fx);
    }

    fn on_ipi(&mut self, cpu: CpuId, now: SimTime, fx: &mut Effects) {
        let ci = cpu.0 as usize;
        self.ipi_in_flight = false;
        self.cpus[ci].ipi_pending = false;
        self.stats.ipis_taken += 1;
        let running = self.cpus[ci].running.map_or(0, |t| t.0);
        self.trace.emit(now, cpu.0, HookId::Ipi, running, 0);
        if self.cpus[ci].seg_end.is_some() {
            self.cpus[ci].debt += self.opts.costs.ipi_cost;
        }
        self.resched(cpu, now, fx);
    }

    fn on_poll_notice(&mut self, cpu: CpuId, token: u64, now: SimTime, fx: &mut Effects) {
        let ci = cpu.0 as usize;
        if self.cpus[ci].token != token {
            return;
        }
        let Some(tid) = self.cpus[ci].running else {
            return;
        };
        let recv_cost = self.opts.costs.recv_overhead;
        let slot = &mut self.threads[tid.0 as usize];
        let Cont::PollWait { tag, src } = slot.cont else {
            return;
        };
        if let Some(m) = slot.mailbox.take_match(tag, src) {
            let spin = now.since(slot.poll_since);
            slot.in_msg = Some(m);
            slot.cont = Cont::FinishRecv;
            slot.remaining = recv_cost;
            slot.poll_spin += spin;
            self.stats.poll_spin_ns += spin.nanos();
            self.start_segment(cpu, tid, now, fx);
        }
    }

    fn on_deliver(&mut self, msg: Message, now: SimTime, fx: &mut Effects) {
        debug_assert_eq!(msg.dst.node, self.node, "message routed to wrong node");
        let tid = msg.dst.tid;
        if tid.0 as usize >= self.threads.len()
            || self.threads[tid.0 as usize].state == ThreadState::Exited
        {
            return; // late delivery to a finished thread: dropped
        }
        let recv_cost = self.opts.costs.recv_overhead;
        let poll_detect = self.opts.costs.poll_detect;
        let slot = &mut self.threads[tid.0 as usize];
        slot.mailbox.deliver(msg);
        match (&slot.cont, slot.state) {
            (&Cont::PollWait { tag, src }, ThreadState::Running)
                if slot.mailbox.has_match(tag, src) =>
            {
                // Find the poller's CPU and schedule the notice.
                let cpu = self
                    .cpus
                    .iter()
                    .position(|c| c.running == Some(tid))
                    .expect("running thread must occupy a CPU");
                let token = self.cpus[cpu].token;
                fx.schedule.push((
                    now + poll_detect,
                    KernelEvent::PollNotice {
                        cpu: CpuId(cpu as u8),
                        token,
                    },
                ));
            }
            (&Cont::BlockedRecv { tag, src }, ThreadState::Blocked)
                if slot.mailbox.has_match(tag, src) =>
            {
                // Message wakeups are interrupt-driven (not callouts).
                let m = slot
                    .mailbox
                    .take_match(tag, src)
                    .expect("match just checked");
                slot.in_msg = Some(m);
                slot.cont = Cont::FinishRecv;
                slot.remaining = recv_cost;
                self.wake(tid, now, fx);
            }
            _ => {} // queued for a future Recv
        }
    }

    fn on_device_interrupt(&mut self, source: usize, now: SimTime, fx: &mut Effects) {
        let nc = self.ncpus;
        let (cpu, dur, itid) = {
            let fixed = self.interrupt_sources[source].spec.cpu;
            let burst_min = self.interrupt_sources[source].spec.burst_min;
            let burst_max = self.interrupt_sources[source].spec.burst_max;
            let itid = self.interrupt_sources[source].itid;
            let cpu = fixed.unwrap_or_else(|| CpuId(self.rng.range(0, u64::from(nc)) as u8));
            let dur = self
                .rng
                .dur_range(burst_min, burst_max + SimDur::from_nanos(1));
            (cpu, dur, itid)
        };
        let ci = cpu.0 as usize;
        if let Some(tid) = self.cpus[ci].running {
            self.trace.emit(now, cpu.0, HookId::Undispatch, tid.0, 0);
            if self.cpus[ci].seg_end.is_some() {
                self.cpus[ci].debt += dur;
                // Noise attribution: device interrupts are the
                // profile-injected interference; tick/IPI steal is kernel
                // overhead and stays in the unattributed cpu residual.
                self.threads[tid.0 as usize].noise_debt += dur;
            }
        }
        self.trace.emit(now, cpu.0, HookId::Dispatch, itid.0, 0);
        self.threads[itid.0 as usize].cpu_time += dur;
        fx.schedule
            .push((now + dur, KernelEvent::InterruptEnd { cpu, itid }));
        // Next arrival of this source.
        let mean = self.interrupt_sources[source].spec.mean_interval;
        let gap = self.rng.exp_dur(mean);
        fx.schedule
            .push((now + gap, KernelEvent::DeviceInterrupt { source }));
    }

    fn on_interrupt_end(&mut self, cpu: CpuId, itid: Tid, now: SimTime, fx: &mut Effects) {
        self.trace.emit(now, cpu.0, HookId::Undispatch, itid.0, 0);
        if let Some(tid) = self.cpus[cpu.0 as usize].running {
            self.trace.emit(now, cpu.0, HookId::Dispatch, tid.0, 0);
        }
        // Interrupt exit is a preemption notice point (§3: "takes an
        // interrupt").
        self.resched(cpu, now, fx);
    }

    // ------------------------------------------------------------------
    // Dispatcher internals
    // ------------------------------------------------------------------

    /// Queue a Ready thread under the policy's key, returning the key so
    /// placement can compare it against runners without recomputing.
    fn enqueue(&mut self, tid: Tid, now: SimTime) -> DispatchKey {
        let prio = self.threads[tid.0 as usize].prio;
        let key = self.disp.enqueue_key(tid, prio);
        self.threads[tid.0 as usize].enqueued_at = now;
        match self.threads[tid.0 as usize].discipline {
            QueueDiscipline::Pinned(c) => self.cpus[c.0 as usize].local_q.push(tid, key),
            QueueDiscipline::Global => self.global_q.push(tid, key),
        }
        key
    }

    /// Remove `tid` from whatever queue holds it (priority change path).
    fn dequeue(&mut self, tid: Tid) -> bool {
        if self.global_q.remove(tid) {
            return true;
        }
        self.cpus.iter_mut().any(|c| c.local_q.remove(tid))
    }

    /// Is `tid` waiting in some ready queue?
    fn is_queued(&self, tid: Tid) -> bool {
        self.global_q.contains(tid) || self.cpus.iter().any(|c| c.local_q.contains(tid))
    }

    /// Choose the next thread for `cpu`, honouring local/global key order
    /// and idle stealing.
    fn pick_for(&mut self, cpu: CpuId) -> Option<Tid> {
        let ci = cpu.0 as usize;
        let local_best = self.cpus[ci].local_q.best_key();
        let global_best = self.global_q.best_key();
        let picked = match (local_best, global_best) {
            (Some(l), Some(g)) if g < l => self.global_q.pop(),
            (Some(_), _) => self.cpus[ci].local_q.pop(),
            (None, Some(_)) => self.global_q.pop(),
            (None, None) => {
                if !self.opts.idle_steal {
                    return None;
                }
                // Idle steal: take the best thread pinned to another CPU.
                let mut best: Option<(DispatchKey, usize)> = None;
                for (i, c) in self.cpus.iter().enumerate() {
                    if i == ci {
                        continue;
                    }
                    if let Some(k) = c.local_q.best_key() {
                        if best.is_none_or(|(bk, _)| k < bk) {
                            best = Some((k, i));
                        }
                    }
                }
                best.and_then(|(_, i)| self.cpus[i].local_q.pop())
            }
        };
        picked.map(|(key, tid)| {
            self.disp.on_pick(tid, key);
            tid
        })
    }

    fn dispatch_next(&mut self, cpu: CpuId, now: SimTime, fx: &mut Effects) {
        let ci = cpu.0 as usize;
        debug_assert!(self.cpus[ci].running.is_none(), "dispatch on busy CPU");
        self.cpus[ci].token += 1;
        self.cpus[ci].seg_end = None;
        self.cpus[ci].debt = SimDur::ZERO;
        if let Some(tid) = self.pick_for(cpu) {
            self.run_on(cpu, tid, now, fx);
        }
    }

    fn run_on(&mut self, cpu: CpuId, tid: Tid, now: SimTime, fx: &mut Effects) {
        let ci = cpu.0 as usize;
        let ctx_cost = self.opts.costs.ctx_switch;
        let recv_cost = self.opts.costs.recv_overhead;

        self.cpus[ci].running = Some(tid);
        self.cpus[ci].token += 1;
        self.cpus[ci].seg_end = None;
        self.cpus[ci].debt = SimDur::ZERO;
        self.cpus[ci].slice_start = now;
        self.trace.emit(now, cpu.0, HookId::Dispatch, tid.0, 0);
        let (band, waited) = {
            let slot = &mut self.threads[tid.0 as usize];
            let waited = now.since(slot.enqueued_at);
            slot.runq_wait += waited;
            (prio_band(slot.prio), waited)
        };
        self.stats.dispatches += 1;
        self.stats.runq_wait_ns[band] += waited.nanos();
        self.stats.runq_waits[band] += 1;

        enum Next {
            Segment,
            Spin,
            Complete,
        }
        let mut resumed = false;
        let next = {
            let slot = &mut self.threads[tid.0 as usize];
            debug_assert!(
                matches!(
                    slot.cont,
                    Cont::Step | Cont::FinishSend(_) | Cont::FinishRecv | Cont::PollWait { .. }
                ),
                "dispatched a blocked thread ({})",
                slot.name
            );
            slot.state = ThreadState::Running;
            slot.last_dispatch = now;
            match slot.cont {
                Cont::PollWait { tag, src } => {
                    if let Some(m) = slot.mailbox.take_match(tag, src) {
                        slot.in_msg = Some(m);
                        slot.cont = Cont::FinishRecv;
                        slot.remaining = recv_cost + ctx_cost;
                        resumed = true;
                        Next::Segment
                    } else {
                        slot.poll_since = now;
                        Next::Spin
                    }
                }
                _ if !slot.remaining.is_zero() => {
                    // Context-switch cost is charged into the resumed
                    // segment.
                    slot.remaining += ctx_cost;
                    resumed = true;
                    Next::Segment
                }
                _ => Next::Complete,
            }
        };
        self.stats.ctx_switches += u64::from(resumed);
        match next {
            Next::Segment => self.start_segment(cpu, tid, now, fx),
            Next::Spin => {} // resume busy-polling; no scheduled end
            Next::Complete => self.seg_complete(cpu, tid, now, fx),
        }
    }

    fn start_segment(&mut self, cpu: CpuId, tid: Tid, now: SimTime, fx: &mut Effects) {
        let ci = cpu.0 as usize;
        debug_assert_eq!(self.cpus[ci].running, Some(tid));
        let remaining = self.threads[tid.0 as usize].remaining;
        debug_assert!(!remaining.is_zero(), "empty segment");
        let end = now + remaining;
        self.cpus[ci].seg_end = Some(end);
        let token = self.cpus[ci].token;
        fx.schedule.push((end, KernelEvent::SegEnd { cpu, token }));
    }

    /// The current busy segment completed: perform its continuation, then
    /// step the program for the next action.
    fn seg_complete(&mut self, cpu: CpuId, tid: Tid, now: SimTime, fx: &mut Effects) {
        let cont = core::mem::replace(&mut self.threads[tid.0 as usize].cont, Cont::Step);
        match cont {
            Cont::FinishSend(mut msg) => {
                msg.sent_at = now;
                self.trace.emit(now, cpu.0, HookId::MsgSend, tid.0, msg.tag);
                fx.outbound.push(msg);
            }
            Cont::FinishRecv => {
                let tag = self.threads[tid.0 as usize]
                    .in_msg
                    .as_ref()
                    .map_or(0, |m| m.tag);
                self.trace.emit(now, cpu.0, HookId::MsgRecv, tid.0, tag);
            }
            Cont::Step => {}
            _ => unreachable!("segment completion with a waiting continuation"),
        }
        self.advance(cpu, tid, now, fx);
    }

    /// Step the program until it issues a time-consuming or waiting action.
    fn advance(&mut self, cpu: CpuId, tid: Tid, now: SimTime, fx: &mut Effects) {
        let costs = self.opts.costs;
        let mut zero_steps = 0u32;
        loop {
            zero_steps += 1;
            assert!(
                zero_steps < MAX_ZERO_COST_STEPS,
                "program '{}' livelocked the stepping loop",
                self.threads[tid.0 as usize].name
            );
            let mut program = self.threads[tid.0 as usize]
                .program
                .take()
                .expect("advance on a thread without a program");
            let action = {
                let local_now = self.clock.to_local(now);
                let node = self.node;
                let slot_prio = self.threads[tid.0 as usize].prio;
                let received = self.threads[tid.0 as usize].in_msg.take();
                let mut ctx = StepCtx {
                    now,
                    local_now,
                    node,
                    tid,
                    prio: slot_prio,
                    received,
                    io_pending: &mut self.io_pending,
                };
                program.step(&mut ctx)
            };
            self.threads[tid.0 as usize].program = Some(program);

            match action {
                Action::Compute(d) => {
                    let slot = &mut self.threads[tid.0 as usize];
                    let mut demand = d;
                    // Globally-queued interference pays the locality tax.
                    if slot.discipline == QueueDiscipline::Global && slot.class.is_interference() {
                        demand = demand.mul_f64(costs.global_queue_penalty);
                    }
                    if demand.is_zero() {
                        continue;
                    }
                    slot.remaining = demand;
                    slot.cont = Cont::Step;
                    self.start_segment(cpu, tid, now, fx);
                    return;
                }
                Action::Send(msg) => {
                    let slot = &mut self.threads[tid.0 as usize];
                    slot.remaining = costs.send_overhead;
                    slot.cont = Cont::FinishSend(msg);
                    self.start_segment(cpu, tid, now, fx);
                    return;
                }
                Action::Recv { tag, src, wait } => {
                    let matched = self.threads[tid.0 as usize].mailbox.take_match(tag, src);
                    let slot = &mut self.threads[tid.0 as usize];
                    if let Some(m) = matched {
                        slot.in_msg = Some(m);
                        slot.cont = Cont::FinishRecv;
                        slot.remaining = costs.recv_overhead;
                        self.start_segment(cpu, tid, now, fx);
                        return;
                    }
                    match wait {
                        WaitMode::Poll => {
                            slot.cont = Cont::PollWait { tag, src };
                            slot.poll_since = now;
                            // Spinning: CPU busy, no scheduled end.
                            return;
                        }
                        WaitMode::Block => {
                            slot.cont = Cont::BlockedRecv { tag, src };
                            self.block_current(cpu, tid, now, fx);
                            return;
                        }
                        WaitMode::Try => {
                            // Nothing matched: step again with no message.
                            continue;
                        }
                    }
                }
                Action::SleepUntil(local_t) => {
                    let local_now = self.clock.to_local(now);
                    let t = local_t.max(local_now);
                    let seq = self.callout_seq;
                    self.callout_seq += 1;
                    self.callouts.insert((t, seq), tid);
                    self.threads[tid.0 as usize].cont = Cont::Sleeping;
                    self.block_current(cpu, tid, now, fx);
                    return;
                }
                Action::SetPriority { target, prio } => {
                    self.set_priority(target, prio, now, fx);
                    continue;
                }
                Action::IoSubmit { bytes } => {
                    let token = self.io_next_token;
                    self.io_next_token += 1;
                    self.io_pending.push_back(IoRequest {
                        token,
                        requester: tid,
                        bytes,
                    });
                    self.trace.emit(now, cpu.0, HookId::IoStart, tid.0, token);
                    self.threads[tid.0 as usize].cont = Cont::IoWait;
                    // Wake the I/O daemon if it is idle.
                    let d = self.io_daemon.unwrap_or_else(|| {
                        panic!(
                            "IoSubmit on node {} with no I/O daemon configured",
                            self.node
                        )
                    });
                    if matches!(self.threads[d.0 as usize].cont, Cont::IoIdle) {
                        self.threads[d.0 as usize].cont = Cont::Step;
                        self.wake(d, now, fx);
                    }
                    self.block_current(cpu, tid, now, fx);
                    return;
                }
                Action::IoComplete(req) => {
                    self.trace
                        .emit(now, cpu.0, HookId::IoDone, req.requester.0, req.token);
                    debug_assert!(
                        matches!(self.threads[req.requester.0 as usize].cont, Cont::IoWait),
                        "IoComplete for a thread not waiting on I/O"
                    );
                    self.threads[req.requester.0 as usize].cont = Cont::Step;
                    self.wake(req.requester, now, fx);
                    continue;
                }
                Action::IoIdle => {
                    if !self.io_pending.is_empty() {
                        continue; // work arrived meanwhile; step again
                    }
                    self.threads[tid.0 as usize].cont = Cont::IoIdle;
                    self.block_current(cpu, tid, now, fx);
                    return;
                }
                Action::Trace { hook, aux } => {
                    self.trace.emit(now, cpu.0, hook, tid.0, aux);
                    continue;
                }
                Action::Yield => {
                    self.threads[tid.0 as usize].cont = Cont::Step;
                    self.preempt_current(cpu, now, fx);
                    self.dispatch_next(cpu, now, fx);
                    return;
                }
                Action::Exit => {
                    let ci = cpu.0 as usize;
                    let class = self.threads[tid.0 as usize].class;
                    let last = self.threads[tid.0 as usize].last_dispatch;
                    {
                        // The program is kept (not dropped) so its final
                        // counters stay readable via `program_metrics`.
                        let slot = &mut self.threads[tid.0 as usize];
                        slot.state = ThreadState::Exited;
                        slot.cpu_time += now.since(last);
                        slot.exited_at = Some(now);
                        self.disp.charge(tid, slot.prio, now.since(last));
                    }
                    if class == ThreadClass::App {
                        self.app_alive -= 1;
                    }
                    self.trace.emit(now, cpu.0, HookId::Undispatch, tid.0, 0);
                    self.cpus[ci].running = None;
                    self.dispatch_next(cpu, now, fx);
                    return;
                }
            }
        }
    }

    /// Take the running thread off `cpu` and requeue it (preemption,
    /// yield, round-robin). Leaves the CPU empty.
    fn preempt_current(&mut self, cpu: CpuId, now: SimTime, fx: &mut Effects) {
        let ci = cpu.0 as usize;
        let tid = self.cpus[ci].running.take().expect("preempt on idle CPU");
        let seg_end = self.cpus[ci].seg_end.take();
        let debt = core::mem::take(&mut self.cpus[ci].debt);
        self.cpus[ci].token += 1;
        if seg_end.is_some() {
            // The token bump already voids the in-flight SegEnd; tell the
            // driver so the calendar entry dies instead of lingering.
            fx.cancel_seg(cpu);
        }
        let slot = &mut self.threads[tid.0 as usize];
        let mut spin = SimDur::ZERO;
        if let Some(end) = seg_end {
            // Unfinished demand plus the interference that stretched it.
            slot.remaining = end.since(now) + debt;
        } else {
            // Poll-waiter: its on-CPU time so far was pure spinning.
            if matches!(slot.cont, Cont::PollWait { .. }) {
                spin = now.since(slot.poll_since);
                slot.poll_spin += spin;
            }
            slot.remaining = SimDur::ZERO;
        }
        let ran = now.since(slot.last_dispatch);
        slot.cpu_time += ran;
        slot.state = ThreadState::Ready;
        self.disp.charge(tid, slot.prio, ran);
        self.stats.preemptions += 1;
        self.stats.poll_spin_ns += spin.nanos();
        self.trace.emit(now, cpu.0, HookId::Undispatch, tid.0, 0);
        self.enqueue(tid, now);
    }

    /// Block the running thread (no requeue) and dispatch a successor.
    fn block_current(&mut self, cpu: CpuId, tid: Tid, now: SimTime, fx: &mut Effects) {
        let ci = cpu.0 as usize;
        debug_assert_eq!(self.cpus[ci].running, Some(tid));
        debug_assert!(
            self.threads[tid.0 as usize].remaining.is_zero(),
            "blocking mid-segment is not a kernel transition"
        );
        self.cpus[ci].running = None;
        if self.cpus[ci].seg_end.take().is_some() {
            fx.cancel_seg(cpu);
        }
        self.cpus[ci].debt = SimDur::ZERO;
        self.cpus[ci].token += 1;
        let slot = &mut self.threads[tid.0 as usize];
        slot.state = ThreadState::Blocked;
        let ran = now.since(slot.last_dispatch);
        slot.cpu_time += ran;
        self.disp.charge(tid, slot.prio, ran);
        slot.blocked_since = now;
        // Latch the reason now: `on_deliver` rewrites `cont` before the
        // wake, so it cannot be recovered later.
        slot.block_reason = match slot.cont {
            Cont::BlockedRecv { .. } => BlockReason::Msg,
            Cont::Sleeping => BlockReason::Sleep,
            Cont::IoWait | Cont::IoIdle => BlockReason::Io,
            _ => BlockReason::None,
        };
        debug_assert!(
            slot.block_reason != BlockReason::None,
            "block_current with a runnable continuation"
        );
        self.trace.emit(now, cpu.0, HookId::Undispatch, tid.0, 0);
        self.dispatch_next(cpu, now, fx);
    }

    /// Make a blocked thread runnable and place it.
    fn wake(&mut self, tid: Tid, now: SimTime, fx: &mut Effects) {
        {
            let slot = &mut self.threads[tid.0 as usize];
            if slot.state != ThreadState::Blocked {
                return; // spurious wake (duplicate callout, already running)
            }
            if matches!(slot.cont, Cont::Sleeping) {
                slot.cont = Cont::Step;
            }
            let blocked = now.since(slot.blocked_since);
            match slot.block_reason {
                BlockReason::Msg => slot.blk_msg += blocked,
                BlockReason::Io => slot.blk_io += blocked,
                BlockReason::Sleep => slot.blk_sleep += blocked,
                BlockReason::None => {}
            }
            slot.block_reason = BlockReason::None;
            slot.state = ThreadState::Ready;
        }
        let key = self.enqueue(tid, now);
        self.place(tid, key, now, fx);
    }

    /// Placement after readying: grab an idle CPU, else request preemption
    /// against the appropriate victim. `key` is the dispatch key the thread
    /// was just enqueued under — the dispatcher compares it against the
    /// victim's running key to decide whether preemption is warranted.
    fn place(&mut self, tid: Tid, key: DispatchKey, now: SimTime, fx: &mut Effects) {
        let disc = self.threads[tid.0 as usize].discipline;
        // Prefer the thread's home CPU if idle, then any idle CPU.
        let home_idle = match disc {
            QueueDiscipline::Pinned(c) if self.cpus[c.0 as usize].running.is_none() => Some(c),
            _ => None,
        };
        let idle = home_idle.or_else(|| {
            (0..self.ncpus)
                .map(CpuId)
                .find(|c| self.cpus[c.0 as usize].running.is_none())
        });
        if let Some(c) = idle {
            self.dispatch_next(c, now, fx);
            // If the idle CPU took this thread (or anything that freed the
            // situation), we are done; otherwise fall through to the
            // preemption path (possible when stealing is disabled or a
            // better thread was picked instead).
            if !self.is_queued(tid) || self.threads[tid.0 as usize].state != ThreadState::Ready {
                return;
            }
        }
        // Preemption path over busy CPUs only.
        let victim = match disc {
            QueueDiscipline::Pinned(c) => self.cpus[c.0 as usize].running.is_some().then_some(c),
            QueueDiscipline::Global => {
                // Worst (highest-key) runner; ties to the lowest CPU index.
                let mut worst: Option<(DispatchKey, CpuId)> = None;
                for (i, c) in self.cpus.iter().enumerate() {
                    let Some(r) = c.running else { continue };
                    let slot = &self.threads[r.0 as usize];
                    let rk = self
                        .disp
                        .running_key(r, slot.prio, now.since(slot.last_dispatch));
                    if worst.is_none_or(|(wk, _)| rk > wk) {
                        worst = Some((rk, CpuId(i as u8)));
                    }
                }
                worst.map(|(_, c)| c)
            }
        };
        let Some(victim) = victim else { return };
        let run_key = {
            let r = self.cpus[victim.0 as usize]
                .running
                .expect("victim is busy");
            let slot = &self.threads[r.0 as usize];
            self.disp
                .running_key(r, slot.prio, now.since(slot.last_dispatch))
        };
        if self.disp.should_preempt(key, run_key, false) {
            self.request_preempt(victim, now, fx);
        }
    }

    /// Ask `cpu` to reconsider its running thread, via the configured
    /// preemption mechanism.
    fn request_preempt(&mut self, cpu: CpuId, now: SimTime, fx: &mut Effects) {
        match self.opts.preempt {
            PreemptMode::Lazy => {
                // Nothing: the next tick, interrupt, or block notices.
            }
            PreemptMode::RtIpi => {
                // One IPI in flight node-wide (the deficiency the paper
                // fixed).
                if !self.ipi_in_flight {
                    self.ipi_in_flight = true;
                    self.stats.ipis_sent += 1;
                    let lat = self.rng.dur_range(
                        self.opts.costs.ipi_latency_min,
                        self.opts.costs.ipi_latency_max,
                    );
                    fx.schedule.push((now + lat, KernelEvent::Ipi { cpu }));
                }
            }
            PreemptMode::RtIpiImproved => {
                if !self.cpus[cpu.0 as usize].ipi_pending {
                    self.cpus[cpu.0 as usize].ipi_pending = true;
                    self.stats.ipis_sent += 1;
                    let lat = self.rng.dur_range(
                        self.opts.costs.ipi_latency_min,
                        self.opts.costs.ipi_latency_max,
                    );
                    fx.schedule.push((now + lat, KernelEvent::Ipi { cpu }));
                }
            }
        }
    }

    /// Preemption check at a notice point (tick, IPI, interrupt end).
    fn resched(&mut self, cpu: CpuId, now: SimTime, fx: &mut Effects) {
        let ci = cpu.0 as usize;
        let Some(tid) = self.cpus[ci].running else {
            self.dispatch_next(cpu, now, fx);
            return;
        };
        let cand = best_of(self.cpus[ci].local_q.best_key(), self.global_q.best_key());
        let Some(cand) = cand else {
            return;
        };
        let run_key = {
            let slot = &self.threads[tid.0 as usize];
            self.disp
                .running_key(tid, slot.prio, now.since(slot.last_dispatch))
        };
        let contenders = self.cpus[ci].local_q.len() + self.global_q.len();
        let slice = self.disp.slice_len(self.opts.timeslice, contenders);
        let slice_expired = now.since(self.cpus[ci].slice_start) >= slice;
        if self.disp.should_preempt(cand, run_key, slice_expired) {
            self.preempt_current(cpu, now, fx);
            self.dispatch_next(cpu, now, fx);
        }
    }

    /// Change a thread's priority (the co-scheduler's lever), triggering
    /// forward or reverse preemption handling as configured.
    pub(crate) fn set_priority(&mut self, target: Tid, prio: Prio, now: SimTime, fx: &mut Effects) {
        let old = self.threads[target.0 as usize].prio;
        if old == prio {
            return;
        }
        self.threads[target.0 as usize].prio = prio;
        self.trace.emit(
            now,
            u8::MAX,
            HookId::PrioChange,
            target.0,
            u64::from(prio.0),
        );
        match self.threads[target.0 as usize].state {
            ThreadState::Ready => {
                // Re-key in its queue, then re-run placement (forward
                // preemption if it now beats a runner). Bank the ready
                // time waited so far first — `enqueue` restamps
                // `enqueued_at`, and the wait-state identity must not
                // lose the interval spent under the old key.
                {
                    let slot = &mut self.threads[target.0 as usize];
                    slot.runq_wait += now.since(slot.enqueued_at);
                }
                self.dequeue(target);
                let key = self.enqueue(target, now);
                self.place(target, key, now, fx);
            }
            ThreadState::Running => {
                // Reverse preemption: only the improved RT option forces an
                // interrupt when a running thread is *lowered* below a
                // waiting one (§3, deficiency 1).
                let ci = self
                    .cpus
                    .iter()
                    .position(|c| c.running == Some(target))
                    .expect("running thread has a CPU");
                let cand = best_of(self.cpus[ci].local_q.best_key(), self.global_q.best_key());
                if let Some(cand) = cand {
                    let run_key = {
                        let slot = &self.threads[target.0 as usize];
                        self.disp
                            .running_key(target, prio, now.since(slot.last_dispatch))
                    };
                    if self.disp.should_preempt(cand, run_key, false)
                        && self.opts.preempt == PreemptMode::RtIpiImproved
                    {
                        self.request_preempt(CpuId(ci as u8), now, fx);
                    }
                }
            }
            ThreadState::Blocked | ThreadState::Exited => {}
        }
    }

    // ------------------------------------------------------------------
    // Checkpoint / restore
    // ------------------------------------------------------------------

    /// Capture every piece of post-boot mutable state. See
    /// [`KernelSnapshot`] for the overlay-restore contract.
    ///
    /// # Panics
    /// Panics if the kernel has not booted — pre-boot state is entirely
    /// reproduced by re-running assembly, so snapshotting it indicates a
    /// driver bug.
    pub fn snapshot(&self) -> KernelSnapshot {
        assert!(self.booted, "snapshot before boot");
        let (events, dropped, evicted_until) = self.trace.snapshot_ring();
        KernelSnapshot {
            node: self.node,
            clock: self.clock,
            opts: self.opts,
            cpus: self
                .cpus
                .iter()
                .map(|c| CpuSnap {
                    running: c.running,
                    token: c.token,
                    seg_end: c.seg_end,
                    debt: c.debt,
                    slice_start: c.slice_start,
                    local_q: RunqSnap::capture(&c.local_q),
                    ipi_pending: c.ipi_pending,
                })
                .collect(),
            threads: self
                .threads
                .iter()
                .map(|t| ThreadSnap {
                    name: t.name.clone(),
                    state: t.state,
                    prio: t.prio,
                    cont: t.cont.clone(),
                    remaining: t.remaining,
                    in_msg: t.in_msg.clone(),
                    cpu_time: t.cpu_time,
                    last_dispatch: t.last_dispatch,
                    enqueued_at: t.enqueued_at,
                    poll_since: t.poll_since,
                    spawned_at: t.spawned_at,
                    runq_wait: t.runq_wait,
                    poll_spin: t.poll_spin,
                    noise_debt: t.noise_debt,
                    blk_msg: t.blk_msg,
                    blk_io: t.blk_io,
                    blk_sleep: t.blk_sleep,
                    blocked_since: t.blocked_since,
                    block_reason: t.block_reason,
                    exited_at: t.exited_at,
                    mailbox: t.mailbox.snapshot(),
                    program: t
                        .program
                        .as_ref()
                        .map_or(Value::Null, |p| p.snapshot_state()),
                })
                .collect(),
            global_q: RunqSnap::capture(&self.global_q),
            callouts: self
                .callouts
                .iter()
                .map(|(&(t, s), &tid)| (t, s, tid))
                .collect(),
            callout_seq: self.callout_seq,
            io_pending: self.io_pending.iter().copied().collect(),
            io_next_token: self.io_next_token,
            rng: self.rng.save_state(),
            ipi_in_flight: self.ipi_in_flight,
            app_alive: self.app_alive as u64,
            next_daemon_home: self.next_daemon_home,
            disp: self.disp.snapshot_state(),
            stats: KernelStatsSnap {
                dispatches: self.stats.dispatches,
                ctx_switches: self.stats.ctx_switches,
                preemptions: self.stats.preemptions,
                ipis_sent: self.stats.ipis_sent,
                ipis_taken: self.stats.ipis_taken,
                ticks: self.stats.ticks,
                callouts_fired: self.stats.callouts_fired,
                poll_spin_ns: self.stats.poll_spin_ns,
                runq_wait_ns: self.stats.runq_wait_ns.to_vec(),
                runq_waits: self.stats.runq_waits.to_vec(),
            },
            trace: TraceSnap {
                events,
                dropped,
                evicted_until,
            },
        }
    }

    /// Overlay a checkpointed state onto this kernel. The kernel must be
    /// booted and assembled identically to the one that produced the
    /// snapshot (same spawns in the same order); programs stay in place
    /// and receive their state via [`Program::restore_state`].
    pub fn restore(&mut self, snap: &KernelSnapshot) -> Result<(), String> {
        if !self.booted {
            return Err("restore before boot: rebuild and boot the node first".into());
        }
        if snap.node != self.node {
            return Err(format!(
                "checkpoint is for node {} but this kernel is node {}",
                snap.node, self.node
            ));
        }
        if snap.cpus.len() != self.cpus.len() {
            return Err(format!(
                "checkpoint has {} CPUs but node {} has {}",
                snap.cpus.len(),
                self.node,
                self.cpus.len()
            ));
        }
        if snap.threads.len() != self.threads.len() {
            return Err(format!(
                "checkpoint has {} threads but node {} has {}",
                snap.threads.len(),
                self.node,
                self.threads.len()
            ));
        }
        if snap.opts != self.opts {
            return Err(format!(
                "checkpoint was taken under different scheduler options on node {}",
                self.node
            ));
        }
        for (slot, ts) in self.threads.iter().zip(&snap.threads) {
            if slot.name != ts.name {
                return Err(format!(
                    "checkpoint thread '{}' does not match rebuilt thread '{}' on node {}",
                    ts.name, slot.name, self.node
                ));
            }
        }

        self.clock = snap.clock;
        for (cpu, cs) in self.cpus.iter_mut().zip(&snap.cpus) {
            cpu.running = cs.running;
            cpu.token = cs.token;
            cpu.seg_end = cs.seg_end;
            cpu.debt = cs.debt;
            cpu.slice_start = cs.slice_start;
            cpu.local_q = cs.local_q.rebuild()?;
            cpu.ipi_pending = cs.ipi_pending;
        }
        for (slot, ts) in self.threads.iter_mut().zip(&snap.threads) {
            slot.state = ts.state;
            slot.prio = ts.prio;
            slot.cont = ts.cont.clone();
            slot.remaining = ts.remaining;
            slot.in_msg = ts.in_msg.clone();
            slot.cpu_time = ts.cpu_time;
            slot.last_dispatch = ts.last_dispatch;
            slot.enqueued_at = ts.enqueued_at;
            slot.poll_since = ts.poll_since;
            slot.spawned_at = ts.spawned_at;
            slot.runq_wait = ts.runq_wait;
            slot.poll_spin = ts.poll_spin;
            slot.noise_debt = ts.noise_debt;
            slot.blk_msg = ts.blk_msg;
            slot.blk_io = ts.blk_io;
            slot.blk_sleep = ts.blk_sleep;
            slot.blocked_since = ts.blocked_since;
            slot.block_reason = ts.block_reason;
            slot.exited_at = ts.exited_at;
            slot.mailbox.restore(ts.mailbox.clone());
            if let Some(p) = slot.program.as_mut() {
                p.restore_state(&ts.program)
                    .map_err(|e| format!("program state for thread '{}': {e}", slot.name))?;
            }
        }
        self.global_q = snap.global_q.rebuild()?;
        self.callouts = snap
            .callouts
            .iter()
            .map(|&(t, s, tid)| ((t, s), tid))
            .collect();
        self.callout_seq = snap.callout_seq;
        self.io_pending = snap.io_pending.iter().copied().collect();
        self.io_next_token = snap.io_next_token;
        self.rng.load_state(&snap.rng)?;
        self.ipi_in_flight = snap.ipi_in_flight;
        self.app_alive = snap.app_alive as usize;
        self.next_daemon_home = snap.next_daemon_home;
        self.disp
            .restore_state(&snap.disp)
            .map_err(|e| format!("dispatcher state on node {}: {e}", self.node))?;
        self.stats = KernelStats {
            dispatches: snap.stats.dispatches,
            ctx_switches: snap.stats.ctx_switches,
            preemptions: snap.stats.preemptions,
            ipis_sent: snap.stats.ipis_sent,
            ipis_taken: snap.stats.ipis_taken,
            ticks: snap.stats.ticks,
            callouts_fired: snap.stats.callouts_fired,
            poll_spin_ns: snap.stats.poll_spin_ns,
            runq_wait_ns: band_array(&snap.stats.runq_wait_ns, "runq_wait_ns")?,
            runq_waits: band_array(&snap.stats.runq_waits, "runq_waits")?,
        };
        self.trace.restore_ring(
            snap.trace.events.clone(),
            snap.trace.dropped,
            snap.trace.evicted_until,
        )?;
        Ok(())
    }
}

/// Better (lower) of two optional dispatch keys.
fn best_of(a: Option<DispatchKey>, b: Option<DispatchKey>) -> Option<DispatchKey> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.min(y)),
        (x, y) => x.or(y),
    }
}
