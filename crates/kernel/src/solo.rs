//! The node event loop.
//!
//! [`NodeLoop`] is the one driver of a [`Kernel`]: it owns the kernel's
//! event calendar (with one `SegEnd` timer slot per CPU), effects buffer
//! and event counter, and runs pop → handle → schedule, arm and disarm →
//! [`Route`] each outbound message. [`SoloRunner`] is a node loop with a
//! loopback route, for single-node experiments and the kernel, noise and
//! MPI unit tests; `pa-cluster`'s shard embeds a node loop and adds only
//! fabric routing.

use crate::kernel::{Effects, Kernel, KernelEvent, KernelSnapshot, ThreadSpec};
use crate::msg::Message;
use crate::program::Program;
use crate::types::Tid;
use pa_simkit::{EventQueue, QueueStats, SimDur, SimTime};
use std::ops::{Deref, DerefMut};

/// Loopback latency of [`SoloRunner`]. Not the cluster fabric's node-local
/// delay (3 µs plus size over bandwidth): `oversub` and `tab_overhead`
/// were calibrated on this single-node model.
const SHM_LATENCY: SimDur = SimDur::from_nanos(2_000);

/// Everything a [`NodeLoop`] mutates after boot, for checkpoints: the
/// kernel state plus the calendar's clock, id counter, statistics and
/// live entries.
#[derive(Debug)]
pub struct NodeSnap {
    /// Calendar clock.
    pub queue_now: SimTime,
    /// Next event id the calendar assigns.
    pub queue_next_id: u64,
    /// Calendar statistics.
    pub queue_stats: QueueStats,
    /// Live calendar entries as `(time, id, event)`.
    pub queue_entries: Vec<(SimTime, u64, KernelEvent)>,
    /// Kernel state.
    pub kernel: KernelSnapshot,
    /// Events handled so far.
    pub events_processed: u64,
}

/// Where a node loop sends each outbound message: `route(now, msg)`
/// returns `Some((deliver_at, msg))` to deliver it on this node, or `None`
/// when it took the message off the node.
pub trait Route: FnMut(SimTime, Message) -> Option<(SimTime, Message)> {}

impl<F: FnMut(SimTime, Message) -> Option<(SimTime, Message)>> Route for F {}

/// Drives one kernel through its event calendar (see the module docs).
pub struct NodeLoop {
    /// The node kernel.
    pub kernel: Kernel,
    /// The calendar, with one timer slot per CPU for its outstanding
    /// `SegEnd`, so kernel-voided segment timers are disarmed instead of
    /// surfacing as stale pops.
    queue: EventQueue<KernelEvent>,
    fx: Effects,
    events_processed: u64,
}

/// The timer slot of a calendar entry: a `SegEnd` is armed in its CPU's
/// slot, and every other event goes to the heap.
fn seg_slot(ev: &KernelEvent) -> Option<usize> {
    match ev {
        KernelEvent::SegEnd { cpu, .. } => Some(cpu.0 as usize),
        _ => None,
    }
}

impl NodeLoop {
    /// Wrap a kernel (not yet booted).
    pub fn new(kernel: Kernel) -> NodeLoop {
        let ncpus = kernel.ncpus() as usize;
        NodeLoop {
            kernel,
            queue: EventQueue::with_timers(ncpus),
            fx: Effects::default(),
            events_processed: 0,
        }
    }

    /// Current simulation time: the calendar clock.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Total events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// The pending event calendar.
    pub fn queue(&self) -> &EventQueue<KernelEvent> {
        &self.queue
    }

    /// Move the calendar clock forward to `t` without handling anything.
    pub fn advance_to(&mut self, t: SimTime) {
        self.queue.advance_to(t);
    }

    /// Schedule the arrival of `msg` at this node at `at`.
    pub fn deliver_at(&mut self, at: SimTime, msg: Message) {
        self.queue.schedule(at, KernelEvent::Deliver { msg });
    }

    /// Boot the kernel at the current time.
    pub fn boot(&mut self, mut route: impl Route) {
        let now = self.queue.now();
        self.kernel.boot(now, &mut self.fx);
        self.drain(now, &mut route);
    }

    /// Spawn a thread on the booted kernel at `at` (see
    /// [`Kernel::spawn`] for threads present at boot).
    pub fn spawn_at(&mut self, at: SimTime, spec: ThreadSpec, program: Box<dyn Program>) -> Tid {
        let tid = self.kernel.spawn_at(at, spec, program, &mut self.fx);
        self.drain(at, &mut |_, _| unreachable!("a spawn sends no message"));
        tid
    }

    /// Handle every pending event before `end`, or up to and including
    /// it when `inclusive`. With `until_apps_done` the loop also stops as
    /// soon as no application thread is alive.
    pub fn run(
        &mut self,
        end: SimTime,
        inclusive: bool,
        until_apps_done: bool,
        mut route: impl Route,
    ) {
        while let Some(t) = self.queue.peek_time() {
            if t > end || (t == end && !inclusive) {
                break;
            }
            if until_apps_done && self.kernel.app_alive() == 0 {
                break;
            }
            let (now, ev) = self.queue.pop().expect("peeked event vanished");
            self.events_processed += 1;
            self.kernel.handle(now, ev, &mut self.fx);
            self.drain(now, &mut route);
        }
    }

    /// Move one handler's effects into the calendar, then route its
    /// outbound messages in send order. Voided segment timers are
    /// disarmed interleaved with the schedules in program order: a
    /// handler may void a CPU's timer and then arm a new one for the same
    /// CPU, and each cancel's watermark says how many schedule entries
    /// precede it. Keeping the original schedule order also keeps
    /// event-id assignment (and therefore FIFO tie-breaks) identical to
    /// an engine that never cancels.
    fn drain(&mut self, now: SimTime, route: &mut impl Route) {
        let Self { queue, fx, .. } = self;
        let mut ci = 0;
        for (idx, (t, ev)) in fx.schedule.drain(..).enumerate() {
            while ci < fx.cancels.len() && (fx.cancels[ci].after as usize) <= idx {
                queue.disarm(fx.cancels[ci].cpu.0 as usize);
                ci += 1;
            }
            match seg_slot(&ev) {
                Some(cpu) => queue.arm(cpu, t, ev),
                None => queue.schedule(t, ev),
            }
        }
        for c in &fx.cancels[ci..] {
            queue.disarm(c.cpu.0 as usize);
        }
        fx.cancels.clear();
        for msg in fx.outbound.drain(..) {
            if let Some((at, msg)) = route(now, msg) {
                queue.schedule(at, KernelEvent::Deliver { msg });
            }
        }
    }

    /// Capture the kernel and calendar (checkpoint).
    pub fn capture(&self) -> NodeSnap {
        NodeSnap {
            queue_now: self.queue.now(),
            queue_next_id: self.queue.next_id_raw(),
            queue_stats: self.queue.stats(),
            queue_entries: self
                .queue
                .live_entries()
                .into_iter()
                .map(|(t, id, ev)| (t, id, ev.clone()))
                .collect(),
            kernel: self.kernel.snapshot(),
            events_processed: self.events_processed,
        }
    }

    /// Overlay a captured state onto this freshly assembled, booted node.
    /// Each `SegEnd` goes back into its CPU's timer slot; a `SegEnd` for
    /// a CPU the node does not have, or a second one for the same CPU,
    /// is an error.
    pub fn restore(&mut self, snap: NodeSnap) -> Result<(), String> {
        self.kernel.restore(&snap.kernel)?;
        self.queue = EventQueue::from_parts(
            snap.queue_now,
            snap.queue_next_id,
            snap.queue_stats,
            snap.queue_entries,
            self.kernel.ncpus() as usize,
            seg_slot,
        )
        .map_err(|e| format!("calendar (SegEnd timers keyed by cpu): {e}"))?;
        self.events_processed = snap.events_processed;
        Ok(())
    }
}

/// A [`NodeLoop`] whose route is a loopback: every message is node-local
/// and arrives 2 µs after it is sent. Dereferences to its node loop.
pub struct SoloRunner(NodeLoop);

impl SoloRunner {
    /// Wrap a kernel (not yet booted).
    pub fn new(kernel: Kernel) -> SoloRunner {
        SoloRunner(NodeLoop::new(kernel))
    }

    /// Boot the kernel at the current time.
    pub fn boot(&mut self) {
        self.0.boot(loopback(self.kernel.node_id()));
    }

    /// Run until all application threads exit or `horizon` passes.
    /// Returns the stop time.
    pub fn run_until_apps_done(&mut self, horizon: SimTime) -> SimTime {
        self.0
            .run(horizon, true, true, loopback(self.kernel.node_id()));
        self.now()
    }

    /// Run until `horizon` regardless of application state.
    pub fn run_until(&mut self, horizon: SimTime) -> SimTime {
        self.0
            .run(horizon, true, false, loopback(self.kernel.node_id()));
        horizon
    }
}

fn loopback(node: u32) -> impl Route {
    move |now, msg: Message| {
        assert!(
            msg.dst.node == node,
            "SoloRunner cannot route cross-node messages"
        );
        Some((now + SHM_LATENCY, msg))
    }
}

impl Deref for SoloRunner {
    type Target = NodeLoop;

    fn deref(&self) -> &NodeLoop {
        &self.0
    }
}

impl DerefMut for SoloRunner {
    fn deref_mut(&mut self) -> &mut NodeLoop {
        &mut self.0
    }
}
