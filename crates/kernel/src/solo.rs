//! The node event loop.
//!
//! [`NodeLoop`] is the one driver of a [`Kernel`]: it owns the kernel's
//! event calendar (with one `SegEnd` timer slot per CPU) and outbox, and
//! its event counter, and runs pop → handle → [`Route`] each outbound
//! message. The handler schedules, arms and disarms on the calendar
//! itself, in program order, so the loop moves no event in between.
//! [`SoloRunner`] is a node loop with a loopback route, for single-node
//! experiments and the kernel, noise and MPI unit tests; `pa-cluster`'s
//! shard embeds a node loop and adds only fabric routing.

use crate::kernel::{Effects, Kernel, KernelEvent, KernelSnapshot, ThreadSpec};
use crate::msg::Message;
use crate::program::Program;
use crate::types::{CpuId, Tid};
use pa_simkit::{Entry, EventQueue, QueueStats, SimDur, SimTime};
use serde::{Deserialize, Serialize};
use std::ops::{Deref, DerefMut};

/// Loopback latency of [`SoloRunner`]. Not the cluster fabric's node-local
/// delay (3 µs plus size over bandwidth): `oversub` and `tab_overhead`
/// were calibrated on this single-node model.
const SHM_LATENCY: SimDur = SimDur::from_nanos(2_000);

/// Everything a [`NodeLoop`] mutates after boot, for checkpoints: the
/// kernel state plus the calendar's clock, id counter, statistics and
/// live entries. Its fields sit in the shard's checkpoint map, in this
/// order.
#[derive(Debug, Serialize, Deserialize)]
pub struct NodeSnap {
    /// Calendar clock.
    pub queue_now: SimTime,
    /// Next event id the calendar assigns.
    pub queue_next_id: u64,
    /// Calendar statistics.
    pub queue_stats: QueueStats,
    /// Live calendar entries as `(time, id, event)`; an armed segment
    /// timer is its CPU's [`KernelEvent::SegEnd`].
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
    /// The calendar (one timer slot per CPU for its outstanding `SegEnd`)
    /// and outbox the kernel's handlers act on.
    pub(crate) fx: Effects,
    events_processed: u64,
}

/// A calendar entry in checkpoint form: an armed segment timer becomes
/// its CPU's `SegEnd`, carrying the timer's token.
fn checkpoint_event(entry: Entry<KernelEvent>) -> KernelEvent {
    match entry {
        Entry::Event(ev) => ev,
        Entry::Timer { key, data } => KernelEvent::SegEnd {
            cpu: CpuId(key as u8),
            token: data,
        },
    }
}

/// The inverse of [`checkpoint_event`]: a `SegEnd` is armed in its CPU's
/// timer slot, and every other event goes to the heap.
fn calendar_entry(ev: KernelEvent) -> Entry<KernelEvent> {
    match ev {
        KernelEvent::SegEnd { cpu, token } => Entry::Timer {
            key: usize::from(cpu.0),
            data: token,
        },
        ev => Entry::Event(ev),
    }
}

impl NodeLoop {
    /// Wrap a kernel (not yet booted).
    pub fn new(kernel: Kernel) -> NodeLoop {
        NodeLoop {
            fx: Effects::new(kernel.ncpus()),
            kernel,
            events_processed: 0,
        }
    }

    /// Current simulation time: the calendar clock.
    pub fn now(&self) -> SimTime {
        self.fx.queue.now()
    }

    /// Total events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// The pending event calendar.
    pub fn queue(&self) -> &EventQueue<KernelEvent> {
        &self.fx.queue
    }

    /// Move the calendar clock forward to `t` without handling anything.
    pub fn advance_to(&mut self, t: SimTime) {
        self.fx.queue.advance_to(t);
    }

    /// Schedule the arrival of `msg` at this node at `at`.
    pub fn deliver_at(&mut self, at: SimTime, msg: Message) {
        self.fx.queue.schedule(at, KernelEvent::Deliver { msg });
    }

    /// Boot the kernel at the current time.
    pub fn boot(&mut self, mut route: impl Route) {
        let now = self.fx.queue.now();
        self.kernel.boot(now, &mut self.fx);
        self.route_outbound(now, &mut route);
    }

    /// Spawn a thread on the booted kernel at `at` (see
    /// [`Kernel::spawn`] for threads present at boot).
    pub fn spawn_at(&mut self, at: SimTime, spec: ThreadSpec, program: Box<dyn Program>) -> Tid {
        let tid = self.kernel.spawn_at(at, spec, program, &mut self.fx);
        debug_assert!(self.fx.outbound.is_empty(), "a spawn sends no message");
        tid
    }

    /// Handle every pending event due at or before `last`. With
    /// `until_apps_done` the loop also stops as soon as no application
    /// thread is alive.
    pub fn run(&mut self, last: SimTime, until_apps_done: bool, mut route: impl Route) {
        while !(until_apps_done && self.kernel.app_alive() == 0) {
            let Some((now, entry)) = self.fx.queue.pop_until(last) else {
                break;
            };
            self.events_processed += 1;
            match entry {
                Entry::Timer { key, data } => {
                    let cpu = CpuId(key as u8);
                    self.kernel.on_seg_end(cpu, data, now, &mut self.fx);
                }
                Entry::Event(ev) => self.kernel.handle(now, ev, &mut self.fx),
            }
            self.route_outbound(now, &mut route);
        }
    }

    /// Route the outbound messages of the event handled at `now`, in send
    /// order, scheduling each one the route keeps on this node.
    fn route_outbound(&mut self, now: SimTime, route: &mut impl Route) {
        let Effects { queue, outbound } = &mut self.fx;
        for msg in outbound.drain(..) {
            if let Some((at, msg)) = route(now, msg) {
                queue.schedule(at, KernelEvent::Deliver { msg });
            }
        }
    }

    /// Capture the kernel and calendar (checkpoint).
    pub fn capture(&self) -> NodeSnap {
        NodeSnap {
            queue_now: self.fx.queue.now(),
            queue_next_id: self.fx.queue.next_id_raw(),
            queue_stats: self.fx.queue.stats(),
            queue_entries: self
                .fx
                .queue
                .live_entries()
                .into_iter()
                .map(|(t, id, e)| (t, id, checkpoint_event(e.cloned())))
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
        self.kernel.restore(snap.kernel)?;
        self.fx.queue = EventQueue::from_parts(
            snap.queue_now,
            snap.queue_next_id,
            snap.queue_stats,
            snap.queue_entries
                .into_iter()
                .map(|(t, id, ev)| (t, id, calendar_entry(ev)))
                .collect(),
            self.kernel.ncpus() as usize,
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
    /// Returns the stop time: the last event handled.
    pub fn run_until_apps_done(&mut self, horizon: SimTime) -> SimTime {
        self.0.run(horizon, true, loopback(self.kernel.node_id()));
        self.now()
    }

    /// Run until `horizon` regardless of application state. Afterwards
    /// the clock reads `horizon` (or the last event handled, if a
    /// previous call ran past it), and that time is returned, as
    /// `ClusterSim::run_until` does.
    pub fn run_until(&mut self, horizon: SimTime) -> SimTime {
        self.0.run(horizon, false, loopback(self.kernel.node_id()));
        self.0.advance_to(horizon.max(self.now()));
        self.now()
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
