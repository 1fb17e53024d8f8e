//! Thread programs: the behaviour of every schedulable entity.
//!
//! Every thread in the simulation — MPI ranks, MPI progress threads,
//! system daemons, the cron job, the co-scheduler, the GPFS server — is a
//! state machine implementing [`Program`]. When the thread holds a CPU and
//! has finished its previous action, the kernel calls
//! [`Program::step`]; the returned [`Action`] tells the kernel what the
//! thread does next. Durations are *CPU demand*: interference (ticks,
//! IPIs, device interrupts, preemption) stretches them in wall-clock time,
//! which is exactly the phenomenon the paper studies.

use crate::msg::{Message, SrcSel, TagSel};
use crate::types::{Prio, Tid};
use pa_simkit::{SimDur, SimTime};
use serde::value::Value;
use serde::{Deserialize, Serialize};

/// What a thread does next.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Action {
    /// Burn CPU for the given demand (compute phase, daemon burst, ...).
    Compute(SimDur),
    /// Send a message. The kernel charges the configured send overhead to
    /// this thread, then hands the message to the local mailbox or fabric.
    Send(Message),
    /// Wait for a message matching the selectors.
    Recv {
        /// Tag selector.
        tag: TagSel,
        /// Source selector.
        src: SrcSel,
        /// Busy-poll on the CPU (MPI style) or block (daemon style).
        wait: WaitMode,
    },
    /// Sleep until the given *local-time* instant. Wakeups ride the tick
    /// callout queue, so actual wake time quantizes to tick boundaries —
    /// the mechanism behind big-tick daemon batching (§3.1.1).
    SleepUntil(SimTime),
    /// Change another thread's (or one's own) dispatching priority; this
    /// is how the co-scheduler cycles tasks between favored and unfavored.
    SetPriority {
        /// Thread to change.
        target: Tid,
        /// New priority.
        prio: Prio,
    },
    /// Write a trace record visible to the analysis tooling. The kernel
    /// stamps it with this thread's id.
    Trace {
        /// Which application-level hook (AppMarker / CollBegin / CollEnd).
        hook: pa_trace::HookId,
        /// Hook-specific value.
        aux: u64,
    },
    /// Terminate the thread.
    Exit,
}

/// Whether a receive spins on the CPU, blocks, or returns immediately.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WaitMode {
    /// Busy-poll: the thread keeps its CPU while waiting (IBM MPI user-space
    /// polling). A preempted poller cannot notice message arrival until it
    /// is dispatched again — the cascade amplifier of §2.
    Poll,
    /// Block: the thread leaves the CPU and is woken on delivery.
    Block,
    /// Non-blocking probe: if nothing matches, the program is stepped again
    /// immediately with no received message. The co-scheduler drains its
    /// control pipe this way at each window edge.
    Try,
}

/// What the kernel exposes to a stepping program.
#[derive(Debug)]
pub struct StepCtx {
    /// Current global (switch) time.
    pub now: SimTime,
    /// Current node-local time.
    pub local_now: SimTime,
    /// This node's index.
    pub node: u32,
    /// This thread's id.
    pub tid: Tid,
    /// This thread's current priority.
    pub prio: Prio,
    /// The message that satisfied the immediately preceding `Recv`, if any.
    pub received: Option<Message>,
}

impl StepCtx {
    /// Take the message that completed the last `Recv`. Panics if the
    /// program did not just complete a receive — that is a program bug.
    pub fn take_received(&mut self) -> Message {
        self.received
            .take()
            .expect("take_received called without a completed Recv")
    }

    /// Take the message that completed the last `Recv`, if any. A `Try`
    /// receive that matched nothing steps the program with `None` here.
    pub fn try_received(&mut self) -> Option<Message> {
        self.received.take()
    }
}

/// A thread body. Implementations are Mealy machines: `step` is called
/// each time the previous action completes, and must eventually return
/// [`Action::Exit`] (daemons run forever and are torn down with the node).
///
/// Programs must be `Send`: the sharded cluster engine processes each
/// node's kernel — programs included — on whichever worker thread owns
/// the shard for the current window.
pub trait Program: Send {
    /// Produce the next action.
    fn step(&mut self, ctx: &mut StepCtx) -> Action;

    /// Human-readable program kind (diagnostics only).
    fn kind(&self) -> &'static str {
        "program"
    }

    /// Deterministic program-level counters: call `emit` once per
    /// (metric name, value) pair. The observability layer aggregates these
    /// per [`Program::kind`] after a run; values must depend only on
    /// simulation state so that snapshots stay byte-identical across
    /// reruns. The default emits nothing — only programs with interesting
    /// counters override it.
    fn metrics(&self, emit: &mut dyn FnMut(&'static str, u64)) {
        let _ = emit;
    }

    /// Serialize this program's mutable state for a checkpoint. Restore
    /// rebuilds the program from the experiment spec (same constructor,
    /// same arguments) and then overlays this value via
    /// [`Program::restore_state`] — so only state that changes after
    /// construction needs to be captured. Stateless programs keep the
    /// default `Null`.
    fn snapshot_state(&self) -> Value {
        Value::Null
    }

    /// Overlay checkpointed state captured by [`Program::snapshot_state`]
    /// onto a freshly rebuilt program. The default accepts anything and
    /// changes nothing (correct iff `snapshot_state` returned `Null`).
    fn restore_state(&mut self, state: &Value) -> Result<(), serde::Error> {
        let _ = state;
        Ok(())
    }
}

/// A program built from a fixed list of actions, then `Exit`.
/// Used heavily in kernel unit tests.
#[derive(Debug)]
pub struct Script {
    actions: std::vec::IntoIter<Action>,
}

impl Script {
    /// Program that performs `actions` in order, then exits.
    pub fn new(actions: Vec<Action>) -> Script {
        Script {
            actions: actions.into_iter(),
        }
    }
}

impl Program for Script {
    fn step(&mut self, _ctx: &mut StepCtx) -> Action {
        self.actions.next().unwrap_or(Action::Exit)
    }

    fn kind(&self) -> &'static str {
        "script"
    }

    fn snapshot_state(&self) -> Value {
        self.actions.as_slice().to_vec().to_value()
    }

    fn restore_state(&mut self, state: &Value) -> Result<(), serde::Error> {
        let remaining: Vec<Action> = Deserialize::from_value(state)?;
        self.actions = remaining.into_iter();
        Ok(())
    }
}

/// A program that loops forever: `Compute(burst)`, then sleep so wakeups
/// land on multiples of `period` (local time). The canonical periodic
/// daemon shape; pa-noise builds richer variants.
#[derive(Debug)]
pub struct PeriodicLoop {
    /// Period between wakeups (local time).
    pub period: SimDur,
    /// CPU demand per wakeup.
    pub burst: SimDur,
    /// Phase offset of wakeups within the period.
    pub phase: SimDur,
    fired: bool,
}

impl PeriodicLoop {
    /// New periodic loop.
    pub fn new(period: SimDur, burst: SimDur, phase: SimDur) -> PeriodicLoop {
        PeriodicLoop {
            period,
            burst,
            phase,
            // First action is the sleep to the phase boundary, not a
            // burst: spawning must not synchronize a burst storm.
            fired: true,
        }
    }
}

impl Program for PeriodicLoop {
    fn step(&mut self, ctx: &mut StepCtx) -> Action {
        if self.fired {
            self.fired = false;
            Action::SleepUntil(ctx.local_now.next_boundary(self.period, self.phase))
        } else {
            self.fired = true;
            Action::Compute(self.burst)
        }
    }

    fn kind(&self) -> &'static str {
        "periodic"
    }

    fn snapshot_state(&self) -> Value {
        Value::Bool(self.fired)
    }

    fn restore_state(&mut self, state: &Value) -> Result<(), serde::Error> {
        self.fired = Deserialize::from_value(state)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> StepCtx {
        StepCtx {
            now: SimTime::from_millis(15),
            local_now: SimTime::from_millis(15),
            node: 0,
            tid: Tid(1),
            prio: Prio(60),
            received: None,
        }
    }

    #[test]
    fn script_plays_actions_then_exits() {
        let wake = Action::SleepUntil(SimTime::from_millis(20));
        let mut s = Script::new(vec![Action::Compute(SimDur::from_micros(5)), wake.clone()]);
        let mut c = ctx();
        assert_eq!(s.step(&mut c), Action::Compute(SimDur::from_micros(5)));
        assert_eq!(s.step(&mut c), wake);
        assert_eq!(s.step(&mut c), Action::Exit);
        assert_eq!(s.step(&mut c), Action::Exit);
    }

    #[test]
    fn periodic_alternates_sleep_and_burst() {
        let mut p = PeriodicLoop::new(
            SimDur::from_millis(10),
            SimDur::from_micros(300),
            SimDur::ZERO,
        );
        let mut c = ctx();
        // Sleep-first: local_now = 15ms -> next boundary = 20ms.
        assert_eq!(p.step(&mut c), Action::SleepUntil(SimTime::from_millis(20)));
        assert_eq!(p.step(&mut c), Action::Compute(SimDur::from_micros(300)));
        assert_eq!(p.step(&mut c), Action::SleepUntil(SimTime::from_millis(20)));
    }

    #[test]
    fn take_received_consumes() {
        let mut c = ctx();
        c.received = Some(Message {
            src: crate::msg::Endpoint {
                node: 0,
                tid: Tid(2),
            },
            dst: crate::msg::Endpoint {
                node: 0,
                tid: Tid(1),
            },
            tag: 5,
            bytes: 8,
            sent_at: SimTime::ZERO,
            payload: 42,
        });
        assert_eq!(c.take_received().payload, 42);
        assert!(c.received.is_none());
    }

    #[test]
    #[should_panic(expected = "without a completed Recv")]
    fn take_received_twice_panics() {
        let mut c = ctx();
        c.take_received();
    }
}
