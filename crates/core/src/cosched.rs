//! The co-scheduler daemon (§4).
//!
//! One daemon per node, started with the job, "for the exclusive purpose
//! of scheduling the dispatching priorities of the tasks of the job
//! running on that node. It does this by cycling the process priority of
//! the tasks between a favored and unfavored value at periodic
//! intervals." Key behaviours reproduced:
//!
//! * tasks register their pids through the MPI control pipe at init, and
//!   are actively co-scheduled as soon as they register;
//! * the operation cycle is aligned so the period ends on a (local-clock)
//!   second boundary — with clocks synchronized to the switch clock, all
//!   nodes flip priority windows at the same instant *with no inter-node
//!   communication*;
//! * the daemon itself runs at an even more favored priority but sleeps
//!   most of the time;
//! * the application can detach (I/O phases) and re-attach; the daemon
//!   acts on requests when it sees them at its next wakeup.

use pa_kernel::{Action, Prio, Program, SrcSel, StepCtx, TagSel, Tid, WaitMode};
use pa_mpi::CtrlOp;
use pa_simkit::{SimDur, SimTime};
use serde::value::Value;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Checkpointable daemon state (everything mutated after construction).
#[derive(Debug, Serialize, Deserialize)]
struct CoschedSnap {
    tasks: Vec<Tid>,
    detached: bool,
    queue: Vec<Action>,
    mode: Mode,
    probe_outstanding: bool,
    adjustments: u64,
    attaches: u64,
    detaches: u64,
    setprio_sent: u64,
}

/// Priority-cycling parameters (one record of `/etc/poe.priority`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CoschedParams {
    /// Priority during the favored window (§5.3 benchmark runs: 30).
    pub favored: Prio,
    /// Priority during the unfavored window (§5.3: 100).
    pub unfavored: Prio,
    /// Priority restored while the application is detached.
    pub base: Prio,
    /// Overall scheduling period (§5.3: 5 s; §4 suggests ~10 s works well
    /// on 16-way nodes).
    pub period: SimDur,
    /// Fraction of the period at favored priority (§5.3: 0.9).
    pub duty: f64,
    /// Fixed CPU cost of one adjustment pass.
    pub adjust_cost: SimDur,
    /// Additional cost per task adjusted.
    pub adjust_cost_per_task: SimDur,
    /// Offset of this job's window grid from the local-clock origin. The
    /// single-job study always uses zero (windows aligned to second
    /// boundaries, §4); the batch layer hands co-resident gangs distinct
    /// phases so their favored windows interleave instead of colliding.
    pub phase: SimDur,
}

impl CoschedParams {
    /// The settings the study settled on for the benchmark runs (§5.3):
    /// favored 30, unfavored 100, 5 s window, 90% favored.
    pub fn benchmark() -> CoschedParams {
        CoschedParams {
            favored: Prio::FAVORED,
            unfavored: Prio::UNFAVORED,
            base: Prio::USER,
            period: SimDur::from_secs(5),
            duty: 0.9,
            adjust_cost: SimDur::from_micros(30),
            adjust_cost_per_task: SimDur::from_micros(3),
            phase: SimDur::ZERO,
        }
    }

    /// The I/O-aware variant that fixed the ALE3D slowdown (§5.3): mmfsd
    /// pinned at 40, tasks favored at 41 so the I/O daemon may always
    /// preempt them while every other daemon still cannot.
    pub fn io_aware() -> CoschedParams {
        CoschedParams {
            favored: Prio(41),
            ..CoschedParams::benchmark()
        }
    }

    /// Duration of the favored window.
    pub fn favored_len(&self) -> SimDur {
        self.period.mul_f64(self.duty.clamp(0.0, 1.0))
    }

    /// Validate.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.duty) {
            return Err(format!("duty cycle {} out of [0,1]", self.duty));
        }
        if self.period.is_zero() {
            return Err("period must be nonzero".into());
        }
        if !self.favored.beats(self.unfavored) {
            return Err("favored priority must beat unfavored".into());
        }
        if self.phase >= self.period {
            return Err(format!(
                "phase {} must be less than the period {}",
                self.phase, self.period
            ));
        }
        Ok(())
    }

    /// This job's window grid runs `phase` later than the local clock's
    /// period grid; shifting time *back* by the phase maps it onto the
    /// canonical zero-phase grid. Adding `period` first keeps the
    /// subtraction in range for local times inside the first period.
    fn onto_grid(&self, local: SimTime) -> SimTime {
        local + self.period - self.phase
    }

    /// Is local time `t` inside a favored window?
    pub fn in_favored(&self, local: SimTime) -> bool {
        (self.onto_grid(local) % self.period) < self.favored_len()
    }

    /// Next window edge strictly after `local`.
    pub fn next_edge(&self, local: SimTime) -> SimTime {
        let shifted = self.onto_grid(local);
        let pos = shifted % self.period;
        let fav = self.favored_len();
        let edge = if pos < fav {
            shifted - pos + fav
        } else {
            shifted - pos + self.period
        };
        edge + self.phase - self.period
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
enum Mode {
    /// Waiting (blocking) for task registrations.
    Register,
    /// Non-blocking drain of the control pipe at a wakeup.
    Drain,
    /// Emit the priority adjustments for the current phase.
    Apply,
    /// Sleep to the next window edge.
    Sleep,
}

/// The per-node co-scheduler daemon program.
pub struct CoschedDaemon {
    params: CoschedParams,
    expected_tasks: u32,
    tasks: Vec<Tid>,
    detached: bool,
    queue: VecDeque<Action>,
    mode: Mode,
    /// A non-blocking pipe probe has been issued and not yet answered.
    probe_outstanding: bool,
    adjustments: u64,
    attaches: u64,
    detaches: u64,
    setprio_sent: u64,
}

impl CoschedDaemon {
    /// New daemon expecting `expected_tasks` registrations on its node.
    ///
    /// # Panics
    /// Panics on invalid parameters.
    pub fn new(params: CoschedParams, expected_tasks: u32) -> CoschedDaemon {
        params
            .validate()
            .unwrap_or_else(|e| panic!("invalid CoschedParams: {e}"));
        CoschedDaemon {
            params,
            expected_tasks,
            tasks: Vec::new(),
            detached: false,
            queue: VecDeque::new(),
            mode: if expected_tasks == 0 {
                Mode::Apply
            } else {
                Mode::Register
            },
            probe_outstanding: false,
            adjustments: 0,
            attaches: 0,
            detaches: 0,
            setprio_sent: 0,
        }
    }

    fn current_prio(&self, local: SimTime) -> Prio {
        if self.detached {
            self.params.base
        } else if self.params.in_favored(local) {
            self.params.favored
        } else {
            self.params.unfavored
        }
    }

    fn queue_apply(&mut self, local: SimTime) {
        let prio = self.current_prio(local);
        self.queue.push_back(Action::Compute(
            self.params.adjust_cost + self.params.adjust_cost_per_task * self.tasks.len() as u64,
        ));
        for &t in &self.tasks {
            self.queue
                .push_back(Action::SetPriority { target: t, prio });
        }
        self.setprio_sent += self.tasks.len() as u64;
        self.adjustments += 1;
    }

    fn handle_ctrl(&mut self, tag: u64, payload: u64, local: SimTime) {
        match CtrlOp::from_tag(tag) {
            Some(CtrlOp::Register) => {
                let tid = Tid(payload as u32);
                if !self.tasks.contains(&tid) {
                    self.tasks.push(tid);
                    // "As soon as a process registers, it is actively
                    // co-scheduled."
                    let prio = self.current_prio(local);
                    self.queue
                        .push_back(Action::SetPriority { target: tid, prio });
                    self.setprio_sent += 1;
                }
            }
            Some(CtrlOp::Detach) if !self.detached => {
                self.detached = true;
                self.detaches += 1;
                self.queue_apply(local);
            }
            Some(CtrlOp::Attach) if self.detached => {
                self.detached = false;
                self.attaches += 1;
                self.queue_apply(local);
            }
            Some(CtrlOp::Shutdown) => {
                // Job teardown: put every task back at base priority (a
                // straggling SetPriority to an exited thread is a no-op in
                // the kernel), then leave. The Exit rides the action queue
                // so pending adjustments drain first.
                let n = self.tasks.len() as u64;
                self.queue.push_back(Action::Compute(
                    self.params.adjust_cost + self.params.adjust_cost_per_task * n,
                ));
                for &t in &self.tasks {
                    self.queue.push_back(Action::SetPriority {
                        target: t,
                        prio: self.params.base,
                    });
                }
                self.setprio_sent += n;
                self.adjustments += 1;
                self.queue.push_back(Action::Exit);
            }
            // Redundant detach/attach requests (every rank sends one).
            Some(CtrlOp::Detach) | Some(CtrlOp::Attach) => {}
            None => {} // stray message: ignored
        }
    }
}

impl Program for CoschedDaemon {
    fn step(&mut self, ctx: &mut StepCtx) -> Action {
        // A completed receive must be consumed before anything else, or
        // the message would be dropped when queued actions are pending.
        let got = ctx.try_received();
        if let Some(m) = &got {
            self.handle_ctrl(m.tag, m.payload, ctx.local_now);
            self.probe_outstanding = false;
        }
        loop {
            if let Some(a) = self.queue.pop_front() {
                return a;
            }
            match self.mode {
                Mode::Register => {
                    if self.tasks.len() as u32 >= self.expected_tasks {
                        self.mode = Mode::Apply;
                        continue;
                    }
                    return Action::Recv {
                        tag: TagSel::Any,
                        src: SrcSel::Any,
                        wait: WaitMode::Block,
                    };
                }
                Mode::Drain => {
                    if self.probe_outstanding {
                        // The probe came back empty (a matched probe was
                        // consumed at the top of this call).
                        self.probe_outstanding = false;
                        self.mode = Mode::Apply;
                        continue;
                    }
                    self.probe_outstanding = true;
                    return Action::Recv {
                        tag: TagSel::Any,
                        src: SrcSel::Any,
                        wait: WaitMode::Try,
                    };
                }
                Mode::Apply => {
                    self.queue_apply(ctx.local_now);
                    self.mode = Mode::Sleep;
                }
                Mode::Sleep => {
                    self.mode = Mode::Drain;
                    self.probe_outstanding = false;
                    return Action::SleepUntil(self.params.next_edge(ctx.local_now));
                }
            }
        }
    }

    fn kind(&self) -> &'static str {
        "cosched"
    }

    fn metrics(&self, emit: &mut dyn FnMut(&'static str, u64)) {
        emit("window_applies", self.adjustments);
        emit("attaches", self.attaches);
        emit("detaches", self.detaches);
        emit("setprio_sent", self.setprio_sent);
    }

    fn snapshot_state(&self) -> Value {
        CoschedSnap {
            tasks: self.tasks.clone(),
            detached: self.detached,
            queue: self.queue.iter().cloned().collect(),
            mode: self.mode,
            probe_outstanding: self.probe_outstanding,
            adjustments: self.adjustments,
            attaches: self.attaches,
            detaches: self.detaches,
            setprio_sent: self.setprio_sent,
        }
        .to_value()
    }

    fn restore_state(&mut self, state: &Value) -> Result<(), serde::Error> {
        let snap = CoschedSnap::from_value(state)?;
        self.tasks = snap.tasks;
        self.detached = snap.detached;
        self.queue = snap.queue.into();
        self.mode = snap.mode;
        self.probe_outstanding = snap.probe_outstanding;
        self.adjustments = snap.adjustments;
        self.attaches = snap.attaches;
        self.detaches = snap.detaches;
        self.setprio_sent = snap.setprio_sent;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_params_match_paper() {
        let p = CoschedParams::benchmark();
        assert_eq!(p.favored, Prio(30));
        assert_eq!(p.unfavored, Prio(100));
        assert_eq!(p.period, SimDur::from_secs(5));
        assert!((p.duty - 0.9).abs() < 1e-12);
        assert!(p.validate().is_ok());
        assert_eq!(p.favored_len(), SimDur::from_millis(4500));
    }

    #[test]
    fn io_aware_sandwiches_mmfsd() {
        let p = CoschedParams::io_aware();
        assert!(Prio::MMFSD.beats(p.favored));
        assert!(p.favored.beats(Prio::DAEMON_OBSERVED));
    }

    #[test]
    fn window_phase_math() {
        let p = CoschedParams::benchmark();
        assert!(p.in_favored(SimTime::from_secs(0)));
        assert!(p.in_favored(SimTime::from_millis(4_499)));
        assert!(!p.in_favored(SimTime::from_millis(4_500)));
        assert!(!p.in_favored(SimTime::from_millis(4_999)));
        assert!(p.in_favored(SimTime::from_secs(5)));
        assert_eq!(
            p.next_edge(SimTime::from_secs(0)),
            SimTime::from_millis(4_500)
        );
        assert_eq!(
            p.next_edge(SimTime::from_millis(4_500)),
            SimTime::from_secs(5)
        );
        assert_eq!(
            p.next_edge(SimTime::from_millis(4_700)),
            SimTime::from_secs(5)
        );
        // Period boundaries land on whole seconds (§4's alignment rule).
        assert_eq!(
            p.next_edge(SimTime::from_millis(9_999)).nanos() % 1_000_000_000,
            0
        );
    }

    #[test]
    fn validation_rejects_bad_params() {
        let mut p = CoschedParams::benchmark();
        p.duty = 1.5;
        assert!(p.validate().is_err());
        let mut p = CoschedParams::benchmark();
        p.period = SimDur::ZERO;
        assert!(p.validate().is_err());
        let mut p = CoschedParams::benchmark();
        p.favored = Prio(110);
        assert!(p.validate().is_err());
    }

    #[test]
    #[should_panic(expected = "invalid CoschedParams")]
    fn daemon_rejects_bad_params() {
        let mut p = CoschedParams::benchmark();
        p.duty = -0.1;
        CoschedDaemon::new(p, 16);
    }

    #[test]
    fn zero_task_daemon_starts_in_apply() {
        let d = CoschedDaemon::new(CoschedParams::benchmark(), 0);
        assert_eq!(d.mode, Mode::Apply);
        let d = CoschedDaemon::new(CoschedParams::benchmark(), 4);
        assert_eq!(d.mode, Mode::Register);
    }
}
