//! The MPI rank program.
//!
//! Each rank is a kernel thread whose [`Program`] translates a
//! [`RankWorkload`]'s high-level operations (compute, Allreduce, halo
//! exchange, I/O, co-scheduler attach/detach) into kernel actions: sends,
//! busy-poll receives following the Allreduce schedule of [`coll`],
//! trace markers, and GPFS requests.
//!
//! The rank models the one MPI the study ran, IBM MPI: every collective
//! and exchange wait busy-polls (user-space polling), the Allreduce is
//! the binomial "standard tree" (§5.1), each combining receive pays a
//! 300 ns reduce, and at MPI init the rank registers its process id with
//! its node's co-scheduler, when one runs, through the control pipe
//! (§4). A rank blocks only on a GPFS reply.
//!
//! An Allreduce is walked in place. Each rank builds its schedule once,
//! at its first Allreduce, and never copies it. A call then holds only a
//! cursor into that schedule (a `Walk`), and each step yields the next
//! action from it: `CollBegin`, then per schedule step a `Send`, or a
//! `Recv` followed by the reduce `Compute` when the step combines, then
//! `CollEnd`. Exchanges, GPFS requests and restored actions are queued
//! instead. A checkpoint writes a walk's remaining actions after the
//! queue: the same list, in the same order, that an expanded action
//! queue would hold, so checkpoint files are unchanged and a restored
//! rank simply drains them from its queue.

use crate::coll::{self, CollStep};
use crate::layout::{JobLayout, LayoutHandle};
use crate::recorder::{OpKind, RecorderHandle};
use crate::tags::{coll_tag, p2p_tag, CtrlOp};
use pa_kernel::{Action, Endpoint, Message, SrcSel, TagSel, WaitMode};
use pa_kernel::{Program, StepCtx};
use pa_simkit::{SimDur, SimTime};
use pa_trace::HookId;
use serde::value::Value;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// One high-level operation of a rank's workload.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum MpiOp {
    /// Local computation.
    Compute(SimDur),
    /// Global Allreduce of a payload of `bytes`.
    Allreduce {
        /// Payload size per message.
        bytes: u32,
    },
    /// Halo exchange: one message to and from each peer.
    Exchange {
        /// Neighbour ranks.
        peers: Vec<u32>,
        /// Message size per neighbour.
        bytes: u32,
    },
    /// Read through a GPFS server (blocks the rank).
    IoRead {
        /// Transfer size.
        bytes: u64,
    },
    /// Write through a GPFS server (blocks the rank).
    IoWrite {
        /// Transfer size.
        bytes: u64,
    },
    /// Ask the co-scheduler to stop boosting this job (I/O phases, §4).
    DetachCosched,
    /// Ask the co-scheduler to resume boosting.
    AttachCosched,
    /// Write an application trace marker (`aggregate_trace` brackets every
    /// 64th Allreduce this way).
    Mark(u64),
    /// Workload finished; the rank exits.
    Done,
}

/// Supplies a rank's operation stream.
///
/// `Send` is required because rank programs (which own their workload)
/// migrate across the sharded engine's worker threads between windows.
pub trait RankWorkload: Send {
    /// The next operation for `rank` of `nranks`. Must eventually return
    /// [`MpiOp::Done`].
    fn next_op(&mut self, rank: u32, nranks: u32) -> MpiOp;

    /// Serialize this workload's mutable state for a checkpoint. Same
    /// contract as [`pa_kernel::Program::snapshot_state`]: restore rebuilds
    /// the workload from the experiment spec and overlays this value.
    fn snapshot_state(&self) -> Value {
        Value::Null
    }

    /// Overlay checkpointed state onto a freshly rebuilt workload.
    fn restore_state(&mut self, state: &Value) -> Result<(), serde::Error> {
        let _ = state;
        Ok(())
    }
}

/// The reduction compute a rank pays after each combining receive.
const REDUCE_COST: SimDur = SimDur::from_nanos(300);

/// An in-flight collective on this rank.
#[derive(Debug)]
struct CurOp {
    kind: OpKind,
    seq: u64,
    start: SimTime,
    /// The cursor of an Allreduce; None for an exchange, a restored call
    /// (its actions are queued) or a finished walk.
    walk: Option<Walk>,
}

/// Where an Allreduce's walk over the rank's schedule stands.
#[derive(Debug, Clone, Copy)]
struct Walk {
    /// Next position: 0 yields `CollBegin`, `1..=len` the schedule's
    /// steps, `len + 1` yields `CollEnd`.
    pos: u32,
    /// The reduce `Compute` owed after the `Recv` just yielded.
    reduce_due: bool,
    bytes: u32,
    me: Endpoint,
}

impl Walk {
    /// The next action of collective `seq` over `sched`, advancing the
    /// cursor; None once `CollEnd` has been yielded.
    fn next(&mut self, seq: u64, sched: &[CollStep], layout: &JobLayout) -> Option<Action> {
        if self.reduce_due {
            self.reduce_due = false;
            return Some(Action::Compute(REDUCE_COST));
        }
        let pos = self.pos as usize;
        if pos > sched.len() + 1 {
            return None;
        }
        self.pos += 1;
        if pos == 0 || pos == sched.len() + 1 {
            let hook = if pos == 0 {
                HookId::CollBegin
            } else {
                HookId::CollEnd
            };
            return Some(Action::Trace { hook, aux: seq });
        }
        Some(match sched[pos - 1] {
            CollStep::Send { peer, phase } => Action::Send(Message {
                src: self.me,
                dst: layout.endpoint(peer),
                tag: coll_tag(seq, phase),
                bytes: self.bytes,
                sent_at: SimTime::ZERO,
                payload: 0,
            }),
            CollStep::Recv {
                peer,
                phase,
                reduce,
            } => {
                self.reduce_due = reduce;
                Action::Recv {
                    tag: TagSel::Exact(coll_tag(seq, phase)),
                    src: SrcSel::Exact(layout.endpoint(peer)),
                    wait: WaitMode::Poll,
                }
            }
        })
    }
}

/// The Allreduce schedule, built when the first walk began.
fn built(allreduce: &Option<Box<[CollStep]>>) -> &[CollStep] {
    allreduce
        .as_deref()
        .expect("the Allreduce schedule is built when the first walk begins")
}

/// Checkpointed mutable state of a [`RankProgram`]. The Allreduce
/// schedule is deliberately absent: it is a pure function of (rank,
/// nranks) and is lazily rebuilt after restore. A walk in progress is
/// written out as the actions it has left, after the queue, so the format
/// is the one an expanded action queue had; restore queues them.
#[derive(Debug, Serialize, Deserialize)]
struct RankSnap {
    registered: bool,
    next_seq: u64,
    next_io: u64,
    compute_ns: u64,
    pending_compute: SimDur,
    cur: Option<(OpKind, u64, SimTime)>,
    queue: Vec<Action>,
    workload: Value,
}

/// The rank program. See module docs.
pub struct RankProgram {
    rank: u32,
    nranks: u32,
    layout: LayoutHandle,
    workload: Box<dyn RankWorkload>,
    recorder: RecorderHandle,
    registered: bool,
    /// Collective/exchange sequence counter. Every rank of a correct BSP
    /// workload issues the same communication ops in the same order, so
    /// this advances in lockstep across ranks and tags match.
    next_seq: u64,
    /// I/O transaction counter — deliberately separate: I/O is *not*
    /// collective (a single plot-writing rank must not desynchronize its
    /// collective tags from everyone else's).
    next_io: u64,
    /// Useful application compute completed, ns. Charged when the *next*
    /// step arrives (the kernel steps again only after the segment is
    /// fully served), so a horizon cut never counts a half-served
    /// segment. Collective-internal reduce costs are excluded: they are
    /// protocol overhead, not workload compute.
    compute_ns: u64,
    /// The workload Compute issued by the last step, not yet confirmed
    /// complete.
    pending_compute: SimDur,
    cur: Option<CurOp>,
    /// Exchange, GPFS and restored actions, yielded before the walk.
    queue: VecDeque<Action>,
    /// This rank's binomial Allreduce schedule, built at its first
    /// Allreduce.
    allreduce: Option<Box<[CollStep]>>,
}

impl RankProgram {
    /// Build a rank program. `layout` may still be unset at
    /// construction; it must be frozen before the rank runs.
    pub fn new(
        rank: u32,
        nranks: u32,
        layout: LayoutHandle,
        workload: Box<dyn RankWorkload>,
        recorder: RecorderHandle,
    ) -> RankProgram {
        RankProgram {
            rank,
            nranks,
            layout,
            workload,
            recorder,
            registered: false,
            next_seq: 0,
            next_io: 0,
            compute_ns: 0,
            pending_compute: SimDur::ZERO,
            cur: None,
            queue: VecDeque::new(),
            allreduce: None,
        }
    }

    fn me(&self, ctx: &StepCtx) -> Endpoint {
        Endpoint {
            node: ctx.node,
            tid: ctx.tid,
        }
    }

    fn begin_allreduce(&mut self, bytes: u32, ctx: &StepCtx) {
        let (rank, n) = (self.rank, self.nranks);
        self.allreduce
            .get_or_insert_with(|| coll::binomial_allreduce(rank, n).into_boxed_slice());
        let seq = self.next_seq;
        self.next_seq += 1;
        self.cur = Some(CurOp {
            kind: OpKind::Allreduce,
            seq,
            start: ctx.now,
            walk: Some(Walk {
                pos: 0,
                reduce_due: false,
                bytes,
                me: self.me(ctx),
            }),
        });
    }

    /// The next action of the collective being walked, if any.
    fn advance_walk(&mut self) -> Option<Action> {
        let cur = self.cur.as_mut()?;
        let walk = cur.walk.as_mut()?;
        let sched = built(&self.allreduce);
        let action = walk.next(cur.seq, sched, frozen(&self.layout, self.rank));
        if action.is_none() {
            cur.walk = None;
        }
        action
    }

    fn begin_exchange(&mut self, peers: &[u32], bytes: u32, ctx: &StepCtx) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.cur = Some(CurOp {
            kind: OpKind::Exchange,
            seq,
            start: ctx.now,
            walk: None,
        });
        let me = self.me(ctx);
        let layout = frozen(&self.layout, self.rank);
        // Eager sends first (buffered by the fabric), then the receives:
        // the standard deadlock-free exchange.
        for &p in peers {
            self.queue.push_back(Action::Send(Message {
                src: me,
                dst: layout.endpoint(p),
                tag: p2p_tag(seq, 0),
                bytes,
                sent_at: SimTime::ZERO,
                payload: 0,
            }));
        }
        for &p in peers {
            self.queue.push_back(Action::Recv {
                tag: TagSel::Exact(p2p_tag(seq, 0)),
                src: SrcSel::Exact(layout.endpoint(p)),
                wait: WaitMode::Poll,
            });
        }
    }

    fn ctrl_message(&self, op: CtrlOp, ctx: &StepCtx) -> Option<Action> {
        let cosched = frozen(&self.layout, self.rank).cosched(ctx.node)?;
        Some(Action::Send(Message {
            src: self.me(ctx),
            dst: cosched,
            tag: op.tag(),
            bytes: 16,
            sent_at: SimTime::ZERO,
            payload: u64::from(ctx.tid.0),
        }))
    }
}

/// The job layout a rank reads; unset means the installer's caller never
/// froze it.
fn frozen(layout: &LayoutHandle, rank: u32) -> &JobLayout {
    layout.get().unwrap_or_else(|| {
        panic!("rank {rank}: job layout read before it was frozen (see Job::freeze_layout)")
    })
}

impl Program for RankProgram {
    fn step(&mut self, ctx: &mut StepCtx) -> Action {
        // Being stepped again means the previously issued workload
        // Compute (if any) was served to completion.
        let done = core::mem::take(&mut self.pending_compute);
        self.compute_ns += done.nanos();
        // MPI init: report our pid to the co-scheduler's control pipe.
        if !self.registered {
            self.registered = true;
            if let Some(a) = self.ctrl_message(CtrlOp::Register, ctx) {
                return a;
            }
        }
        loop {
            if let Some(a) = self.queue.pop_front() {
                return a;
            }
            if let Some(a) = self.advance_walk() {
                return a;
            }
            // Queue and walk drained: the in-flight collective (if any)
            // finished at the step that brought us here.
            if let Some(cur) = self.cur.take() {
                self.recorder
                    .lock()
                    .unwrap()
                    .record(self.rank, cur.seq, cur.kind, cur.start, ctx.now);
            }
            match self.workload.next_op(self.rank, self.nranks) {
                MpiOp::Compute(d) => {
                    self.pending_compute = d;
                    return Action::Compute(d);
                }
                MpiOp::Allreduce { bytes } => self.begin_allreduce(bytes, ctx),
                MpiOp::Exchange { peers, bytes } => self.begin_exchange(&peers, bytes, ctx),
                MpiOp::IoRead { bytes } | MpiOp::IoWrite { bytes } => {
                    // A GPFS request to a (possibly remote) server node; the
                    // rank blocks on the reply, freeing its CPU, while the
                    // *server's* mmfsd must win a CPU there.
                    use pa_kernel::msg::ioproto;
                    let token = self.next_io;
                    self.next_io += 1;
                    let server = frozen(&self.layout, self.rank)
                        .gpfs_server_for(self.rank, token)
                        .unwrap_or_else(|| {
                            panic!(
                                "rank {} issued I/O but no GPFS server is installed \
                                 (set NoiseProfile::gpfs_prio)",
                                self.rank
                            )
                        });
                    self.queue.push_back(Action::Send(Message {
                        src: self.me(ctx),
                        dst: server,
                        tag: ioproto::req_tag(token),
                        bytes: 64,
                        sent_at: SimTime::ZERO,
                        payload: bytes,
                    }));
                    self.queue.push_back(Action::Recv {
                        tag: TagSel::Exact(ioproto::resp_tag(token)),
                        src: SrcSel::Exact(server),
                        wait: WaitMode::Block,
                    });
                }
                MpiOp::DetachCosched => {
                    if let Some(a) = self.ctrl_message(CtrlOp::Detach, ctx) {
                        return a;
                    }
                }
                MpiOp::AttachCosched => {
                    if let Some(a) = self.ctrl_message(CtrlOp::Attach, ctx) {
                        return a;
                    }
                }
                MpiOp::Mark(aux) => {
                    return Action::Trace {
                        hook: HookId::AppMarker,
                        aux,
                    }
                }
                MpiOp::Done => return Action::Exit,
            }
        }
    }

    fn kind(&self) -> &'static str {
        "mpi_rank"
    }

    fn metrics(&self, emit: &mut dyn FnMut(&'static str, u64)) {
        emit("collectives", self.next_seq);
        emit("io_ops", self.next_io);
        emit("compute_ns", self.compute_ns);
    }

    fn snapshot_state(&self) -> Value {
        let mut queue: Vec<Action> = self.queue.iter().cloned().collect();
        if let Some(cur) = &self.cur {
            if let Some(mut walk) = cur.walk {
                let sched = built(&self.allreduce);
                let layout = frozen(&self.layout, self.rank);
                while let Some(a) = walk.next(cur.seq, sched, layout) {
                    queue.push(a);
                }
            }
        }
        RankSnap {
            registered: self.registered,
            next_seq: self.next_seq,
            next_io: self.next_io,
            compute_ns: self.compute_ns,
            pending_compute: self.pending_compute,
            cur: self.cur.as_ref().map(|c| (c.kind, c.seq, c.start)),
            queue,
            workload: self.workload.snapshot_state(),
        }
        .to_value()
    }

    fn restore_state(&mut self, state: &Value) -> Result<(), serde::Error> {
        let snap: RankSnap = Deserialize::from_value(state)?;
        self.registered = snap.registered;
        self.next_seq = snap.next_seq;
        self.next_io = snap.next_io;
        self.compute_ns = snap.compute_ns;
        self.pending_compute = snap.pending_compute;
        self.cur = snap.cur.map(|(kind, seq, start)| CurOp {
            kind,
            seq,
            start,
            walk: None,
        });
        self.queue = snap.queue.into();
        self.workload.restore_state(&snap.workload)
    }
}

/// A workload defined by a fixed operation list (tests and simple cases).
pub struct OpList {
    ops: std::vec::IntoIter<MpiOp>,
}

impl OpList {
    /// Workload that performs `ops` then finishes.
    pub fn new(ops: Vec<MpiOp>) -> OpList {
        OpList {
            ops: ops.into_iter(),
        }
    }
}

impl RankWorkload for OpList {
    fn next_op(&mut self, _rank: u32, _nranks: u32) -> MpiOp {
        self.ops.next().unwrap_or(MpiOp::Done)
    }

    fn snapshot_state(&self) -> Value {
        self.ops.as_slice().to_vec().to_value()
    }

    fn restore_state(&mut self, state: &Value) -> Result<(), serde::Error> {
        let remaining: Vec<MpiOp> = Deserialize::from_value(state)?;
        self.ops = remaining.into_iter();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oplist_terminates_with_done() {
        let mut w = OpList::new(vec![MpiOp::Allreduce { bytes: 8 }]);
        assert_eq!(w.next_op(0, 4), MpiOp::Allreduce { bytes: 8 });
        assert_eq!(w.next_op(0, 4), MpiOp::Done);
        assert_eq!(w.next_op(0, 4), MpiOp::Done);
    }

    #[test]
    fn config_defaults_match_study() {
        // IBM MPI as the study ran it: the binomial-tree Allreduce, every
        // wait busy-polls, and each combining receive pays the reduce.
        let n = 4;
        let eps = (0..n).map(|r| Endpoint {
            node: 0,
            tid: pa_kernel::Tid(r),
        });
        let layout = JobLayout::new(eps.collect(), n, [], []);
        let sched = coll::binomial_allreduce(0, n);
        let mut walk = Walk {
            pos: 0,
            reduce_due: false,
            bytes: 8,
            me: layout.endpoint(0),
        };
        let actions: Vec<Action> = std::iter::from_fn(|| walk.next(3, &sched, &layout)).collect();
        // The tree's root combines every receive: `CollBegin`, per
        // receive a polling `Recv` and the 300 ns reduce, its sends, then
        // `CollEnd`.
        let combining = sched
            .iter()
            .filter(|s| matches!(s, CollStep::Recv { reduce: true, .. }))
            .count();
        assert!(combining > 0);
        assert_eq!(actions.len(), sched.len() + combining + 2);
        for (i, a) in actions.iter().enumerate() {
            if let Action::Recv { wait, .. } = a {
                assert_eq!(*wait, WaitMode::Poll, "IBM MPI busy-polls");
                assert_eq!(actions[i + 1], Action::Compute(SimDur::from_nanos(300)));
            }
        }
    }
}
