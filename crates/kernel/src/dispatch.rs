//! Pluggable dispatcher policies over the shared ready-queue substrate.
//!
//! The kernel's mechanisms — per-CPU and global
//! [`ReadyQueue`](crate::runq::ReadyQueue)s, tick notice points, IPI
//! preemption, idle stealing — are policy-free: they order threads by an
//! opaque [`DispatchKey`] and consult the active [`Dispatcher`] at each
//! decision point. Three policies ship:
//!
//! * [`DispatcherKind::Aix`] — the paper's 2003 semantics. Key = the
//!   priority value, so strict priority dispatch with FIFO within a
//!   level and a fixed round-robin timeslice. Bit-identical to the
//!   pre-trait kernel.
//! * [`DispatcherKind::Cfs`] — CFS-style weighted fairness. Key = the
//!   thread's virtual runtime (nanoseconds scaled by the Linux
//!   nice-to-weight table), clamped to a monotone per-node floor at
//!   enqueue so sleepers rejoin without a starvation debt; slices target
//!   a sched-latency window split among contenders; wakeup preemption
//!   requires beating the runner by a granularity margin.
//! * [`DispatcherKind::Eevdf`] — simplified EEVDF. Key = the virtual
//!   deadline (eligible virtual runtime plus a weight-scaled request);
//!   earliest virtual deadline dispatched first. Eligibility is
//!   approximated by the same monotone floor clamp rather than a full
//!   lag computation.
//!
//! Every policy is a deterministic function of the event history, so a
//! seed fixes the whole history under each of them: the policy adds no
//! new randomness.
//!
//! Priority still exists under the fair policies — it maps to a weight
//! (nice level) instead of an absolute rank. The co-scheduler's priority
//! boosts therefore still *help* a gang, but no longer give it the
//! near-absolute CPU claim AIX priorities do; that difference is exactly
//! what the fair-vs-AIX sweeps measure.

use crate::runq::DispatchKey;
use crate::types::{DispatcherKind, Prio, Tid};
use pa_simkit::SimDur;
use serde::value::{get, Value};
use serde::{Deserialize, Serialize};

/// CFS sched-latency target: every contender should run once within this
/// window (Linux default ballpark for a small machine).
pub const SCHED_LATENCY: SimDur = SimDur::from_nanos(24_000_000);
/// CFS minimum slice: the latency window never splits below this.
pub const MIN_GRANULARITY: SimDur = SimDur::from_nanos(3_000_000);
/// CFS wakeup preemption margin, in *virtual* (weighted) nanoseconds: a
/// waking thread preempts only if its key beats the runner's by this.
pub const WAKEUP_GRANULARITY_VNS: u64 = 1_000_000;

/// The Linux `sched_prio_to_weight` table: weight for nice -20..=19,
/// ~1.25× per nice step, 1024 at nice 0.
pub const NICE_TO_WEIGHT: [u32; 40] = [
    88761, 71755, 56483, 46273, 36291, // -20 .. -16
    29154, 23254, 18705, 14949, 11916, // -15 .. -11
    9548, 7620, 6100, 4904, 3906, // -10 .. -6
    3121, 2501, 1991, 1586, 1277, // -5 .. -1
    1024, 820, 655, 526, 423, // 0 .. 4
    335, 272, 215, 172, 137, // 5 .. 9
    110, 87, 70, 56, 45, // 10 .. 14
    36, 29, 23, 18, 15, // 15 .. 19
];

/// Map an AIX priority to a CFS weight: priority 60 (AIX "normal") is
/// nice 0, and every 4 priority points are one nice step, clamped to the
/// table. The paper's levels land at sensible niceness: the co-scheduler
/// (20) at nice -10, favored (30) at -7, daemons (56) at -1, user (90)
/// at +7, unfavored (100) at +10.
pub fn prio_to_weight(prio: Prio) -> u64 {
    let nice = ((i32::from(prio.0) - 60) / 4).clamp(-20, 19);
    u64::from(NICE_TO_WEIGHT[(nice + 20) as usize])
}

/// Scale `ran` nanoseconds of real CPU time into virtual (weighted)
/// nanoseconds: `ran * 1024 / weight`, the CFS `calc_delta_fair` shape.
fn to_vns(ran: SimDur, weight: u64) -> u64 {
    ran.nanos().saturating_mul(1024) / weight
}

/// Policy hooks consulted by the kernel at every dispatch decision. One
/// instance per node, owned by the [`Kernel`](crate::Kernel); all state
/// it keeps must round-trip through `snapshot_state`/`restore_state` so
/// checkpointed runs resume bit-identically.
pub trait Dispatcher: Send {
    /// Which policy this is.
    fn kind(&self) -> DispatcherKind;

    /// A thread slot was created (including programless pseudo-slots for
    /// interrupt sources — tids stay dense). Called before the thread's
    /// first enqueue.
    fn on_spawn(&mut self, tid: Tid);

    /// The key under which a now-Ready thread enters a queue. May update
    /// policy state (the fair policies clamp the thread's virtual
    /// runtime to the eligibility floor here).
    fn enqueue_key(&mut self, tid: Tid, prio: Prio) -> DispatchKey;

    /// A thread was popped from a queue for dispatch at `key`. The fair
    /// policies advance their monotone virtual-time floor here.
    fn on_pick(&mut self, tid: Tid, key: DispatchKey);

    /// Charge `ran` of CPU time to `tid` as it leaves a CPU (preemption,
    /// block, exit). Mirrors the kernel's `cpu_time` accounting exactly.
    fn charge(&mut self, tid: Tid, prio: Prio, ran: SimDur);

    /// The *effective* key of a currently running thread, `ran` after
    /// its dispatch: what it would re-enter the queue as right now. Used
    /// to compare the runner against ready candidates.
    fn running_key(&self, tid: Tid, prio: Prio, ran: SimDur) -> DispatchKey;

    /// Should a ready candidate at `cand` displace a runner whose
    /// effective key is `running`? `slice_expired` is the round-robin
    /// boundary signal computed from [`Dispatcher::slice_len`].
    fn should_preempt(&self, cand: DispatchKey, running: DispatchKey, slice_expired: bool) -> bool;

    /// Length of the current timeslice given the configured AIX
    /// `timeslice` and the number of ready contenders visible to the CPU.
    fn slice_len(&self, timeslice: SimDur, contenders: usize) -> SimDur;

    /// Serialize all policy state for a checkpoint.
    fn snapshot_state(&self) -> Value;

    /// Restore policy state captured by [`Dispatcher::snapshot_state`].
    fn restore_state(&mut self, v: &Value) -> Result<(), String>;
}

/// Build the policy selected by `kind`.
pub fn make_dispatcher(kind: DispatcherKind) -> Box<dyn Dispatcher> {
    match kind {
        DispatcherKind::Aix => Box::new(AixDispatcher),
        DispatcherKind::Cfs | DispatcherKind::Eevdf => Box::new(FairDispatcher::new(kind)),
    }
}

/// The 2003 AIX policy: key = priority value, fixed timeslice, strict
/// priority preemption with round-robin at slice expiry. Stateless —
/// everything it needs is the priority the kernel already tracks.
#[derive(Debug, Default, Clone)]
pub struct AixDispatcher;

impl Dispatcher for AixDispatcher {
    fn kind(&self) -> DispatcherKind {
        DispatcherKind::Aix
    }

    fn on_spawn(&mut self, _tid: Tid) {}

    fn enqueue_key(&mut self, _tid: Tid, prio: Prio) -> DispatchKey {
        DispatchKey::from_prio(prio)
    }

    fn on_pick(&mut self, _tid: Tid, _key: DispatchKey) {}

    fn charge(&mut self, _tid: Tid, _prio: Prio, _ran: SimDur) {}

    fn running_key(&self, _tid: Tid, prio: Prio, _ran: SimDur) -> DispatchKey {
        DispatchKey::from_prio(prio)
    }

    fn should_preempt(&self, cand: DispatchKey, running: DispatchKey, slice_expired: bool) -> bool {
        cand < running || (cand == running && slice_expired)
    }

    fn slice_len(&self, timeslice: SimDur, _contenders: usize) -> SimDur {
        timeslice
    }

    fn snapshot_state(&self) -> Value {
        Value::Null
    }

    fn restore_state(&mut self, v: &Value) -> Result<(), String> {
        match v {
            Value::Null => Ok(()),
            other => Err(format!("AIX dispatcher expects no state, got {other:?}")),
        }
    }
}

/// Shared machinery of the CFS and EEVDF policies: per-thread virtual
/// runtime in weighted nanoseconds plus the monotone `min_vrt` floor.
#[derive(Debug, Clone)]
pub struct FairDispatcher {
    kind: DispatcherKind,
    /// Virtual runtime per tid (weighted ns). Indexed by dense tid.
    vrt: Vec<u64>,
    /// Monotone floor of the virtual clock: max vruntime ever picked.
    /// Wakers clamp up to it so a long sleep is not a starvation claim.
    min_vrt: u64,
}

impl FairDispatcher {
    /// A fresh fair policy of the given flavor (`Cfs` or `Eevdf`).
    ///
    /// # Panics
    /// Panics if `kind` is [`DispatcherKind::Aix`].
    pub fn new(kind: DispatcherKind) -> FairDispatcher {
        assert!(
            kind != DispatcherKind::Aix,
            "FairDispatcher models the fair policies, not AIX"
        );
        FairDispatcher {
            kind,
            vrt: Vec::new(),
            min_vrt: 0,
        }
    }

    /// EEVDF's weight-scaled request: the virtual span one sched-latency
    /// of service occupies for a thread of this weight.
    fn request_vns(prio: Prio) -> u64 {
        to_vns(SCHED_LATENCY, prio_to_weight(prio))
    }
}

impl Dispatcher for FairDispatcher {
    fn kind(&self) -> DispatcherKind {
        self.kind
    }

    fn on_spawn(&mut self, tid: Tid) {
        debug_assert_eq!(self.vrt.len(), tid.0 as usize, "non-dense tid spawn");
        // Newcomers start at the floor: no claim on the past.
        self.vrt.push(self.min_vrt);
    }

    fn enqueue_key(&mut self, tid: Tid, prio: Prio) -> DispatchKey {
        let v = &mut self.vrt[tid.0 as usize];
        // Eligibility clamp: sleeping accrues no vruntime, so a long
        // sleeper's vrt may lag the floor arbitrarily; re-entering at the
        // floor grants a wakeup boost without unbounded starvation debt.
        *v = (*v).max(self.min_vrt);
        match self.kind {
            DispatcherKind::Cfs => DispatchKey(*v),
            DispatcherKind::Eevdf => DispatchKey((*v).saturating_add(Self::request_vns(prio))),
            DispatcherKind::Aix => unreachable!("FairDispatcher is never AIX"),
        }
    }

    fn on_pick(&mut self, tid: Tid, _key: DispatchKey) {
        // Lazy monotone floor: advances to the picked thread's vruntime
        // (under both flavors the pick with the smallest key also has the
        // smallest clamped vruntime among equal-weight peers; using the
        // thread's own vrt keeps the floor exact for EEVDF too).
        self.min_vrt = self.min_vrt.max(self.vrt[tid.0 as usize]);
    }

    fn charge(&mut self, tid: Tid, prio: Prio, ran: SimDur) {
        let w = prio_to_weight(prio);
        let v = &mut self.vrt[tid.0 as usize];
        *v = (*v).saturating_add(to_vns(ran, w));
    }

    fn running_key(&self, tid: Tid, prio: Prio, ran: SimDur) -> DispatchKey {
        let w = prio_to_weight(prio);
        let v = self.vrt[tid.0 as usize].saturating_add(to_vns(ran, w));
        match self.kind {
            DispatcherKind::Cfs => DispatchKey(v),
            DispatcherKind::Eevdf => DispatchKey(v.saturating_add(Self::request_vns(prio))),
            DispatcherKind::Aix => unreachable!("FairDispatcher is never AIX"),
        }
    }

    fn should_preempt(&self, cand: DispatchKey, running: DispatchKey, slice_expired: bool) -> bool {
        match self.kind {
            DispatcherKind::Cfs => {
                // Wakeup preemption needs a clear margin; slice expiry
                // yields to anyone at least as deserving.
                running.0.saturating_sub(cand.0) > WAKEUP_GRANULARITY_VNS
                    || (slice_expired && cand <= running)
            }
            DispatcherKind::Eevdf => {
                // Earliest virtual deadline first.
                cand < running || (slice_expired && cand <= running)
            }
            DispatcherKind::Aix => unreachable!("FairDispatcher is never AIX"),
        }
    }

    fn slice_len(&self, _timeslice: SimDur, contenders: usize) -> SimDur {
        // Split the latency target among the runner and its contenders,
        // floored at the minimum granularity.
        let split = SCHED_LATENCY / (contenders as u64 + 1);
        split.max(MIN_GRANULARITY)
    }

    fn snapshot_state(&self) -> Value {
        Value::Map(vec![
            ("vrt".into(), self.vrt.to_value()),
            ("min_vrt".into(), self.min_vrt.to_value()),
        ])
    }

    fn restore_state(&mut self, v: &Value) -> Result<(), String> {
        let map = v
            .as_map()
            .ok_or_else(|| format!("fair dispatcher state must be a map, got {v:?}"))?;
        let vrt: Vec<u64> = get(map, "vrt")
            .ok_or_else(|| "fair dispatcher state missing 'vrt'".to_string())
            .and_then(|x| Vec::<u64>::from_value(x).map_err(|e| e.to_string()))?;
        if vrt.len() != self.vrt.len() {
            return Err(format!(
                "fair dispatcher state has {} threads, node has {}",
                vrt.len(),
                self.vrt.len()
            ));
        }
        let min_vrt = get(map, "min_vrt")
            .ok_or_else(|| "fair dispatcher state missing 'min_vrt'".to_string())
            .and_then(|x| u64::from_value(x).map_err(|e| e.to_string()))?;
        self.vrt = vrt;
        self.min_vrt = min_vrt;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weight_table_matches_linux_anchors() {
        assert_eq!(prio_to_weight(Prio::NORMAL), 1024); // nice 0
        assert_eq!(prio_to_weight(Prio(56)), 1277); // nice -1
        assert_eq!(prio_to_weight(Prio::USER), 215); // nice +7
        assert_eq!(prio_to_weight(Prio(0)), 29154); // nice -15
        assert_eq!(prio_to_weight(Prio(127)), 29); // nice +16
    }

    #[test]
    fn aix_keys_reproduce_priority_order() {
        let mut d = AixDispatcher;
        d.on_spawn(Tid(0));
        d.on_spawn(Tid(1));
        let a = d.enqueue_key(Tid(0), Prio::FAVORED);
        let b = d.enqueue_key(Tid(1), Prio::USER);
        assert!(a < b);
        assert!(d.should_preempt(a, b, false));
        assert!(!d.should_preempt(b, a, false));
        assert!(d.should_preempt(b, b, true), "slice expiry round-robins");
        assert!(!d.should_preempt(b, b, false));
    }

    #[test]
    fn cfs_charges_inverse_to_weight() {
        let mut d = FairDispatcher::new(DispatcherKind::Cfs);
        d.on_spawn(Tid(0));
        d.on_spawn(Tid(1));
        // Equal runtime: the heavier (more favored) thread accrues less
        // virtual runtime, so it sorts ahead for the next dispatch.
        d.charge(Tid(0), Prio::FAVORED, SimDur::from_millis(10));
        d.charge(Tid(1), Prio::USER, SimDur::from_millis(10));
        let a = d.enqueue_key(Tid(0), Prio::FAVORED);
        let b = d.enqueue_key(Tid(1), Prio::USER);
        assert!(a < b, "favored thread must accrue vruntime more slowly");
    }

    #[test]
    fn cfs_wakeup_clamps_to_floor() {
        let mut d = FairDispatcher::new(DispatcherKind::Cfs);
        d.on_spawn(Tid(0));
        d.on_spawn(Tid(1));
        // Tid(0) runs a long while and its pick advances the floor.
        d.charge(Tid(0), Prio::NORMAL, SimDur::from_secs(1));
        let k = d.enqueue_key(Tid(0), Prio::NORMAL);
        d.on_pick(Tid(0), k);
        // Tid(1) "slept" the whole time (vrt still 0): it re-enters at
        // the floor, not with a full second of starvation credit.
        let k1 = d.enqueue_key(Tid(1), Prio::NORMAL);
        assert_eq!(k1, k, "sleeper rejoins at the monotone floor");
    }

    #[test]
    fn cfs_preemption_needs_wakeup_margin() {
        let d = FairDispatcher::new(DispatcherKind::Cfs);
        let run = DispatchKey(10_000_000);
        assert!(!d.should_preempt(DispatchKey(10_000_000 - 1), run, false));
        assert!(d.should_preempt(
            DispatchKey(10_000_000 - WAKEUP_GRANULARITY_VNS - 1),
            run,
            false
        ));
        // At slice expiry any at-least-as-deserving candidate takes over.
        assert!(d.should_preempt(run, run, true));
        assert!(!d.should_preempt(DispatchKey(10_000_001), run, true));
    }

    #[test]
    fn eevdf_orders_by_virtual_deadline() {
        let mut d = FairDispatcher::new(DispatcherKind::Eevdf);
        d.on_spawn(Tid(0));
        d.on_spawn(Tid(1));
        // Same vruntime: the heavier thread's request spans less virtual
        // time, so its deadline is earlier.
        let heavy = d.enqueue_key(Tid(0), Prio::FAVORED);
        let light = d.enqueue_key(Tid(1), Prio::USER);
        assert!(heavy < light);
        assert!(d.should_preempt(heavy, light, false));
        assert!(!d.should_preempt(light, heavy, false));
    }

    #[test]
    fn fair_slice_splits_latency_with_floor() {
        let d = FairDispatcher::new(DispatcherKind::Cfs);
        let ts = SimDur::from_millis(10);
        assert_eq!(d.slice_len(ts, 0), SCHED_LATENCY);
        assert_eq!(d.slice_len(ts, 1), SCHED_LATENCY / 2);
        assert_eq!(d.slice_len(ts, 100), MIN_GRANULARITY);
        // AIX ignores contention entirely.
        assert_eq!(AixDispatcher.slice_len(ts, 100), ts);
    }

    #[test]
    fn fair_state_round_trips() {
        let mut d = FairDispatcher::new(DispatcherKind::Eevdf);
        d.on_spawn(Tid(0));
        d.on_spawn(Tid(1));
        d.charge(Tid(0), Prio::USER, SimDur::from_millis(7));
        let k = d.enqueue_key(Tid(0), Prio::USER);
        d.on_pick(Tid(0), k);
        let snap = d.snapshot_state();
        let mut fresh = FairDispatcher::new(DispatcherKind::Eevdf);
        fresh.on_spawn(Tid(0));
        fresh.on_spawn(Tid(1));
        fresh.restore_state(&snap).unwrap();
        assert_eq!(fresh.vrt, d.vrt);
        assert_eq!(fresh.min_vrt, d.min_vrt);
        // Mismatched thread count is a loud error, not silent corruption.
        let mut small = FairDispatcher::new(DispatcherKind::Eevdf);
        small.on_spawn(Tid(0));
        assert!(small.restore_state(&snap).is_err());
        // AIX carries no state and rejects any.
        assert!(AixDispatcher.restore_state(&Value::Null).is_ok());
        assert!(AixDispatcher.restore_state(&snap).is_err());
    }
}
