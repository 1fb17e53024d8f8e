//! Dispatch-ordered ready queues.
//!
//! The queue orders threads by an opaque [`DispatchKey`] supplied by the
//! active [`Dispatcher`](crate::dispatch::Dispatcher) policy — the AIX
//! policy keys by priority (lower numeric value = more favored, FIFO
//! within a level), the fair policies by virtual runtime or virtual
//! deadline. The node has one [`ReadyQueue`] per CPU plus one global
//! queue (see [`DaemonQueuePolicy`](crate::types::DaemonQueuePolicy)).
//!
//! Membership operations (`remove`, `contains`, `requeue`) go through a
//! `Tid -> (key, seq)` side index so they cost O(log n) instead of the
//! full-set scan they used to be; the set and the index are kept in
//! lockstep and checked against each other after every mutation in debug
//! builds.

use crate::types::{Prio, Tid};
use serde::value::{get, Value};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// Opaque dispatch-order key: **lower sorts first** (dispatched sooner).
/// The AIX policy stores the priority value, the CFS policy a clamped
/// virtual runtime in weighted nanoseconds, the EEVDF policy a virtual
/// deadline. Ties break FIFO by arrival sequence.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct DispatchKey(pub u64);

impl DispatchKey {
    /// The AIX mapping: the priority value itself (lower = more favored),
    /// so key order reproduces priority dispatch exactly.
    pub fn from_prio(prio: Prio) -> DispatchKey {
        DispatchKey(u64::from(prio.0))
    }
}

/// A ready queue ordered by (dispatch key, arrival sequence).
#[derive(Debug, Default, Clone)]
pub struct ReadyQueue {
    set: BTreeSet<(DispatchKey, u64, Tid)>,
    /// Side index for O(log n) membership operations; always mirrors
    /// `set` exactly.
    index: BTreeMap<Tid, (DispatchKey, u64)>,
    next_seq: u64,
}

impl ReadyQueue {
    /// An empty queue.
    pub fn new() -> ReadyQueue {
        ReadyQueue::default()
    }

    /// Set and index must describe the same membership after every
    /// mutation. O(n), debug builds only; node queues hold at most a few
    /// dozen threads.
    fn debug_check(&self) {
        debug_assert_eq!(
            self.set.len(),
            self.index.len(),
            "ready-queue set/index size desync"
        );
        debug_assert!(
            self.set
                .iter()
                .all(|&(k, s, t)| self.index.get(&t) == Some(&(k, s))),
            "ready-queue set/index entry desync"
        );
    }

    /// Enqueue `tid` at `key`.
    ///
    /// # Panics
    /// Panics (debug) if `tid` is already queued — a thread must be in at
    /// most one ready queue.
    pub fn push(&mut self, tid: Tid, key: DispatchKey) {
        debug_assert!(!self.contains(tid), "thread {tid:?} queued twice");
        let seq = self.next_seq;
        self.next_seq += 1;
        self.set.insert((key, seq, tid));
        self.index.insert(tid, (key, seq));
        self.debug_check();
    }

    /// The best (lowest) queued dispatch key, if any.
    pub fn best_key(&self) -> Option<DispatchKey> {
        self.set.iter().next().map(|&(k, _, _)| k)
    }

    /// Peek the thread that would be popped next.
    pub fn peek(&self) -> Option<(DispatchKey, Tid)> {
        self.set.iter().next().map(|&(k, _, t)| (k, t))
    }

    /// Pop the thread with the lowest key.
    pub fn pop(&mut self) -> Option<(DispatchKey, Tid)> {
        let &(k, s, t) = self.set.iter().next()?;
        self.set.remove(&(k, s, t));
        self.index.remove(&t);
        self.debug_check();
        Some((k, t))
    }

    /// Remove a specific thread (used when it is stolen by another CPU or
    /// its key changes). Returns true if it was present. O(log n) via the
    /// side index.
    pub fn remove(&mut self, tid: Tid) -> bool {
        let Some((k, s)) = self.index.remove(&tid) else {
            return false;
        };
        let removed = self.set.remove(&(k, s, tid));
        debug_assert!(removed, "index pointed at a missing set entry");
        self.debug_check();
        true
    }

    /// Is `tid` queued here? O(log n) via the side index.
    pub fn contains(&self, tid: Tid) -> bool {
        self.index.contains_key(&tid)
    }

    /// Re-key a queued thread, preserving nothing of its old position (it
    /// re-enters FIFO order at the new key): one index-guided remove plus
    /// one insert. No-op if absent. Returns true if re-keyed.
    pub fn requeue(&mut self, tid: Tid, new_key: DispatchKey) -> bool {
        let Some((k, s)) = self.index.remove(&tid) else {
            return false;
        };
        let removed = self.set.remove(&(k, s, tid));
        debug_assert!(removed, "index pointed at a missing set entry");
        let seq = self.next_seq;
        self.next_seq += 1;
        self.set.insert((new_key, seq, tid));
        self.index.insert(tid, (new_key, seq));
        self.debug_check();
        true
    }

    /// Number of queued threads.
    pub fn len(&self) -> usize {
        self.set.len()
    }

    /// True iff empty.
    pub fn is_empty(&self) -> bool {
        self.set.is_empty()
    }

    /// Iterate queued tids in dispatch order.
    pub fn iter(&self) -> impl Iterator<Item = (DispatchKey, Tid)> + '_ {
        self.set.iter().map(|&(k, _, t)| (k, t))
    }

    /// Rebuild a queue from checkpointed parts. The side index is
    /// rederived entry by entry; a tid appearing twice (which would desync
    /// set and index) or a seq at/above the allocator is rejected.
    fn from_parts(entries: Vec<(DispatchKey, u64, Tid)>, next_seq: u64) -> Result<Self, String> {
        let mut q = ReadyQueue {
            set: BTreeSet::new(),
            index: BTreeMap::new(),
            next_seq,
        };
        for (key, seq, tid) in entries {
            if seq >= next_seq {
                return Err(format!(
                    "ready-queue seq {seq} not below the allocator {next_seq}"
                ));
            }
            if q.index.insert(tid, (key, seq)).is_some() {
                return Err(format!("thread {tid:?} queued twice in checkpoint"));
            }
            if !q.set.insert((key, seq, tid)) {
                return Err(format!(
                    "duplicate ready-queue entry ({key:?}, {seq}) in checkpoint"
                ));
            }
        }
        q.debug_check();
        Ok(q)
    }
}

/// A queue checkpoints as `{entries, next_seq}`: its `(key, arrival seq,
/// tid)` entries in dispatch order and the arrival-sequence allocator.
/// The raw seqs are what make FIFO-within-key survive a restore exactly;
/// the side index is rebuilt, not stored.
impl Serialize for ReadyQueue {
    fn to_value(&self) -> Value {
        let entries = self.set.iter().map(Serialize::to_value).collect();
        Value::Map(vec![
            ("entries".to_string(), Value::Seq(entries)),
            ("next_seq".to_string(), self.next_seq.to_value()),
        ])
    }
}

impl Deserialize for ReadyQueue {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let m = v
            .as_map()
            .ok_or_else(|| serde::Error::expected("map", "ReadyQueue"))?;
        let field = |name| get(m, name).ok_or_else(|| serde::Error::missing(name, "ReadyQueue"));
        let entries = Vec::from_value(field("entries")?).map_err(|e| e.in_field("entries"))?;
        let next_seq = u64::from_value(field("next_seq")?).map_err(|e| e.in_field("next_seq"))?;
        ReadyQueue::from_parts(entries, next_seq).map_err(serde::Error)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(v: u8) -> DispatchKey {
        DispatchKey::from_prio(Prio(v))
    }

    #[test]
    fn pops_best_key_first() {
        let mut q = ReadyQueue::new();
        q.push(Tid(1), key(90));
        q.push(Tid(2), key(56));
        q.push(Tid(3), key(100));
        assert_eq!(q.best_key(), Some(key(56)));
        assert_eq!(q.pop(), Some((key(56), Tid(2))));
        assert_eq!(q.pop(), Some((key(90), Tid(1))));
        assert_eq!(q.pop(), Some((key(100), Tid(3))));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn fifo_within_key() {
        let mut q = ReadyQueue::new();
        for i in 0..5 {
            q.push(Tid(i), key(60));
        }
        for i in 0..5 {
            assert_eq!(q.pop(), Some((key(60), Tid(i))));
        }
    }

    #[test]
    fn remove_specific() {
        let mut q = ReadyQueue::new();
        q.push(Tid(1), key(60));
        q.push(Tid(2), key(60));
        assert!(q.remove(Tid(1)));
        assert!(!q.remove(Tid(1)));
        assert!(!q.contains(Tid(1)));
        assert_eq!(q.pop(), Some((key(60), Tid(2))));
    }

    #[test]
    fn requeue_changes_order() {
        let mut q = ReadyQueue::new();
        q.push(Tid(1), key(100));
        q.push(Tid(2), key(90));
        assert!(q.requeue(Tid(1), key(30)));
        assert_eq!(q.pop(), Some((key(30), Tid(1))));
        assert!(!q.requeue(Tid(99), key(1)), "absent tid is a no-op");
    }

    #[test]
    fn requeue_reenters_fifo_order_at_new_key() {
        let mut q = ReadyQueue::new();
        q.push(Tid(1), key(60));
        q.push(Tid(2), key(60));
        // Re-keying Tid(1) to the same level moves it behind Tid(2).
        assert!(q.requeue(Tid(1), key(60)));
        assert_eq!(q.pop(), Some((key(60), Tid(2))));
        assert_eq!(q.pop(), Some((key(60), Tid(1))));
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = ReadyQueue::new();
        q.push(Tid(7), key(10));
        assert_eq!(q.peek(), Some((key(10), Tid(7))));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn iter_in_dispatch_order() {
        let mut q = ReadyQueue::new();
        q.push(Tid(1), key(90));
        q.push(Tid(2), key(30));
        q.push(Tid(3), key(90));
        let order: Vec<Tid> = q.iter().map(|(_, t)| t).collect();
        assert_eq!(order, vec![Tid(2), Tid(1), Tid(3)]);
    }

    #[test]
    fn snapshot_round_trips_exactly() {
        let mut q = ReadyQueue::new();
        q.push(Tid(1), key(90));
        q.push(Tid(2), key(60));
        q.remove(Tid(1));
        q.push(Tid(3), key(60));
        q.requeue(Tid(2), key(95));
        let back = ReadyQueue::from_value(&q.to_value()).unwrap();
        assert_eq!(back.to_value(), q.to_value());
        // Pop order survives the round trip.
        let mut a = q.clone();
        let mut b = back;
        while let Some(x) = a.pop() {
            assert_eq!(b.pop(), Some(x));
        }
        assert_eq!(b.pop(), None);
    }

    #[test]
    fn from_parts_rejects_desync() {
        // Duplicate tid would desync set and index.
        let dup = vec![(key(60), 0, Tid(1)), (key(90), 1, Tid(1))];
        assert!(ReadyQueue::from_parts(dup, 2).is_err());
        // Seq at/above the allocator would collide with future pushes.
        let high = vec![(key(60), 5, Tid(1))];
        assert!(ReadyQueue::from_parts(high, 5).is_err());
        // A valid set round-trips.
        let ok = vec![(key(60), 0, Tid(1)), (key(60), 1, Tid(2))];
        let q = ReadyQueue::from_parts(ok, 2).unwrap();
        assert_eq!(q.len(), 2);
    }
}
