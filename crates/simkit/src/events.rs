//! Cancellable discrete-event queue.
//!
//! The engine is a classic calendar: events are `(time, payload)` pairs
//! popped in time order, with FIFO tie-breaking so that same-timestamp
//! events are processed in the order they were scheduled (this keeps
//! whole-cluster runs deterministic).
//!
//! # Structure
//!
//! The calendar is an **indexed 4-ary min-heap**: a flat `Vec` ordered by
//! `(time, id)` plus a position map from [`EventId`] to heap slot. The
//! position map doubles as the pending set, so `len`/`is_pending` are a
//! single hash probe and — the part that matters — [`EventQueue::cancel`]
//! is a true O(log n) removal: swap the victim with the last slot and
//! sift. Nothing dead ever stays resident, so [`EventQueue::peek_time`]
//! is a non-allocating, non-mutating `&self` read of slot 0. A 4-ary
//! layout halves the tree depth of a binary heap and keeps each node's
//! children in one cache line, which is where a discrete-event simulator
//! spends its time.
//!
//! # Queue health
//!
//! Cancellation has one policy — the entry leaves the heap at once — so
//! no dead entry is ever resident. [`QueueStats::tombstones`] (dead
//! entries resident) and [`QueueStats::compactions`] (times dead entries
//! were compacted out) therefore read zero. They stay in the stats so
//! checkpoints and metric snapshots keep their schema, and a nonzero
//! value would flag a leak.

use crate::time::SimTime;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Heap arity. Four children per node: shallower than binary, and a
/// node's child block spans a single cache line of `(time, id)` keys.
const D: usize = 4;

/// Handle to a scheduled event; use with [`EventQueue::cancel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId(u64);

impl EventId {
    /// A handle that never corresponds to a live event. Useful as an
    /// initializer for "no event outstanding" slots.
    pub const NONE: EventId = EventId(u64::MAX);

    /// The raw id, for checkpoint plumbing. Pairs with
    /// [`EventId::from_raw`] and the raw ids in
    /// [`EventQueue::live_entries`].
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Rebuild a handle from a checkpointed raw id. Only meaningful for
    /// ids previously obtained from [`EventId::raw`] against the same
    /// queue history.
    pub const fn from_raw(raw: u64) -> Self {
        EventId(raw)
    }
}

/// Event ids are dense, monotonically assigned integers, so a general
/// SipHash is wasted cycles on the hottest map in the engine. One
/// Fibonacci multiply mixes the low bits into the high ones, which is
/// all a power-of-two-capacity table needs.
#[derive(Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    #[inline]
    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("EventId hashes via write_u64");
    }
    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.0 = x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

type PosMap = HashMap<EventId, u32, BuildHasherDefault<IdHasher>>;

#[derive(Debug)]
struct Entry<E> {
    time: SimTime,
    id: EventId,
    payload: E,
}

impl<E> Entry<E> {
    /// Pop order: earliest time first, insertion order among ties (ids
    /// are handed out monotonically).
    #[inline]
    fn key(&self) -> (SimTime, EventId) {
        (self.time, self.id)
    }
}

/// Engine self-profile: lifetime totals of one [`EventQueue`].
///
/// Plain `u64` counters bumped inline on the hot path (an add and a
/// compare per operation); read them post-run and fold them into a
/// `pa-obs` metrics registry. Everything here is simulation-determined —
/// no wall-clock values — so it is safe to include in deterministic
/// snapshots.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct QueueStats {
    /// Events ever scheduled.
    pub scheduled: u64,
    /// Live events popped (tombstones excluded).
    pub popped: u64,
    /// Successful cancellations.
    pub cancelled: u64,
    /// High-water mark of live events pending at once.
    pub max_pending: u64,
    /// Dead entries currently resident in the heap (a gauge, not a
    /// lifetime total). Always 0: cancellation removes the entry. A
    /// nonzero value here would be the leak this field exists to catch.
    pub tombstones: u64,
    /// Times dead entries were compacted out of the heap. Always 0, kept
    /// for the checkpoint and metrics schema.
    pub compactions: u64,
}

impl QueueStats {
    /// Fold another queue's totals into this one (sharded engines keep
    /// one queue per shard and report the merged view). Counters add;
    /// `max_pending` adds too, making the merged value an upper bound on
    /// simultaneously pending events that — unlike a true global
    /// high-water mark — does not depend on how shard processing
    /// interleaves, so it is identical at any thread count. The
    /// `tombstones` gauge likewise adds to a whole-engine resident total.
    pub fn absorb(&mut self, other: QueueStats) {
        self.scheduled += other.scheduled;
        self.popped += other.popped;
        self.cancelled += other.cancelled;
        self.max_pending += other.max_pending;
        self.tombstones += other.tombstones;
        self.compactions += other.compactions;
    }
}

/// A deterministic, cancellable event queue.
///
/// ```
/// use pa_simkit::{EventQueue, SimTime};
///
/// let mut q: EventQueue<&str> = EventQueue::new();
/// q.schedule(SimTime::from_micros(10), "b");
/// let a = q.schedule(SimTime::from_micros(5), "a");
/// q.cancel(a);
/// assert_eq!(q.pop(), Some((SimTime::from_micros(10), "b")));
/// assert_eq!(q.pop(), None);
/// assert_eq!(q.stats().popped, 1);
/// assert_eq!(q.stats().cancelled, 1);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    /// 4-ary min-heap by `(time, id)`; every entry is live.
    heap: Vec<Entry<E>>,
    /// Ids scheduled but neither fired nor cancelled, mapped to their
    /// heap slot.
    live: PosMap,
    next_id: u64,
    now: SimTime,
    stats: QueueStats,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue positioned at the epoch, with indexed (true
    /// removal) cancellation. This is the production configuration.
    pub fn new() -> Self {
        EventQueue {
            heap: Vec::new(),
            live: PosMap::default(),
            next_id: 0,
            now: SimTime::ZERO,
            stats: QueueStats::default(),
        }
    }

    /// Lifetime totals for this queue (engine self-profile).
    pub fn stats(&self) -> QueueStats {
        self.stats
    }

    /// The timestamp of the most recently popped event (the simulation
    /// clock). Starts at [`SimTime::ZERO`].
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of live (non-cancelled) events still queued.
    pub fn len(&self) -> usize {
        self.live.len()
    }

    /// True iff no live events remain.
    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }

    #[inline]
    fn entry_less(a: &Entry<E>, b: &Entry<E>) -> bool {
        a.key() < b.key()
    }

    /// Record that the entry in heap slot `i` now lives there.
    #[inline]
    fn set_pos(&mut self, i: usize) {
        let id = self.heap[i].id;
        if let Some(slot) = self.live.get_mut(&id) {
            *slot = i as u32;
        }
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / D;
            if Self::entry_less(&self.heap[i], &self.heap[parent]) {
                self.heap.swap(i, parent);
                self.set_pos(i);
                i = parent;
            } else {
                break;
            }
        }
        self.set_pos(i);
    }

    fn sift_down(&mut self, mut i: usize) {
        loop {
            let first = i * D + 1;
            if first >= self.heap.len() {
                break;
            }
            let mut best = first;
            let end = (first + D).min(self.heap.len());
            for c in first + 1..end {
                if Self::entry_less(&self.heap[c], &self.heap[best]) {
                    best = c;
                }
            }
            if Self::entry_less(&self.heap[best], &self.heap[i]) {
                self.heap.swap(i, best);
                self.set_pos(i);
                i = best;
            } else {
                break;
            }
        }
        self.set_pos(i);
    }

    /// Remove the entry at heap slot `i`, restoring the heap property
    /// around the hole.
    fn remove_at(&mut self, i: usize) {
        self.heap.swap_remove(i);
        if i < self.heap.len() {
            // The displaced last entry may belong above or below `i`.
            self.set_pos(i);
            if i > 0 && Self::entry_less(&self.heap[i], &self.heap[(i - 1) / D]) {
                self.sift_up(i);
            } else {
                self.sift_down(i);
            }
        }
    }

    /// Schedule `payload` at `time`.
    ///
    /// # Panics
    /// Panics if `time` is earlier than the current clock — an event in the
    /// past is always a simulator bug and silently reordering it would
    /// corrupt causality.
    pub fn schedule(&mut self, time: SimTime, payload: E) -> EventId {
        assert!(
            time >= self.now,
            "scheduled event at {time} before current time {}",
            self.now
        );
        let id = EventId(self.next_id);
        self.next_id += 1;
        let i = self.heap.len();
        self.heap.push(Entry { time, id, payload });
        self.live.insert(id, i as u32);
        self.sift_up(i);
        self.stats.scheduled += 1;
        self.stats.max_pending = self.stats.max_pending.max(self.live.len() as u64);
        id
    }

    /// Cancel a previously scheduled event. Returns `true` if the event was
    /// still pending (and is now dead), `false` if it had already fired,
    /// been cancelled, or is [`EventId::NONE`].
    ///
    /// The heap entry is removed outright (O(log n)).
    pub fn cancel(&mut self, id: EventId) -> bool {
        let Some(pos) = self.live.remove(&id) else {
            return false;
        };
        self.stats.cancelled += 1;
        self.remove_at(pos as usize);
        true
    }

    /// True iff `id` is scheduled and has neither fired nor been cancelled.
    pub fn is_pending(&self, id: EventId) -> bool {
        self.live.contains_key(&id)
    }

    /// Pop the earliest live event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.heap.is_empty() {
            return None;
        }
        let entry = self.heap.swap_remove(0);
        if !self.heap.is_empty() {
            self.set_pos(0);
            self.sift_down(0);
        }
        let was_live = self.live.remove(&entry.id).is_some();
        debug_assert!(was_live, "heap root was a tombstone");
        debug_assert!(entry.time >= self.now, "event queue went backwards");
        self.now = entry.time;
        self.stats.popped += 1;
        Some((entry.time, entry.payload))
    }

    /// Advance the clock to `time` without popping anything, so that
    /// "ran to the horizon" leaves `now()` *at* the horizon rather than
    /// at the last popped event. Post-run artifacts (metrics, span
    /// timelines) then carry a single end-of-run timestamp.
    ///
    /// # Panics
    /// Panics if `time` is earlier than the current clock.
    pub fn advance_to(&mut self, time: SimTime) {
        assert!(
            time >= self.now,
            "advance_to {time} would move the clock backwards from {}",
            self.now
        );
        self.now = time;
    }

    /// Live (non-cancelled) entries as `(time, raw event id, payload)`,
    /// sorted in pop order `(time, id)`. Ids are exposed raw so a restored
    /// queue can reproduce the exact FIFO tie-breaking of the original.
    pub fn live_entries(&self) -> Vec<(SimTime, u64, &E)> {
        let mut out: Vec<(SimTime, u64, &E)> = self
            .heap
            .iter()
            .map(|e| (e.time, e.id.0, &e.payload))
            .collect();
        out.sort_by_key(|&(t, id, _)| (t, id));
        out
    }

    /// The next id this queue would hand out (checkpoint bookkeeping).
    pub fn next_id_raw(&self) -> u64 {
        self.next_id
    }

    /// Rebuild a queue from checkpointed parts: clock position, id
    /// allocator, lifetime stats, and the live entries with their
    /// original ids. The inverse of [`EventQueue::live_entries`] plus the
    /// scalar accessors. The rebuilt queue holds no dead entries, so its
    /// `tombstones` gauge is zero regardless of what the snapshot's stats
    /// carried.
    ///
    /// Errors (rather than corrupting causality) if an entry lies in the
    /// past of `now`, reuses an id, or holds an id at or above `next_id`.
    pub fn from_parts(
        now: SimTime,
        next_id: u64,
        stats: QueueStats,
        entries: Vec<(SimTime, u64, E)>,
    ) -> Result<Self, String> {
        let mut heap = Vec::with_capacity(entries.len());
        let mut live = PosMap::default();
        live.reserve(entries.len());
        for (time, id, payload) in entries {
            if time < now {
                return Err(format!(
                    "checkpointed event at {time} lies before the queue clock {now}"
                ));
            }
            if id >= next_id {
                return Err(format!(
                    "checkpointed event id {id} not below the id allocator {next_id}"
                ));
            }
            if live.insert(EventId(id), heap.len() as u32).is_some() {
                return Err(format!("checkpointed event id {id} appears twice"));
            }
            heap.push(Entry {
                time,
                id: EventId(id),
                payload,
            });
        }
        let mut q = EventQueue {
            heap,
            live,
            next_id,
            now,
            stats: QueueStats {
                tombstones: 0,
                ..stats
            },
        };
        if q.heap.len() > 1 {
            for i in (0..=(q.heap.len() - 2) / D).rev() {
                q.sift_down(i);
            }
        }
        Ok(q)
    }

    /// Timestamp of the next live event without popping it: one bounds
    /// check and one load.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.first().map(|e| e.time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDur;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(30), 3);
        q.schedule(SimTime::from_micros(10), 1);
        q.schedule(SimTime::from_micros(20), 2);
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
        assert!(q.pop().is_none());
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(5);
        for i in 0..10 {
            q.schedule(t, i);
        }
        for i in 0..10 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn clock_advances_with_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(7), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_micros(7));
    }

    #[test]
    #[should_panic(expected = "before current time")]
    fn scheduling_in_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(10), ());
        q.pop();
        q.schedule(SimTime::from_micros(5), ());
    }

    #[test]
    fn cancel_removes_event() {
        let mut q = EventQueue::new();
        let id = q.schedule(SimTime::from_micros(1), "dead");
        q.schedule(SimTime::from_micros(2), "live");
        assert!(q.cancel(id));
        assert!(!q.cancel(id), "double cancel reports false");
        assert_eq!(q.pop().unwrap().1, "live");
    }

    #[test]
    fn cancel_none_is_noop() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(!q.cancel(EventId::NONE));
    }

    #[test]
    fn cancel_after_fire_reports_false() {
        let mut q = EventQueue::new();
        let id = q.schedule(SimTime::from_micros(1), ());
        q.pop();
        assert!(!q.cancel(id));
        assert!(q.is_empty());
    }

    #[test]
    fn len_tracks_live_events() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_micros(1), ());
        q.schedule(SimTime::from_micros(2), ());
        assert_eq!(q.len(), 2);
        q.cancel(a);
        assert_eq!(q.len(), 1);
        q.pop();
        assert_eq!(q.len(), 0);
        assert!(q.is_empty());
    }

    #[test]
    fn is_pending_lifecycle() {
        let mut q = EventQueue::new();
        let id = q.schedule(SimTime::from_micros(1), ());
        assert!(q.is_pending(id));
        q.pop();
        assert!(!q.is_pending(id));
        assert!(!q.is_pending(EventId::NONE));
    }

    #[test]
    fn stats_track_lifecycle() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_micros(1), ());
        q.schedule(SimTime::from_micros(2), ());
        q.schedule(SimTime::from_micros(3), ());
        q.cancel(a);
        q.cancel(a); // double cancel must not double count
        q.pop();
        q.pop();
        let s = q.stats();
        assert_eq!(s.scheduled, 3);
        assert_eq!(s.cancelled, 1);
        assert_eq!(s.popped, 2);
        assert_eq!(s.max_pending, 3);
        assert_eq!(s.tombstones, 0, "indexed mode never leaves tombstones");
        assert_eq!(s.compactions, 0);
    }

    #[test]
    fn advance_to_moves_clock_without_popping() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(50), ());
        q.advance_to(SimTime::from_micros(20));
        assert_eq!(q.now(), SimTime::from_micros(20));
        assert_eq!(q.len(), 1, "advance_to must not consume events");
        // Advancing to the current time is a no-op, not a panic.
        q.advance_to(SimTime::from_micros(20));
        assert_eq!(q.pop().unwrap().0, SimTime::from_micros(50));
    }

    #[test]
    #[should_panic(expected = "move the clock backwards")]
    fn advance_to_rejects_past() {
        let mut q: EventQueue<()> = EventQueue::new();
        q.schedule(SimTime::from_micros(10), ());
        q.pop();
        q.advance_to(SimTime::from_micros(5));
    }

    #[test]
    fn stats_absorb_sums_shards() {
        let a = QueueStats {
            scheduled: 10,
            popped: 8,
            cancelled: 1,
            max_pending: 4,
            tombstones: 1,
            compactions: 2,
        };
        let mut b = QueueStats {
            scheduled: 3,
            popped: 3,
            cancelled: 0,
            max_pending: 2,
            tombstones: 0,
            compactions: 1,
        };
        b.absorb(a);
        assert_eq!(
            b,
            QueueStats {
                scheduled: 13,
                popped: 11,
                cancelled: 1,
                max_pending: 6,
                tombstones: 1,
                compactions: 3,
            }
        );
    }

    #[test]
    fn peek_time_skips_cancelled() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_micros(1), ());
        q.schedule(SimTime::from_micros(9), ());
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(9)));
    }

    #[test]
    fn peek_time_is_a_shared_borrow() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(4), ());
        let shared: &EventQueue<()> = &q;
        assert_eq!(shared.peek_time(), Some(SimTime::from_micros(4)));
        assert_eq!(shared.peek_time(), shared.peek_time());
    }

    #[test]
    fn live_entries_round_trip_preserves_order_and_ids() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(10), "late");
        let dead = q.schedule(SimTime::from_micros(2), "dead");
        let t = SimTime::from_micros(5);
        q.schedule(t, "tie-a");
        q.schedule(t, "tie-b");
        q.cancel(dead);
        q.schedule(SimTime::from_micros(3), "early");
        q.pop(); // consumes "early", clock now at 3 us

        let entries: Vec<(SimTime, u64, &str)> = q
            .live_entries()
            .into_iter()
            .map(|(t, id, p)| (t, id, *p))
            .collect();
        let mut r = EventQueue::from_parts(q.now(), q.next_id_raw(), q.stats(), entries).unwrap();
        assert_eq!(r.now(), q.now());
        assert_eq!(r.stats(), q.stats());
        assert_eq!(r.len(), 3, "tombstone must not survive the round trip");
        // Same-timestamp events keep their original FIFO order.
        assert_eq!(r.pop().unwrap().1, "tie-a");
        assert_eq!(r.pop().unwrap().1, "tie-b");
        assert_eq!(r.pop().unwrap().1, "late");
        // The id allocator continues where the original left off.
        assert_eq!(r.schedule(SimTime::from_micros(20), "new"), {
            let mut orig = q;
            orig.pop();
            orig.pop();
            orig.pop();
            orig.schedule(SimTime::from_micros(20), "new")
        });
    }

    #[test]
    fn from_parts_rejects_corrupt_entries() {
        let stats = QueueStats::default();
        let now = SimTime::from_micros(10);
        // Event in the past of the clock.
        assert!(
            EventQueue::from_parts(now, 5, stats, vec![(SimTime::from_micros(9), 0, ())],).is_err()
        );
        // Id at/above the allocator.
        assert!(
            EventQueue::from_parts(now, 5, stats, vec![(SimTime::from_micros(11), 5, ())],)
                .is_err()
        );
        // Duplicate id.
        assert!(EventQueue::from_parts(
            now,
            5,
            stats,
            vec![
                (SimTime::from_micros(11), 2, ()),
                (SimTime::from_micros(12), 2, ()),
            ],
        )
        .is_err());
    }

    #[test]
    fn interleaved_schedule_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(10), 0u32);
        let (t, _) = q.pop().unwrap();
        q.schedule(t + SimDur::from_micros(5), 1u32);
        q.schedule(t + SimDur::from_micros(3), 2u32);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 1);
    }

    #[test]
    fn indexed_cancel_removes_resident_entry() {
        let mut q = EventQueue::new();
        let mut ids = Vec::new();
        for i in 0..100u32 {
            ids.push(q.schedule(SimTime::from_micros(u64::from(i % 13)), i));
        }
        for id in ids.iter().step_by(2) {
            assert!(q.cancel(*id));
        }
        assert_eq!(q.len(), 50);
        assert_eq!(
            q.heap.len(),
            50,
            "indexed cancel must physically remove the entry"
        );
        assert_eq!(q.stats().tombstones, 0);
        // Survivors still pop in (time, id) order.
        let mut last = (SimTime::ZERO, 0u32);
        let mut popped = 0;
        while let Some((t, v)) = q.pop() {
            assert!((t, v) > last || popped == 0);
            last = (t, v);
            popped += 1;
        }
        assert_eq!(popped, 50);

        // The timer re-arm pattern: each round cancels and reschedules
        // 512 far-future timers and pops one near event. No cancelled
        // entry may stay resident in any round.
        let far = SimTime::from_nanos(u64::MAX / 2);
        let mut timers: Vec<EventId> = (0..512).map(|i| q.schedule(far, i)).collect();
        for round in 0..200 {
            for (i, t) in (0u32..).zip(timers.iter_mut()) {
                assert!(q.cancel(*t));
                *t = q.schedule(far, i);
            }
            q.schedule(q.now() + SimDur::from_nanos(1), u32::MAX);
            assert_eq!(q.pop().map(|(_, v)| v), Some(u32::MAX));
            assert_eq!(q.stats().tombstones, 0, "round {round}");
            assert_eq!(
                q.heap.len(),
                512,
                "round {round}: a cancelled entry stayed resident"
            );
        }
    }

    #[test]
    fn event_id_raw_round_trip() {
        let mut q = EventQueue::new();
        let id = q.schedule(SimTime::from_micros(1), ());
        assert_eq!(EventId::from_raw(id.raw()), id);
        assert_eq!(EventId::NONE.raw(), u64::MAX);
    }
}
