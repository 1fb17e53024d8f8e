//! Discrete-event calendar with keyed timers.
//!
//! The engine is a classic calendar: events are `(time, payload)` pairs
//! popped in time order, with FIFO tie-breaking so that same-timestamp
//! events are processed in the order they were scheduled (this keeps
//! whole-cluster runs deterministic).
//!
//! # Structure
//!
//! Two tiers share one id counter and one `(time, id)` pop order. Each
//! pending event has a 16-byte key that packs its time, its id and a slot
//! index into one integer, so ordering two events is one integer compare.
//!
//! * **Heap.** [`EventQueue::schedule`] pushes onto a 4-ary min-heap of
//!   keys; the key's slot names the payload's place in a side table.
//!   Payloads stay put while keys sift, so a node's four children take
//!   64 bytes, one cache line's worth. Heap events are never cancelled,
//!   so the heap needs no position map and only ever pushes and pops.
//! * **Timer slots.** A queue built with [`EventQueue::with_timers`]
//!   holds one slot per key, each with at most one pending timer — a
//!   component's single wake-up time, such as a CPU's segment end. A
//!   timer carries no payload, only a `u64` data word (a CPU's occupancy
//!   token, say), so arming and firing one moves 8 bytes however large
//!   `E` is. [`EventQueue::arm`] fills a slot and [`EventQueue::disarm`]
//!   empties it; disarming is the queue's only cancellation. The earliest
//!   armed slot is cached and rescanned only when that slot fires or is
//!   disarmed.
//!
//! [`EventQueue::pop_until`] (and [`EventQueue::pop`], its unbounded
//! form) and [`EventQueue::peek_time`] take the smaller of the heap root
//! and the earliest armed slot, so the pop order is the one a single heap
//! over both tiers would give. `pop_until` makes that choice once per
//! event, a loop bounded by a window end pops with it instead of peeking
//! first, and the [`Entry`] it returns says which tier fired.
//!
//! # Queue health
//!
//! A disarmed timer leaves nothing behind, so no dead entry is ever
//! resident. [`QueueStats::tombstones`] (dead entries resident) and
//! [`QueueStats::compactions`] (times dead entries were compacted out)
//! therefore read zero. They stay in the stats so checkpoints and metric
//! snapshots keep their schema, and a nonzero value would flag a leak.

use crate::time::SimTime;
use serde::{Deserialize, Serialize};

/// Heap arity. Four children per node: shallower than binary, and a
/// node's child block is 64 bytes of keys.
const D: usize = 4;

/// Low bits of a [`Key`] holding the slot index.
const SLOT_BITS: u32 = 24;
const SLOT_LIMIT: usize = 1 << SLOT_BITS;
/// Event ids fill the 40 bits between the time and the slot.
const ID_LIMIT: u64 = 1 << (64 - SLOT_BITS);

/// An event's place in the pop order: time in the high 64 bits, then the
/// event id, then a slot (payload slot for a heap event, timer key for a
/// timer). Ids are unique, so keys order exactly as `(time, id)` and the
/// slot bits never decide.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Key(u128);

/// The key of an empty timer slot: above every real key, whose id bits
/// are below [`ID_LIMIT`].
const IDLE: Key = Key(u128::MAX);

impl Key {
    #[inline]
    fn new(time: SimTime, id: u64, slot: usize) -> Key {
        debug_assert!(id < ID_LIMIT && slot < SLOT_LIMIT);
        Key(u128::from(time.nanos()) << 64 | u128::from(id) << SLOT_BITS | slot as u128)
    }

    #[inline]
    fn time(self) -> SimTime {
        SimTime::from_nanos((self.0 >> 64) as u64)
    }

    #[inline]
    fn id(self) -> u64 {
        (self.0 as u64) >> SLOT_BITS
    }

    #[inline]
    fn slot(self) -> usize {
        (self.0 as usize) & (SLOT_LIMIT - 1)
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
    /// Events ever scheduled or armed.
    pub scheduled: u64,
    /// Events popped.
    pub popped: u64,
    /// Armed timers disarmed before they fired.
    pub cancelled: u64,
    /// High-water mark of events pending at once, both tiers together.
    pub max_pending: u64,
    /// Dead entries currently resident (a gauge, not a lifetime total).
    /// Always 0: disarming empties the slot. A nonzero value here would
    /// be the leak this field exists to catch.
    pub tombstones: u64,
    /// Times dead entries were compacted out. Always 0, kept for the
    /// checkpoint and metrics schema.
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

/// A pending or popped entry of an [`EventQueue`], naming its tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Entry<E> {
    /// A heap event and its payload ([`EventQueue::schedule`]).
    Event(E),
    /// An armed timer ([`EventQueue::arm`]): its slot and data word.
    Timer {
        /// The timer slot.
        key: usize,
        /// The word the timer was armed with.
        data: u64,
    },
}

impl<E: Clone> Entry<&E> {
    /// The entry with its payload cloned, like [`Option::cloned`].
    pub fn cloned(self) -> Entry<E> {
        match self {
            Entry::Event(e) => Entry::Event(e.clone()),
            Entry::Timer { key, data } => Entry::Timer { key, data },
        }
    }
}

/// A deterministic event queue: a heap of fire-and-forget events beside
/// one cancellable timer slot per key.
///
/// ```
/// use pa_simkit::{Entry, EventQueue, SimTime};
///
/// let mut q: EventQueue<&str> = EventQueue::with_timers(2);
/// q.schedule(SimTime::from_micros(10), "b");
/// q.arm(0, SimTime::from_micros(5), 7);
/// q.arm(1, SimTime::from_micros(20), 9);
/// q.disarm(0);
/// assert_eq!(q.pop(), Some((SimTime::from_micros(10), Entry::Event("b"))));
/// assert_eq!(q.pop(), Some((SimTime::from_micros(20), Entry::Timer { key: 1, data: 9 })));
/// assert_eq!(q.pop(), None);
/// assert_eq!(q.stats().popped, 2);
/// assert_eq!(q.stats().cancelled, 1);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    /// 4-ary min-heap of keys.
    heap: Vec<Key>,
    /// Heap payloads by slot; `None` in free slots.
    events: Vec<Option<E>>,
    /// Free slots of `events`.
    free: Vec<u32>,
    /// Key per timer slot, [`IDLE`] exactly when the slot is empty. Kept
    /// apart from the data words so the rescan reads 16 bytes per slot.
    timer_keys: Vec<Key>,
    /// Data word per timer slot, meaningful while the slot is armed.
    timer_data: Vec<u64>,
    /// The smallest of `timer_keys`: [`IDLE`] when no timer is armed.
    next_timer: Key,
    armed: usize,
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
    /// An empty queue positioned at the epoch, with no timer slots.
    pub fn new() -> Self {
        Self::with_timers(0)
    }

    /// An empty queue positioned at the epoch, with timer slots keyed
    /// `0..timers`.
    ///
    /// # Panics
    /// Panics if `timers` exceeds 2^24.
    pub fn with_timers(timers: usize) -> Self {
        assert!(
            timers <= SLOT_LIMIT,
            "{timers} timer slots: at most {SLOT_LIMIT} fit a key"
        );
        EventQueue {
            heap: Vec::new(),
            events: Vec::new(),
            free: Vec::new(),
            timer_keys: vec![IDLE; timers],
            timer_data: vec![0; timers],
            next_timer: IDLE,
            armed: 0,
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

    /// Number of pending events, both tiers together.
    pub fn len(&self) -> usize {
        self.heap.len() + self.armed
    }

    /// True iff no event is pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Hand out the next event id, bumping the lifetime counters.
    fn take_id(&mut self, time: SimTime) -> u64 {
        assert!(
            time >= self.now,
            "scheduled event at {time} before current time {}",
            self.now
        );
        let id = self.next_id;
        assert!(
            id < ID_LIMIT,
            "event id {id} does not fit a key's 40 id bits"
        );
        self.next_id += 1;
        self.stats.scheduled += 1;
        self.stats.max_pending = self.stats.max_pending.max(self.len() as u64 + 1);
        id
    }

    /// Move the key at heap index `i` up to its place.
    fn sift_up(&mut self, mut i: usize) {
        let key = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / D;
            if key >= self.heap[parent] {
                break;
            }
            self.heap[i] = self.heap[parent];
            i = parent;
        }
        self.heap[i] = key;
    }

    /// Move the key at heap index `i` down to its place.
    fn sift_down(&mut self, mut i: usize) {
        let key = self.heap[i];
        let len = self.heap.len();
        loop {
            let first = i * D + 1;
            if first >= len {
                break;
            }
            let mut best = first;
            for c in first + 1..(first + D).min(len) {
                if self.heap[c] < self.heap[best] {
                    best = c;
                }
            }
            if self.heap[best] >= key {
                break;
            }
            self.heap[i] = self.heap[best];
            i = best;
        }
        self.heap[i] = key;
    }

    /// Store a heap payload and push its key (no sift).
    fn push_heap(&mut self, time: SimTime, id: u64, payload: E) {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.events[slot as usize] = Some(payload);
                slot as usize
            }
            None => {
                let slot = self.events.len();
                assert!(
                    slot < SLOT_LIMIT,
                    "{slot} heap events pending: at most {SLOT_LIMIT} fit a key"
                );
                self.events.push(Some(payload));
                slot
            }
        };
        self.heap.push(Key::new(time, id, slot));
    }

    /// Schedule `payload` at `time`. Heap events cannot be cancelled; use
    /// a timer slot ([`EventQueue::arm`]) for an event that may be.
    ///
    /// # Panics
    /// Panics if `time` is earlier than the current clock — an event in the
    /// past is always a simulator bug and silently reordering it would
    /// corrupt causality.
    pub fn schedule(&mut self, time: SimTime, payload: E) {
        let id = self.take_id(time);
        self.push_heap(time, id, payload);
        self.sift_up(self.heap.len() - 1);
    }

    /// Arm timer slot `key` to fire at `time` with data word `data`.
    ///
    /// # Panics
    /// Panics if the slot is already armed, if `key` is not below the
    /// queue's timer count, or if `time` is earlier than the current
    /// clock.
    pub fn arm(&mut self, key: usize, time: SimTime, data: u64) {
        assert!(
            self.timer_keys[key] == IDLE,
            "timer {key} armed while its previous event is still pending"
        );
        let id = self.take_id(time);
        let k = Key::new(time, id, key);
        self.timer_keys[key] = k;
        self.timer_data[key] = data;
        self.armed += 1;
        self.next_timer = self.next_timer.min(k);
    }

    /// Empty timer slot `key`. Returns `true` if it was armed (the event
    /// will now never fire), `false` if it was already empty.
    pub fn disarm(&mut self, key: usize) -> bool {
        if self.timer_keys[key] == IDLE {
            return false;
        }
        let was_next = self.timer_keys[key] == self.next_timer;
        self.timer_keys[key] = IDLE;
        self.armed -= 1;
        self.stats.cancelled += 1;
        if was_next {
            self.rescan_timers();
        }
        true
    }

    /// Recompute the cached earliest timer.
    fn rescan_timers(&mut self) {
        self.next_timer = self.timer_keys.iter().copied().min().unwrap_or(IDLE);
    }

    /// Pop the earliest pending entry, advancing the clock to its
    /// timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, Entry<E>)> {
        self.pop_until(SimTime::FAR_FUTURE)
    }

    /// Pop the earliest pending entry if it is due at or before `last`,
    /// advancing the clock to its timestamp. `None` (nothing pending, or
    /// nothing due by `last`) leaves the queue untouched.
    pub fn pop_until(&mut self, last: SimTime) -> Option<(SimTime, Entry<E>)> {
        let root = self.heap.first().copied().unwrap_or(IDLE);
        let key = root.min(self.next_timer);
        if key == IDLE || key.time() > last {
            return None;
        }
        let slot = key.slot();
        let entry = if root < self.next_timer {
            let tail = self.heap.pop().expect("heap has a root");
            if !self.heap.is_empty() {
                self.heap[0] = tail;
                self.sift_down(0);
            }
            self.free.push(slot as u32);
            Entry::Event(self.events[slot].take().expect("heap key names a payload"))
        } else {
            self.timer_keys[slot] = IDLE;
            self.armed -= 1;
            self.rescan_timers();
            Entry::Timer {
                key: slot,
                data: self.timer_data[slot],
            }
        };
        let time = key.time();
        debug_assert!(time >= self.now, "event queue went backwards");
        self.now = time;
        self.stats.popped += 1;
        Some((time, entry))
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

    /// Pending entries of both tiers as `(time, raw event id, entry)`,
    /// sorted in pop order `(time, id)`. Ids are exposed raw so a restored
    /// queue can reproduce the exact FIFO tie-breaking of the original.
    pub fn live_entries(&self) -> Vec<(SimTime, u64, Entry<&E>)> {
        let heap = self.heap.iter().map(|&k| {
            let payload = self.events[k.slot()].as_ref();
            (k, Entry::Event(payload.expect("heap key names a payload")))
        });
        let timers = self
            .timer_keys
            .iter()
            .zip(&self.timer_data)
            .enumerate()
            .filter(|&(_, (&k, _))| k != IDLE)
            .map(|(key, (&k, &data))| (k, Entry::Timer { key, data }));
        let mut out: Vec<(Key, Entry<&E>)> = heap.chain(timers).collect();
        out.sort_unstable_by_key(|&(k, _)| k);
        out.into_iter()
            .map(|(k, e)| (k.time(), k.id(), e))
            .collect()
    }

    /// The next id this queue would hand out (checkpoint bookkeeping).
    pub fn next_id_raw(&self) -> u64 {
        self.next_id
    }

    /// Rebuild a queue from checkpointed parts: clock position, id
    /// allocator, lifetime stats, and the pending entries with their
    /// original ids. The inverse of [`EventQueue::live_entries`] plus the
    /// scalar accessors. The queue gets `timers` timer slots, and each
    /// [`Entry::Timer`] is armed in its slot. The rebuilt queue holds no
    /// dead entries, so its `tombstones` gauge is zero regardless of what
    /// the snapshot's stats carried.
    ///
    /// Errors (rather than corrupting causality) if an entry lies in the
    /// past of `now`, reuses an id, holds an id at or above `next_id` or
    /// beyond a key's 40 id bits, names a timer slot the queue does not
    /// have, or shares a timer slot with another entry.
    pub fn from_parts(
        now: SimTime,
        next_id: u64,
        stats: QueueStats,
        entries: Vec<(SimTime, u64, Entry<E>)>,
        timers: usize,
    ) -> Result<Self, String> {
        let mut ids: Vec<u64> = entries.iter().map(|&(_, id, _)| id).collect();
        ids.sort_unstable();
        if let Some(w) = ids.windows(2).find(|w| w[0] == w[1]) {
            return Err(format!("checkpointed event id {} appears twice", w[0]));
        }
        let mut q = EventQueue::with_timers(timers);
        q.heap.reserve(entries.len());
        q.events.reserve(entries.len());
        for (time, id, entry) in entries {
            if time < now {
                return Err(format!(
                    "checkpointed event at {time} lies before the queue clock {now}"
                ));
            }
            if id >= next_id || id >= ID_LIMIT {
                return Err(format!(
                    "checkpointed event id {id} not below the id allocator {next_id} \
                     and the id limit {ID_LIMIT}"
                ));
            }
            match entry {
                Entry::Timer { key, .. } if key >= timers => {
                    return Err(format!(
                        "checkpointed timer {key} out of range: the queue has {timers} timer slots"
                    ));
                }
                Entry::Timer { key, .. } if q.timer_keys[key] != IDLE => {
                    return Err(format!("checkpointed timer {key} holds two pending events"));
                }
                Entry::Timer { key, data } => {
                    q.timer_keys[key] = Key::new(time, id, key);
                    q.timer_data[key] = data;
                    q.armed += 1;
                }
                Entry::Event(payload) => q.push_heap(time, id, payload),
            }
        }
        if q.heap.len() > 1 {
            for i in (0..=(q.heap.len() - 2) / D).rev() {
                q.sift_down(i);
            }
        }
        q.rescan_timers();
        q.next_id = next_id;
        q.now = now;
        q.stats = QueueStats {
            tombstones: 0,
            ..stats
        };
        Ok(q)
    }

    /// Timestamp of the next pending event without popping it: the
    /// smaller of the heap root and the cached earliest timer.
    pub fn peek_time(&self) -> Option<SimTime> {
        let next = self
            .heap
            .first()
            .map_or(self.next_timer, |&root| root.min(self.next_timer));
        (next != IDLE).then(|| next.time())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDur;

    /// A popped entry's value: a heap payload, or a timer's data word.
    fn value<E: Into<u64>>(entry: Entry<E>) -> u64 {
        match entry {
            Entry::Event(e) => e.into(),
            Entry::Timer { data, .. } => data,
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(30), 3);
        q.schedule(SimTime::from_micros(10), 1);
        q.schedule(SimTime::from_micros(20), 2);
        assert_eq!(q.pop().unwrap().1, Entry::Event(1));
        assert_eq!(q.pop().unwrap().1, Entry::Event(2));
        assert_eq!(q.pop().unwrap().1, Entry::Event(3));
        assert!(q.pop().is_none());
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::with_timers(10);
        let t = SimTime::from_micros(5);
        for i in 0..10u64 {
            // Alternate the tiers: FIFO order holds across both.
            if i % 2 == 0 {
                q.schedule(t, i);
            } else {
                q.arm(i as usize, t, i);
            }
        }
        for i in 0..10 {
            assert_eq!(value(q.pop().unwrap().1), i);
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
    #[should_panic(expected = "before current time")]
    fn arming_in_past_panics() {
        let mut q = EventQueue::with_timers(1);
        q.schedule(SimTime::from_micros(10), ());
        q.pop();
        q.arm(0, SimTime::from_micros(5), 0);
    }

    #[test]
    #[should_panic(expected = "timer 2 armed while its previous event is still pending")]
    fn arming_a_live_timer_panics() {
        let mut q: EventQueue<()> = EventQueue::with_timers(3);
        q.arm(2, SimTime::from_micros(5), 0);
        q.arm(2, SimTime::from_micros(6), 1);
    }

    #[test]
    fn cancel_removes_event() {
        let mut q = EventQueue::with_timers(1);
        q.arm(0, SimTime::from_micros(1), 0);
        q.schedule(SimTime::from_micros(2), "live");
        assert!(q.disarm(0));
        assert!(!q.disarm(0), "double disarm reports false");
        assert_eq!(q.pop().unwrap().1, Entry::Event("live"));
    }

    #[test]
    fn cancel_none_is_noop() {
        let mut q: EventQueue<()> = EventQueue::with_timers(2);
        assert!(!q.disarm(1), "disarming an empty slot reports false");
        assert_eq!(q.stats().cancelled, 0, "and counts nothing");
    }

    #[test]
    fn is_pending_lifecycle() {
        // An armed timer is pending until it fires or is disarmed, and
        // its slot is free again afterwards.
        let mut q: EventQueue<()> = EventQueue::with_timers(1);
        q.arm(0, SimTime::from_micros(1), 5);
        assert_eq!(q.len(), 1);
        let fired = Entry::Timer { key: 0, data: 5 };
        assert_eq!(q.pop(), Some((SimTime::from_micros(1), fired)));
        assert!(q.is_empty());
        q.arm(0, SimTime::from_micros(2), 6);
        assert!(q.disarm(0));
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn cancel_after_fire_reports_false() {
        let mut q: EventQueue<()> = EventQueue::with_timers(1);
        q.arm(0, SimTime::from_micros(1), 1);
        q.pop();
        assert!(!q.disarm(0));
        assert!(q.is_empty());
        // A fired slot can be armed again.
        q.arm(0, SimTime::from_micros(2), 2);
        let fired = Entry::Timer { key: 0, data: 2 };
        assert_eq!(q.pop(), Some((SimTime::from_micros(2), fired)));
    }

    #[test]
    fn len_tracks_live_events() {
        let mut q = EventQueue::with_timers(1);
        q.arm(0, SimTime::from_micros(1), 0);
        q.schedule(SimTime::from_micros(2), ());
        assert_eq!(q.len(), 2);
        q.disarm(0);
        assert_eq!(q.len(), 1);
        q.pop();
        assert_eq!(q.len(), 0);
        assert!(q.is_empty());
    }

    #[test]
    fn stats_track_lifecycle() {
        let mut q = EventQueue::with_timers(1);
        q.arm(0, SimTime::from_micros(1), 0);
        q.schedule(SimTime::from_micros(2), ());
        q.schedule(SimTime::from_micros(3), ());
        q.disarm(0);
        q.disarm(0); // double disarm must not double count
        q.pop();
        q.pop();
        let s = q.stats();
        assert_eq!(s.scheduled, 3);
        assert_eq!(s.cancelled, 1);
        assert_eq!(s.popped, 2);
        assert_eq!(s.max_pending, 3, "max_pending counts armed timers");
        assert_eq!(s.tombstones, 0, "disarming never leaves tombstones");
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
        let mut q = EventQueue::with_timers(2);
        q.arm(1, SimTime::from_micros(1), 1);
        q.arm(0, SimTime::from_micros(3), 0);
        q.schedule(SimTime::from_micros(9), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(1)));
        q.disarm(1);
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(3)));
        q.disarm(0);
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
        let mut q = EventQueue::with_timers(3);
        q.schedule(SimTime::from_micros(10), "late");
        q.arm(0, SimTime::from_micros(2), 100);
        let t = SimTime::from_micros(5);
        q.schedule(t, "tie-a");
        q.arm(1, t, 101);
        q.schedule(t, "tie-c");
        q.disarm(0);
        q.arm(2, SimTime::from_micros(3), 102);
        q.pop(); // fires timer 2, clock now at 3 us

        let entries: Vec<_> = q
            .live_entries()
            .into_iter()
            .map(|(t, id, e)| (t, id, e.cloned()))
            .collect();
        let mut r =
            EventQueue::from_parts(q.now(), q.next_id_raw(), q.stats(), entries, 3).unwrap();
        assert_eq!(r.now(), q.now());
        assert_eq!(r.stats(), q.stats());
        assert_eq!(
            r.len(),
            4,
            "a disarmed timer must not survive the round trip"
        );
        assert_eq!(r.armed, 1, "the armed timer is restored into its slot");
        // Same-timestamp events keep their original FIFO order across
        // both tiers.
        assert_eq!(r.pop().unwrap().1, Entry::Event("tie-a"));
        assert_eq!(r.pop().unwrap().1, Entry::Timer { key: 1, data: 101 });
        assert_eq!(r.pop().unwrap().1, Entry::Event("tie-c"));
        assert_eq!(r.pop().unwrap().1, Entry::Event("late"));
        // The id allocator continues where the original left off.
        r.schedule(SimTime::from_micros(20), "new");
        assert_eq!(r.live_entries()[0].1, q.next_id_raw());
    }

    #[test]
    fn from_parts_rejects_corrupt_entries() {
        let stats = QueueStats::default();
        let now = SimTime::from_micros(10);
        let at = |us| SimTime::from_micros(us);
        let rebuild = |entries| EventQueue::from_parts(now, 5, stats, entries, 2);
        let err = |entries| rebuild(entries).unwrap_err();
        let ev = |p| Entry::Event(p);
        let timer = |key| Entry::Timer { key, data: 9 };
        assert!(err(vec![(at(9), 0, ev("a"))]).contains("before the queue clock"));
        assert!(err(vec![(at(11), 5, ev("a"))]).contains("not below the id allocator"));
        assert!(err(vec![(at(11), 2, ev("a")), (at(12), 2, ev("b"))]).contains("appears twice"));
        assert!(err(vec![(at(11), 1, timer(2))]).contains("timer 2 out of range"));
        assert!(err(vec![(at(11), 1, timer(1)), (at(12), 2, timer(1))])
            .contains("timer 1 holds two pending"));
        assert!(rebuild(vec![(at(11), 1, timer(1)), (at(12), 2, timer(0))]).is_ok());
    }

    #[test]
    fn interleaved_schedule_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(10), 0u32);
        let (t, _) = q.pop().unwrap();
        q.schedule(t + SimDur::from_micros(5), 1u32);
        q.schedule(t + SimDur::from_micros(3), 2u32);
        assert_eq!(q.pop().unwrap().1, Entry::Event(2));
        assert_eq!(q.pop().unwrap().1, Entry::Event(1));
    }

    /// Entries physically resident in either tier.
    fn resident<E>(q: &EventQueue<E>) -> usize {
        q.heap.len() + q.timer_keys.iter().filter(|&&k| k != IDLE).count()
    }

    #[test]
    fn indexed_cancel_removes_resident_entry() {
        let mut q = EventQueue::with_timers(512);
        for key in 0..100 {
            q.arm(key, SimTime::from_micros(key as u64 % 13), key as u64);
        }
        for key in (0..100).step_by(2) {
            assert!(q.disarm(key));
        }
        assert_eq!(q.len(), 50);
        assert_eq!(resident(&q), 50, "disarm must empty the slot");
        assert_eq!(q.stats().tombstones, 0);
        // Survivors still pop in (time, id) order.
        let mut last = (SimTime::ZERO, 0u64);
        let mut popped = 0;
        while let Some((t, e)) = q.pop() {
            let v = value::<u64>(e);
            assert!((t, v) > last || popped == 0);
            assert_eq!(v % 2, 1, "disarmed timer {v} fired");
            last = (t, v);
            popped += 1;
        }
        assert_eq!(popped, 50);

        // The timer re-arm pattern: each round disarms and re-arms 512
        // far-future timers and pops one near event. No disarmed entry
        // may stay resident in any round.
        let far = SimTime::from_nanos(u64::MAX / 2);
        for key in 0..512 {
            q.arm(key, far, key as u64);
        }
        for round in 0..200 {
            for key in 0..512 {
                assert!(q.disarm(key));
                q.arm(key, far, key as u64);
            }
            q.schedule(q.now() + SimDur::from_nanos(1), u64::MAX);
            assert_eq!(q.pop().map(|(_, e)| e), Some(Entry::Event(u64::MAX)));
            assert_eq!(q.stats().tombstones, 0, "round {round}");
            assert_eq!(
                resident(&q),
                512,
                "round {round}: a disarmed entry stayed resident"
            );
        }
    }

    #[test]
    fn heap_payload_slots_are_reused() {
        let mut q = EventQueue::new();
        for round in 0..100u64 {
            for i in 0..8 {
                q.schedule(SimTime::from_micros(round * 10 + i), i);
            }
            for _ in 0..8 {
                q.pop();
            }
        }
        assert_eq!(q.events.len(), 8, "payload table grew past the peak");
    }
}
