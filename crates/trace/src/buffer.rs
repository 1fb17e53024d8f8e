//! Per-node trace buffers.
//!
//! Each simulated node owns one [`TraceBuffer`]: a bounded ring of
//! [`TraceEvent`] records plus a registry mapping thread ids to names and
//! classes. Hooks can be enabled/disabled at runtime, mirroring how the
//! study turned AIX tracing on only around the Allreduce loops.

use crate::hooks::{HookId, HookMask, ThreadClass};
use pa_simkit::SimTime;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::collections::VecDeque;

/// One trace record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Global simulation time of the event.
    pub time: SimTime,
    /// CPU index on the node (u8::MAX when not CPU-specific).
    pub cpu: u8,
    /// What happened.
    pub hook: HookId,
    /// The thread involved (node-local id), 0 when not thread-specific.
    pub tid: u32,
    /// Hook-specific auxiliary value (new priority, marker id, ...).
    pub aux: u64,
}

/// Thread metadata registered with the buffer.
#[derive(Debug, Clone)]
struct ThreadMeta {
    /// Human-readable name ("syncd", "mpi_rank_17", "cron.perl", ...).
    name: String,
    /// Coarse class for attribution.
    class: ThreadClass,
}

/// A bounded per-node trace ring.
#[derive(Debug, Clone)]
pub struct TraceBuffer {
    events: VecDeque<TraceEvent>,
    capacity: usize,
    mask: HookMask,
    threads: HashMap<u32, ThreadMeta>,
    dropped: u64,
    /// Timestamp of the newest evicted event: everything at or before this
    /// time may be missing from the ring.
    evicted_until: Option<SimTime>,
}

impl TraceBuffer {
    /// Buffer with room for `capacity` events. Older events are dropped
    /// once full (counted in [`TraceBuffer::dropped`]). The ring starts
    /// empty and grows as events are recorded, so a node that is never
    /// traced allocates nothing.
    pub fn new(capacity: usize) -> TraceBuffer {
        assert!(capacity > 0, "trace buffer needs nonzero capacity");
        TraceBuffer {
            events: VecDeque::new(),
            capacity,
            mask: HookMask::NONE,
            threads: HashMap::new(),
            dropped: 0,
            evicted_until: None,
        }
    }

    /// Set the enabled-hook mask (returns the previous mask).
    pub fn set_mask(&mut self, mask: HookMask) -> HookMask {
        core::mem::replace(&mut self.mask, mask)
    }

    /// The current enabled-hook mask.
    pub fn mask(&self) -> HookMask {
        self.mask
    }

    /// Register thread metadata (idempotent; re-registration overwrites).
    pub fn register_thread(&mut self, tid: u32, name: impl Into<String>, class: ThreadClass) {
        self.threads.insert(
            tid,
            ThreadMeta {
                name: name.into(),
                class,
            },
        );
    }

    /// Display name of `tid` (`tid<N>` if unregistered).
    pub fn thread_name(&self, tid: u32) -> String {
        self.threads
            .get(&tid)
            .map(|m| m.name.clone())
            .unwrap_or_else(|| format!("tid{tid}"))
    }

    /// Class of `tid` (Kernel if unregistered).
    pub fn thread_class(&self, tid: u32) -> ThreadClass {
        self.threads
            .get(&tid)
            .map(|m| m.class)
            .unwrap_or(ThreadClass::Kernel)
    }

    /// Record an event if its hook is enabled.
    pub fn record(&mut self, ev: TraceEvent) {
        if !self.mask.contains(ev.hook) {
            return;
        }
        if self.events.len() == self.capacity {
            let evicted = self.events.pop_front().expect("capacity is nonzero");
            self.dropped += 1;
            self.evicted_until = Some(evicted.time);
        }
        debug_assert!(
            self.events.back().is_none_or(|last| last.time <= ev.time),
            "trace events must be recorded in time order"
        );
        self.events.push_back(ev);
    }

    /// Convenience: record with explicit fields.
    pub fn emit(&mut self, time: SimTime, cpu: u8, hook: HookId, tid: u32, aux: u64) {
        self.record(TraceEvent {
            time,
            cpu,
            hook,
            tid,
            aux,
        });
    }

    /// All retained events in time order.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True iff no events retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Timestamp of the newest evicted event, if any were evicted. A query
    /// over `[start, end)` with `start <= evicted_until()` overlaps a
    /// region the ring has silently forgotten — callers should surface
    /// that (see `AttributionReport::spans_evicted`).
    pub fn evicted_until(&self) -> Option<SimTime> {
        self.evicted_until
    }

    /// Discard all retained events (keeps registrations and mask).
    pub fn clear(&mut self) {
        self.events.clear();
        self.dropped = 0;
        self.evicted_until = None;
    }

    /// Ring contents for a checkpoint: retained events in order, the
    /// dropped count, and the eviction horizon. Capacity, mask, and thread
    /// registrations are construction-time state and are rebuilt from the
    /// experiment spec instead of being snapshotted.
    pub fn snapshot_ring(&self) -> (Vec<TraceEvent>, u64, Option<SimTime>) {
        (
            self.events.iter().copied().collect(),
            self.dropped,
            self.evicted_until,
        )
    }

    /// Restore ring contents captured by [`TraceBuffer::snapshot_ring`]
    /// into a freshly rebuilt buffer. Errors if the event list exceeds
    /// this buffer's capacity or is not in time order.
    pub fn restore_ring(
        &mut self,
        events: Vec<TraceEvent>,
        dropped: u64,
        evicted_until: Option<SimTime>,
    ) -> Result<(), String> {
        if events.len() > self.capacity {
            return Err(format!(
                "checkpointed trace ring holds {} events but capacity is {}",
                events.len(),
                self.capacity
            ));
        }
        if events.windows(2).any(|w| w[0].time > w[1].time) {
            return Err("checkpointed trace ring is not in time order".into());
        }
        self.events = events.into();
        self.dropped = dropped;
        self.evicted_until = evicted_until;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pa_simkit::SimTime;

    fn ev(us: u64, hook: HookId, tid: u32) -> TraceEvent {
        TraceEvent {
            time: SimTime::from_micros(us),
            cpu: 0,
            hook,
            tid,
            aux: 0,
        }
    }

    #[test]
    fn disabled_hooks_are_not_recorded() {
        let mut b = TraceBuffer::new(16);
        b.set_mask(HookMask::of(&[HookId::Tick]));
        b.record(ev(1, HookId::Dispatch, 1));
        b.record(ev(2, HookId::Tick, 1));
        assert_eq!(b.len(), 1);
        assert_eq!(b.events().next().unwrap().hook, HookId::Tick);
    }

    #[test]
    fn ring_drops_oldest() {
        let mut b = TraceBuffer::new(3);
        b.set_mask(HookMask::ALL);
        for i in 0..5 {
            b.record(ev(i, HookId::Tick, 0));
        }
        assert_eq!(b.len(), 3);
        assert_eq!(b.dropped(), 2);
        assert_eq!(b.evicted_until(), Some(SimTime::from_micros(1)));
        let times: Vec<u64> = b.events().map(|e| e.time.micros()).collect();
        assert_eq!(times, vec![2, 3, 4]);
    }

    #[test]
    fn eviction_horizon_absent_until_full() {
        let mut b = TraceBuffer::new(8);
        b.set_mask(HookMask::ALL);
        for i in 0..8 {
            b.record(ev(i, HookId::Tick, 0));
        }
        assert_eq!(b.evicted_until(), None);
        b.record(ev(8, HookId::Tick, 0));
        assert_eq!(b.evicted_until(), Some(SimTime::from_micros(0)));
    }

    #[test]
    fn registry_lookup() {
        let mut b = TraceBuffer::new(4);
        b.register_thread(7, "syncd", ThreadClass::Daemon);
        assert_eq!(b.thread_name(7), "syncd");
        assert_eq!(b.thread_class(7), ThreadClass::Daemon);
        assert_eq!(b.thread_name(8), "tid8");
        assert_eq!(b.thread_class(8), ThreadClass::Kernel);
    }

    #[test]
    fn clear_keeps_registrations() {
        let mut b = TraceBuffer::new(4);
        b.set_mask(HookMask::ALL);
        b.register_thread(1, "app", ThreadClass::App);
        b.record(ev(1, HookId::Dispatch, 1));
        b.clear();
        assert!(b.is_empty());
        assert_eq!(b.dropped(), 0);
        assert_eq!(b.evicted_until(), None);
        assert_eq!(b.thread_name(1), "app");
        assert!(b.mask().contains(HookId::Dispatch));
    }

    #[test]
    fn ring_snapshot_round_trip() {
        let mut b = TraceBuffer::new(3);
        b.set_mask(HookMask::ALL);
        b.register_thread(1, "app", ThreadClass::App);
        for i in 0..5 {
            b.record(ev(i, HookId::Tick, 1));
        }
        let (events, dropped, horizon) = b.snapshot_ring();

        let mut r = TraceBuffer::new(3);
        r.set_mask(HookMask::ALL);
        r.register_thread(1, "app", ThreadClass::App);
        r.restore_ring(events, dropped, horizon).unwrap();
        assert_eq!(r.dropped(), b.dropped());
        assert_eq!(r.evicted_until(), b.evicted_until());
        let got: Vec<_> = r.events().copied().collect();
        let want: Vec<_> = b.events().copied().collect();
        assert_eq!(got, want);
        // The restored ring keeps evicting correctly.
        r.record(ev(9, HookId::Tick, 1));
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 3);
    }

    #[test]
    fn restore_ring_validates() {
        let mut small = TraceBuffer::new(2);
        let too_many = vec![
            ev(1, HookId::Tick, 0),
            ev(2, HookId::Tick, 0),
            ev(3, HookId::Tick, 0),
        ];
        assert!(small.restore_ring(too_many, 0, None).is_err());
        let out_of_order = vec![ev(5, HookId::Tick, 0), ev(4, HookId::Tick, 0)];
        assert!(small.restore_ring(out_of_order, 0, None).is_err());
    }
}
