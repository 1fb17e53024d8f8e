//! Interval attribution: "what ran while this Allreduce was delayed?"
//!
//! The paper's Figure-4 analysis extracts individual Allreduce times from
//! AIX trace logs and, for the outliers, lists the daemons and interrupt
//! handlers that commandeered CPUs during the operation (§5.3: the 600 ms
//! cron job, syncd, mmfsd, hatsd, ...). This module reconstructs per-CPU
//! occupancy timelines from Dispatch/Undispatch records and charges overlap
//! to each thread.

use crate::buffer::TraceBuffer;
use crate::hooks::{HookId, ThreadClass};
use pa_simkit::{SimDur, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// A contiguous run of one thread on one CPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Segment {
    /// CPU index.
    pub cpu: u8,
    /// Thread occupying the CPU.
    pub tid: u32,
    /// Dispatch time.
    pub start: SimTime,
    /// Undispatch time (or the timeline horizon for still-running threads).
    pub end: SimTime,
}

/// Per-CPU occupancy reconstructed from a trace buffer.
#[derive(Debug, Clone, Default)]
pub struct CpuTimeline {
    segments: Vec<Segment>,
}

impl CpuTimeline {
    /// Build from a buffer's Dispatch/Undispatch records.
    ///
    /// `horizon` closes any segment still open at the end of the trace
    /// (typically the simulation end time). Unmatched Undispatch records
    /// (their Dispatch was evicted from the ring) are ignored.
    pub fn build(buffer: &TraceBuffer, horizon: SimTime) -> CpuTimeline {
        let mut open: HashMap<u8, (u32, SimTime)> = HashMap::new();
        let mut segments = Vec::new();
        for ev in buffer.events() {
            match ev.hook {
                HookId::Dispatch => {
                    // An implicit undispatch if the previous occupant never
                    // logged one (defensive; the kernel always pairs them).
                    if let Some((tid, start)) = open.insert(ev.cpu, (ev.tid, ev.time)) {
                        segments.push(Segment {
                            cpu: ev.cpu,
                            tid,
                            start,
                            end: ev.time,
                        });
                    }
                }
                HookId::Undispatch => {
                    if let Some((tid, start)) = open.remove(&ev.cpu) {
                        debug_assert_eq!(
                            tid, ev.tid,
                            "undispatch for a thread that was not running"
                        );
                        segments.push(Segment {
                            cpu: ev.cpu,
                            tid,
                            start,
                            end: ev.time,
                        });
                    }
                }
                _ => {}
            }
        }
        for (cpu, (tid, start)) in open {
            if horizon > start {
                segments.push(Segment {
                    cpu,
                    tid,
                    start,
                    end: horizon,
                });
            }
        }
        segments.sort_by_key(|s| (s.start, s.cpu));
        CpuTimeline { segments }
    }

    /// All segments in start order.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Per-thread CPU time within `[start, end)`, all threads.
    pub fn busy_by_tid(&self, start: SimTime, end: SimTime) -> HashMap<u32, SimDur> {
        let mut map: HashMap<u32, SimDur> = HashMap::new();
        for s in &self.segments {
            let o = overlap(s, start, end);
            if !o.is_zero() {
                *map.entry(s.tid).or_default() += o;
            }
        }
        map
    }
}

fn overlap(s: &Segment, start: SimTime, end: SimTime) -> SimDur {
    let lo = s.start.max(start);
    let hi = s.end.min(end);
    if hi > lo {
        hi - lo
    } else {
        SimDur::ZERO
    }
}

/// One line of a culprit report.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Culprit {
    /// Thread name from the registry.
    pub name: String,
    /// Thread class.
    pub class: ThreadClass,
    /// CPU time consumed inside the queried interval.
    pub cpu_time: SimDur,
}

/// Attribution of an interval: interference ranked by stolen CPU time.
///
/// This is the §5.3 analysis: for the slowest Allreduce the report names
/// the cron job; for milder outliers it names daemons and the MPI timer
/// threads.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AttributionReport {
    /// Interval start.
    pub start: SimTime,
    /// Interval end.
    pub end: SimTime,
    /// Interfering threads (non-App classes), largest first.
    pub culprits: Vec<Culprit>,
    /// Total interference time.
    pub total_interference: SimDur,
    /// Events the source ring evicted over its whole lifetime. Nonzero
    /// means the buffer wrapped at least once; whether *this* query is
    /// affected is what [`AttributionReport::spans_evicted`] says.
    pub dropped_events: u64,
    /// True when `[start, end)` overlaps the evicted region of the ring:
    /// the report may silently under-attribute (PR 1 deflaked a test whose
    /// real bug was exactly this).
    pub spans_evicted: bool,
}

impl AttributionReport {
    /// Build a report for `[start, end)` on one node.
    pub fn analyze(
        buffer: &TraceBuffer,
        timeline: &CpuTimeline,
        start: SimTime,
        end: SimTime,
    ) -> AttributionReport {
        let mut culprits: Vec<Culprit> = timeline
            .busy_by_tid(start, end)
            .into_iter()
            .filter_map(|(tid, dur)| {
                let class = buffer.thread_class(tid);
                class.is_interference().then(|| Culprit {
                    name: buffer.thread_name(tid),
                    class,
                    cpu_time: dur,
                })
            })
            .collect();
        culprits.sort_by(|a, b| b.cpu_time.cmp(&a.cpu_time).then(a.name.cmp(&b.name)));
        let total = culprits
            .iter()
            .fold(SimDur::ZERO, |acc, c| acc + c.cpu_time);
        AttributionReport {
            start,
            end,
            culprits,
            total_interference: total,
            dropped_events: buffer.dropped(),
            spans_evicted: buffer.evicted_until().is_some_and(|t| start <= t),
        }
    }

    /// A human-readable warning when this report queried an interval the
    /// ring had partially evicted, else `None`. The Figure 4 harness
    /// prints it so silent eviction is no longer silent.
    pub fn eviction_warning(&self) -> Option<String> {
        self.spans_evicted.then(|| {
            format!(
                "attribution over [{}, {}) overlaps evicted trace region \
                 ({} events dropped); interference may be under-counted",
                self.start, self.end, self.dropped_events
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hooks::HookMask;

    fn dispatch(b: &mut TraceBuffer, us: u64, cpu: u8, tid: u32) {
        b.emit(SimTime::from_micros(us), cpu, HookId::Dispatch, tid, 0);
    }
    fn undispatch(b: &mut TraceBuffer, us: u64, cpu: u8, tid: u32) {
        b.emit(SimTime::from_micros(us), cpu, HookId::Undispatch, tid, 0);
    }

    fn sample_buffer() -> TraceBuffer {
        let mut b = TraceBuffer::new(64);
        b.set_mask(HookMask::ALL);
        b.register_thread(1, "mpi_rank_0", ThreadClass::App);
        b.register_thread(2, "syncd", ThreadClass::Daemon);
        b.register_thread(3, "cron.perl", ThreadClass::Cron);
        // CPU0: app 0..100, syncd 100..130, app 130..200
        // CPU1: cron 50..650
        // (emitted in global time order, as the kernel does)
        dispatch(&mut b, 0, 0, 1);
        dispatch(&mut b, 50, 1, 3);
        undispatch(&mut b, 100, 0, 1);
        dispatch(&mut b, 100, 0, 2);
        undispatch(&mut b, 130, 0, 2);
        dispatch(&mut b, 130, 0, 1);
        undispatch(&mut b, 200, 0, 1);
        undispatch(&mut b, 650, 1, 3);
        b
    }

    /// CPU time of `tid` within `[start, end)`, in µs.
    fn busy_us(tl: &CpuTimeline, tid: u32, start: u64, end: u64) -> u64 {
        tl.busy_by_tid(SimTime::from_micros(start), SimTime::from_micros(end))
            .get(&tid)
            .map_or(0, |d| d.micros())
    }

    #[test]
    fn timeline_reconstructs_segments() {
        let b = sample_buffer();
        let tl = CpuTimeline::build(&b, SimTime::from_micros(1000));
        assert_eq!(tl.segments().len(), 4);
        assert_eq!(busy_us(&tl, 1, 0, 1000), 170);
        assert_eq!(busy_us(&tl, 2, 0, 1000), 30);
    }

    #[test]
    fn busy_time_clips_to_interval() {
        let b = sample_buffer();
        let tl = CpuTimeline::build(&b, SimTime::from_micros(1000));
        // Interval [110, 120) lies inside the syncd segment.
        assert_eq!(busy_us(&tl, 2, 110, 120), 10);
        // Interval entirely before dispatch: no entry at all.
        let early = tl.busy_by_tid(SimTime::ZERO, SimTime::from_micros(50));
        assert!(!early.contains_key(&2));
    }

    #[test]
    fn open_segments_close_at_horizon() {
        let mut b = TraceBuffer::new(8);
        b.set_mask(HookMask::ALL);
        b.register_thread(9, "mmfsd", ThreadClass::Daemon);
        dispatch(&mut b, 10, 0, 9);
        let tl = CpuTimeline::build(&b, SimTime::from_micros(60));
        assert_eq!(busy_us(&tl, 9, 0, 100), 50);
    }

    #[test]
    fn report_ranks_culprits_and_skips_app() {
        let b = sample_buffer();
        let tl = CpuTimeline::build(&b, SimTime::from_micros(1000));
        let r = AttributionReport::analyze(&b, &tl, SimTime::ZERO, SimTime::from_micros(700));
        assert_eq!(r.culprits.len(), 2);
        assert_eq!(r.culprits[0].name, "cron.perl");
        assert_eq!(r.culprits[0].cpu_time, SimDur::from_micros(600));
        assert_eq!(r.culprits[1].name, "syncd");
        assert_eq!(r.culprits[1].class, ThreadClass::Daemon);
        assert_eq!(r.culprits[1].cpu_time, SimDur::from_micros(30));
        assert_eq!(r.total_interference, SimDur::from_micros(630));
        assert_eq!(r.dropped_events, 0);
        assert!(!r.spans_evicted);
        assert!(r.eviction_warning().is_none());
    }

    #[test]
    fn report_flags_queries_over_evicted_regions() {
        let mut b = TraceBuffer::new(4);
        b.set_mask(HookMask::ALL);
        b.register_thread(2, "syncd", ThreadClass::Daemon);
        // Six paired events into a 4-slot ring: the first pair is evicted.
        dispatch(&mut b, 0, 0, 2);
        undispatch(&mut b, 10, 0, 2);
        dispatch(&mut b, 20, 0, 2);
        undispatch(&mut b, 30, 0, 2);
        dispatch(&mut b, 40, 0, 2);
        undispatch(&mut b, 50, 0, 2);
        assert_eq!(b.dropped(), 2);
        let tl = CpuTimeline::build(&b, SimTime::from_micros(60));
        // Query starting inside the evicted region is flagged...
        let r = AttributionReport::analyze(&b, &tl, SimTime::ZERO, SimTime::from_micros(60));
        assert!(r.spans_evicted);
        assert_eq!(r.dropped_events, 2);
        let warn = r.eviction_warning().expect("warning expected");
        assert!(warn.contains("2 events dropped"), "got: {warn}");
        // ...a query wholly after the eviction horizon is not.
        let r =
            AttributionReport::analyze(&b, &tl, SimTime::from_micros(20), SimTime::from_micros(60));
        assert!(!r.spans_evicted);
        assert_eq!(r.dropped_events, 2, "lifetime drop count still reported");
    }

    #[test]
    fn report_empty_when_only_app_runs() {
        let mut b = TraceBuffer::new(8);
        b.set_mask(HookMask::ALL);
        b.register_thread(1, "mpi_rank_0", ThreadClass::App);
        dispatch(&mut b, 0, 0, 1);
        undispatch(&mut b, 100, 0, 1);
        let tl = CpuTimeline::build(&b, SimTime::from_micros(100));
        let r = AttributionReport::analyze(&b, &tl, SimTime::ZERO, SimTime::from_micros(100));
        assert!(r.culprits.is_empty());
        assert_eq!(r.total_interference, SimDur::ZERO);
    }

    #[test]
    fn back_to_back_dispatch_closes_previous() {
        let mut b = TraceBuffer::new(8);
        b.set_mask(HookMask::ALL);
        dispatch(&mut b, 0, 0, 1);
        dispatch(&mut b, 40, 0, 2); // no explicit undispatch for tid 1
        undispatch(&mut b, 90, 0, 2);
        let tl = CpuTimeline::build(&b, SimTime::from_micros(100));
        assert_eq!(busy_us(&tl, 1, 0, 100), 40);
        assert_eq!(busy_us(&tl, 2, 0, 100), 50);
    }
}
