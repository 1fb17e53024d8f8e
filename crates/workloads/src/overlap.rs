//! Overlap analysis (Figure 1).
//!
//! The paper's Figure 1 contrasts two schedulings of the same 8-way
//! parallel application: with random interference the periods where *all*
//! CPUs run the application ("green time") shrink far more than the
//! interference total would suggest; with co-scheduled (overlapped)
//! interference the green fraction approaches `1 - interference`.
//!
//! [`green_fraction`] computes that metric from a node's trace: the
//! fraction of an interval during which every app CPU simultaneously runs
//! an application thread. [`red_touch_fraction`] is its counterpart, the
//! fraction during which any app CPU runs interference; both come from
//! one edge sweep.

use pa_simkit::{SimDur, SimTime};
use pa_trace::{CpuTimeline, ThreadClass, TraceBuffer};

/// Fraction of `[start, end)` during which all of the node's first
/// `ntasks` CPUs were simultaneously running App-class threads.
pub fn green_fraction(trace: &TraceBuffer, ntasks: u8, start: SimTime, end: SimTime) -> f64 {
    let all = i32::from(ntasks);
    covered_fraction(
        trace,
        ntasks,
        start,
        end,
        |class| class == ThreadClass::App,
        |level| level == all,
    )
}

/// Fraction of `[start, end)` during which at least one of the first
/// `ntasks` CPUs was running interference (the "red" share of Figure 1).
pub fn red_touch_fraction(trace: &TraceBuffer, ntasks: u8, start: SimTime, end: SimTime) -> f64 {
    covered_fraction(
        trace,
        ntasks,
        start,
        end,
        ThreadClass::is_interference,
        |level| level > 0,
    )
}

/// Fraction of `[start, end)` during which `covered(level)` holds, where
/// `level` counts the first `ntasks` CPUs running a thread whose class
/// satisfies `select`. Boundary sweep: +1 when such a segment starts, -1
/// when it ends; starts sort before ends at the same instant.
fn covered_fraction(
    trace: &TraceBuffer,
    ntasks: u8,
    start: SimTime,
    end: SimTime,
    select: impl Fn(ThreadClass) -> bool,
    covered: impl Fn(i32) -> bool,
) -> f64 {
    assert!(end > start, "empty interval");
    let timeline = CpuTimeline::build(trace, end);
    let mut edges: Vec<(SimTime, i32)> = Vec::new();
    for seg in timeline.segments() {
        if seg.cpu >= ntasks || !select(trace.thread_class(seg.tid)) {
            continue;
        }
        let lo = seg.start.max(start);
        let hi = seg.end.min(end);
        if hi > lo {
            edges.push((lo, 1));
            edges.push((hi, -1));
        }
    }
    edges.sort_by_key(|&(t, delta)| (t, -delta));
    let mut level = 0i32;
    let mut total = SimDur::ZERO;
    let mut since: Option<SimTime> = None;
    for (t, delta) in edges {
        let was = covered(level);
        level += delta;
        let is = covered(level);
        match (was, is) {
            (false, true) => since = Some(t),
            (true, false) => {
                if let Some(s) = since.take() {
                    total += t - s;
                }
            }
            _ => {}
        }
    }
    if let Some(s) = since {
        total += end - s;
    }
    total.nanos() as f64 / (end - start).nanos() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use pa_trace::{HookId, HookMask};

    fn mk_trace() -> TraceBuffer {
        let mut b = TraceBuffer::new(256);
        b.set_mask(HookMask::ALL);
        b.register_thread(1, "app0", ThreadClass::App);
        b.register_thread(2, "app1", ThreadClass::App);
        b.register_thread(3, "syncd", ThreadClass::Daemon);
        b
    }

    fn d(b: &mut TraceBuffer, us: u64, cpu: u8, tid: u32) {
        b.emit(SimTime::from_micros(us), cpu, HookId::Dispatch, tid, 0);
    }
    fn u(b: &mut TraceBuffer, us: u64, cpu: u8, tid: u32) {
        b.emit(SimTime::from_micros(us), cpu, HookId::Undispatch, tid, 0);
    }

    #[test]
    fn fully_green_when_apps_run_everywhere() {
        let mut b = mk_trace();
        d(&mut b, 0, 0, 1);
        d(&mut b, 0, 1, 2);
        u(&mut b, 100, 0, 1);
        u(&mut b, 100, 1, 2);
        let g = green_fraction(&b, 2, SimTime::ZERO, SimTime::from_micros(100));
        assert!((g - 1.0).abs() < 1e-9);
        assert_eq!(
            red_touch_fraction(&b, 2, SimTime::ZERO, SimTime::from_micros(100)),
            0.0
        );
    }

    #[test]
    fn interference_on_one_cpu_kills_green() {
        // App on CPU0 the whole time; CPU1: app except daemon in [40,60).
        let mut b = mk_trace();
        d(&mut b, 0, 0, 1);
        d(&mut b, 0, 1, 2);
        u(&mut b, 40, 1, 2);
        d(&mut b, 40, 1, 3);
        u(&mut b, 60, 1, 3);
        d(&mut b, 60, 1, 2);
        u(&mut b, 100, 0, 1);
        u(&mut b, 100, 1, 2);
        let g = green_fraction(&b, 2, SimTime::ZERO, SimTime::from_micros(100));
        assert!((g - 0.8).abs() < 1e-9, "green {g}");
        let r = red_touch_fraction(&b, 2, SimTime::ZERO, SimTime::from_micros(100));
        assert!((r - 0.2).abs() < 1e-9, "red {r}");
    }

    #[test]
    fn overlapped_interference_preserves_more_green() {
        // Same 20µs of daemon time per CPU; overlapped -> 80% green,
        // staggered -> 60% green. This IS Figure 1.
        let overlapped = {
            let mut b = mk_trace();
            d(&mut b, 0, 0, 1);
            d(&mut b, 0, 1, 2);
            u(&mut b, 40, 0, 1);
            u(&mut b, 40, 1, 2);
            d(&mut b, 40, 0, 3);
            d(&mut b, 40, 1, 3);
            u(&mut b, 60, 0, 3);
            u(&mut b, 60, 1, 3);
            d(&mut b, 60, 0, 1);
            d(&mut b, 60, 1, 2);
            u(&mut b, 100, 0, 1);
            u(&mut b, 100, 1, 2);
            green_fraction(&b, 2, SimTime::ZERO, SimTime::from_micros(100))
        };
        let staggered = {
            let mut b = mk_trace();
            d(&mut b, 0, 0, 1);
            d(&mut b, 0, 1, 2);
            u(&mut b, 20, 0, 1);
            d(&mut b, 20, 0, 3);
            u(&mut b, 40, 0, 3);
            d(&mut b, 40, 0, 1);
            u(&mut b, 60, 1, 2);
            d(&mut b, 60, 1, 3);
            u(&mut b, 80, 1, 3);
            d(&mut b, 80, 1, 2);
            u(&mut b, 100, 0, 1);
            u(&mut b, 100, 1, 2);
            green_fraction(&b, 2, SimTime::ZERO, SimTime::from_micros(100))
        };
        assert!((overlapped - 0.8).abs() < 1e-9, "overlapped {overlapped}");
        assert!((staggered - 0.6).abs() < 1e-9, "staggered {staggered}");
        assert!(overlapped > staggered);
    }

    #[test]
    fn partial_interval_clipping() {
        let mut b = mk_trace();
        d(&mut b, 0, 0, 1);
        d(&mut b, 50, 1, 2);
        u(&mut b, 100, 0, 1);
        u(&mut b, 100, 1, 2);
        // Only [50,100) is green.
        let g = green_fraction(&b, 2, SimTime::ZERO, SimTime::from_micros(100));
        assert!((g - 0.5).abs() < 1e-9);
    }
}
