//! Span timelines with Chrome trace-event export.
//!
//! A [`SpanTimeline`] collects begin/end/instant/complete events on
//! (process, track) lanes — by convention process = node, track = CPU or
//! thread — and renders the Chrome trace-event JSON format understood by
//! Perfetto and `chrome://tracing`. Timestamps are [`SimTime`] converted
//! to microseconds (the format's native unit), so a fig4-style outlier
//! can be *looked at*: app ranks going quiet while a cron track lights
//! up across the window.

use pa_simkit::{SimDur, SimTime};
use std::collections::BTreeMap;
use std::fmt::Write;
use std::sync::Arc;

#[derive(Debug, Clone, PartialEq)]
enum Ev {
    /// Duration begin ("B").
    Begin { name: Arc<str>, t: SimTime },
    /// Duration end ("E"); closes the innermost open span on the track.
    End { t: SimTime },
    /// Complete event ("X") with an explicit duration.
    Complete {
        name: Arc<str>,
        t: SimTime,
        dur: SimDur,
    },
    /// Instant event ("i"), thread-scoped.
    Instant { name: Arc<str>, t: SimTime },
}

/// One track's lane: its events plus the open-span stack used to keep
/// begin/end nesting honest.
#[derive(Debug, Clone, Default, PartialEq)]
struct Track {
    events: Vec<Ev>,
    open: Vec<Arc<str>>,
}

/// A multi-track span recorder exporting Chrome trace-event JSON.
///
/// Tracks are addressed by `(pid, tid)`; name them with
/// [`SpanTimeline::name_process`] / [`SpanTimeline::name_track`] so the
/// viewer shows "node 0" / "cpu 3" instead of bare numbers. Span names
/// are shared `Arc<str>`s: a caller that labels many spans alike (one
/// thread's dispatches) builds the name once and clones the handle.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanTimeline {
    tracks: BTreeMap<(u32, u32), Track>,
    process_names: BTreeMap<u32, String>,
    track_names: BTreeMap<(u32, u32), String>,
}

impl SpanTimeline {
    /// An empty timeline.
    pub fn new() -> SpanTimeline {
        SpanTimeline::default()
    }

    /// Name a process (Chrome `process_name` metadata).
    pub fn name_process(&mut self, pid: u32, name: impl Into<String>) {
        self.process_names.insert(pid, name.into());
    }

    /// Name a track (Chrome `thread_name` metadata).
    pub fn name_track(&mut self, pid: u32, tid: u32, name: impl Into<String>) {
        self.track_names.insert((pid, tid), name.into());
    }

    fn track(&mut self, pid: u32, tid: u32) -> &mut Track {
        self.tracks.entry((pid, tid)).or_default()
    }

    /// Open a span on `(pid, tid)` at `t`. Spans nest per track.
    pub fn begin(&mut self, pid: u32, tid: u32, name: impl Into<Arc<str>>, t: SimTime) {
        let name = name.into();
        let track = self.track(pid, tid);
        track.open.push(Arc::clone(&name));
        track.events.push(Ev::Begin { name, t });
    }

    /// Close the innermost open span on `(pid, tid)` at `t`. Returns the
    /// closed span's name, or `None` (and records nothing) when no span
    /// is open — an unmatched end is a caller bug, not a crash.
    pub fn end(&mut self, pid: u32, tid: u32, t: SimTime) -> Option<Arc<str>> {
        let track = self.track(pid, tid);
        let name = track.open.pop()?;
        track.events.push(Ev::End { t });
        Some(name)
    }

    /// Record a closed span of known duration on `(pid, tid)`.
    pub fn complete(
        &mut self,
        pid: u32,
        tid: u32,
        name: impl Into<Arc<str>>,
        start: SimTime,
        dur: SimDur,
    ) {
        self.track(pid, tid).events.push(Ev::Complete {
            name: name.into(),
            t: start,
            dur,
        });
    }

    /// Record an instant marker on `(pid, tid)`.
    pub fn instant(&mut self, pid: u32, tid: u32, name: impl Into<Arc<str>>, t: SimTime) {
        self.track(pid, tid).events.push(Ev::Instant {
            name: name.into(),
            t,
        });
    }

    /// Current open-span nesting depth of `(pid, tid)`.
    pub fn depth(&self, pid: u32, tid: u32) -> usize {
        self.tracks.get(&(pid, tid)).map_or(0, |t| t.open.len())
    }

    /// Total recorded events across all tracks (metadata excluded).
    pub fn len(&self) -> usize {
        self.tracks.values().map(|t| t.events.len()).sum()
    }

    /// True iff no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Render the Chrome trace-event JSON (`{"traceEvents": [...]}`):
    /// compact, in the serde shim's canonical layout, with a trailing
    /// newline.
    ///
    /// Events are written straight into one string, metadata first, then
    /// each track's events in `(pid, tid)` order.
    ///
    /// Open spans are left open — Perfetto closes them at the trace end,
    /// which matches the "still running at horizon" semantics of the
    /// kernel's dispatch timeline.
    pub fn to_chrome_trace(&self) -> String {
        let mut w = TraceWriter::new();
        for (&pid, name) in &self.process_names {
            w.meta(pid, 0, "process_name", name);
        }
        // Fallback labels: every lane holding events gets name metadata
        // even when the caller registered none, so Perfetto shows
        // "process 3 / track 1" rather than bare numeric ids. Tracks are
        // in a sorted map, so the fallback order is deterministic.
        let mut last_pid = None;
        for &(pid, _) in self.tracks.keys() {
            if last_pid == Some(pid) {
                continue;
            }
            last_pid = Some(pid);
            if !self.process_names.contains_key(&pid) {
                w.meta(pid, 0, "process_name", &format!("process {pid}"));
            }
        }
        for (&(pid, tid), name) in &self.track_names {
            w.meta(pid, tid, "thread_name", name);
        }
        for &(pid, tid) in self.tracks.keys() {
            if !self.track_names.contains_key(&(pid, tid)) {
                w.meta(pid, tid, "thread_name", &format!("track {tid}"));
            }
        }
        for (&(pid, tid), track) in &self.tracks {
            for ev in &track.events {
                w.event(pid, tid, ev);
            }
        }
        w.finish()
    }
}

/// The Chrome trace writer: one string, each event appended in the
/// layout `Value::to_json_string` gives the equivalent tree, so the
/// output parses and re-renders to itself byte for byte.
struct TraceWriter {
    out: String,
    first: bool,
}

impl TraceWriter {
    fn new() -> TraceWriter {
        TraceWriter {
            out: String::from("{\"traceEvents\":["),
            first: true,
        }
    }

    /// `{"name":..,"ph":..,"ts":..,"pid":..,"tid":..` — the caller adds
    /// any further fields and the closing brace.
    fn head(&mut self, pid: u32, tid: u32, ph: &str, name: &str, ts_ns: u64) {
        let out = &mut self.out;
        if !std::mem::take(&mut self.first) {
            out.push(',');
        }
        out.push_str("{\"name\":");
        push_escaped(out, name);
        out.push_str(",\"ph\":\"");
        out.push_str(ph);
        out.push_str("\",\"ts\":");
        push_micros(out, ts_ns);
        let _ = write!(out, ",\"pid\":{pid},\"tid\":{tid}");
    }

    fn meta(&mut self, pid: u32, tid: u32, kind: &str, name: &str) {
        self.head(pid, tid, "M", kind, 0);
        self.out.push_str(",\"args\":{\"name\":");
        push_escaped(&mut self.out, name);
        self.out.push_str("}}");
    }

    fn event(&mut self, pid: u32, tid: u32, ev: &Ev) {
        match ev {
            Ev::Begin { name, t } => self.head(pid, tid, "B", name, t.nanos()),
            Ev::End { t } => self.head(pid, tid, "E", "", t.nanos()),
            Ev::Complete { name, t, dur } => {
                self.head(pid, tid, "X", name, t.nanos());
                self.out.push_str(",\"dur\":");
                push_micros(&mut self.out, dur.nanos());
            }
            Ev::Instant { name, t } => {
                self.head(pid, tid, "i", name, t.nanos());
                self.out.push_str(",\"s\":\"t\"");
            }
        }
        self.out.push('}');
    }

    fn finish(mut self) -> String {
        self.out.push_str("],\"displayTimeUnit\":\"ms\"}\n");
        self.out
    }
}

/// Append `ns` nanoseconds as microseconds, exactly as the JSON float
/// `ns as f64 / 1e3` renders: a whole value keeps a `.0`, any other is
/// its shortest round-trip decimal. Below 10^15 ns the quotient has at
/// most 15 significant digits, so that shortest form is the exact
/// decimal `ns / 1000`, written here from integers; larger times take
/// the float path.
fn push_micros(out: &mut String, ns: u64) {
    const EXACT_BELOW_NS: u64 = 1_000_000_000_000_000;
    if ns >= EXACT_BELOW_NS {
        let us = ns as f64 / 1e3;
        // `us` < 2^64 / 1e3 < 1e17: the float renders without exponent.
        let _ = if us == us.trunc() && us < 1e15 {
            write!(out, "{us:.1}")
        } else {
            write!(out, "{us}")
        };
        return;
    }
    // The fraction's digits without trailing zeros, but at least one.
    let (frac, width) = match ns % 1_000 {
        f if f % 100 == 0 => (f / 100, 1),
        f if f % 10 == 0 => (f / 10, 2),
        f => (f, 3),
    };
    let _ = write!(out, "{}.{frac:0width$}", ns / 1_000);
}

/// Append `s` as a JSON string: `"` and `\\` escaped, `\n` `\r` `\t` by
/// name, other control characters as `\u00xx`, everything else raw.
fn push_escaped(out: &mut String, s: &str) {
    out.push('"');
    let mut clean = 0;
    for (i, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.push_str(&s[clean..i]);
        clean = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                out.push_str("\\u00");
                out.push(char::from(HEX[usize::from(b >> 4)]));
                out.push(char::from(HEX[usize::from(b & 0xf)]));
            }
        }
    }
    out.push_str(&s[clean..]);
    out.push('"');
}

const HEX: &[u8; 16] = b"0123456789abcdef";

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn nesting_depth_tracks_begin_end() {
        let mut tl = SpanTimeline::new();
        tl.begin(0, 1, "outer", t(0));
        tl.begin(0, 1, "inner", t(5));
        assert_eq!(tl.depth(0, 1), 2);
        assert_eq!(tl.end(0, 1, t(8)).as_deref(), Some("inner"));
        assert_eq!(tl.end(0, 1, t(9)).as_deref(), Some("outer"));
        assert_eq!(tl.depth(0, 1), 0);
        assert_eq!(tl.end(0, 1, t(10)), None, "unmatched end is rejected");
        assert_eq!(tl.len(), 4);
    }

    #[test]
    fn tracks_are_independent() {
        let mut tl = SpanTimeline::new();
        tl.begin(0, 1, "a", t(0));
        tl.begin(3, 7, "b", t(1));
        assert_eq!(tl.depth(0, 1), 1);
        assert_eq!(tl.depth(3, 7), 1);
        assert_eq!(tl.depth(0, 2), 0);
        assert_eq!(tl.end(3, 7, t(2)).as_deref(), Some("b"));
        assert_eq!(tl.depth(0, 1), 1, "other track's end must not close ours");
    }

    #[test]
    fn chrome_trace_parses_and_has_expected_shape() {
        let mut tl = SpanTimeline::new();
        tl.name_process(0, "node 0");
        tl.name_track(0, 2, "cpu 2");
        tl.begin(0, 2, "dispatch", t(10));
        tl.end(0, 2, t(20));
        tl.complete(0, 2, "allreduce", t(30), SimDur::from_micros(5));
        tl.instant(0, 2, "tick", t(40));
        let json = tl.to_chrome_trace();
        let v = serde_json::parse(&json).expect("chrome trace must parse");
        let top = v.as_map().unwrap();
        let events = serde::value::get(top, "traceEvents")
            .unwrap()
            .as_seq()
            .unwrap();
        // 2 metadata + 4 recorded events.
        assert_eq!(events.len(), 6);
        let phases: Vec<&str> = events
            .iter()
            .map(|e| {
                serde::value::get(e.as_map().unwrap(), "ph")
                    .unwrap()
                    .as_str()
                    .unwrap()
            })
            .collect();
        assert_eq!(phases, vec!["M", "M", "B", "E", "X", "i"]);
        let x = events[4].as_map().unwrap();
        assert_eq!(serde::value::get(x, "ts").unwrap().as_f64(), Some(30.0));
        assert_eq!(serde::value::get(x, "dur").unwrap().as_f64(), Some(5.0));
    }

    #[test]
    fn unnamed_lanes_get_fallback_metadata() {
        let mut tl = SpanTimeline::new();
        tl.name_process(0, "node 0"); // explicit name wins
        tl.begin(0, 1, "a", t(0));
        tl.begin(7, 3, "b", t(1)); // entirely unnamed lane
        let json = tl.to_chrome_trace();
        assert!(json.contains("node 0"));
        assert!(!json.contains("process 0"), "explicit name must win");
        assert!(json.contains("process 7"), "unnamed pid needs a label");
        assert!(json.contains("track 1") && json.contains("track 3"));
    }

    #[test]
    fn chrome_trace_round_trips_through_serde_json() {
        let mut tl = SpanTimeline::new();
        tl.name_process(1, "node 1");
        tl.begin(1, 0, "phase", t(1));
        tl.end(1, 0, t(2));
        let json = tl.to_chrome_trace();
        let v = serde_json::parse(&json).unwrap();
        let rendered = v.to_json_string();
        let v2 = serde_json::parse(&rendered).unwrap();
        assert_eq!(v, v2, "parse → render → parse must be a fixed point");
    }
}
