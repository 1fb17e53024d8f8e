//! The host's speed, measured next to every pass.
//!
//! A shared host runs the same work up to a quarter faster or slower from
//! one minute to the next, as other tenants come and go. Within a pass
//! that swing is noise; between runs minutes apart it is drift that no
//! amount of repetition inside a run removes. So after each pass the
//! benchmark times a fixed reference loop of its own, built from the
//! kinds of work the simulator does (a binary-heap calendar and random
//! reads over a table larger than the caches), and reports every
//! end-to-end time as it would read on a host where that loop takes
//! [`NOMINAL_REF_S`]. The loop shares no code with the simulator, so a
//! change to the simulator leaves it alone.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

/// Host seconds of the reference loop that the normalized times assume:
/// its time on a 2-vCPU Xeon host in a quiet minute.
pub const NOMINAL_REF_S: f64 = 0.140;

/// Entries live in the reference calendar.
const CALENDAR: usize = 1 << 16;
/// Pop-then-push steps on the calendar.
const CALENDAR_STEPS: u32 = 1_500_000;
/// Words in the random-read table: 16 MB.
const TABLE: u64 = 2_000_000;
/// Random reads from the table.
const READS: u32 = 3_000_000;

/// Host seconds the reference loop takes now.
pub fn reference_seconds() -> f64 {
    let started = Instant::now();
    std::hint::black_box(reference_loop());
    started.elapsed().as_secs_f64()
}

/// The reference loop: the same work on every call.
fn reference_loop() -> u64 {
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut calendar: BinaryHeap<Reverse<u64>> =
        (0..CALENDAR).map(|_| Reverse(next() >> 20)).collect();
    let mut acc = 0u64;
    for _ in 0..CALENDAR_STEPS {
        let Reverse(t) = calendar.pop().expect("the calendar never empties");
        acc = acc.wrapping_add(t);
        calendar.push(Reverse(t + (next() >> 44)));
    }
    let table: Vec<u64> = (0..TABLE).map(|i| i.wrapping_mul(0x9e37)).collect();
    for _ in 0..READS {
        acc = acc.wrapping_add(table[(next() % TABLE) as usize]);
    }
    acc
}
