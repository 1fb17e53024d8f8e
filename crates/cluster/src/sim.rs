//! The multi-node simulation driver.
//!
//! [`ClusterSim`] owns one *shard* per node — the node's [`Kernel`] plus a
//! private event calendar — and a switch [`FabricModel`] connecting them.
//! The engine is **conservatively parallel**: it advances all shards in
//! bounded time windows whose width is the cross-node wire latency
//! (the *lookahead*). Because every cross-node message takes at least
//! `net_latency` of fabric time, no event processed inside the current
//! window can affect another shard within that same window, so shards may
//! run the window concurrently without coordination. At each window
//! barrier, cross-shard messages are exchanged and merged in a
//! deterministic order — sorted by `(delivery time, source node, send
//! sequence)` — so the simulation history is **bit-identical at any
//! thread count**, one thread included.
//!
//! The per-shard calendars together *are* the switch's globally
//! synchronized timebase; each node's kernel sees global time only through
//! its own `ClockModel` — exactly as real nodes see real time only through
//! their (possibly skewed) time-of-day clocks.
//!
//! Fabric channels are FIFO: delivery on each `(src node, dst node)`
//! channel is clamped to be non-decreasing in send order, mirroring the
//! in-order SP switch routes. Without the clamp a small message could
//! overtake a large one sent earlier on the same channel (serialization
//! makes the large one slower), which no real in-order fabric permits.

use crate::fabric::{FabricModel, LINK_WAIT_BUCKETS, LINK_WAIT_EDGES_NS};
use pa_kernel::{
    ClockModel, Kernel, KernelEvent, KernelSnapshot, Message, NodeLoop, NodeSnap, SchedOptions,
};
use pa_simkit::{sha256_hex, QueueStats, SeedSpace, SimDur, SimTime};
use serde::value::Value;
use serde::{Deserialize, Serialize};
use std::any::Any;
use std::collections::HashMap;
use std::panic::AssertUnwindSafe;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Static description of a cluster to build.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClusterSpec {
    /// Number of SMP nodes.
    pub nodes: u32,
    /// CPUs per node (the study's machines: 16-way Nighthawk/Power3).
    pub cpus_per_node: u8,
    /// Kernel options (identical on every node, like a site-wide kernel).
    pub options: SchedOptions,
    /// Maximum boot-time clock offset; each node draws uniformly from
    /// `[0, skew_max)`. Zero models pre-synchronized clocks.
    pub skew_max: SimDur,
    /// Trace-ring capacity per node.
    pub trace_capacity: usize,
    /// Fabric constants.
    pub fabric: FabricModel,
}

impl ClusterSpec {
    /// A cluster in the study's shape: `nodes` × 16-way, vanilla kernel,
    /// unsynchronized clocks (up to 10 ms skew).
    pub fn sp_system(nodes: u32) -> ClusterSpec {
        ClusterSpec {
            nodes,
            cpus_per_node: 16,
            options: SchedOptions::vanilla(),
            skew_max: SimDur::from_millis(10),
            trace_capacity: 1 << 18,
            fabric: FabricModel::default(),
        }
    }

    /// Same, with the prototype kernel options.
    pub fn sp_system_prototype(nodes: u32) -> ClusterSpec {
        ClusterSpec {
            options: SchedOptions::prototype(),
            ..ClusterSpec::sp_system(nodes)
        }
    }

    /// Total CPU count.
    pub fn total_cpus(&self) -> u32 {
        self.nodes * u32::from(self.cpus_per_node)
    }
}

/// A cross-shard message staged during a window, delivered at the barrier.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct StagedMsg {
    deliver_at: SimTime,
    src_node: u32,
    seq: u64,
    dst_node: u32,
    msg: Message,
}

/// One node's slice of the cluster: its node loop (kernel, private event
/// calendar, event counter) and the fabric routing for messages leaving
/// the node. Shard structure is *per node*, never per thread, so the event
/// history is independent of how shards are distributed over worker
/// threads.
struct Shard {
    node: NodeLoop,
    router: Router,
    /// Cumulative measured `process_window` wall time, ns.
    busy_ns: u64,
    /// Exponentially-weighted busy-time estimate (ns) driving the
    /// heavy-first claim order. Like `busy_ns` it is wall-clock state:
    /// never checkpointed, and losing it only costs a few warm-up windows.
    busy_est: u64,
}

/// A shard's fabric routing state: everything a shard adds to its node
/// loop.
#[derive(Default)]
struct Router {
    node: u32,
    nnodes: u32,
    messages_routed: u64,
    bytes_routed: u64,
    fifo_clamps: u64,
    /// Monotone sequence for cross-shard sends; with the source node it
    /// forms the deterministic tie-break of the barrier merge.
    msg_seq: u64,
    /// Per-destination FIFO floor: the latest delivery time already
    /// promised on the `(this node → dst)` channel.
    last_delivery: HashMap<u32, SimTime>,
    /// Cross-shard messages staged during the current window.
    outbox: Vec<StagedMsg>,
    /// Busy-until register of this node's egress link. Advanced at send,
    /// inside the owning shard, so it is deterministic in event order.
    egress_free_at: SimTime,
    /// Busy-until register of this node's ingress link. Advanced only at
    /// the window-merge barrier, in the canonical merge order.
    ingress_free_at: SimTime,
    /// Messages delayed by a busy link (egress or ingress).
    link_waits: u64,
    /// Total link queueing delay, nanoseconds.
    link_wait_ns: u64,
    /// Queueing-delay histogram; buckets bounded by `LINK_WAIT_EDGES_NS`
    /// plus one overflow bucket.
    link_wait_hist: [u64; LINK_WAIT_BUCKETS],
}

/// One shard's slice of a cluster checkpoint. Everything mutable lives
/// here; static structure (node config, fabric, trace registrations) is
/// rebuilt from the [`ClusterSpec`] on restore and validated against the
/// snapshot by [`Kernel::restore`].
#[derive(Debug, Serialize, Deserialize)]
struct ShardSnap {
    node: u32,
    queue_now: SimTime,
    queue_next_id: u64,
    queue_stats: QueueStats,
    queue_entries: Vec<(SimTime, u64, KernelEvent)>,
    kernel: KernelSnapshot,
    events_processed: u64,
    messages_routed: u64,
    bytes_routed: u64,
    fifo_clamps: u64,
    msg_seq: u64,
    /// FIFO floors as a node-sorted pair list (canonical encoding).
    last_delivery: Vec<(u32, SimTime)>,
    /// Always empty at a window barrier, and restore rejects a non-empty
    /// one; serialized anyway so the format does not change if
    /// checkpoints ever move inside a window.
    outbox: Vec<StagedMsg>,
    egress_free_at: SimTime,
    ingress_free_at: SimTime,
    link_waits: u64,
    link_wait_ns: u64,
    /// `LINK_WAIT_BUCKETS` entries (length-checked on restore).
    link_wait_hist: Vec<u64>,
}

impl Shard {
    /// Process every local event strictly before `window_end` — or up to
    /// and including it when `inclusive` (the final window of a
    /// `SimTime`-saturating horizon, where the exclusive bound is not
    /// representable).
    fn process_window(&mut self, window_end: SimTime, inclusive: bool, fabric: &FabricModel) {
        self.node.run(window_end, inclusive, false, |now, msg| {
            self.router.send(now, msg, fabric)
        });
    }

    /// Earliest pending event, ns (`u64::MAX` when the calendar is empty).
    fn next_event_ns(&self) -> u64 {
        self.node
            .queue()
            .peek_time()
            .map_or(u64::MAX, SimTime::nanos)
    }

    /// Capture this shard's full mutable state.
    fn snapshot(&self) -> ShardSnap {
        let NodeSnap {
            queue_now,
            queue_next_id,
            queue_stats,
            queue_entries,
            kernel,
            events_processed,
        } = self.node.capture();
        let r = &self.router;
        let mut last_delivery: Vec<(u32, SimTime)> =
            r.last_delivery.iter().map(|(&n, &t)| (n, t)).collect();
        last_delivery.sort_by_key(|&(n, _)| n);
        ShardSnap {
            node: r.node,
            queue_now,
            queue_next_id,
            queue_stats,
            queue_entries,
            kernel,
            events_processed,
            messages_routed: r.messages_routed,
            bytes_routed: r.bytes_routed,
            fifo_clamps: r.fifo_clamps,
            msg_seq: r.msg_seq,
            last_delivery,
            outbox: r.outbox.clone(),
            egress_free_at: r.egress_free_at,
            ingress_free_at: r.ingress_free_at,
            link_waits: r.link_waits,
            link_wait_ns: r.link_wait_ns,
            link_wait_hist: r.link_wait_hist.to_vec(),
        }
    }

    /// Overlay a checkpointed state onto this freshly assembled shard.
    fn restore(&mut self, snap: ShardSnap) -> Result<(), String> {
        let r = &mut self.router;
        if snap.node != r.node {
            return Err(format!(
                "checkpoint shard {} restored into node {}",
                snap.node, r.node
            ));
        }
        if snap.link_wait_hist.len() != LINK_WAIT_BUCKETS {
            return Err(format!(
                "node {}: link-wait histogram has {} buckets, engine expects {}",
                r.node,
                snap.link_wait_hist.len(),
                LINK_WAIT_BUCKETS
            ));
        }
        // Checkpoints are taken only at window barriers, after the merge
        // has emptied every outbox; a staged message here would be
        // delivered into a window that already closed.
        if !snap.outbox.is_empty() {
            return Err(format!(
                "node {}: non-empty outbox: {} staged message(s) in a barrier checkpoint",
                r.node,
                snap.outbox.len()
            ));
        }
        self.node
            .restore(NodeSnap {
                queue_now: snap.queue_now,
                queue_next_id: snap.queue_next_id,
                queue_stats: snap.queue_stats,
                queue_entries: snap.queue_entries,
                kernel: snap.kernel,
                events_processed: snap.events_processed,
            })
            .map_err(|e| format!("node {}: {e}", r.node))?;
        r.messages_routed = snap.messages_routed;
        r.bytes_routed = snap.bytes_routed;
        r.fifo_clamps = snap.fifo_clamps;
        r.msg_seq = snap.msg_seq;
        r.last_delivery = snap.last_delivery.into_iter().collect();
        r.egress_free_at = snap.egress_free_at;
        r.ingress_free_at = snap.ingress_free_at;
        r.link_waits = snap.link_waits;
        r.link_wait_ns = snap.link_wait_ns;
        r.link_wait_hist.copy_from_slice(&snap.link_wait_hist);
        Ok(())
    }

    /// Apply ingress-link queueing to a staged cross-shard message and
    /// schedule it into this (destination) shard's calendar; returns the
    /// final delivery time. Must be called in the canonical
    /// `(deliver_at, src_node, seq)` merge order: the ingress busy-until
    /// register advances monotonically in that order, so every thread
    /// count observes identical queueing.
    fn accept_staged(&mut self, m: StagedMsg, fabric: &FabricModel) -> SimTime {
        let r = &mut self.router;
        let mut deliver_at = m.deliver_at;
        if let Some(occ) = fabric.link_occupancy(m.msg.bytes) {
            if r.ingress_free_at > deliver_at {
                r.record_wait(r.ingress_free_at - deliver_at);
                deliver_at = r.ingress_free_at;
            }
            r.ingress_free_at = deliver_at + occ;
        }
        self.node.deliver_at(deliver_at, m.msg);
        deliver_at
    }
}

impl Router {
    /// Count one message delayed `wait` behind a busy link.
    fn record_wait(&mut self, wait: SimDur) {
        self.link_waits += 1;
        self.link_wait_ns += wait.nanos();
        self.link_wait_hist[link_wait_bucket(wait)] += 1;
    }

    /// The node loop's route: price one outbound message on the fabric,
    /// then return it for delivery on this node or stage it in the outbox
    /// for the barrier merge.
    fn send(
        &mut self,
        now: SimTime,
        msg: Message,
        fabric: &FabricModel,
    ) -> Option<(SimTime, Message)> {
        let dst = msg.dst.node;
        assert!(dst < self.nnodes, "message to nonexistent node {dst}");
        self.messages_routed += 1;
        self.bytes_routed += u64::from(msg.bytes);
        let mut deliver_at = now + fabric.delay(&msg);
        // Egress link: concurrent cross-node sends share the node's
        // finite uplink, so a send issued while the link is still
        // draining an earlier payload queues behind it. The wait is
        // non-negative, so `deliver_at >= now + net_latency` still
        // holds and the engine's lookahead is never shortened.
        if dst != self.node {
            if let Some(occ) = fabric.link_occupancy(msg.bytes) {
                let start = if self.egress_free_at > now {
                    let wait = self.egress_free_at - now;
                    self.record_wait(wait);
                    deliver_at += wait;
                    self.egress_free_at
                } else {
                    now
                };
                self.egress_free_at = start + occ;
            }
        }
        // FIFO clamp: fabric channels deliver in send order. A later
        // (smaller) message may not overtake an earlier (larger) one
        // still serializing on the same channel.
        let floor = self.last_delivery.entry(dst).or_insert(SimTime::ZERO);
        if deliver_at < *floor {
            deliver_at = *floor;
            self.fifo_clamps += 1;
        }
        *floor = deliver_at;
        if dst == self.node {
            return Some((deliver_at, msg));
        }
        self.outbox.push(StagedMsg {
            deliver_at,
            src_node: self.node,
            seq: self.msg_seq,
            dst_node: dst,
            msg,
        });
        self.msg_seq += 1;
        None
    }
}

/// Histogram bucket for a link queueing delay (last bucket is overflow).
fn link_wait_bucket(wait: SimDur) -> usize {
    LINK_WAIT_EDGES_NS
        .iter()
        .position(|&edge| wait.nanos() <= edge)
        .unwrap_or(LINK_WAIT_EDGES_NS.len())
}

/// How the window loop assigns shards to worker threads inside a window
/// when several workers run. Assignment changes only *which worker* runs
/// `process_window` on a shard — never per-shard event order, the window
/// sequence, or the canonical barrier merge — so the event history is
/// bit-identical under every variant at any thread count. A test and
/// benchmark hook: `Steal` is the engine's schedule, and the other two
/// exist to prove assignment invariance and to measure stealing against
/// static stripes.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardSchedule {
    /// Static stripes (the pre-stealing engine): worker `t` owns shards
    /// `t, t+n, t+2n, …`. One slow shard stalls the whole barrier while
    /// its stripe-mates' owners sit idle.
    Stripe,
    /// Work stealing (default): workers pull the next unclaimed shard
    /// from a shared claim index over a heavy-first order (descending
    /// per-shard busy-time EWMA, fed by the wall time each shard consumed
    /// in recent windows), so the barrier waits on the slowest *window*,
    /// not the slowest stripe.
    Steal,
    /// Work stealing over an adversarial order — reversed and rotated
    /// every window — used by the permutation tests to prove assignment
    /// order cannot leak into the history.
    StealAdversarial,
}

/// What one worker thread produced during a window: the staged
/// cross-shard messages of the shards it claimed. The wall-clock fields
/// (`busy_ns`, `steals`) feed the `local.*` diagnostics only — nothing
/// deterministic reads them.
#[derive(Default)]
struct WindowReport {
    staged: Vec<StagedMsg>,
    /// Wall time this worker spent inside `process_window` this window.
    busy_ns: u64,
    /// Claims outside this worker's static stripe.
    steals: u64,
}

/// Bounds of the window opening at `t_start`: `(end, inclusive)`. The
/// window covers `[t_start, end)`, or `[t_start, end]` when `inclusive`.
///
/// `horizon` is an inclusive cap, so the exclusive end is
/// `min(t_start + lookahead, horizon + 1)` — computed in 128 bits because
/// at `horizon = SimTime::FAR_FUTURE` the `+ 1` is not representable in
/// nanoseconds. A saturating add here would silently shrink the final
/// window by one nanosecond: events at the last representable instant
/// would never be processed and the window loop would spin on them
/// forever. When the true bound exceeds `u64::MAX`, the window is instead
/// closed *inclusively* at `FAR_FUTURE`.
fn window_bounds(t_start: SimTime, horizon: SimTime, lookahead: SimDur) -> (SimTime, bool) {
    bounds_from_end(window_end_u128(t_start, horizon, lookahead))
}

/// Exclusive window end in 128-bit nanoseconds (see [`window_bounds`]).
fn window_end_u128(t_start: SimTime, horizon: SimTime, lookahead: SimDur) -> u128 {
    let end = u128::from(t_start.nanos()) + u128::from(lookahead.nanos());
    end.min(u128::from(horizon.nanos()) + 1)
}

/// Convert a 128-bit exclusive window end to `(end, inclusive)` bounds.
fn bounds_from_end(end: u128) -> (SimTime, bool) {
    if end > u128::from(u64::MAX) {
        (SimTime::FAR_FUTURE, true)
    } else {
        (SimTime::from_nanos(end as u64), false)
    }
}

/// Magic string identifying a cluster checkpoint file.
pub const CHECKPOINT_FORMAT: &str = "pa-cluster-checkpoint";

/// Checkpoint format version. Bump on any change to the snapshot schema;
/// restore rejects mismatches instead of guessing.
///
/// v2: per-thread wait-state accounting fields in `ThreadSnap`, the
/// rank program's compute counters, and the recorder's record-all flag.
///
/// v3: `QueueStats` gained the `tombstones`/`compactions` queue-health
/// fields (the indexed-heap event calendar overhaul).
///
/// v4: ready-queue entries carry dispatch keys and arrival sequences
/// instead of priorities, `SchedOptions` gained the `dispatcher` field,
/// and `KernelSnapshot` carries the dispatcher policy state (`disp`).
pub const CHECKPOINT_VERSION: u64 = 4;

/// Whole-cluster checkpoint state (everything the engine mutates).
#[derive(Debug, Serialize, Deserialize)]
struct ClusterSnap {
    now: SimTime,
    clock_resyncs: u64,
    /// Carried so a restored run's write counter continues where the
    /// interrupted run's left off (totals then match an uninterrupted
    /// run's bit-for-bit).
    checkpoints_written: u64,
    /// Next scheduled periodic checkpoint, nanoseconds (None = unarmed).
    /// Carried so a restored run keeps the uninterrupted run's schedule.
    checkpoint_next_ns: Option<u64>,
    shards: Vec<ShardSnap>,
}

/// Callback that captures engine-external state (e.g. a shared run
/// recorder) into a checkpoint's `extras` section.
pub type ExtrasProvider = Box<dyn Fn() -> Vec<(String, Value)> + Send + Sync>;

/// The running cluster.
pub struct ClusterSim {
    shards: Vec<Shard>,
    fabric: FabricModel,
    /// Window width: the minimum cross-node fabric delay.
    lookahead: SimDur,
    booted: bool,
    clock_resyncs: u64,
    sim_threads: usize,
    now: SimTime,
    /// Periodic checkpointing: the interval and the file each write
    /// overwrites (None = disabled).
    periodic: Option<(SimDur, PathBuf)>,
    /// Next barrier time at/after which a periodic checkpoint is due.
    next_checkpoint_at: Option<SimTime>,
    checkpoints_written: u64,
    checkpoint_restores: u64,
    /// Size of the most recent checkpoint file written or restored.
    last_checkpoint_bytes: u64,
    extras_provider: Option<ExtrasProvider>,
    /// Windows opened by the engine (identical at any thread count).
    windows_run: u64,
    /// Windows widened past the lookahead because the whole cluster was
    /// daemon-idle.
    widened_windows: u64,
    /// `process_window` calls: the shards due in each window, summed over
    /// windows (identical at any thread count and schedule).
    shard_claims: u64,
    /// Shard-to-worker assignment policy when several workers run.
    schedule: ShardSchedule,
    /// Shards claimed off their static-stripe owner's list (wall-clock
    /// diagnostic; zero with one worker and under `Stripe`).
    steals: u64,
    /// Sum over windows of (busiest worker − idlest worker) wall time at
    /// the barrier — the time the barrier spent waiting on load imbalance.
    barrier_imbalance_ns: u64,
}

/// Serialize a checkpoint to `path` atomically (write + rename), hashing
/// the payload so corruption and truncation are caught on restore.
/// Returns the file size in bytes.
fn write_checkpoint_file(
    path: &Path,
    snap: &ClusterSnap,
    extras: Vec<(String, Value)>,
) -> Result<u64, String> {
    let payload = Value::Map(vec![
        ("state".to_string(), snap.to_value()),
        ("extras".to_string(), Value::Map(extras)),
    ]);
    let payload_json =
        serde_json::to_string(&payload).map_err(|e| format!("encode checkpoint: {}", e.0))?;
    let file = Value::Map(vec![
        (
            "format".to_string(),
            Value::Str(CHECKPOINT_FORMAT.to_string()),
        ),
        ("version".to_string(), Value::UInt(CHECKPOINT_VERSION)),
        (
            "sha256".to_string(),
            Value::Str(sha256_hex(payload_json.as_bytes())),
        ),
        ("payload".to_string(), Value::Str(payload_json)),
    ]);
    let text = serde_json::to_string(&file).map_err(|e| format!("encode checkpoint: {}", e.0))?;
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        }
    }
    // Write-then-rename: a run killed mid-write leaves the previous
    // checkpoint intact instead of a truncated file.
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, text.as_bytes()).map_err(|e| format!("write {}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, path)
        .map_err(|e| format!("rename {} -> {}: {e}", tmp.display(), path.display()))?;
    Ok(text.len() as u64)
}

/// What [`read_checkpoint_file`] yields: the snapshot, the extras pairs,
/// and the file size in bytes.
type CheckpointContents = (ClusterSnap, Vec<(String, Value)>, u64);

/// Check that `path` holds a well-formed checkpoint — parseable, right
/// format and version, hash intact — without applying it. Callers that
/// resume opportunistically (the campaign executor) use this to treat a
/// damaged checkpoint as absent rather than fatal.
pub fn verify_checkpoint_file(path: impl AsRef<Path>) -> Result<(), String> {
    read_checkpoint_file(path.as_ref()).map(|_| ())
}

/// Parse and verify a checkpoint file.
fn read_checkpoint_file(path: &Path) -> Result<CheckpointContents, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let file =
        serde_json::parse(&text).map_err(|e| format!("parse {}: {}", path.display(), e.0))?;
    let field = |name: &str| -> Result<&Value, String> {
        match &file {
            Value::Map(pairs) => pairs
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v)
                .ok_or_else(|| format!("{}: missing field `{name}`", path.display())),
            _ => Err(format!("{}: not a checkpoint object", path.display())),
        }
    };
    match field("format")? {
        Value::Str(f) if f == CHECKPOINT_FORMAT => {}
        other => return Err(format!("{}: bad format tag {other:?}", path.display())),
    }
    match field("version")? {
        Value::UInt(v) if *v == CHECKPOINT_VERSION => {}
        other => {
            return Err(format!(
                "{}: unsupported checkpoint version {other:?} (expected {CHECKPOINT_VERSION})",
                path.display()
            ))
        }
    }
    let Value::Str(expect_hash) = field("sha256")? else {
        return Err(format!("{}: sha256 is not a string", path.display()));
    };
    let Value::Str(payload_json) = field("payload")? else {
        return Err(format!("{}: payload is not a string", path.display()));
    };
    let got = sha256_hex(payload_json.as_bytes());
    if &got != expect_hash {
        return Err(format!(
            "{}: checkpoint corrupt (sha256 {got} != recorded {expect_hash})",
            path.display()
        ));
    }
    let payload = serde_json::parse(payload_json)
        .map_err(|e| format!("{}: parse checkpoint payload: {}", path.display(), e.0))?;
    let Value::Map(pairs) = payload else {
        return Err(format!("{}: payload is not an object", path.display()));
    };
    let mut state = None;
    let mut extras = Vec::new();
    for (k, v) in pairs {
        match k.as_str() {
            "state" => state = Some(v),
            "extras" => {
                if let Value::Map(e) = v {
                    extras = e;
                }
            }
            _ => {}
        }
    }
    let state = state.ok_or_else(|| format!("{}: payload has no state", path.display()))?;
    let snap = ClusterSnap::from_value(&state)
        .map_err(|e| format!("{}: decode checkpoint: {}", path.display(), e.0))?;
    Ok((snap, extras, text.len() as u64))
}

impl ClusterSim {
    /// Build the cluster: one kernel per node with per-node RNG streams
    /// and boot-time clock offsets drawn from `seeds`.
    pub fn build(spec: &ClusterSpec, seeds: &SeedSpace) -> ClusterSim {
        spec.fabric.validate().expect("invalid fabric model");
        assert!(spec.nodes > 0, "cluster needs at least one node");
        let shards = (0..spec.nodes)
            .map(|n| {
                let mut clock_rng = seeds.stream_at("cluster/clock", u64::from(n), 0);
                let offset = if spec.skew_max.is_zero() {
                    SimDur::ZERO
                } else {
                    SimDur::from_nanos(clock_rng.range(0, spec.skew_max.nanos()))
                };
                Shard {
                    node: NodeLoop::new(Kernel::new(
                        n,
                        spec.cpus_per_node,
                        spec.options,
                        ClockModel::with_offset(offset),
                        seeds.stream_at("cluster/kernel", u64::from(n), 0),
                        spec.trace_capacity,
                    )),
                    router: Router {
                        node: n,
                        nnodes: spec.nodes,
                        ..Router::default()
                    },
                    busy_ns: 0,
                    busy_est: 0,
                }
            })
            .collect();
        ClusterSim {
            shards,
            fabric: spec.fabric,
            lookahead: spec.fabric.net_latency,
            booted: false,
            clock_resyncs: 0,
            sim_threads: 1,
            now: SimTime::ZERO,
            periodic: None,
            next_checkpoint_at: None,
            checkpoints_written: 0,
            checkpoint_restores: 0,
            last_checkpoint_bytes: 0,
            extras_provider: None,
            windows_run: 0,
            widened_windows: 0,
            shard_claims: 0,
            schedule: ShardSchedule::Steal,
            steals: 0,
            barrier_imbalance_ns: 0,
        }
    }

    /// Number of nodes.
    pub fn nodes(&self) -> u32 {
        self.shards.len() as u32
    }

    /// Worker threads used to advance shards (1 = the calling thread
    /// alone). The event history is identical at any setting; this only
    /// trades wall-clock time. Clamped to the node count at run time.
    pub fn set_sim_threads(&mut self, threads: usize) {
        self.sim_threads = threads.max(1);
    }

    /// Configured worker thread count.
    pub fn sim_threads(&self) -> usize {
        self.sim_threads
    }

    /// Select how several workers claim shards (a test and benchmark
    /// hook, see [`ShardSchedule`]). The event history is identical under
    /// every policy; this only trades wall-clock time at the barrier.
    #[doc(hidden)]
    pub fn set_shard_schedule(&mut self, schedule: ShardSchedule) {
        self.schedule = schedule;
    }

    /// Configured shard-to-worker assignment policy.
    #[doc(hidden)]
    pub fn shard_schedule(&self) -> ShardSchedule {
        self.schedule
    }

    /// Shards claimed by a worker outside its static stripe (wall-clock
    /// diagnostic — nondeterministic, reported under `local.*`).
    pub fn steals(&self) -> u64 {
        self.steals
    }

    /// Total measured `process_window` wall time across shards, ns
    /// (wall-clock diagnostic, `local.*`).
    pub fn shard_busy_ns(&self) -> u64 {
        self.shards.iter().map(|s| s.busy_ns).sum()
    }

    /// One shard's cumulative measured window wall time, ns.
    pub fn shard_busy_ns_of(&self, node: u32) -> u64 {
        self.shards[node as usize].busy_ns
    }

    /// Sum over windows of the busiest-minus-idlest worker wall time at
    /// the barrier (wall-clock diagnostic, `local.*`): how long barriers
    /// spent waiting on load imbalance.
    pub fn barrier_imbalance_ns(&self) -> u64 {
        self.barrier_imbalance_ns
    }

    /// Access a node's kernel (setup: spawning threads, enabling traces).
    pub fn kernel_mut(&mut self, node: u32) -> &mut Kernel {
        &mut self.shards[node as usize].node.kernel
    }

    /// Access a node's kernel read-only (post-run analysis).
    pub fn kernel(&self, node: u32) -> &Kernel {
        &self.shards[node as usize].node.kernel
    }

    /// Current global time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Spawn a thread on `node` at the current barrier time — a mid-run
    /// arrival (the batch layer's job launch). Callable only between run
    /// calls, when every shard is quiescent at a window barrier, so the
    /// spawn lands at the same instant regardless of `--sim-threads`.
    /// The kernel schedules a dispatcher nudge so the thread starts
    /// without waiting for the next tick.
    pub fn spawn_thread(
        &mut self,
        node: u32,
        spec: pa_kernel::ThreadSpec,
        program: Box<dyn pa_kernel::Program>,
    ) -> pa_kernel::Tid {
        assert!(self.booted, "spawn_thread on an unbooted cluster");
        let sh = &mut self.shards[node as usize];
        // The shard clock may sit ahead of the global barrier time when a
        // prior `run_until` advanced it; never spawn into the past.
        let at = self.now.max(sh.node.now());
        sh.node.spawn_at(at, spec, program)
    }

    /// Inject a message at the current barrier time, as if sent by an
    /// external agent (the batch layer's control traffic to per-node
    /// daemons). Delivery is immediate — control decisions are taken at
    /// quiescent barriers, so no fabric transit is modeled. Callable only
    /// between run calls; injection order is the caller's iteration
    /// order, which must itself be canonical.
    pub fn inject_message(&mut self, msg: Message) {
        assert!(self.booted, "inject_message on an unbooted cluster");
        let sh = &mut self.shards[msg.dst.node as usize];
        let at = self.now.max(sh.node.now());
        sh.node.deliver_at(at, msg);
    }

    /// Total events processed across all shards.
    pub fn events_processed(&self) -> u64 {
        self.shards.iter().map(|s| s.node.events_processed()).sum()
    }

    /// Messages routed over the fabric.
    pub fn messages_routed(&self) -> u64 {
        self.shards.iter().map(|s| s.router.messages_routed).sum()
    }

    /// Payload bytes routed over the fabric.
    pub fn bytes_routed(&self) -> u64 {
        self.shards.iter().map(|s| s.router.bytes_routed).sum()
    }

    /// Deliveries delayed by the per-channel FIFO clamp (a later message
    /// would otherwise have overtaken an earlier one on the same channel).
    pub fn fifo_clamps(&self) -> u64 {
        self.shards.iter().map(|s| s.router.fifo_clamps).sum()
    }

    /// Messages delayed behind a busy ingress or egress link. Always zero
    /// in the unlimited (default) link mode.
    pub fn link_waits(&self) -> u64 {
        self.shards.iter().map(|s| s.router.link_waits).sum()
    }

    /// Total link queueing delay across all messages, nanoseconds.
    pub fn link_wait_ns(&self) -> u64 {
        self.shards.iter().map(|s| s.router.link_wait_ns).sum()
    }

    /// One node's link contention: `(delayed messages, total queueing
    /// delay ns)` charged at that node's shard — its egress waits plus
    /// the ingress waits of messages arriving there. The per-node blame
    /// ranking reads this.
    pub fn link_wait_of(&self, node: u32) -> (u64, u64) {
        let r = &self.shards[node as usize].router;
        (r.link_waits, r.link_wait_ns)
    }

    /// Link queueing-delay histogram, merged across shards; buckets are
    /// bounded by [`LINK_WAIT_EDGES_NS`] plus one overflow bucket.
    pub fn link_wait_hist(&self) -> [u64; LINK_WAIT_BUCKETS] {
        let mut total = [0u64; LINK_WAIT_BUCKETS];
        for sh in &self.shards {
            for (t, &c) in total.iter_mut().zip(sh.router.link_wait_hist.iter()) {
                *t += c;
            }
        }
        total
    }

    /// Node clocks re-synchronized via [`ClusterSim::sync_clocks`].
    pub fn clock_resyncs(&self) -> u64 {
        self.clock_resyncs
    }

    /// Engine self-profile, merged across all shard calendars.
    pub fn queue_stats(&self) -> QueueStats {
        let mut total = QueueStats::default();
        for sh in &self.shards {
            total.absorb(sh.node.queue().stats());
        }
        total
    }

    /// Synchronize every node's clock to the switch clock, leaving at most
    /// `residual_max` of error per node (the co-scheduler's startup
    /// procedure, §4). Must be called before [`ClusterSim::boot`] so tick
    /// boundaries are planned on the synced clocks.
    pub fn sync_clocks(&mut self, seeds: &SeedSpace, residual_max: SimDur) {
        for (n, sh) in self.shards.iter_mut().enumerate() {
            let mut rng = seeds.stream_at("cluster/clocksync", n as u64, 0);
            let residual = if residual_max.is_zero() {
                SimDur::ZERO
            } else {
                SimDur::from_nanos(rng.range(0, residual_max.nanos()))
            };
            sh.node.kernel.clock_mut().sync_to_switch(residual);
            self.clock_resyncs += 1;
        }
    }

    /// Arm periodic checkpointing: at the first window barrier at or past
    /// each multiple of `every`, the engine overwrites `path` with a full
    /// snapshot. Checkpoints are taken only at barriers, so the restored
    /// run replays the identical window sequence — and therefore the
    /// identical event history — at any `sim_threads` setting.
    ///
    /// If a schedule was already restored from a checkpoint, that
    /// schedule is kept (both call orders around [`ClusterSim::restore`]
    /// behave identically). A restored schedule that is never armed here
    /// writes nothing.
    pub fn set_checkpoint_every(&mut self, every: SimDur, path: impl Into<PathBuf>) {
        assert!(!every.is_zero(), "checkpoint interval must be positive");
        self.periodic = Some((every, path.into()));
        if self.next_checkpoint_at.is_none() {
            self.next_checkpoint_at = Some(SimTime::from_nanos(every.nanos()));
        }
    }

    /// Install a callback that contributes engine-external state (e.g. the
    /// MPI run recorder) to every checkpoint's `extras` section; restore
    /// hands the section back via [`ClusterSim::restore_with_extras`].
    pub fn set_checkpoint_extras(&mut self, provider: ExtrasProvider) {
        self.extras_provider = Some(provider);
    }

    /// Checkpoints written (manual and periodic) — carried across restore
    /// so totals match an uninterrupted run's.
    pub fn checkpoints_written(&self) -> u64 {
        self.checkpoints_written
    }

    /// Successful [`ClusterSim::restore`] calls on this instance.
    pub fn checkpoint_restores(&self) -> u64 {
        self.checkpoint_restores
    }

    /// Size in bytes of the most recent checkpoint file written or
    /// restored (0 if neither has happened).
    pub fn last_checkpoint_bytes(&self) -> u64 {
        self.last_checkpoint_bytes
    }

    /// Write a checkpoint to `path` now. Valid at any point where the
    /// engine is quiescent (before or after a `run_*` call — which is
    /// always a window barrier). Returns the file size in bytes.
    pub fn checkpoint(&mut self, path: impl AsRef<Path>) -> Result<u64, String> {
        if !self.booted {
            return Err("checkpoint requires a booted cluster".to_string());
        }
        let shards = self.shards.iter().map(Shard::snapshot).collect();
        self.write_checkpoint(path.as_ref(), shards)
    }

    /// Overlay state from a checkpoint file onto this cluster. The cluster
    /// must have been rebuilt from the *same* spec (same node/CPU/thread
    /// layout, same programs in the same spawn order) and booted; restore
    /// then rewinds every mutable piece of engine state to the barrier the
    /// checkpoint captured. Returns nothing; see
    /// [`ClusterSim::restore_with_extras`] for the extras section.
    pub fn restore(&mut self, path: impl AsRef<Path>) -> Result<(), String> {
        self.restore_with_extras(path).map(|_| ())
    }

    /// [`ClusterSim::restore`], additionally returning the checkpoint's
    /// `extras` section for the caller to apply (e.g. run-recorder state).
    pub fn restore_with_extras(
        &mut self,
        path: impl AsRef<Path>,
    ) -> Result<Vec<(String, Value)>, String> {
        if !self.booted {
            return Err(
                "restore requires a booted cluster (rebuild the experiment, boot, then restore)"
                    .to_string(),
            );
        }
        let (snap, extras, bytes) = read_checkpoint_file(path.as_ref())?;
        if snap.shards.len() != self.shards.len() {
            return Err(format!(
                "checkpoint has {} nodes, cluster has {}",
                snap.shards.len(),
                self.shards.len()
            ));
        }
        for (sh, ss) in self.shards.iter_mut().zip(snap.shards) {
            sh.restore(ss)?;
        }
        self.now = snap.now;
        self.clock_resyncs = snap.clock_resyncs;
        self.checkpoints_written = snap.checkpoints_written;
        self.next_checkpoint_at = snap.checkpoint_next_ns.map(SimTime::from_nanos);
        self.checkpoint_restores += 1;
        self.last_checkpoint_bytes = bytes;
        Ok(extras)
    }

    /// Write a checkpoint of the engine state around `shards` — the
    /// snapshots of every shard, in node order — to `path`. The one
    /// capture path of the manual and the periodic checkpoint. Returns the
    /// file size in bytes.
    fn write_checkpoint(&mut self, path: &Path, shards: Vec<ShardSnap>) -> Result<u64, String> {
        // Increment before capture: the snapshot's counter then includes
        // this write, so a restored run's total matches an uninterrupted
        // run's.
        self.checkpoints_written += 1;
        let snap = ClusterSnap {
            now: self.now,
            clock_resyncs: self.clock_resyncs,
            checkpoints_written: self.checkpoints_written,
            checkpoint_next_ns: self.next_checkpoint_at.map(|t| t.nanos()),
            shards,
        };
        let extras = self
            .extras_provider
            .as_ref()
            .map(|f| f())
            .unwrap_or_default();
        let bytes = write_checkpoint_file(path, &snap, extras)?;
        self.last_checkpoint_bytes = bytes;
        Ok(bytes)
    }

    /// Is a periodic checkpoint due at the barrier ending at `we`?
    fn checkpoint_due(&self, we: SimTime) -> bool {
        matches!(self.next_checkpoint_at, Some(at) if we >= at)
    }

    /// Advance the periodic schedule strictly past `we`. Done *before*
    /// capturing the snapshot so the restored run continues the schedule
    /// exactly where the interrupted run would have (no repeated write at
    /// the restore barrier).
    fn advance_schedule(next: &mut Option<SimTime>, every: SimDur, we: SimTime) {
        let Some(at) = *next else { return };
        let step = u128::from(every.nanos()).max(1);
        let mut at = u128::from(at.nanos());
        let we = u128::from(we.nanos());
        while at <= we {
            at += step;
        }
        *next = if at > u128::from(u64::MAX) {
            None
        } else {
            Some(SimTime::from_nanos(at as u64))
        };
    }

    /// The periodic-checkpoint step at the barrier ending at `we`, after
    /// the merge. A schedule restored from a checkpoint but never armed
    /// with [`ClusterSim::set_checkpoint_every`] has nowhere to write, so
    /// it writes nothing.
    fn periodic_checkpoint(&mut self, we: SimTime, shards: &[Mutex<Shard>]) -> Result<(), String> {
        if !self.checkpoint_due(we) {
            return Ok(());
        }
        let Some((every, path)) = &self.periodic else {
            return Ok(());
        };
        let (every, path) = (*every, path.clone());
        Self::advance_schedule(&mut self.next_checkpoint_at, every, we);
        let snaps = shards.iter().map(|m| lock(m).snapshot()).collect();
        self.write_checkpoint(&path, snaps).map(|_| ())
    }

    /// Boot every node at the current time.
    pub fn boot(&mut self) {
        assert!(!self.booted, "boot called twice");
        self.booted = true;
        let fabric = self.fabric;
        let mut staged = Vec::new();
        for sh in &mut self.shards {
            sh.node.boot(|now, msg| sh.router.send(now, msg, &fabric));
            staged.append(&mut sh.router.outbox);
        }
        Self::merge_outboxes(&mut staged, |m| {
            self.shards[m.dst_node as usize].accept_staged(m, &fabric);
        });
    }

    /// Live application threads across the cluster.
    pub fn apps_alive(&self) -> usize {
        self.shards.iter().map(|s| s.node.kernel.app_alive()).sum()
    }

    /// Run until every application thread has exited or `horizon` passes.
    /// Returns the stop time: the latest event processed. Termination is
    /// checked at window barriers, so trailing events inside the final
    /// lookahead window are processed on every shard before stopping —
    /// identically at any thread count.
    pub fn run_until_apps_done(&mut self, horizon: SimTime) -> SimTime {
        self.run_windows(horizon, true);
        let end = self
            .shards
            .iter()
            .map(|s| s.node.now())
            .max()
            .unwrap_or(self.now)
            .max(self.now);
        self.now = end;
        end
    }

    /// Run until `horizon` regardless of application state. Afterwards the
    /// global clock reads exactly `horizon` (every event at or before it
    /// has been processed), and that time is returned.
    pub fn run_until(&mut self, horizon: SimTime) -> SimTime {
        self.run_windows(horizon, false);
        for sh in &mut self.shards {
            let target = horizon.max(sh.node.now());
            sh.node.advance_to(target);
        }
        self.now = self.now.max(horizon);
        self.now
    }

    /// Deliver staged cross-shard messages in the canonical
    /// `(deliver_at, src_node, seq)` merge order, each through `accept`,
    /// which hands it to its destination shard
    /// ([`Shard::accept_staged`]: ingress-link queueing, then the
    /// calendar). `staged` is drained, keeping its capacity for the next
    /// barrier.
    fn merge_outboxes(staged: &mut Vec<StagedMsg>, accept: impl FnMut(StagedMsg)) {
        staged.sort_by_key(|m| (m.deliver_at, m.src_node, m.seq));
        staged.drain(..).for_each(accept);
    }

    /// Windows opened so far (a function of simulation state alone, so
    /// identical at any `sim_threads`).
    pub fn windows_run(&self) -> u64 {
        self.windows_run
    }

    /// Windows widened past the lookahead because every application
    /// thread had exited (daemon-idle fast-forward).
    pub fn widened_windows(&self) -> u64 {
        self.widened_windows
    }

    /// Shards processed, summed over windows: each window claims only
    /// the shards with an event due in it. A function of simulation state
    /// alone, like [`ClusterSim::windows_run`], but process-local: it is
    /// not checkpointed, so a restored run counts only its own claims.
    pub fn shard_claims(&self) -> u64 {
        self.shard_claims
    }

    /// Bounds of the window opening at `t_start`, widened when the whole
    /// cluster is daemon-idle. Returns `(end, inclusive, idle)`; `idle`
    /// marks a daemon-idle window whose merge must stage nothing.
    ///
    /// Widening is sound because only application threads send cross-node
    /// messages: with `apps == 0` everywhere, no event processed anywhere
    /// can stage a cross-shard delivery, so the conservative-lookahead
    /// bound is vacuous and the window may run to the horizon. New
    /// application threads enter only via `spawn_thread`, between run
    /// calls, never inside one. The widened window is capped at the next
    /// periodic-checkpoint barrier so the checkpoint cadence survives
    /// daemon-idle stretches, and the merge path asserts that an idle
    /// window staged nothing (`daemon-idle window staged a cross-shard
    /// message` means the invariant — daemons never send cross-node — was
    /// broken by a new workload).
    ///
    /// The checkpoint cap also *shortens* the window when the due time
    /// falls inside the lookahead (`t_start < at < t_start + lookahead`)
    /// or at `t_start` itself. Before this, the `max(at, t_start + 1)`
    /// clamp made the capped end no wider than a normal window, the
    /// widening branch was skipped, and the barrier — and therefore the
    /// checkpoint — slid a full lookahead past the due time. Now the
    /// barrier lands at `max(at, t_start + 1)`: exactly the due time, or
    /// one nanosecond past it when the checkpoint is due exactly at
    /// `t_start` (a zero-width window cannot exist — the event at
    /// `t_start` must be processed or the loop would spin). Shrinking a
    /// daemon-idle window is as sound as widening one: no cross-shard
    /// message exists for the partition to reorder.
    fn plan_window(
        &mut self,
        t_start: SimTime,
        horizon: SimTime,
        daemon_idle: bool,
    ) -> (SimTime, bool, bool) {
        self.windows_run += 1;
        let normal = window_end_u128(t_start, horizon, self.lookahead);
        if daemon_idle {
            let mut wide = u128::from(horizon.nanos()) + 1;
            if let Some(at) = self.next_checkpoint_at {
                wide = wide.min(u128::from(at.nanos()).max(u128::from(t_start.nanos()) + 1));
            }
            if wide != normal {
                if wide > normal {
                    self.widened_windows += 1;
                }
                let (we, inclusive) = bounds_from_end(wide);
                return (we, inclusive, true);
            }
        }
        let (we, inclusive) = window_bounds(t_start, horizon, self.lookahead);
        (we, inclusive, daemon_idle)
    }

    /// The window engine: plan → process → merge → checkpoint, once per
    /// window, at any worker count. Stop conditions, window bounds,
    /// per-shard event order, merge order and checkpoint cadence are all
    /// functions of simulation state alone, so the history is identical
    /// however many workers advance the shards.
    ///
    /// Only *due* shards are visited: those whose earliest pending event
    /// falls inside the window. The pool keeps every shard's next-event
    /// time and live-app count current (see [`WindowPool::next_ns`]), so
    /// the coordinator plans the window from their minimum and hands out
    /// only the due shards. Skipping a shard with nothing due cannot
    /// change history: `process_window` on it would pop nothing, schedule
    /// nothing and stage nothing, and cost only its lock, timestamps and
    /// wall-clock bookkeeping.
    ///
    /// Within a window, due shards are handed out by [`WindowPool::work`]
    /// through a shared claim index over a per-window `order`. With one
    /// worker the coordinator runs it inline: no thread, no barrier, and
    /// the due shards in node order, since with a single claimer the
    /// order means nothing. With several, a scoped pool of persistent
    /// workers runs it between two barrier waits per window, and each
    /// worker pulls the next unclaimed shard the moment it finishes the
    /// last one, so the barrier waits on the slowest *shard* rather than
    /// the slowest stripe. The order is heaviest-first by an
    /// exponentially-weighted per-shard busy-time estimate (fed from the
    /// wall time each shard consumed the last time it ran), an LPT-style
    /// greedy that starts the hot shard before the cheap ones.
    /// Assignment decides only which worker calls `process_window` on
    /// which shard; the merge is canonical, so the history is
    /// bit-identical across `ShardSchedule` modes and thread counts.
    /// Steal/busy/imbalance counters are wall-clock-derived and surface
    /// only under `local.*`.
    fn run_windows(&mut self, horizon: SimTime, until_apps_done: bool) {
        assert!(self.booted, "boot the cluster first");
        let nthreads = self.sim_threads.min(self.shards.len()).max(1);
        let pool = WindowPool::new(std::mem::take(&mut self.shards), self, nthreads);
        let mut ckpt_err: Option<String> = None;
        std::thread::scope(|scope| {
            if nthreads > 1 {
                for t in 0..nthreads {
                    let pool = &pool;
                    scope.spawn(move || loop {
                        pool.barrier.wait();
                        if pool.done.load(Ordering::Acquire) {
                            break;
                        }
                        pool.work(t);
                        pool.barrier.wait();
                    });
                }
            }
            // Releases the workers however the coordinator leaves the
            // loop, a panic included, so they never wait forever.
            let _release = ReleaseWorkers(&pool);
            // Pooled merge buffer: refilled from the report slots and
            // drained into destination shards every barrier.
            let mut staged: Vec<StagedMsg> = Vec::new();
            // Scratch for the per-window claim order.
            let mut due: Vec<u32> = Vec::new();
            let mut by_load: Vec<(std::cmp::Reverse<u64>, u32)> = Vec::new();
            loop {
                // Workers are parked at the top-of-loop barrier, so the
                // coordinator reads settled per-shard entries here.
                let next_ns = pool
                    .next_ns
                    .iter()
                    .map(|t| t.load(Ordering::Relaxed))
                    .min()
                    .unwrap_or(u64::MAX);
                let apps: usize = pool.apps.iter().map(|a| a.load(Ordering::Relaxed)).sum();
                if until_apps_done && apps == 0 {
                    break;
                }
                if next_ns == u64::MAX || next_ns > horizon.nanos() {
                    break;
                }
                let (we, inclusive, idle) =
                    self.plan_window(SimTime::from_nanos(next_ns), horizon, apps == 0);
                let ndue =
                    pool.plan_claims(we, inclusive, self.windows_run, &mut due, &mut by_load);
                self.shard_claims += ndue as u64;
                pool.claim.store(0, Ordering::Relaxed);
                pool.window_end_ns.store(we.nanos(), Ordering::Release);
                pool.window_inclusive.store(inclusive, Ordering::Release);
                if nthreads == 1 {
                    pool.work(0);
                } else {
                    pool.barrier.wait(); // open the window
                    pool.barrier.wait(); // all due shards processed it
                }
                if pool.abort.load(Ordering::Acquire) {
                    // A shard panicked mid-window: the window is
                    // incomplete, so merging would corrupt state. Shut
                    // down and re-raise below.
                    break;
                }
                let mut min_busy = u64::MAX;
                let mut max_busy = 0u64;
                for slot in &pool.slots {
                    let mut s = lock(slot);
                    staged.append(&mut s.staged);
                    self.steals += s.steals;
                    min_busy = min_busy.min(s.busy_ns);
                    max_busy = max_busy.max(s.busy_ns);
                }
                self.barrier_imbalance_ns = self
                    .barrier_imbalance_ns
                    .saturating_add(max_busy - min_busy);
                assert!(
                    !idle || staged.is_empty(),
                    "daemon-idle window staged a cross-shard message"
                );
                // Ingress queueing may move a delivery later, so each
                // destination's entry is lowered to the *final* time the
                // delivery landed at: the next window then opens, and
                // claims, exactly where a scan of every queue would.
                Self::merge_outboxes(&mut staged, |m| {
                    let dst = m.dst_node as usize;
                    let at = lock(&pool.shards[dst]).accept_staged(m, &pool.fabric);
                    pool.next_ns[dst].fetch_min(at.nanos(), Ordering::Relaxed);
                });
                // Workers are parked at the top-of-loop barrier here, so
                // the coordinator has every shard to itself. A write
                // failure is re-raised once the shards are back home.
                if let Err(e) = self.periodic_checkpoint(we, &pool.shards) {
                    ckpt_err = Some(e);
                    break;
                }
            }
        });
        self.shards = pool
            .shards
            .into_iter()
            .map(|m| m.into_inner().unwrap_or_else(PoisonError::into_inner))
            .collect();
        if let Some((node, payload)) = pool
            .panicked
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
        {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned());
            match msg {
                Some(m) => panic!("shard worker panicked while advancing node {node}: {m}"),
                None => std::panic::resume_unwind(payload),
            }
        }
        if let Some(e) = ckpt_err {
            panic!("periodic checkpoint failed: {e}");
        }
    }
}

/// Lock a mutex, stripping poison. A panic inside `process_window`
/// unwinds across a held shard guard and poisons that mutex, but its
/// payload is re-raised once the engine has shut down, so the poison flag
/// carries no information.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// What the coordinator and the workers share during one
/// [`ClusterSim::run_windows`] call. Shards sit behind per-shard locks so
/// any worker can claim any shard; the coordinator writes the claim state
/// and window bounds only while every worker is parked at the barrier.
struct WindowPool {
    shards: Vec<Mutex<Shard>>,
    fabric: FabricModel,
    schedule: ShardSchedule,
    nthreads: usize,
    /// Earliest pending event of each shard, ns (`u64::MAX` when its
    /// calendar is empty). Scanned once when the pool is built — which
    /// covers `spawn_thread`, `inject_message` and `restore` between run
    /// calls — then written by the worker that processed the shard and
    /// lowered by the barrier merge to each delivery it schedules there.
    /// Nothing else touches a shard's calendar during a run call.
    /// `Relaxed` throughout: the window barriers (or, with one worker,
    /// program order) put every write before the coordinator's reads.
    next_ns: Vec<AtomicU64>,
    /// Live application threads on each shard, kept like `next_ns` (only
    /// processing a shard changes it within a run call).
    apps: Vec<AtomicUsize>,
    /// `order[..ndue]` are the shards due this window, in claim order.
    order: Vec<AtomicU32>,
    ndue: AtomicUsize,
    /// Next unclaimed position in `order`.
    claim: AtomicUsize,
    window_end_ns: AtomicU64,
    window_inclusive: AtomicBool,
    /// One report per worker, folded by the coordinator at the barrier.
    slots: Vec<Mutex<WindowReport>>,
    /// Worker pool only: the top-of-loop and end-of-window barrier, and
    /// the flag that tells parked workers to exit.
    barrier: Barrier,
    done: AtomicBool,
    /// Worker-panic hardening: the first panic is parked here (with the
    /// node it struck) and re-raised once the engine has shut down
    /// cleanly, instead of poisoning shard mutexes and surfacing as an
    /// unrelated `PoisonError` on the next lock.
    abort: AtomicBool,
    panicked: Mutex<Option<(u32, Box<dyn Any + Send>)>>,
}

impl WindowPool {
    fn new(shards: Vec<Shard>, sim: &ClusterSim, nthreads: usize) -> WindowPool {
        let nshards = shards.len();
        let next_ns = shards
            .iter()
            .map(|sh| AtomicU64::new(sh.next_event_ns()))
            .collect();
        let apps = shards
            .iter()
            .map(|sh| AtomicUsize::new(sh.node.kernel.app_alive()))
            .collect();
        WindowPool {
            shards: shards.into_iter().map(Mutex::new).collect(),
            fabric: sim.fabric,
            schedule: sim.schedule,
            nthreads,
            next_ns,
            apps,
            order: (0..nshards as u32).map(AtomicU32::new).collect(),
            ndue: AtomicUsize::new(0),
            claim: AtomicUsize::new(0),
            window_end_ns: AtomicU64::new(0),
            window_inclusive: AtomicBool::new(false),
            slots: (0..nthreads)
                .map(|_| Mutex::new(WindowReport::default()))
                .collect(),
            barrier: Barrier::new(nthreads + 1),
            done: AtomicBool::new(false),
            abort: AtomicBool::new(false),
            panicked: Mutex::new(None),
        }
    }

    /// Fill `order` with the shards due in the window ending at `we`
    /// (inclusively when `inclusive`) and return how many there are.
    /// `window` is the window's ordinal, which rotates the adversarial
    /// order. `due` and `by_load` are the coordinator's scratch buffers.
    ///
    /// With one worker, and under `Stripe`, the due shards go in node
    /// order. `Steal` sorts them heaviest-first by the busy-time EWMA,
    /// node as the tie-break. `StealAdversarial` rotates their reversed
    /// order every window, to prove the history does not depend on who
    /// claims what.
    fn plan_claims(
        &self,
        we: SimTime,
        inclusive: bool,
        window: u64,
        due: &mut Vec<u32>,
        by_load: &mut Vec<(std::cmp::Reverse<u64>, u32)>,
    ) -> usize {
        let we = we.nanos();
        due.clear();
        due.extend((0..self.shards.len() as u32).filter(|&i| {
            let t = self.next_ns[i as usize].load(Ordering::Relaxed);
            t < we || (inclusive && t == we)
        }));
        let n = due.len();
        match self.schedule {
            ShardSchedule::Steal if self.nthreads > 1 => {
                by_load.clear();
                by_load.extend(due.iter().map(|&i| {
                    (
                        std::cmp::Reverse(lock(&self.shards[i as usize]).busy_est),
                        i,
                    )
                }));
                by_load.sort_unstable();
                for (slot, &(_, i)) in self.order.iter().zip(by_load.iter()) {
                    slot.store(i, Ordering::Relaxed);
                }
            }
            ShardSchedule::StealAdversarial if self.nthreads > 1 => {
                // `n >= 1`: the shard holding the window start is due.
                let rot = (window % n as u64) as usize;
                for (k, slot) in self.order.iter().take(n).enumerate() {
                    slot.store(due[(n - 1 - k + rot) % n], Ordering::Relaxed);
                }
            }
            _ => {
                for (slot, &i) in self.order.iter().zip(due.iter()) {
                    slot.store(i, Ordering::Relaxed);
                }
            }
        }
        self.ndue.store(n, Ordering::Relaxed);
        n
    }

    /// Worker `t`'s share of the open window: claim positions in
    /// `order[..ndue]` and process those shards until none is left (or
    /// another worker panicked), then file the report in slot `t`. Each
    /// processed shard gets its next-event and app entries refreshed and
    /// is charged its wall time. `Stripe` walks the worker's own
    /// positions (the static assignment); the stealing modes fetch-add
    /// the shared index. A claim off the worker's home stripe
    /// (`k % nthreads != t`) counts as a steal.
    fn work(&self, t: usize) {
        let we = SimTime::from_nanos(self.window_end_ns.load(Ordering::Acquire));
        let inclusive = self.window_inclusive.load(Ordering::Acquire);
        // Reuse the slot's staged list (the coordinator drained it but
        // left the capacity), so steady state reallocates nothing per
        // window.
        let ndue = self.ndue.load(Ordering::Relaxed);
        let mut report = WindowReport {
            staged: std::mem::take(&mut lock(&self.slots[t]).staged),
            ..WindowReport::default()
        };
        // A lone worker's stripe is every position, in claim order, so it
        // skips the shared index.
        let walk_stripe = self.nthreads == 1 || self.schedule == ShardSchedule::Stripe;
        let mut stripe_k = t;
        while !self.abort.load(Ordering::Acquire) {
            let k = if walk_stripe {
                let k = stripe_k;
                stripe_k += self.nthreads;
                k
            } else {
                self.claim.fetch_add(1, Ordering::Relaxed)
            };
            if k >= ndue {
                break;
            }
            // A stripe walk stays home by construction.
            if !walk_stripe && k % self.nthreads != t {
                report.steals += 1;
            }
            let i = self.order[k].load(Ordering::Relaxed) as usize;
            let mut sh = lock(&self.shards[i]);
            let node = sh.router.node;
            let t0 = Instant::now();
            let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
                sh.process_window(we, inclusive, &self.fabric);
            }));
            let busy = t0.elapsed().as_nanos() as u64;
            if let Err(payload) = outcome {
                // First panic wins; tell everyone to stop at the next
                // claim. This worker still files its report and reaches
                // the barrier so nobody deadlocks.
                self.abort.store(true, Ordering::Release);
                lock(&self.panicked).get_or_insert((node, payload));
                break;
            }
            self.next_ns[i].store(sh.next_event_ns(), Ordering::Relaxed);
            self.apps[i].store(sh.node.kernel.app_alive(), Ordering::Relaxed);
            report.staged.append(&mut sh.router.outbox);
            report.busy_ns += busy;
            sh.busy_ns = sh.busy_ns.saturating_add(busy);
            sh.busy_est = sh.busy_est - sh.busy_est / 4 + busy / 4;
        }
        *lock(&self.slots[t]) = report;
    }
}

/// Tells parked workers to exit when dropped — on the coordinator's
/// normal way out of the window loop and on a panic alike.
struct ReleaseWorkers<'a>(&'a WindowPool);

impl Drop for ReleaseWorkers<'_> {
    fn drop(&mut self) {
        if self.0.nthreads > 1 {
            self.0.done.store(true, Ordering::Release);
            self.0.barrier.wait();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pa_kernel::{
        Action, CpuId, Endpoint, Message, PeriodicLoop, Prio, Script, SoloRunner, SrcSel, TagSel,
        ThreadSpec, ThreadState, Tid, WaitMode,
    };
    use pa_trace::{HookMask, ThreadClass};

    fn two_node_cluster() -> ClusterSim {
        let spec = ClusterSpec {
            nodes: 2,
            cpus_per_node: 2,
            options: SchedOptions::vanilla(),
            skew_max: SimDur::ZERO,
            trace_capacity: 1 << 14,
            fabric: FabricModel::default(),
        };
        ClusterSim::build(&spec, &SeedSpace::new(1))
    }

    fn ep(node: u32, tid: u32) -> Endpoint {
        Endpoint {
            node,
            tid: Tid(tid),
        }
    }

    fn msg(src: Endpoint, dst: Endpoint, tag: u64, bytes: u32) -> Message {
        Message {
            src,
            dst,
            tag,
            bytes,
            sent_at: SimTime::ZERO,
            payload: 0,
        }
    }

    #[test]
    fn cross_node_ping_pong() {
        let mut sim = two_node_cluster();
        // Node 0 rank sends to node 1 rank, which replies; both then exit.
        sim.kernel_mut(0).trace_mut().set_mask(HookMask::ALL);
        sim.kernel_mut(0).spawn(
            ThreadSpec::new("rank0", ThreadClass::App, Prio::USER).on_cpu(CpuId(0)),
            Box::new(Script::new(vec![
                Action::Send(msg(ep(0, 0), ep(1, 0), 1, 8)),
                Action::Recv {
                    tag: TagSel::Exact(2),
                    src: SrcSel::Any,
                    wait: WaitMode::Poll,
                },
            ])),
        );
        sim.kernel_mut(1).spawn(
            ThreadSpec::new("rank1", ThreadClass::App, Prio::USER).on_cpu(CpuId(0)),
            Box::new(Script::new(vec![
                Action::Recv {
                    tag: TagSel::Exact(1),
                    src: SrcSel::Any,
                    wait: WaitMode::Poll,
                },
                Action::Send(msg(ep(1, 0), ep(0, 0), 2, 8)),
            ])),
        );
        sim.boot();
        let end = sim.run_until_apps_done(SimTime::from_secs(1));
        assert_eq!(sim.apps_alive(), 0);
        // Two network hops plus overheads: tens of microseconds.
        assert!(end >= SimTime::from_micros(26), "too fast: {end}");
        assert!(end < SimTime::from_millis(1), "too slow: {end}");
        assert_eq!(sim.kernel(0).thread_state(Tid(0)), ThreadState::Exited);
        assert_eq!(sim.now(), end);
    }

    #[test]
    fn fifo_clamp_prevents_overtaking() {
        // A 1 MB message followed by an 8-byte message on the same
        // channel: serialization makes the large one ~2.9 ms slower, so
        // without the clamp the small one would overtake it. The receiver
        // waits only for the *small* message; in-order delivery forces its
        // completion past the large message's serialization time.
        let mut sim = two_node_cluster();
        sim.kernel_mut(0).spawn(
            ThreadSpec::new("sender", ThreadClass::App, Prio::USER).on_cpu(CpuId(0)),
            Box::new(Script::new(vec![
                Action::Send(msg(ep(0, 0), ep(1, 0), 1, 1_000_000)),
                Action::Send(msg(ep(0, 0), ep(1, 0), 2, 8)),
            ])),
        );
        sim.kernel_mut(1).spawn(
            ThreadSpec::new("receiver", ThreadClass::App, Prio::USER).on_cpu(CpuId(0)),
            Box::new(Script::new(vec![Action::Recv {
                tag: TagSel::Exact(2),
                src: SrcSel::Any,
                wait: WaitMode::Poll,
            }])),
        );
        sim.boot();
        let end = sim.run_until_apps_done(SimTime::from_secs(1));
        assert_eq!(sim.apps_alive(), 0);
        assert_eq!(sim.fifo_clamps(), 1, "small message should be clamped");
        // 1 MB at 350 MB/s is ~2.86 ms of serialization.
        assert!(
            end >= SimTime::from_millis(2),
            "overtook the large message: {end}"
        );
    }

    fn two_node_cluster_with_link(link_bandwidth: f64) -> ClusterSim {
        let spec = ClusterSpec {
            nodes: 2,
            cpus_per_node: 2,
            options: SchedOptions::vanilla(),
            skew_max: SimDur::ZERO,
            trace_capacity: 1 << 14,
            fabric: FabricModel {
                link_bandwidth: Some(link_bandwidth),
                ..FabricModel::default()
            },
        };
        ClusterSim::build(&spec, &SeedSpace::new(1))
    }

    #[test]
    fn egress_link_queues_concurrent_sends() {
        // Two 100 KB messages sent back-to-back over a 100 MB/s link:
        // each occupies the egress link for 1 ms, so the second must queue
        // behind the first instead of overlapping for free.
        let mut sim = two_node_cluster_with_link(100e6);
        sim.kernel_mut(0).spawn(
            ThreadSpec::new("sender", ThreadClass::App, Prio::USER).on_cpu(CpuId(0)),
            Box::new(Script::new(vec![
                Action::Send(msg(ep(0, 0), ep(1, 0), 1, 100_000)),
                Action::Send(msg(ep(0, 0), ep(1, 0), 2, 100_000)),
            ])),
        );
        sim.kernel_mut(1).spawn(
            ThreadSpec::new("receiver", ThreadClass::App, Prio::USER).on_cpu(CpuId(0)),
            Box::new(Script::new(vec![
                Action::Recv {
                    tag: TagSel::Exact(1),
                    src: SrcSel::Any,
                    wait: WaitMode::Poll,
                },
                Action::Recv {
                    tag: TagSel::Exact(2),
                    src: SrcSel::Any,
                    wait: WaitMode::Poll,
                },
            ])),
        );
        sim.boot();
        let end = sim.run_until_apps_done(SimTime::from_secs(1));
        assert_eq!(sim.apps_alive(), 0);
        assert!(sim.link_waits() >= 1, "second send should queue");
        assert!(sim.link_wait_ns() > 0);
        // The second send waits ~1 ms for the link; without contention the
        // run finishes in ~0.6 ms (latency + serialization only).
        assert!(
            end >= SimTime::from_micros(1200),
            "link never queued: {end}"
        );
        let hist = sim.link_wait_hist();
        assert_eq!(hist.iter().sum::<u64>(), sim.link_waits());
    }

    #[test]
    fn ingress_link_queues_simultaneous_senders() {
        // Two nodes fire 100 KB at node 2 at the same instant: the
        // messages arrive together, and the destination's 100 MB/s ingress
        // link forces the merge-ordered second one to wait ~1 ms.
        let spec = ClusterSpec {
            nodes: 3,
            cpus_per_node: 2,
            options: SchedOptions::vanilla(),
            skew_max: SimDur::ZERO,
            trace_capacity: 1 << 14,
            fabric: FabricModel {
                link_bandwidth: Some(100e6),
                ..FabricModel::default()
            },
        };
        let mut sim = ClusterSim::build(&spec, &SeedSpace::new(1));
        for n in 0..2u32 {
            sim.kernel_mut(n).spawn(
                ThreadSpec::new("sender", ThreadClass::App, Prio::USER).on_cpu(CpuId(0)),
                Box::new(Script::new(vec![Action::Send(msg(
                    ep(n, 0),
                    ep(2, 0),
                    u64::from(n) + 1,
                    100_000,
                ))])),
            );
        }
        sim.kernel_mut(2).spawn(
            ThreadSpec::new("receiver", ThreadClass::App, Prio::USER).on_cpu(CpuId(0)),
            Box::new(Script::new(vec![
                Action::Recv {
                    tag: TagSel::Exact(1),
                    src: SrcSel::Any,
                    wait: WaitMode::Poll,
                },
                Action::Recv {
                    tag: TagSel::Exact(2),
                    src: SrcSel::Any,
                    wait: WaitMode::Poll,
                },
            ])),
        );
        sim.boot();
        sim.run_until_apps_done(SimTime::from_secs(1));
        assert_eq!(sim.apps_alive(), 0);
        assert!(sim.link_waits() >= 1, "ingress should serialize arrivals");
    }

    #[test]
    fn unlimited_link_mode_records_no_waits() {
        let mut sim = two_node_cluster();
        sim.kernel_mut(0).spawn(
            ThreadSpec::new("sender", ThreadClass::App, Prio::USER).on_cpu(CpuId(0)),
            Box::new(Script::new(vec![
                Action::Send(msg(ep(0, 0), ep(1, 0), 1, 100_000)),
                Action::Send(msg(ep(0, 0), ep(1, 0), 2, 100_000)),
            ])),
        );
        sim.boot();
        sim.run_until_apps_done(SimTime::from_millis(50));
        assert_eq!(sim.link_waits(), 0);
        assert_eq!(sim.link_wait_ns(), 0);
        assert_eq!(sim.link_wait_hist(), [0; LINK_WAIT_BUCKETS]);
    }

    #[test]
    fn identical_history_with_link_contention() {
        // The contention registers must not perturb determinism: an
        // all-to-all burst over a tight 10 MB/s link replays identically
        // at 1/2/4 threads, waits included.
        let fingerprint = |threads: usize| {
            let spec = ClusterSpec {
                nodes: 4,
                cpus_per_node: 2,
                options: SchedOptions::vanilla(),
                skew_max: SimDur::from_millis(1),
                trace_capacity: 1 << 14,
                fabric: FabricModel {
                    link_bandwidth: Some(10e6),
                    ..FabricModel::default()
                },
            };
            let mut sim = ClusterSim::build(&spec, &SeedSpace::new(7));
            sim.set_sim_threads(threads);
            for n in 0..4u32 {
                let mut acts = Vec::new();
                for peer in 0..4u32 {
                    if peer != n {
                        acts.push(Action::Send(msg(
                            ep(n, 0),
                            ep(peer, 0),
                            u64::from(n * 4 + peer),
                            200_000,
                        )));
                    }
                }
                for peer in 0..4u32 {
                    if peer != n {
                        acts.push(Action::Recv {
                            tag: TagSel::Exact(u64::from(peer * 4 + n)),
                            src: SrcSel::Any,
                            wait: WaitMode::Poll,
                        });
                    }
                }
                sim.kernel_mut(n).spawn(
                    ThreadSpec::new("rank", ThreadClass::App, Prio::USER).on_cpu(CpuId(0)),
                    Box::new(Script::new(acts)),
                );
            }
            sim.boot();
            let end = sim.run_until_apps_done(SimTime::from_secs(5));
            (
                end,
                sim.events_processed(),
                sim.fifo_clamps(),
                sim.link_waits(),
                sim.link_wait_ns(),
                sim.link_wait_hist(),
                sim.queue_stats(),
            )
        };
        let serial = fingerprint(1);
        assert!(serial.3 > 0, "burst over a 10 MB/s link must queue");
        assert_eq!(serial, fingerprint(2));
        assert_eq!(serial, fingerprint(4));
    }

    #[test]
    fn run_until_advances_clock_to_horizon() {
        let mut sim = two_node_cluster();
        sim.boot();
        let horizon = SimTime::from_millis(50);
        let end = sim.run_until(horizon);
        assert_eq!(end, horizon);
        assert_eq!(sim.now(), horizon, "clock must land on the horizon");
    }

    #[test]
    fn daemon_idle_windows_widen_without_changing_history() {
        // Short app phase with real cross-node traffic, then a long
        // daemon-only tail: periodic sleepers ticking every 500 µs with
        // nothing to say to other nodes. Once the apps exit, every
        // window may widen past the lookahead — and must do so without
        // perturbing anything observable at any thread count. The merge
        // path hard-asserts the soundness condition (a widened window
        // staging a cross-shard message panics), so running this at all
        // proves every widened window preceded the earliest cross-shard
        // delivery: after the apps exit there is none.
        let fingerprint = |threads: usize| {
            let spec = ClusterSpec {
                nodes: 4,
                cpus_per_node: 2,
                options: SchedOptions::vanilla(),
                skew_max: SimDur::from_millis(1),
                trace_capacity: 1 << 14,
                fabric: FabricModel::default(),
            };
            let mut sim = ClusterSim::build(&spec, &SeedSpace::new(11));
            sim.set_sim_threads(threads);
            for n in 0..4u32 {
                let next = (n + 1) % 4;
                sim.kernel_mut(n).spawn(
                    ThreadSpec::new("rank", ThreadClass::App, Prio::USER).on_cpu(CpuId(0)),
                    Box::new(Script::new(vec![
                        Action::Send(msg(ep(n, 0), ep(next, 0), u64::from(n), 4096)),
                        Action::Recv {
                            tag: TagSel::Exact(u64::from((n + 3) % 4)),
                            src: SrcSel::Any,
                            wait: WaitMode::Poll,
                        },
                    ])),
                );
                let mut acts = Vec::new();
                for k in 1..=40u64 {
                    acts.push(Action::SleepUntil(SimTime::from_micros(500 * k)));
                    acts.push(Action::Compute(SimDur::from_micros(5)));
                }
                sim.kernel_mut(n).spawn(
                    ThreadSpec::new("syncd", ThreadClass::Daemon, Prio::USER).on_cpu(CpuId(1)),
                    Box::new(Script::new(acts)),
                );
            }
            sim.boot();
            let end = sim.run_until(SimTime::from_millis(20));
            assert_eq!(sim.apps_alive(), 0, "app phase must finish first");
            (
                end,
                sim.events_processed(),
                sim.messages_routed(),
                sim.queue_stats(),
                sim.windows_run(),
                sim.widened_windows(),
            )
        };
        let serial = fingerprint(1);
        assert!(
            serial.5 > 0,
            "daemon-only tail widened no windows: {serial:?}"
        );
        assert!(serial.2 > 0, "app phase routed no cross-node messages");
        assert_eq!(serial, fingerprint(2));
        assert_eq!(serial, fingerprint(4));
    }

    #[test]
    fn identical_history_across_thread_counts() {
        // A 4-node ring of send/recv pairs; fingerprints of the run must
        // match exactly no matter how shards are spread over threads.
        let fingerprint = |threads: usize| {
            let spec = ClusterSpec {
                nodes: 4,
                cpus_per_node: 2,
                options: SchedOptions::vanilla(),
                skew_max: SimDur::from_millis(1),
                trace_capacity: 1 << 14,
                fabric: FabricModel::default(),
            };
            let mut sim = ClusterSim::build(&spec, &SeedSpace::new(7));
            sim.set_sim_threads(threads);
            for n in 0..4u32 {
                let next = (n + 1) % 4;
                sim.kernel_mut(n).spawn(
                    ThreadSpec::new("rank", ThreadClass::App, Prio::USER).on_cpu(CpuId(0)),
                    Box::new(Script::new(vec![
                        Action::Send(msg(ep(n, 0), ep(next, 0), u64::from(n), 4096)),
                        Action::Recv {
                            tag: TagSel::Exact(u64::from((n + 3) % 4)),
                            src: SrcSel::Any,
                            wait: WaitMode::Poll,
                        },
                        Action::Compute(SimDur::from_micros(200)),
                        Action::Send(msg(ep(n, 0), ep(next, 0), 10 + u64::from(n), 64)),
                        Action::Recv {
                            tag: TagSel::Exact(10 + u64::from((n + 3) % 4)),
                            src: SrcSel::Any,
                            wait: WaitMode::Poll,
                        },
                    ])),
                );
            }
            sim.boot();
            let end = sim.run_until_apps_done(SimTime::from_secs(1));
            (
                end,
                sim.events_processed(),
                sim.messages_routed(),
                sim.bytes_routed(),
                sim.fifo_clamps(),
                sim.queue_stats(),
            )
        };
        let serial = fingerprint(1);
        assert_eq!(serial, fingerprint(2));
        assert_eq!(serial, fingerprint(4));
        assert_eq!(serial, fingerprint(16)); // clamped to node count
    }

    #[test]
    fn skew_draws_distinct_offsets() {
        let spec = ClusterSpec {
            skew_max: SimDur::from_millis(10),
            ..ClusterSpec::sp_system(4)
        };
        let sim = ClusterSim::build(&spec, &SeedSpace::new(1));
        let offsets: Vec<SimDur> = (0..4).map(|n| sim.kernel(n).clock().offset()).collect();
        let distinct: std::collections::HashSet<u64> = offsets.iter().map(|o| o.nanos()).collect();
        assert!(distinct.len() >= 3, "offsets look degenerate: {offsets:?}");
    }

    #[test]
    fn sync_clocks_collapses_offsets() {
        let spec = ClusterSpec {
            skew_max: SimDur::from_millis(10),
            ..ClusterSpec::sp_system(4)
        };
        let seeds = SeedSpace::new(1);
        let mut sim = ClusterSim::build(&spec, &seeds);
        sim.sync_clocks(&seeds, SimDur::from_micros(20));
        for n in 0..4 {
            assert!(sim.kernel(n).clock().offset() < SimDur::from_micros(20));
        }
    }

    #[test]
    fn same_seed_same_history() {
        let run = || {
            let mut sim = two_node_cluster();
            sim.kernel_mut(0).spawn(
                ThreadSpec::new("a", ThreadClass::App, Prio::USER).on_cpu(CpuId(0)),
                Box::new(Script::new(vec![Action::Compute(SimDur::from_millis(5))])),
            );
            sim.boot();
            let t = sim.run_until_apps_done(SimTime::from_secs(1));
            (t, sim.events_processed())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn spec_presets() {
        let v = ClusterSpec::sp_system(59);
        assert_eq!(v.total_cpus(), 944);
        let p = ClusterSpec::sp_system_prototype(59);
        assert_eq!(p.options.big_tick, 25);
        assert_eq!(v.options.big_tick, 1);
    }

    #[test]
    fn window_bounds_handles_max_horizon() {
        let la = SimDur::from_micros(10);
        // Ordinary window: end = start + lookahead, exclusive.
        let (we, inc) = window_bounds(SimTime::from_micros(100), SimTime::from_secs(1), la);
        assert_eq!(we, SimTime::from_micros(110));
        assert!(!inc);
        // Clamped to horizon + 1 ns near the horizon (still exclusive:
        // events *at* the horizon are inside the window).
        let (we, inc) = window_bounds(SimTime::from_nanos(999_999_995), SimTime::from_secs(1), la);
        assert_eq!(we, SimTime::from_nanos(1_000_000_001));
        assert!(!inc);
        // At the maximum representable horizon the old arithmetic
        // saturated at u64::MAX and silently dropped events in the final
        // nanosecond; the bound must become *inclusive* instead.
        let (we, inc) = window_bounds(SimTime::from_nanos(u64::MAX - 5), SimTime::FAR_FUTURE, la);
        assert_eq!(we, SimTime::FAR_FUTURE);
        assert!(inc, "final window at the max horizon must be inclusive");
        // A start far from the max horizon is unaffected.
        let (we, inc) = window_bounds(SimTime::from_micros(100), SimTime::FAR_FUTURE, la);
        assert_eq!(we, SimTime::from_micros(110));
        assert!(!inc);
    }

    fn tmp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "pa-cluster-test-{}-{name}.ckpt",
            std::process::id()
        ));
        p
    }

    /// 4-node ring workload used by the checkpoint tests: enough cross-
    /// node traffic, compute, and skew to exercise every snapshotted
    /// register.
    fn ring_sim(threads: usize) -> ClusterSim {
        let spec = ClusterSpec {
            nodes: 4,
            cpus_per_node: 2,
            options: SchedOptions::vanilla(),
            skew_max: SimDur::from_millis(1),
            trace_capacity: 1 << 14,
            fabric: FabricModel {
                link_bandwidth: Some(10e6),
                ..FabricModel::default()
            },
        };
        let mut sim = ClusterSim::build(&spec, &SeedSpace::new(7));
        sim.set_sim_threads(threads);
        for n in 0..4u32 {
            let next = (n + 1) % 4;
            sim.kernel_mut(n).spawn(
                ThreadSpec::new("rank", ThreadClass::App, Prio::USER).on_cpu(CpuId(0)),
                Box::new(Script::new(vec![
                    Action::Send(msg(ep(n, 0), ep(next, 0), u64::from(n), 200_000)),
                    Action::Recv {
                        tag: TagSel::Exact(u64::from((n + 3) % 4)),
                        src: SrcSel::Any,
                        wait: WaitMode::Poll,
                    },
                    Action::Compute(SimDur::from_micros(200)),
                    Action::Send(msg(ep(n, 0), ep(next, 0), 10 + u64::from(n), 64)),
                    Action::Recv {
                        tag: TagSel::Exact(10 + u64::from((n + 3) % 4)),
                        src: SrcSel::Any,
                        wait: WaitMode::Poll,
                    },
                ])),
            );
        }
        sim
    }

    type Fingerprint = (SimTime, u64, u64, u64, u64, u64, u64, QueueStats, u64);

    fn fingerprint(sim: &ClusterSim, end: SimTime) -> Fingerprint {
        (
            end,
            sim.events_processed(),
            sim.messages_routed(),
            sim.bytes_routed(),
            sim.fifo_clamps(),
            sim.link_waits(),
            sim.link_wait_ns(),
            sim.queue_stats(),
            sim.checkpoints_written(),
        )
    }

    #[test]
    fn manual_checkpoint_restore_is_bit_identical() {
        // Uninterrupted reference run.
        let mut base = ring_sim(1);
        base.boot();
        let end = base.run_until_apps_done(SimTime::from_secs(5));
        let want = fingerprint(&base, end);

        // Interrupted run: advance partway, checkpoint, throw it away.
        let path = tmp_path("manual");
        let mut first = ring_sim(1);
        first.boot();
        first.run_until(SimTime::from_micros(400));
        let bytes = first.checkpoint(&path).expect("checkpoint");
        assert!(bytes > 0);
        assert_eq!(first.last_checkpoint_bytes(), bytes);
        drop(first);

        // Resume in a rebuilt cluster at several thread counts: the tail
        // must replay to the identical final state (modulo the write
        // counter carried by the snapshot).
        for threads in [1usize, 2, 4] {
            let mut resumed = ring_sim(threads);
            resumed.boot();
            resumed.restore(&path).expect("restore");
            assert_eq!(resumed.checkpoint_restores(), 1);
            let end2 = resumed.run_until_apps_done(SimTime::from_secs(5));
            let mut got = fingerprint(&resumed, end2);
            // The reference never checkpointed; the resumed run carries
            // the interrupted run's single write.
            assert_eq!(got.8, 1);
            got.8 = want.8;
            assert_eq!(got, want, "threads={threads}");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn periodic_checkpoints_match_uninterrupted_counters() {
        // Reference: periodic checkpointing on, run to completion.
        let every = SimDur::from_micros(300);
        let base_path = tmp_path("periodic-base");
        let mut base = ring_sim(1);
        base.set_checkpoint_every(every, &base_path);
        base.boot();
        let end = base.run_until_apps_done(SimTime::from_secs(5));
        let want = fingerprint(&base, end);
        assert!(
            base.checkpoints_written() >= 2,
            "workload too short to exercise periodic checkpoints: {}",
            base.checkpoints_written()
        );

        // The file on disk is the *last* periodic checkpoint. Resume from
        // it at each thread count; the restored schedule must not repeat
        // the write that produced it, so the final counter matches.
        for threads in [1usize, 2, 4] {
            let resumed_path = tmp_path(&format!("periodic-resume-{threads}"));
            let mut resumed = ring_sim(threads);
            resumed.set_checkpoint_every(every, &resumed_path);
            resumed.boot();
            resumed.restore(&base_path).expect("restore");
            let end2 = resumed.run_until_apps_done(SimTime::from_secs(5));
            assert_eq!(fingerprint(&resumed, end2), want, "threads={threads}");
            let _ = std::fs::remove_file(&resumed_path);
        }
        let _ = std::fs::remove_file(&base_path);
    }

    #[test]
    fn restored_schedule_without_rearm_writes_nothing() {
        // The snapshot carries the periodic schedule (its next due time)
        // but not the interval or the file. A run restored from it that
        // never calls `set_checkpoint_every` has nowhere to write: it
        // must write nothing and finish like the uninterrupted run at
        // every thread count, not fail once the carried due time passes.
        let mut base = ring_sim(1);
        base.boot();
        let end = base.run_until_apps_done(SimTime::from_secs(5));
        let want = fingerprint(&base, end);

        let path = tmp_path("no-rearm");
        let mut first = ring_sim(1);
        first.set_checkpoint_every(SimDur::from_micros(300), &path);
        first.boot();
        let mut t = SimTime::ZERO;
        while first.checkpoints_written() == 0 {
            t += SimDur::from_micros(100);
            assert!(t < SimTime::from_millis(5), "no periodic write landed");
            first.run_until(t);
        }
        drop(first);

        for threads in [1usize, 2, 4] {
            let mut resumed = ring_sim(threads);
            resumed.boot();
            resumed.restore(&path).expect("restore");
            let end2 = resumed.run_until_apps_done(SimTime::from_secs(5));
            let mut got = fingerprint(&resumed, end2);
            // Only the interrupted run's single write is counted.
            assert_eq!(got.8, 1, "threads={threads}");
            got.8 = want.8;
            assert_eq!(got, want, "threads={threads}");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn restore_rejects_corrupt_checkpoint() {
        let path = tmp_path("corrupt");
        let mut sim = ring_sim(1);
        sim.boot();
        sim.run_until(SimTime::from_micros(200));
        sim.checkpoint(&path).expect("checkpoint");
        // Flip one character inside the hashed payload.
        let text = std::fs::read_to_string(&path).unwrap();
        let idx = text.find("\\\"now\\\"").expect("payload field");
        let mut bytes = text.into_bytes();
        bytes[idx + 2] = b'x';
        std::fs::write(&path, bytes).unwrap();
        let mut fresh = ring_sim(1);
        fresh.boot();
        let err = fresh.restore(&path).unwrap_err();
        assert!(err.contains("corrupt"), "unexpected error: {err}");
        assert_eq!(fresh.checkpoint_restores(), 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn restore_rejects_staged_outbox() {
        // A barrier checkpoint never holds a staged message; one that
        // does must be refused by name, not restored and left to trip an
        // engine assert in the next run call.
        let path = tmp_path("outbox");
        let mut sim = two_node_cluster();
        sim.boot();
        sim.checkpoint(&path).expect("checkpoint");
        let (mut snap, extras, _) = read_checkpoint_file(&path).expect("read");
        snap.shards[0].outbox.push(StagedMsg {
            deliver_at: SimTime::from_micros(50),
            src_node: 0,
            seq: 0,
            dst_node: 1,
            msg: msg(ep(0, 0), ep(1, 0), 1, 8),
        });
        write_checkpoint_file(&path, &snap, extras).expect("rewrite");
        let mut fresh = two_node_cluster();
        fresh.boot();
        let err = fresh.restore(&path).unwrap_err();
        assert!(err.contains("non-empty outbox"), "unexpected error: {err}");
        assert_eq!(fresh.checkpoint_restores(), 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn restore_rejects_node_count_mismatch() {
        let path = tmp_path("shape");
        let mut sim = ring_sim(1);
        sim.boot();
        sim.checkpoint(&path).expect("checkpoint");
        let mut small = two_node_cluster();
        small.boot();
        let err = small.restore(&path).unwrap_err();
        assert!(err.contains("nodes"), "unexpected error: {err}");
        let _ = std::fs::remove_file(&path);
    }

    /// Both kernel drivers run the same node loop: a 1-node cluster and
    /// a `SoloRunner` over the same kernel (same RNG stream, no skew) and
    /// a message-free workload with daemon preemption and voided segment
    /// timers must produce the same history.
    #[test]
    fn one_node_cluster_matches_solo_runner() {
        let spec = ClusterSpec {
            nodes: 1,
            cpus_per_node: 2,
            options: SchedOptions::vanilla(),
            skew_max: SimDur::ZERO,
            trace_capacity: 1 << 14,
            fabric: FabricModel::default(),
        };
        let seeds = SeedSpace::new(11);
        let populate = |k: &mut Kernel| {
            k.trace_mut().set_mask(HookMask::ALL);
            k.spawn(
                ThreadSpec::new("app0", ThreadClass::App, Prio::USER).on_cpu(CpuId(0)),
                Box::new(Script::new(vec![Action::Compute(SimDur::from_millis(40))])),
            );
            k.spawn(
                ThreadSpec::new("app1", ThreadClass::App, Prio::USER).on_cpu(CpuId(1)),
                Box::new(Script::new(vec![
                    Action::Compute(SimDur::from_millis(5)),
                    Action::SleepUntil(SimTime::from_millis(20)),
                    Action::Compute(SimDur::from_millis(15)),
                ])),
            );
            for cpu in 0..2 {
                k.spawn(
                    ThreadSpec::new("syncd", ThreadClass::Daemon, Prio::DAEMON_OBSERVED)
                        .on_cpu(CpuId(cpu)),
                    Box::new(PeriodicLoop::new(
                        SimDur::from_millis(10),
                        SimDur::from_micros(500),
                        SimDur::ZERO,
                    )),
                );
            }
        };
        let horizon = SimTime::from_millis(60);

        let mut sim = ClusterSim::build(&spec, &seeds);
        populate(sim.kernel_mut(0));
        sim.boot();
        sim.run_until(horizon);

        let mut k = Kernel::new(
            0,
            spec.cpus_per_node,
            spec.options,
            ClockModel::with_offset(SimDur::ZERO),
            seeds.stream_at("cluster/kernel", 0, 0),
            spec.trace_capacity,
        );
        populate(&mut k);
        let mut solo = SoloRunner::new(k);
        solo.boot();
        solo.run_until(horizon);

        let (ck, sk) = (sim.kernel(0), &solo.kernel);
        assert!(ck.stats().preemptions > 0, "workload never preempted");
        assert!(sim.queue_stats().cancelled > 0, "no segment timer voided");
        assert_eq!(
            ck.trace().events().copied().collect::<Vec<_>>(),
            sk.trace().events().copied().collect::<Vec<_>>()
        );
        assert_eq!(ck.stats(), sk.stats());
        assert_eq!(sim.events_processed(), solo.events_processed());
        assert_eq!(sim.queue_stats(), solo.queue().stats());
    }

    /// A program that computes briefly, then panics — stands in for any
    /// bug in kernel or workload code reached from a shard worker. (The
    /// delay matters: the first dispatch happens during `boot`, which is
    /// serial; the panic must land inside the windowed run.)
    struct PanicBomb {
        armed: bool,
    }
    impl pa_kernel::Program for PanicBomb {
        fn step(&mut self, _ctx: &mut pa_kernel::StepCtx<'_>) -> Action {
            if !self.armed {
                self.armed = true;
                return Action::Compute(SimDur::from_micros(50));
            }
            panic!("deliberate test panic");
        }
        fn kind(&self) -> &'static str {
            "panic-bomb"
        }
    }

    #[test]
    fn worker_panic_reports_node_not_poison() {
        // Before the hardening, a panic inside a shard worker poisoned
        // that shard's mutex and the run died with an opaque
        // `PoisonError` (or hung at the barrier). It must now surface the
        // original payload tagged with the node it struck.
        let mut sim = ring_sim(2);
        sim.kernel_mut(2).spawn(
            ThreadSpec::new("bomb", ThreadClass::App, Prio::USER).on_cpu(CpuId(1)),
            Box::new(PanicBomb { armed: false }),
        );
        sim.boot();
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
            sim.run_until_apps_done(SimTime::from_secs(1));
        }));
        let payload = outcome.expect_err("run must propagate the worker panic");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .expect("panic payload should be a string");
        assert!(
            msg.contains("node 2") && msg.contains("deliberate test panic"),
            "panic message should name the node and original payload: {msg}"
        );
        assert!(
            !msg.contains("PoisonError"),
            "poison must not leak into the panic message: {msg}"
        );
    }

    #[test]
    fn coordinator_panic_releases_parked_workers() {
        // A daemon that sends cross-node breaks the daemon-idle widening
        // invariant; the coordinator's merge-time assert must surface as
        // a panic at every thread count, not strand the parked workers
        // at the barrier.
        for threads in [1usize, 2] {
            let mut sim = two_node_cluster();
            sim.set_sim_threads(threads);
            sim.kernel_mut(0).spawn(
                ThreadSpec::new("chatty", ThreadClass::Daemon, Prio::USER).on_cpu(CpuId(0)),
                Box::new(Script::new(vec![
                    Action::Compute(SimDur::from_micros(50)),
                    Action::Send(msg(ep(0, 0), ep(1, 0), 1, 8)),
                ])),
            );
            sim.boot();
            let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
                sim.run_until(SimTime::from_millis(1));
            }));
            let payload = outcome.expect_err("the broken invariant must panic");
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_default();
            assert!(
                msg.contains("daemon-idle window staged a cross-shard message"),
                "threads={threads}: {msg}"
            );
        }
    }

    /// A 4-node workload with one artificially hot shard: node 0's rank
    /// computes ~50× longer per round than the others, so a static stripe
    /// leaves the other workers idle at the barrier while stealing lets
    /// them drain the cheap shards and pull forward.
    fn skewed_sim(threads: usize, schedule: ShardSchedule) -> ClusterSim {
        let spec = ClusterSpec {
            nodes: 4,
            cpus_per_node: 2,
            options: SchedOptions::vanilla(),
            skew_max: SimDur::from_millis(1),
            trace_capacity: 1 << 14,
            fabric: FabricModel::default(),
        };
        let mut sim = ClusterSim::build(&spec, &SeedSpace::new(23));
        sim.set_sim_threads(threads);
        sim.set_shard_schedule(schedule);
        for n in 0..4u32 {
            let next = (n + 1) % 4;
            let compute = if n == 0 { 500 } else { 10 };
            let mut acts = Vec::new();
            for round in 0..16u64 {
                acts.push(Action::Compute(SimDur::from_micros(compute)));
                acts.push(Action::Send(msg(
                    ep(n, 0),
                    ep(next, 0),
                    100 * round + u64::from(n),
                    4096,
                )));
                acts.push(Action::Recv {
                    tag: TagSel::Exact(100 * round + u64::from((n + 3) % 4)),
                    src: SrcSel::Any,
                    wait: WaitMode::Poll,
                });
            }
            sim.kernel_mut(n).spawn(
                ThreadSpec::new("rank", ThreadClass::App, Prio::USER).on_cpu(CpuId(0)),
                Box::new(Script::new(acts)),
            );
        }
        sim
    }

    #[test]
    fn shard_schedule_permutation_preserves_history() {
        // The permutation test from the stealing scheduler's contract:
        // assignment decides only which worker runs a shard, so the full
        // deterministic fingerprint must be identical across every
        // schedule (static stripe, heaviest-first stealing, adversarial
        // rotating claim order) at every thread count. `local.*` values
        // (steals, busy, imbalance) are deliberately NOT in the
        // fingerprint — they are wall-clock facts.
        let run = |threads: usize, schedule: ShardSchedule| {
            let mut sim = skewed_sim(threads, schedule);
            sim.boot();
            let end = sim.run_until_apps_done(SimTime::from_secs(1));
            (
                end,
                sim.events_processed(),
                sim.messages_routed(),
                sim.bytes_routed(),
                sim.fifo_clamps(),
                sim.queue_stats(),
                sim.windows_run(),
            )
        };
        let reference = run(1, ShardSchedule::Stripe);
        for threads in [1usize, 2, 4, 8] {
            for schedule in [
                ShardSchedule::Stripe,
                ShardSchedule::Steal,
                ShardSchedule::StealAdversarial,
            ] {
                assert_eq!(
                    reference,
                    run(threads, schedule),
                    "history diverged at {threads} threads under {schedule:?}"
                );
            }
        }
    }

    #[test]
    fn stealing_moves_work_off_the_home_stripe() {
        // With 2 workers over 4 shards, stealing lets whichever worker
        // finishes first claim a position off its stripe. The steal
        // counter is wall-clock-dependent (how often that happens varies),
        // but the claim protocol guarantees every position is claimed, so
        // across a few hundred windows at least one steal occurring is a
        // statistical certainty on any host; the stripe schedule must
        // record exactly zero.
        let mut sim = skewed_sim(2, ShardSchedule::Steal);
        sim.boot();
        sim.run_until_apps_done(SimTime::from_secs(1));
        assert!(sim.windows_run() > 10, "workload too short to steal");
        assert!(
            sim.steals() > 0,
            "no steal in {} windows",
            sim.windows_run()
        );
        let mut stripe = skewed_sim(2, ShardSchedule::Stripe);
        stripe.boot();
        stripe.run_until_apps_done(SimTime::from_secs(1));
        assert_eq!(stripe.steals(), 0, "stripe schedule must never steal");
        // Busy-time accounting runs under every schedule and both
        // engines; the hot shard must dominate.
        assert!(
            stripe.shard_busy_ns() > 0,
            "per-shard busy accounting recorded nothing"
        );
    }

    #[test]
    fn serial_engine_accounts_shard_busy_time() {
        let mut sim = skewed_sim(1, ShardSchedule::Steal);
        sim.boot();
        sim.run_until_apps_done(SimTime::from_secs(1));
        assert_eq!(sim.steals(), 0, "serial engine has nothing to steal");
        assert_eq!(sim.barrier_imbalance_ns(), 0);
        assert!(sim.shard_busy_ns() > 0);
        let per_node: u64 = (0..4).map(|n| sim.shard_busy_ns_of(n)).sum();
        assert_eq!(per_node, sim.shard_busy_ns());
    }

    #[test]
    fn plan_window_checkpoint_cap_boundary() {
        // The widened-window checkpoint cap must SHORTEN a daemon-idle
        // window when the due time falls inside (or exactly at the start
        // of) the lookahead, not fall back to the normal window and slide
        // the barrier — and therefore the checkpoint — a full lookahead
        // past the due time.
        let mut sim = two_node_cluster();
        let la = sim.lookahead.nanos();
        assert!(la > 2, "lookahead too small to exercise the boundary");
        let horizon = SimTime::from_secs(1);
        let t0 = SimTime::from_micros(500);

        // Due exactly at t_start: the barrier lands 1 ns past the due
        // time (a zero-width window cannot exist), not lookahead ns past.
        sim.next_checkpoint_at = Some(t0);
        let (we, inclusive, idle) = sim.plan_window(t0, horizon, true);
        assert!(idle && !inclusive);
        assert_eq!(we.nanos(), t0.nanos() + 1, "barrier must hug the due time");
        assert!(sim.checkpoint_due(we));

        // Due inside the lookahead: the barrier lands exactly on it.
        let due = SimTime::from_nanos(t0.nanos() + la / 2);
        sim.next_checkpoint_at = Some(due);
        let (we, _inc, idle) = sim.plan_window(t0, horizon, true);
        assert!(idle);
        assert_eq!(we, due, "barrier must land exactly on the due time");
        assert!(sim.checkpoint_due(we));

        // Shortened windows are not "widened": the counter tracks only
        // genuine fast-forwards.
        assert_eq!(sim.widened_windows(), 0);

        // No checkpoint armed: the idle window widens to the horizon.
        sim.next_checkpoint_at = None;
        let (we, _inc, idle) = sim.plan_window(t0, horizon, true);
        assert!(idle);
        assert_eq!(we.nanos(), horizon.nanos() + 1);
        assert_eq!(sim.widened_windows(), 1);

        // Busy (non-idle) windows ignore the cap entirely: shrinking one
        // would change which cross-shard messages share a barrier, which
        // is history-visible under finite link bandwidth.
        sim.next_checkpoint_at = Some(t0);
        let (we, _inc, idle) = sim.plan_window(t0, horizon, false);
        assert!(!idle);
        assert_eq!(
            we.nanos(),
            t0.nanos() + la,
            "busy windows keep the lookahead bound"
        );
    }

    #[test]
    fn checkpoint_cadence_survives_daemon_idle_stretch() {
        // Regression for the cap boundary: periodic checkpoints armed at
        // 1 ms through a ~20 ms daemon-only tail that generates events
        // every 200 µs (compute segments), so a window barrier is
        // available near every due time. Each 1 ms multiple inside the
        // tail must produce a checkpoint — the cap shortens or widens the
        // daemon-idle window to land a barrier on the due time instead of
        // sliding past it — identically at any thread count.
        let run = |threads: usize| {
            let spec = ClusterSpec {
                nodes: 4,
                cpus_per_node: 2,
                options: SchedOptions::vanilla(),
                skew_max: SimDur::from_millis(1),
                trace_capacity: 1 << 14,
                fabric: FabricModel::default(),
            };
            let mut sim = ClusterSim::build(&spec, &SeedSpace::new(11));
            sim.set_sim_threads(threads);
            for n in 0..4u32 {
                let next = (n + 1) % 4;
                sim.kernel_mut(n).spawn(
                    ThreadSpec::new("rank", ThreadClass::App, Prio::USER).on_cpu(CpuId(0)),
                    Box::new(Script::new(vec![
                        Action::Send(msg(ep(n, 0), ep(next, 0), u64::from(n), 4096)),
                        Action::Recv {
                            tag: TagSel::Exact(u64::from((n + 3) % 4)),
                            src: SrcSel::Any,
                            wait: WaitMode::Poll,
                        },
                    ])),
                );
                let mut acts = Vec::new();
                for _ in 0..100u64 {
                    acts.push(Action::Compute(SimDur::from_micros(200)));
                }
                sim.kernel_mut(n).spawn(
                    ThreadSpec::new("syncd", ThreadClass::Daemon, Prio::USER).on_cpu(CpuId(1)),
                    Box::new(Script::new(acts)),
                );
            }
            let path = tmp_path(&format!("cadence-{threads}t"));
            sim.set_checkpoint_every(SimDur::from_millis(1), &path);
            sim.boot();
            let end = sim.run_until(SimTime::from_millis(20));
            assert_eq!(sim.apps_alive(), 0, "app phase must finish first");
            let _ = std::fs::remove_file(&path);
            (
                end,
                sim.events_processed(),
                sim.checkpoints_written(),
                sim.windows_run(),
                sim.widened_windows(),
            )
        };
        let serial = run(1);
        // ~20 ms of daemon activity at a 1 ms interval: nearly every
        // multiple has events around it, so nearly every multiple must
        // get its own checkpoint (a broken cap collapses the tail into a
        // handful of tick-batched writes).
        assert!(
            serial.2 >= 15,
            "checkpoint cadence broke through the daemon-idle stretch: {serial:?}"
        );
        assert!(serial.4 > 0, "daemon tail widened no windows: {serial:?}");
        assert_eq!(serial, run(2));
        assert_eq!(serial, run(4));
    }

    /// One run of the sparse-activity scenario: 32 nodes with a periodic
    /// daemon everywhere, a ping-pong app pair on nodes 0 and 1, and,
    /// between two `run_until` calls, a thread spawned on idle node 20
    /// that round-trips a message through a blocked listener on idle node
    /// 21, plus a message injected to a listener on idle node 22. Most
    /// windows therefore have a few due shards out of 32. The run is
    /// checkpointed at the 2 ms barrier, finished, then restored from
    /// that checkpoint and finished again; both tails must match. Returns
    /// the fingerprint, the shard claims of the uninterrupted run, and
    /// its window count.
    fn sparse_run(threads: usize, schedule: ShardSchedule) -> (Vec<u64>, u64, u64) {
        const NODES: u32 = 32;
        let spec = ClusterSpec {
            nodes: NODES,
            cpus_per_node: 2,
            options: SchedOptions::vanilla(),
            skew_max: SimDur::from_millis(1),
            trace_capacity: 1 << 10,
            fabric: FabricModel::default(),
        };
        let mut sim = ClusterSim::build(&spec, &SeedSpace::new(31));
        sim.set_sim_threads(threads);
        sim.set_shard_schedule(schedule);
        // Tid 0 everywhere: a daemon computing for ~8 ms in segments
        // whose length differs per node, so nodes fall due in different
        // windows.
        for n in 0..NODES {
            let seg_us = 100 + 7 * u64::from(n);
            let acts =
                vec![Action::Compute(SimDur::from_micros(seg_us)); (8_000 / seg_us) as usize];
            sim.kernel_mut(n).spawn(
                ThreadSpec::new("syncd", ThreadClass::Daemon, Prio::USER).on_cpu(CpuId(1)),
                Box::new(Script::new(acts)),
            );
        }
        // Tid 1 on nodes 0 and 1: the app pair.
        for n in 0..2u32 {
            let peer = 1 - n;
            let mut acts = Vec::new();
            for round in 0..6u64 {
                acts.push(Action::Compute(SimDur::from_micros(300)));
                acts.push(Action::Send(msg(ep(n, 1), ep(peer, 1), round, 4096)));
                acts.push(Action::Recv {
                    tag: TagSel::Exact(round),
                    src: SrcSel::Any,
                    wait: WaitMode::Poll,
                });
            }
            sim.kernel_mut(n).spawn(
                ThreadSpec::new("rank", ThreadClass::App, Prio::USER).on_cpu(CpuId(0)),
                Box::new(Script::new(acts)),
            );
        }
        // Tid 1 on nodes 21 and 22: listeners blocked until a message
        // comes. Node 21's answers the sender across the fabric, which a
        // daemon may do here because the sender is an app waiting for the
        // answer, so no window around it is daemon-idle.
        sim.kernel_mut(21).spawn(
            ThreadSpec::new("listener", ThreadClass::Daemon, Prio::USER).on_cpu(CpuId(0)),
            Box::new(Script::new(vec![
                Action::Recv {
                    tag: TagSel::Exact(77),
                    src: SrcSel::Any,
                    wait: WaitMode::Block,
                },
                Action::Compute(SimDur::from_micros(40)),
                Action::Send(msg(ep(21, 1), ep(20, 1), 78, 64)),
            ])),
        );
        sim.kernel_mut(22).spawn(
            ThreadSpec::new("listener", ThreadClass::Daemon, Prio::USER).on_cpu(CpuId(0)),
            Box::new(Script::new(vec![
                Action::Recv {
                    tag: TagSel::Exact(99),
                    src: SrcSel::Any,
                    wait: WaitMode::Block,
                },
                Action::Compute(SimDur::from_micros(30)),
            ])),
        );
        sim.boot();
        sim.run_until(SimTime::from_micros(1_300));
        let late = sim.spawn_thread(
            20,
            ThreadSpec::new("late", ThreadClass::App, Prio::USER).on_cpu(CpuId(0)),
            Box::new(Script::new(vec![
                Action::Compute(SimDur::from_micros(20)),
                Action::Send(msg(ep(20, 1), ep(21, 1), 77, 4096)),
                Action::Recv {
                    tag: TagSel::Exact(78),
                    src: SrcSel::Any,
                    wait: WaitMode::Poll,
                },
                Action::Compute(SimDur::from_micros(50)),
            ])),
        );
        assert_eq!(late, Tid(1));
        sim.inject_message(msg(ep(0, 0), ep(22, 1), 99, 8));
        sim.run_until(SimTime::from_millis(2));
        let path = tmp_path(&format!("sparse-{threads}t-{schedule:?}"));
        sim.checkpoint(&path).expect("checkpoint");
        let finish = |sim: &mut ClusterSim| {
            let end = sim.run_until(SimTime::from_millis(10));
            assert_eq!(sim.apps_alive(), 0, "apps must finish inside the run");
            for (node, tid) in [(20u32, 1u32), (21, 1), (22, 1)] {
                assert_eq!(
                    sim.kernel(node).thread_state(Tid(tid)),
                    ThreadState::Exited,
                    "node {node} tid {tid} never finished"
                );
            }
            let q = sim.queue_stats();
            vec![
                end.nanos(),
                sim.events_processed(),
                sim.messages_routed(),
                sim.bytes_routed(),
                sim.fifo_clamps(),
                q.scheduled,
                q.popped,
                q.cancelled,
                sim.kernel(20).stats().dispatches,
                sim.kernel(21).stats().dispatches,
                sim.kernel(22).stats().dispatches,
            ]
        };
        let mut want = finish(&mut sim);
        let (claims, windows, widened) =
            (sim.shard_claims(), sim.windows_run(), sim.widened_windows());
        sim.restore(&path).expect("restore");
        assert_eq!(finish(&mut sim), want, "restored tail diverged");
        let _ = std::fs::remove_file(&path);
        // A restored run keeps counting windows from where it stood, so
        // the window counters join the fingerprint only here.
        want.extend([windows, widened]);
        (want, claims, windows)
    }

    #[test]
    fn sparse_activity_claims_only_due_shards() {
        let (reference, claims, windows) = sparse_run(1, ShardSchedule::Steal);
        assert!(
            claims < windows * 32,
            "{claims} claims over {windows} windows: idle shards were visited"
        );
        for threads in [1usize, 2, 4] {
            for schedule in [
                ShardSchedule::Stripe,
                ShardSchedule::Steal,
                ShardSchedule::StealAdversarial,
            ] {
                let (got, got_claims, _) = sparse_run(threads, schedule);
                assert_eq!(got, reference, "{threads} threads, {schedule:?}");
                assert_eq!(got_claims, claims, "{threads} threads, {schedule:?}");
            }
        }
    }
}
