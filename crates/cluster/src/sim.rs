//! The multi-node simulation driver.
//!
//! [`ClusterSim`] owns one *shard* per node — the node's [`Kernel`] plus a
//! private event calendar — and a switch [`FabricModel`] connecting them.
//! The engine is **conservative**: it advances all shards in bounded time
//! windows whose width is the cross-node wire latency (the *lookahead*).
//! Because every cross-node message takes at least `net_latency` of
//! fabric time, no event processed inside the current window can affect
//! another shard within that same window, so each shard runs the window
//! on its own, and only the shards with an event due in it run at all.
//! At each window barrier, cross-shard messages are exchanged and merged
//! in a deterministic order — sorted by `(delivery time, source node,
//! send sequence)` — so the history is a function of simulation state
//! alone. One thread runs every window: the due shards in node order,
//! then the merge.
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
use pa_kernel::{ClockModel, Kernel, KernelStats, Message, NodeLoop, NodeSnap, SchedOptions};
use pa_simkit::{sha256_hex, QueueStats, SeedSpace, SimDur, SimTime};
use serde::value::Value;
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
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
/// the node.
struct Shard {
    node: NodeLoop,
    router: Router,
}

/// A shard's fabric routing: everything a shard adds to its node loop.
#[derive(Default)]
struct Router {
    node: u32,
    nnodes: u32,
    state: RouterState,
}

/// The router's mutable state, checkpointed as is (its fields sit in the
/// shard's checkpoint map, in this order).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct RouterState {
    messages_routed: u64,
    bytes_routed: u64,
    fifo_clamps: u64,
    /// Monotone sequence for cross-shard sends; with the source node it
    /// forms the deterministic tie-break of the barrier merge.
    msg_seq: u64,
    /// Per-destination FIFO floor: the latest delivery time already
    /// promised on the `(this node → dst)` channel, as pairs sorted by
    /// `dst` (the checkpoint's own encoding). A node talks to few peers,
    /// so a binary search beats hashing, and memory stays proportional to
    /// the peers rather than to the machine.
    last_delivery: Vec<(u32, SimTime)>,
    /// Cross-shard messages staged during the current window. Always
    /// empty at a window barrier, and restore rejects a non-empty one;
    /// checkpointed anyway so the format does not change if checkpoints
    /// ever move inside a window.
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

/// One shard's slice of a cluster checkpoint: the node id, then the node
/// loop's and the router's fields in one flat map. Everything mutable
/// lives here; static structure (node config, fabric, trace
/// registrations) is rebuilt from the [`ClusterSpec`] on restore and
/// validated against the snapshot by [`Kernel::restore`].
#[derive(Debug, Serialize, Deserialize)]
struct ShardSnap {
    node: u32,
    #[serde(flatten)]
    node_loop: NodeSnap,
    #[serde(flatten)]
    router: RouterState,
}

impl Shard {
    /// Process every local event due at or before `last`, the window's
    /// last instant.
    fn process_window(&mut self, last: SimTime, fabric: &FabricModel) {
        self.node
            .run(last, false, |now, msg| self.router.send(now, msg, fabric));
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
        ShardSnap {
            node: self.router.node,
            node_loop: self.node.capture(),
            router: self.router.state.clone(),
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
        let state = &snap.router;
        // Checkpoints are taken only at window barriers, after the merge
        // has emptied every outbox; a staged message here would be
        // delivered into a window that already closed.
        if !state.outbox.is_empty() {
            return Err(format!(
                "node {}: non-empty outbox: {} staged message(s) in a barrier checkpoint",
                r.node,
                state.outbox.len()
            ));
        }
        let floors = &state.last_delivery;
        if let Some(&(dst, _)) = floors.iter().find(|&&(n, _)| n >= r.nnodes) {
            return Err(format!(
                "node {}: FIFO floor for nonexistent node {dst}",
                r.node
            ));
        }
        if let Some(w) = floors.windows(2).find(|w| w[0].0 >= w[1].0) {
            return Err(if w[0].0 == w[1].0 {
                format!("node {}: duplicate FIFO floor for node {}", r.node, w[0].0)
            } else {
                format!(
                    "node {}: FIFO floors out of node order: node {} after node {}",
                    r.node, w[1].0, w[0].0
                )
            });
        }
        self.node
            .restore(snap.node_loop)
            .map_err(|e| format!("node {}: {e}", r.node))?;
        r.state = snap.router;
        Ok(())
    }

    /// Apply ingress-link queueing to a staged cross-shard message and
    /// schedule it into this (destination) shard's calendar; returns the
    /// final delivery time. Must be called in the canonical
    /// `(deliver_at, src_node, seq)` merge order: the ingress busy-until
    /// register advances monotonically in that order.
    fn accept_staged(&mut self, m: StagedMsg, fabric: &FabricModel) -> SimTime {
        let r = &mut self.router.state;
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

impl RouterState {
    /// Count one message delayed `wait` behind a busy link.
    fn record_wait(&mut self, wait: SimDur) {
        self.link_waits += 1;
        self.link_wait_ns += wait.nanos();
        self.link_wait_hist[link_wait_bucket(wait)] += 1;
    }
}

impl Router {
    /// The node loop's route: price one outbound message on the fabric,
    /// then return it for delivery on this node or stage it in the outbox
    /// for the barrier merge.
    fn send(
        &mut self,
        now: SimTime,
        msg: Message,
        fabric: &FabricModel,
    ) -> Option<(SimTime, Message)> {
        let (node, state) = (self.node, &mut self.state);
        let dst = msg.dst.node;
        assert!(dst < self.nnodes, "message to nonexistent node {dst}");
        state.messages_routed += 1;
        state.bytes_routed += u64::from(msg.bytes);
        let mut deliver_at = now + fabric.delay(&msg);
        // Egress link: concurrent cross-node sends share the node's
        // finite uplink, so a send issued while the link is still
        // draining an earlier payload queues behind it. The wait is
        // non-negative, so `deliver_at >= now + net_latency` still
        // holds and the engine's lookahead is never shortened.
        if dst != node {
            if let Some(occ) = fabric.link_occupancy(msg.bytes) {
                let start = if state.egress_free_at > now {
                    let wait = state.egress_free_at - now;
                    state.record_wait(wait);
                    deliver_at += wait;
                    state.egress_free_at
                } else {
                    now
                };
                state.egress_free_at = start + occ;
            }
        }
        // FIFO clamp: fabric channels deliver in send order. A later
        // (smaller) message may not overtake an earlier (larger) one
        // still serializing on the same channel.
        let i = match state.last_delivery.binary_search_by_key(&dst, |&(n, _)| n) {
            Ok(i) => i,
            Err(i) => {
                state.last_delivery.insert(i, (dst, SimTime::ZERO));
                i
            }
        };
        let floor = &mut state.last_delivery[i].1;
        if deliver_at < *floor {
            deliver_at = *floor;
            state.fifo_clamps += 1;
        }
        *floor = deliver_at;
        if dst == node {
            return Some((deliver_at, msg));
        }
        state.outbox.push(StagedMsg {
            deliver_at,
            src_node: node,
            seq: state.msg_seq,
            dst_node: dst,
            msg,
        });
        state.msg_seq += 1;
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
    /// Windows opened by the engine.
    windows_run: u64,
    /// Windows widened past the lookahead because the whole cluster was
    /// daemon-idle.
    widened_windows: u64,
    /// `process_window` calls: the shards due in each window, summed over
    /// windows.
    shard_claims: u64,
    /// Wall time spent processing shards, ns (wall-clock diagnostic),
    /// timed once per window.
    busy_ns: u64,
}

/// Serialize a checkpoint of the encoded engine `state` to `path`
/// atomically (write + rename), hashing the payload so corruption and
/// truncation are caught on restore. Returns the file size in bytes.
fn write_checkpoint_file(
    path: &Path,
    state: Value,
    extras: Vec<(String, Value)>,
) -> Result<u64, String> {
    let payload = Value::Map(vec![
        ("state".to_string(), state),
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
                }
            })
            .collect();
        ClusterSim {
            shards,
            fabric: spec.fabric,
            lookahead: spec.fabric.net_latency,
            booted: false,
            clock_resyncs: 0,
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
            busy_ns: 0,
        }
    }

    /// Number of nodes.
    pub fn nodes(&self) -> u32 {
        self.shards.len() as u32
    }

    /// Total measured shard-processing wall time, ns (wall-clock
    /// diagnostic, `local.*`), timed once per window, claim bookkeeping
    /// included.
    pub fn shard_busy_ns(&self) -> u64 {
        self.busy_ns
    }

    /// Access a node's kernel (setup: spawning threads, enabling traces).
    pub fn kernel_mut(&mut self, node: u32) -> &mut Kernel {
        &mut self.shards[node as usize].node.kernel
    }

    /// Access a node's kernel read-only (post-run analysis).
    pub fn kernel(&self, node: u32) -> &Kernel {
        &self.shards[node as usize].node.kernel
    }

    /// Dispatcher counters summed over every node's kernel.
    pub fn kernel_stats(&self) -> KernelStats {
        self.shards.iter().map(|s| *s.node.kernel.stats()).sum()
    }

    /// Current global time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Spawn a thread on `node`. Before boot it starts with the cluster
    /// ([`Kernel::spawn`]). After boot it is a mid-run arrival (the batch
    /// layer's job launch) at the current barrier time: callable only
    /// between run calls, when every shard is quiescent at a window
    /// barrier. The kernel schedules a dispatcher nudge so the thread
    /// starts without waiting for the next tick.
    pub fn spawn_thread(
        &mut self,
        node: u32,
        spec: pa_kernel::ThreadSpec,
        program: Box<dyn pa_kernel::Program>,
    ) -> pa_kernel::Tid {
        let sh = &mut self.shards[node as usize];
        if !self.booted {
            return sh.node.kernel.spawn(spec, program);
        }
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
        self.shards
            .iter()
            .map(|s| s.router.state.messages_routed)
            .sum()
    }

    /// Payload bytes routed over the fabric.
    pub fn bytes_routed(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.router.state.bytes_routed)
            .sum()
    }

    /// Deliveries delayed by the per-channel FIFO clamp (a later message
    /// would otherwise have overtaken an earlier one on the same channel).
    pub fn fifo_clamps(&self) -> u64 {
        self.shards.iter().map(|s| s.router.state.fifo_clamps).sum()
    }

    /// Messages delayed behind a busy ingress or egress link. Always zero
    /// in the unlimited (default) link mode.
    pub fn link_waits(&self) -> u64 {
        self.shards.iter().map(|s| s.router.state.link_waits).sum()
    }

    /// Total link queueing delay across all messages, nanoseconds.
    pub fn link_wait_ns(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.router.state.link_wait_ns)
            .sum()
    }

    /// One node's link contention: `(delayed messages, total queueing
    /// delay ns)` charged at that node's shard — its egress waits plus
    /// the ingress waits of messages arriving there. The per-node blame
    /// ranking reads this.
    pub fn link_wait_of(&self, node: u32) -> (u64, u64) {
        let r = &self.shards[node as usize].router.state;
        (r.link_waits, r.link_wait_ns)
    }

    /// Link queueing-delay histogram, merged across shards; buckets are
    /// bounded by [`LINK_WAIT_EDGES_NS`] plus one overflow bucket.
    pub fn link_wait_hist(&self) -> [u64; LINK_WAIT_BUCKETS] {
        let mut total = [0u64; LINK_WAIT_BUCKETS];
        for sh in &self.shards {
            for (t, &c) in total.iter_mut().zip(sh.router.state.link_wait_hist.iter()) {
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
    /// identical event history.
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
    /// MPI run recorder) to every checkpoint's `extras` section;
    /// [`ClusterSim::restore`] hands the section back.
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
        self.write_checkpoint(path.as_ref())
    }

    /// Overlay state from a checkpoint file onto this cluster. The cluster
    /// must have been rebuilt from the *same* spec (same node/CPU/thread
    /// layout, same programs in the same spawn order) and booted; restore
    /// then rewinds every mutable piece of engine state to the barrier the
    /// checkpoint captured. Returns the checkpoint's `extras` section for
    /// the caller to apply (e.g. run-recorder state).
    pub fn restore(&mut self, path: impl AsRef<Path>) -> Result<Vec<(String, Value)>, String> {
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

    /// Write a checkpoint of the whole engine state to `path`: the one
    /// capture path of the manual and the periodic checkpoint. Returns the
    /// file size in bytes.
    fn write_checkpoint(&mut self, path: &Path) -> Result<u64, String> {
        // Increment before capture: the snapshot's counter then includes
        // this write, so a restored run's total matches an uninterrupted
        // run's.
        self.checkpoints_written += 1;
        let snap = ClusterSnap {
            now: self.now,
            clock_resyncs: self.clock_resyncs,
            checkpoints_written: self.checkpoints_written,
            checkpoint_next_ns: self.next_checkpoint_at.map(|t| t.nanos()),
            shards: self.shards.iter().map(Shard::snapshot).collect(),
        };
        let extras = self
            .extras_provider
            .as_ref()
            .map(|f| f())
            .unwrap_or_default();
        let bytes = write_checkpoint_file(path, snap.to_value(), extras)?;
        self.last_checkpoint_bytes = bytes;
        Ok(bytes)
    }

    /// Is a periodic checkpoint due at the barrier closing the window
    /// whose last instant is `last`? The barrier sits at `last + 1`.
    fn checkpoint_due(&self, last: SimTime) -> bool {
        matches!(self.next_checkpoint_at, Some(at) if at.nanos() <= last.nanos().saturating_add(1))
    }

    /// Advance the periodic schedule strictly past the barrier at
    /// `last + 1`. Done *before* capturing the snapshot so the restored
    /// run continues the schedule exactly where the interrupted run would
    /// have (no repeated write at the restore barrier).
    fn advance_schedule(next: &mut Option<SimTime>, every: SimDur, last: SimTime) {
        let Some(at) = *next else { return };
        let step = u128::from(every.nanos()).max(1);
        let mut at = u128::from(at.nanos());
        let barrier = u128::from(last.nanos()) + 1;
        while at <= barrier {
            at += step;
        }
        *next = if at > u128::from(u64::MAX) {
            None
        } else {
            Some(SimTime::from_nanos(at as u64))
        };
    }

    /// The periodic-checkpoint step at the barrier closing the window
    /// whose last instant is `last`, after the merge. A schedule restored
    /// from a checkpoint but never armed with
    /// [`ClusterSim::set_checkpoint_every`] has nowhere to write, so it
    /// writes nothing.
    fn periodic_checkpoint(&mut self, last: SimTime) -> Result<(), String> {
        if !self.checkpoint_due(last) {
            return Ok(());
        }
        let Some((every, path)) = &self.periodic else {
            return Ok(());
        };
        let (every, path) = (*every, path.clone());
        Self::advance_schedule(&mut self.next_checkpoint_at, every, last);
        self.write_checkpoint(&path)
            .map(|_| ())
            .map_err(|e| format!("periodic checkpoint failed: {e}"))
    }

    /// Boot every node at the current time.
    pub fn boot(&mut self) {
        assert!(!self.booted, "boot called twice");
        self.booted = true;
        let fabric = self.fabric;
        let mut staged = Vec::new();
        for sh in &mut self.shards {
            sh.node.boot(|now, msg| sh.router.send(now, msg, &fabric));
            staged.append(&mut sh.router.state.outbox);
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
    /// lookahead window are processed on every shard before stopping.
    ///
    /// # Errors
    /// A periodic checkpoint ([`ClusterSim::set_checkpoint_every`]) that
    /// cannot be written stops the run at that barrier with the write
    /// error.
    pub fn run_until_apps_done(&mut self, horizon: SimTime) -> Result<SimTime, String> {
        self.run_windows(horizon, true)?;
        let end = self
            .shards
            .iter()
            .map(|s| s.node.now())
            .max()
            .unwrap_or(self.now)
            .max(self.now);
        self.now = end;
        Ok(end)
    }

    /// Run until `horizon` regardless of application state. Afterwards the
    /// global clock reads exactly `horizon` (every event at or before it
    /// has been processed), and that time is returned.
    ///
    /// # Errors
    /// As [`ClusterSim::run_until_apps_done`].
    pub fn run_until(&mut self, horizon: SimTime) -> Result<SimTime, String> {
        self.run_windows(horizon, false)?;
        for sh in &mut self.shards {
            let target = horizon.max(sh.node.now());
            sh.node.advance_to(target);
        }
        self.now = self.now.max(horizon);
        Ok(self.now)
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

    /// Windows opened so far (a function of simulation state alone).
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

    /// The last instant of the window opening at `t_start`: normally
    /// `min(t_start + lookahead - 1, horizon)`, widened when the whole
    /// cluster is daemon-idle. The add saturates, which is exact: a sum
    /// past `u64::MAX` lies past every horizon. Returns `(last, idle)`;
    /// `idle` marks a daemon-idle window whose merge must stage nothing.
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
    /// or at `t_start` itself: the barrier then lands at
    /// `max(at, t_start + 1)`, so the window's last instant is
    /// `max(at - 1, t_start)` — exactly the due time's barrier, or one
    /// nanosecond past it when the checkpoint is due at `t_start` (a
    /// window always holds `t_start`, whose event must be processed or
    /// the loop would spin). Shrinking a daemon-idle window is as sound as
    /// widening one: no cross-shard message exists for the partition to
    /// reorder.
    fn plan_window(
        &mut self,
        t_start: SimTime,
        horizon: SimTime,
        daemon_idle: bool,
    ) -> (SimTime, bool) {
        self.windows_run += 1;
        let la = self.lookahead.nanos() - 1;
        let normal = t_start.nanos().saturating_add(la).min(horizon.nanos());
        let mut last = normal;
        if daemon_idle {
            last = horizon.nanos();
            if let Some(at) = self.next_checkpoint_at {
                last = last.min(at.nanos().saturating_sub(1).max(t_start.nanos()));
            }
            if last > normal {
                self.widened_windows += 1;
            }
        }
        (SimTime::from_nanos(last), daemon_idle)
    }

    /// The window engine: plan → process → merge → checkpoint, once per
    /// window. Stop conditions, window bounds, per-shard event order,
    /// merge order and checkpoint cadence are all functions of simulation
    /// state alone.
    ///
    /// Only *due* shards are processed: those whose earliest pending event
    /// falls inside the window, in node order. Each shard's next-event
    /// time and live-app count are scanned once per call — which covers
    /// `spawn_thread`, `inject_message` and `restore` between run calls —
    /// then refreshed after the shard is processed and lowered by the
    /// merge to each delivery it schedules there, so the window is planned
    /// from their minimum without rescanning every calendar. Skipping a
    /// shard with nothing due cannot change history: `process_window` on
    /// it would pop nothing, schedule nothing and stage nothing.
    fn run_windows(&mut self, horizon: SimTime, until_apps_done: bool) -> Result<(), String> {
        assert!(self.booted, "boot the cluster first");
        let fabric = self.fabric;
        // Earliest pending event of each shard, ns (`u64::MAX` when its
        // calendar is empty), and its live application threads.
        let mut next_ns: Vec<u64> = self.shards.iter().map(Shard::next_event_ns).collect();
        let mut apps: Vec<usize> = self
            .shards
            .iter()
            .map(|sh| sh.node.kernel.app_alive())
            .collect();
        // Merge buffer, drained into destination shards every barrier.
        let mut staged: Vec<StagedMsg> = Vec::new();
        loop {
            let (t_start, alive) = next_ns
                .iter()
                .zip(&apps)
                .fold((u64::MAX, 0usize), |(next, alive), (&t, &a)| {
                    (next.min(t), alive + a)
                });
            if until_apps_done && alive == 0 {
                break;
            }
            if t_start == u64::MAX || t_start > horizon.nanos() {
                break;
            }
            let (last, idle) = self.plan_window(SimTime::from_nanos(t_start), horizon, alive == 0);
            let t0 = Instant::now();
            for (i, sh) in self.shards.iter_mut().enumerate() {
                if next_ns[i] > last.nanos() {
                    continue;
                }
                sh.process_window(last, &fabric);
                next_ns[i] = sh.next_event_ns();
                apps[i] = sh.node.kernel.app_alive();
                staged.append(&mut sh.router.state.outbox);
                self.shard_claims += 1;
            }
            self.busy_ns += t0.elapsed().as_nanos() as u64;
            assert!(
                !idle || staged.is_empty(),
                "daemon-idle window staged a cross-shard message"
            );
            // Ingress queueing may move a delivery later, so each
            // destination's entry is lowered to the *final* time the
            // delivery landed at: the next window then opens, and claims,
            // exactly where a scan of every queue would.
            Self::merge_outboxes(&mut staged, |m| {
                let dst = m.dst_node as usize;
                let at = self.shards[dst].accept_staged(m, &fabric);
                next_ns[dst] = next_ns[dst].min(at.nanos());
            });
            self.periodic_checkpoint(last)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pa_kernel::{
        Action, CpuId, Endpoint, KernelEvent, Message, PeriodicLoop, Prio, Script, SoloRunner,
        SrcSel, TagSel, ThreadSpec, ThreadState, Tid, WaitMode,
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
        let end = sim.run_until_apps_done(SimTime::from_secs(1)).unwrap();
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
        let end = sim.run_until_apps_done(SimTime::from_secs(1)).unwrap();
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
        let end = sim.run_until_apps_done(SimTime::from_secs(1)).unwrap();
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
        sim.run_until_apps_done(SimTime::from_secs(1)).unwrap();
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
        sim.run_until_apps_done(SimTime::from_millis(50)).unwrap();
        assert_eq!(sim.link_waits(), 0);
        assert_eq!(sim.link_wait_ns(), 0);
        assert_eq!(sim.link_wait_hist(), [0; LINK_WAIT_BUCKETS]);
    }

    #[test]
    fn identical_history_with_link_contention() {
        // The contention registers must not perturb determinism: an
        // all-to-all burst over a tight 10 MB/s link replays identically
        // from the same seed, waits included.
        let fingerprint = || {
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
            let end = sim.run_until_apps_done(SimTime::from_secs(5)).unwrap();
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
        let first = fingerprint();
        assert!(first.3 > 0, "burst over a 10 MB/s link must queue");
        assert_eq!(first.5.iter().sum::<u64>(), first.3, "every wait is binned");
        assert_eq!(first, fingerprint());
    }

    #[test]
    fn run_until_advances_clock_to_horizon() {
        let mut sim = two_node_cluster();
        sim.boot();
        let horizon = SimTime::from_millis(50);
        let end = sim.run_until(horizon).unwrap();
        assert_eq!(end, horizon);
        assert_eq!(sim.now(), horizon, "clock must land on the horizon");
    }

    #[test]
    fn daemon_idle_windows_widen_without_changing_history() {
        // Short app phase with real cross-node traffic, then a long
        // daemon-only tail: periodic sleepers ticking every 500 µs with
        // nothing to say to other nodes. Once the apps exit, every
        // window may widen past the lookahead — and must do so without
        // perturbing anything observable. The merge path hard-asserts the
        // soundness condition (a widened window staging a cross-shard
        // message panics), so running this at all proves every widened
        // window preceded the earliest cross-shard delivery: after the
        // apps exit there is none.
        let run = || {
            let spec = ClusterSpec {
                nodes: 4,
                cpus_per_node: 2,
                options: SchedOptions::vanilla(),
                skew_max: SimDur::from_millis(1),
                trace_capacity: 1 << 14,
                fabric: FabricModel::default(),
            };
            let mut sim = ClusterSim::build(&spec, &SeedSpace::new(11));
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
            let end = sim.run_until(SimTime::from_millis(20)).unwrap();
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
        let got = run();
        assert!(got.5 > 0, "daemon-only tail widened no windows: {got:?}");
        assert!(got.2 > 0, "app phase routed no cross-node messages");
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
            let t = sim.run_until_apps_done(SimTime::from_secs(1)).unwrap();
            (t, sim.events_processed())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn spec_presets() {
        let v = ClusterSpec::sp_system(59);
        assert_eq!(v.nodes * u32::from(v.cpus_per_node), 944);
        assert_eq!(v.options.big_tick, 1);
    }

    #[test]
    fn window_bounds_handles_max_horizon() {
        let mut sim = two_node_cluster();
        sim.lookahead = SimDur::from_micros(10);
        let mut last = |t_start: SimTime, horizon| sim.plan_window(t_start, horizon, false).0;
        // Ordinary window: last instant = start + lookahead - 1 ns.
        let l = last(SimTime::from_micros(100), SimTime::from_secs(1));
        assert_eq!(l, SimTime::from_nanos(109_999));
        // Clamped to the horizon near it: events *at* the horizon are
        // inside the window.
        let l = last(SimTime::from_nanos(999_999_995), SimTime::from_secs(1));
        assert_eq!(l, SimTime::from_secs(1));
        // At the maximum representable horizon the add saturates, which
        // is exact: the window still holds the final nanosecond.
        let l = last(SimTime::from_nanos(u64::MAX - 5), SimTime::FAR_FUTURE);
        assert_eq!(l, SimTime::FAR_FUTURE, "final window must hold FAR_FUTURE");
        // A start far from the max horizon is unaffected.
        let l = last(SimTime::from_micros(100), SimTime::FAR_FUTURE);
        assert_eq!(l, SimTime::from_nanos(109_999));
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
    fn ring_sim() -> ClusterSim {
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
        let mut base = ring_sim();
        base.boot();
        let end = base.run_until_apps_done(SimTime::from_secs(5)).unwrap();
        let want = fingerprint(&base, end);

        // Interrupted run: advance partway, checkpoint, throw it away.
        let path = tmp_path("manual");
        let mut first = ring_sim();
        first.boot();
        first.run_until(SimTime::from_micros(400)).unwrap();
        let bytes = first.checkpoint(&path).expect("checkpoint");
        assert!(bytes > 0);
        assert_eq!(first.last_checkpoint_bytes(), bytes);
        drop(first);

        // Resume in a rebuilt cluster: the tail must replay to the
        // identical final state (modulo the write counter carried by the
        // snapshot).
        let mut resumed = ring_sim();
        resumed.boot();
        resumed.restore(&path).expect("restore");
        assert_eq!(resumed.checkpoint_restores(), 1);
        let end2 = resumed.run_until_apps_done(SimTime::from_secs(5)).unwrap();
        let mut got = fingerprint(&resumed, end2);
        // The reference never checkpointed; the resumed run carries the
        // interrupted run's single write.
        assert_eq!(got.8, 1);
        got.8 = want.8;
        assert_eq!(got, want);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn periodic_checkpoints_match_uninterrupted_counters() {
        // Reference: periodic checkpointing on, run to completion.
        let every = SimDur::from_micros(300);
        let base_path = tmp_path("periodic-base");
        let mut base = ring_sim();
        base.set_checkpoint_every(every, &base_path);
        base.boot();
        let end = base.run_until_apps_done(SimTime::from_secs(5)).unwrap();
        let want = fingerprint(&base, end);
        assert!(
            base.checkpoints_written() >= 2,
            "workload too short to exercise periodic checkpoints: {}",
            base.checkpoints_written()
        );

        // The file on disk is the *last* periodic checkpoint. Resume from
        // it; the restored schedule must not repeat the write that
        // produced it, so the final counter matches.
        let resumed_path = tmp_path("periodic-resume");
        let mut resumed = ring_sim();
        resumed.set_checkpoint_every(every, &resumed_path);
        resumed.boot();
        resumed.restore(&base_path).expect("restore");
        let end2 = resumed.run_until_apps_done(SimTime::from_secs(5)).unwrap();
        assert_eq!(fingerprint(&resumed, end2), want);
        let _ = std::fs::remove_file(&resumed_path);
        let _ = std::fs::remove_file(&base_path);
    }

    #[test]
    fn restored_schedule_without_rearm_writes_nothing() {
        // The snapshot carries the periodic schedule (its next due time)
        // but not the interval or the file. A run restored from it that
        // never calls `set_checkpoint_every` has nowhere to write: it
        // must write nothing and finish like the uninterrupted run, not
        // fail once the carried due time passes.
        let mut base = ring_sim();
        base.boot();
        let end = base.run_until_apps_done(SimTime::from_secs(5)).unwrap();
        let want = fingerprint(&base, end);

        let path = tmp_path("no-rearm");
        let mut first = ring_sim();
        first.set_checkpoint_every(SimDur::from_micros(300), &path);
        first.boot();
        let mut t = SimTime::ZERO;
        while first.checkpoints_written() == 0 {
            t += SimDur::from_micros(100);
            assert!(t < SimTime::from_millis(5), "no periodic write landed");
            first.run_until(t).unwrap();
        }
        drop(first);

        let mut resumed = ring_sim();
        resumed.boot();
        resumed.restore(&path).expect("restore");
        let end2 = resumed.run_until_apps_done(SimTime::from_secs(5)).unwrap();
        let mut got = fingerprint(&resumed, end2);
        // Only the interrupted run's single write is counted.
        assert_eq!(got.8, 1);
        got.8 = want.8;
        assert_eq!(got, want);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn restore_rejects_corrupt_checkpoint() {
        let path = tmp_path("corrupt");
        let mut sim = ring_sim();
        sim.boot();
        sim.run_until(SimTime::from_micros(200)).unwrap();
        sim.checkpoint(&path).expect("checkpoint");
        // Flip one character inside the hashed payload.
        let text = std::fs::read_to_string(&path).unwrap();
        let idx = text.find("\\\"now\\\"").expect("payload field");
        let mut bytes = text.into_bytes();
        bytes[idx + 2] = b'x';
        std::fs::write(&path, bytes).unwrap();
        let mut fresh = ring_sim();
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
        let err = restore_edited("outbox", |snap| {
            snap.shards[0].router.outbox.push(StagedMsg {
                deliver_at: SimTime::from_micros(150),
                src_node: 0,
                seq: 0,
                dst_node: 1,
                msg: msg(ep(0, 0), ep(1, 0), 1, 8),
            })
        })
        .unwrap_err();
        assert!(err.contains("non-empty outbox"), "unexpected error: {err}");
    }

    /// A booted 2-node, 2-cpu cluster with one 5 ms compute segment on
    /// node 0's cpu 0.
    fn one_segment_cluster() -> ClusterSim {
        let mut sim = two_node_cluster();
        sim.kernel_mut(0).spawn(
            ThreadSpec::new("app", ThreadClass::App, Prio::USER).on_cpu(CpuId(0)),
            Box::new(Script::new(vec![Action::Compute(SimDur::from_millis(5))])),
        );
        sim.boot();
        sim
    }

    /// Checkpoint [`one_segment_cluster`] mid-segment, so node 0's
    /// calendar holds cpu 0's `SegEnd`; rewrite the checkpoint's encoded
    /// state as `edit` leaves it, re-hashed so it passes the integrity
    /// check; and restore it into a fresh copy of the cluster. Editing the
    /// encoding reaches what no typed snapshot can hold, such as an array
    /// of the wrong length.
    fn restore_edited_value(name: &str, edit: impl FnOnce(&mut Value)) -> Result<(), String> {
        let path = tmp_path(name);
        let mut sim = one_segment_cluster();
        sim.run_until(SimTime::from_micros(100)).unwrap();
        sim.checkpoint(&path).expect("checkpoint");
        let text = std::fs::read_to_string(&path).expect("read");
        let mut file = serde_json::parse(&text).expect("file");
        let payload = entry(&mut file, "payload")
            .as_str()
            .expect("payload string");
        let mut payload = serde_json::parse(payload).expect("payload");
        let mut state = entry(&mut payload, "state").clone();
        let Value::Map(extras) = entry(&mut payload, "extras").clone() else {
            panic!("extras is not a map");
        };
        edit(&mut state);
        write_checkpoint_file(&path, state, extras).expect("rewrite");
        let mut fresh = one_segment_cluster();
        let r = fresh.restore(&path).map(|_| ());
        if r.is_err() {
            assert_eq!(fresh.checkpoint_restores(), 0);
        }
        let _ = std::fs::remove_file(&path);
        r
    }

    /// [`restore_edited_value`] through the typed snapshot.
    fn restore_edited(name: &str, edit: impl FnOnce(&mut ClusterSnap)) -> Result<(), String> {
        restore_edited_value(name, |state| {
            let mut snap = ClusterSnap::from_value(state).expect("decode");
            edit(&mut snap);
            *state = snap.to_value();
        })
    }

    /// The value under `key` in the encoded map `v`.
    fn entry<'v>(v: &'v mut Value, key: &str) -> &'v mut Value {
        let Value::Map(pairs) = v else {
            panic!("`{key}`'s parent is not a map");
        };
        let pair = pairs.iter_mut().find(|(k, _)| k == key);
        &mut pair.unwrap_or_else(|| panic!("no `{key}`")).1
    }

    /// Node 0's kernel in an encoded cluster state.
    fn kernel0(state: &mut Value) -> &mut Value {
        let Value::Seq(shards) = entry(state, "shards") else {
            panic!("shards is not a sequence");
        };
        entry(&mut shards[0], "kernel")
    }

    #[test]
    fn restore_rejects_wrong_length_band_counters() {
        for (band, len) in [("runq_wait_ns", 3), ("runq_waits", 5)] {
            let err = restore_edited_value(band, |state| {
                let stats = entry(kernel0(state), "stats");
                *entry(stats, band) = Value::Seq(vec![Value::UInt(0); len]);
            })
            .unwrap_err();
            let want = format!("stats: {band}: array has {len} elements, expected 4");
            assert!(err.contains(&want), "unexpected error: {err}");
        }
    }

    #[test]
    fn restore_rejects_retired_io_fields_that_hold_state() {
        let kernel_fields = [
            ("io_pending", Value::Seq(vec![Value::UInt(1)]), "[]", "[1]"),
            ("io_next_token", Value::UInt(3), "0", "3"),
        ];
        for (field, value, want, found) in kernel_fields {
            let err = restore_edited_value(field, |state| *entry(kernel0(state), field) = value)
                .unwrap_err();
            let msg = format!("{field}: retired field must be {want}, found {found}");
            assert!(err.contains(&msg), "unexpected error: {err}");
        }
        let err = restore_edited_value("blk_io", |state| {
            let Value::Seq(threads) = entry(kernel0(state), "threads") else {
                panic!("threads is not a sequence");
            };
            *entry(&mut threads[0], "blk_io") = Value::UInt(5);
        })
        .unwrap_err();
        let msg = "blk_io: retired field must be 0, found 5";
        assert!(err.contains(msg), "unexpected error: {err}");
    }

    #[test]
    fn restore_rejects_wrong_length_link_wait_hist() {
        let len = LINK_WAIT_BUCKETS + 1;
        let err = restore_edited_value("hist", |state| {
            let Value::Seq(shards) = entry(state, "shards") else {
                panic!("shards is not a sequence");
            };
            *entry(&mut shards[1], "link_wait_hist") = Value::Seq(vec![Value::UInt(0); len]);
        })
        .unwrap_err();
        let want =
            format!("link_wait_hist: array has {len} elements, expected {LINK_WAIT_BUCKETS}");
        assert!(err.contains(&want), "unexpected error: {err}");
    }

    #[test]
    fn restore_rejects_ready_queue_seq_at_allocator() {
        let mut next_seq = None;
        let err = restore_edited_value("runq-seq", |state| {
            let q = entry(kernel0(state), "global_q");
            let n = entry(q, "next_seq").as_u64().expect("next_seq");
            // (dispatch key, arrival seq, tid): thread 0 queued at the
            // allocator's own next value.
            let e = Value::Seq(vec![Value::UInt(60), Value::UInt(n), Value::UInt(0)]);
            *entry(q, "entries") = Value::Seq(vec![e]);
            next_seq = Some(n);
        })
        .unwrap_err();
        let n = next_seq.expect("edit ran");
        let want = format!("global_q: ready-queue seq {n} not below the allocator {n}");
        assert!(err.contains(&want), "unexpected error: {err}");
    }

    #[test]
    fn restore_rejects_bad_segment_timers() {
        // Each CPU has at most one live `SegEnd`, armed in its timer
        // slot. A second one for the same CPU, or one naming a CPU the
        // node does not have, must be refused by name: a release build
        // would otherwise keep an entry nothing can cancel, or panic.
        let seg_end = |snap: &ClusterSnap| {
            let entries = &snap.shards[0].node_loop.queue_entries;
            let seg = entries
                .iter()
                .find(|(_, _, ev)| matches!(ev, KernelEvent::SegEnd { .. }));
            seg.cloned().expect("node 0 is mid-segment")
        };
        assert_eq!(restore_edited("seg-ok", |_| {}), Ok(()));

        let err = restore_edited("seg-twice", |snap| {
            let (t, _, ev) = seg_end(snap);
            let node_loop = &mut snap.shards[0].node_loop;
            node_loop
                .queue_entries
                .push((t, node_loop.queue_next_id, ev));
            node_loop.queue_next_id += 1;
        })
        .unwrap_err();
        assert!(
            err.contains("node 0") && err.contains("timer 0 holds two pending events"),
            "unexpected error: {err}"
        );

        let err = restore_edited("seg-cpu", |snap| {
            let (t, id, _) = seg_end(snap);
            let entries = &mut snap.shards[0].node_loop.queue_entries;
            entries.retain(|&(_, i, _)| i != id);
            let ev = KernelEvent::SegEnd {
                cpu: CpuId(7),
                token: 0,
            };
            entries.push((t, id, ev));
        })
        .unwrap_err();
        assert!(
            err.contains("node 0") && err.contains("timer 7 out of range"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn restore_rejects_bad_fifo_floors() {
        // FIFO floors are a node-sorted pair list; restore moves it in as
        // is, so an unsorted, duplicated or out-of-range node is refused.
        let t = SimTime::from_micros(10);
        for (floors, want) in [
            (
                vec![(1, t), (0, t)],
                "FIFO floors out of node order: node 0 after node 1",
            ),
            (vec![(1, t), (1, t)], "duplicate FIFO floor for node 1"),
            (vec![(0, t), (2, t)], "FIFO floor for nonexistent node 2"),
        ] {
            let err = restore_edited("floors", |snap| {
                snap.shards[0].router.last_delivery = floors
            })
            .unwrap_err();
            assert!(err.contains(want), "unexpected error: {err}");
        }
        let ok = vec![(0, t), (1, t)];
        assert_eq!(
            restore_edited("floors-ok", |snap| snap.shards[0].router.last_delivery = ok),
            Ok(())
        );
    }

    /// SHA-256 of the file `ring_sim` checkpoints 1 ms into its run: by
    /// then every node has sent, so the file holds link waits, FIFO
    /// floors, ready queues and live calendars. The digest was recorded
    /// when each engine struct still had a mirror checkpoint struct; it
    /// pins the checkpoint's bytes, which a round trip does not (two
    /// fields swapped in both encoder and decoder still round-trip).
    #[test]
    fn checkpoint_bytes_known_answer() {
        let path = tmp_path("known-answer");
        let mut sim = ring_sim();
        sim.boot();
        sim.run_until(SimTime::from_millis(1)).unwrap();
        assert!(sim.link_waits() > 0 && sim.apps_alive() > 0);
        sim.checkpoint(&path).expect("checkpoint");
        let digest = sha256_hex(&std::fs::read(&path).expect("read back"));
        let _ = std::fs::remove_file(&path);
        assert_eq!(
            digest,
            "562af29986c28ebcd6621d98d1e3ae15a82065e4c24daae170a23bc6d5ca9ed3"
        );
    }

    #[test]
    fn restore_rejects_node_count_mismatch() {
        let path = tmp_path("shape");
        let mut sim = ring_sim();
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
        sim.run_until(horizon).unwrap();

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
        assert_eq!(sim.now(), solo.now());
    }

    #[test]
    #[should_panic(expected = "daemon-idle window staged a cross-shard message")]
    fn daemon_cross_node_send_trips_the_idle_window_assert() {
        // A daemon that sends cross-node breaks the daemon-idle widening
        // invariant; the merge-time assert must catch it.
        let mut sim = two_node_cluster();
        sim.kernel_mut(0).spawn(
            ThreadSpec::new("chatty", ThreadClass::Daemon, Prio::USER).on_cpu(CpuId(0)),
            Box::new(Script::new(vec![
                Action::Compute(SimDur::from_micros(50)),
                Action::Send(msg(ep(0, 0), ep(1, 0), 1, 8)),
            ])),
        );
        sim.boot();
        let _ = sim.run_until(SimTime::from_millis(1));
    }

    /// A 4-node workload with one artificially hot shard: node 0's rank
    /// computes ~50× longer per round than the others.
    fn skewed_sim() -> ClusterSim {
        let spec = ClusterSpec {
            nodes: 4,
            cpus_per_node: 2,
            options: SchedOptions::vanilla(),
            skew_max: SimDur::from_millis(1),
            trace_capacity: 1 << 14,
            fabric: FabricModel::default(),
        };
        let mut sim = ClusterSim::build(&spec, &SeedSpace::new(23));
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
    fn serial_engine_accounts_shard_busy_time() {
        let mut sim = skewed_sim();
        sim.boot();
        sim.run_until_apps_done(SimTime::from_secs(1)).unwrap();
        assert!(sim.shard_busy_ns() > 0);
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

        // Due exactly at t_start: the window holds only t_start, so the
        // barrier lands 1 ns past the due time, not lookahead ns past.
        sim.next_checkpoint_at = Some(t0);
        let (last, idle) = sim.plan_window(t0, horizon, true);
        assert!(idle);
        assert_eq!(last, t0, "barrier must hug the due time");
        assert!(sim.checkpoint_due(last));

        // Due inside the lookahead: the barrier lands exactly on it.
        let due = SimTime::from_nanos(t0.nanos() + la / 2);
        sim.next_checkpoint_at = Some(due);
        let (last, idle) = sim.plan_window(t0, horizon, true);
        assert!(idle);
        assert_eq!(
            last.nanos() + 1,
            due.nanos(),
            "barrier must land exactly on the due time"
        );
        assert!(sim.checkpoint_due(last));

        // Shortened windows are not "widened": the counter tracks only
        // genuine fast-forwards.
        assert_eq!(sim.widened_windows(), 0);

        // No checkpoint armed: the idle window widens to the horizon.
        sim.next_checkpoint_at = None;
        let (last, idle) = sim.plan_window(t0, horizon, true);
        assert!(idle);
        assert_eq!(last, horizon);
        assert_eq!(sim.widened_windows(), 1);

        // Busy (non-idle) windows ignore the cap entirely: shrinking one
        // would change which cross-shard messages share a barrier, which
        // is history-visible under finite link bandwidth.
        sim.next_checkpoint_at = Some(t0);
        let (last, idle) = sim.plan_window(t0, horizon, false);
        assert!(!idle);
        assert_eq!(
            last.nanos(),
            t0.nanos() + la - 1,
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
        // sliding past it.
        let run = || {
            let spec = ClusterSpec {
                nodes: 4,
                cpus_per_node: 2,
                options: SchedOptions::vanilla(),
                skew_max: SimDur::from_millis(1),
                trace_capacity: 1 << 14,
                fabric: FabricModel::default(),
            };
            let mut sim = ClusterSim::build(&spec, &SeedSpace::new(11));
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
            let path = tmp_path("cadence");
            sim.set_checkpoint_every(SimDur::from_millis(1), &path);
            sim.boot();
            let end = sim.run_until(SimTime::from_millis(20)).unwrap();
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
        let got = run();
        // ~20 ms of daemon activity at a 1 ms interval: nearly every
        // multiple has events around it, so nearly every multiple must
        // get its own checkpoint (a broken cap collapses the tail into a
        // handful of tick-batched writes).
        assert!(
            got.2 >= 15,
            "checkpoint cadence broke through the daemon-idle stretch: {got:?}"
        );
        assert!(got.4 > 0, "daemon tail widened no windows: {got:?}");
    }

    /// One run of the sparse-activity scenario: 32 nodes with a periodic
    /// daemon everywhere, a ping-pong app pair on nodes 0 and 1, and,
    /// between two `run_until` calls, a thread spawned on idle node 20
    /// that round-trips a message through a blocked listener on idle node
    /// 21, plus a message injected to a listener on idle node 22. Most
    /// windows therefore have a few due shards out of 32. The run is
    /// checkpointed at the 2 ms barrier, finished, then restored from
    /// that checkpoint and finished again; both tails must match. Returns
    /// the shard claims of the uninterrupted run and its window count.
    fn sparse_run() -> (u64, u64) {
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
        sim.run_until(SimTime::from_micros(1_300)).unwrap();
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
        sim.run_until(SimTime::from_millis(2)).unwrap();
        let path = tmp_path("sparse");
        sim.checkpoint(&path).expect("checkpoint");
        let finish = |sim: &mut ClusterSim| {
            let end = sim.run_until(SimTime::from_millis(10)).unwrap();
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
        let want = finish(&mut sim);
        let (claims, windows) = (sim.shard_claims(), sim.windows_run());
        sim.restore(&path).expect("restore");
        assert_eq!(finish(&mut sim), want, "restored tail diverged");
        let _ = std::fs::remove_file(&path);
        (claims, windows)
    }

    #[test]
    fn sparse_activity_claims_only_due_shards() {
        let (claims, windows) = sparse_run();
        assert!(
            claims < windows * 32,
            "{claims} claims over {windows} windows: idle shards were visited"
        );
        assert_eq!(
            sparse_run(),
            (claims, windows),
            "claims must repeat exactly"
        );
    }
}
