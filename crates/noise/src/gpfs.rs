//! The GPFS client daemon (mmfsd) as an I/O server.
//!
//! mmfsd plays two roles in the study:
//!
//! 1. **I/O service** — applications' reads and restart dumps complete
//!    only when mmfsd gets CPU time (§4's "escape mechanism" discussion
//!    and §5.3's ALE3D I/O-starvation finding).
//! 2. **Background interference** — GPFS housekeeping shows up in the
//!    Allreduce traces like any other daemon (modeled separately with a
//!    [`DaemonSpec`](crate::daemons::DaemonSpec)).
//!
//! This module implements role 1: [`GpfsServer`] answers
//! [`ioproto`](pa_kernel::msg::ioproto) requests, burning the
//! [`IoServiceModel`] service time for each before it replies.

use pa_kernel::{Action, Program, StepCtx};
use pa_simkit::SimDur;
use serde::value::Value;
use serde::{Deserialize, Serialize};

/// Service-time model for mmfsd.
///
/// `service_time = per_request + bytes * per_byte`. The defaults model a
/// GPFS-like parallel filesystem client: ~200 µs of per-request daemon work
/// plus ~1 µs per 4 KiB block (disk/server latency is folded into the
/// per-request term; what matters to the study is *daemon CPU demand*).
#[derive(Debug, Clone, Copy)]
pub struct IoServiceModel {
    /// Fixed daemon CPU demand per request, nanoseconds.
    pub per_request_ns: u64,
    /// Additional demand per byte, nanoseconds (fractional via f64).
    pub per_byte_ns: f64,
}

impl Default for IoServiceModel {
    fn default() -> Self {
        IoServiceModel {
            per_request_ns: 200_000,    // 200 µs
            per_byte_ns: 0.25e-3 * 1e3, // 0.25 ns/byte ≈ 1 µs per 4 KiB
        }
    }
}

impl IoServiceModel {
    /// Daemon CPU demand to service one request.
    pub fn service_time(&self, bytes: u64) -> SimDur {
        let extra = (bytes as f64 * self.per_byte_ns) as u64;
        SimDur::from_nanos(self.per_request_ns + extra)
    }
}

/// Message-served GPFS daemon (the cluster configuration).
///
/// Ranks send [`ioproto`](pa_kernel::msg::ioproto) requests — possibly
/// from *other nodes* (GPFS metanode/NSD-server semantics) — and block on
/// the reply. The daemon services requests FIFO: for each, it burns the
/// service-time CPU demand at its own dispatching priority, then replies.
/// If the favored parallel job monopolizes every CPU of this node, the
/// request (and the remote, blocked rank) waits — the §5.3 cascade.
#[derive(Debug)]
pub struct GpfsServer {
    model: IoServiceModel,
    /// Extra per-request latency (disk / NSD round trips).
    pub extra_latency: SimDur,
    /// Reply being prepared (service burst already issued).
    reply: Option<pa_kernel::Message>,
    serviced: u64,
}

impl GpfsServer {
    /// New server with the given service-time model.
    pub fn new(model: IoServiceModel) -> GpfsServer {
        GpfsServer {
            model,
            extra_latency: SimDur::from_micros(300),
            reply: None,
            serviced: 0,
        }
    }

    /// Requests completed.
    pub fn serviced(&self) -> u64 {
        self.serviced
    }
}

impl Program for GpfsServer {
    fn step(&mut self, ctx: &mut StepCtx) -> Action {
        use pa_kernel::msg::ioproto;
        use pa_kernel::{SrcSel, TagSel, WaitMode};
        if let Some(reply) = self.reply.take() {
            self.serviced += 1;
            return Action::Send(reply);
        }
        if let Some(req) = ctx.try_received() {
            if let Some((token, true)) = ioproto::parse(req.tag) {
                let bytes = req.payload;
                let demand = self.model.service_time(bytes) + self.extra_latency;
                self.reply = Some(pa_kernel::Message {
                    src: req.dst,
                    dst: req.src,
                    tag: ioproto::resp_tag(token),
                    bytes: 64,
                    sent_at: pa_simkit::SimTime::ZERO,
                    payload: bytes,
                });
                return Action::Compute(demand);
            }
            // Stray message: ignore and wait for the next request.
        }
        Action::Recv {
            tag: TagSel::Any,
            src: SrcSel::Any,
            wait: WaitMode::Block,
        }
    }

    fn kind(&self) -> &'static str {
        "mmfsd"
    }

    fn snapshot_state(&self) -> Value {
        (self.reply.clone(), self.extra_latency, self.serviced).to_value()
    }

    fn restore_state(&mut self, state: &Value) -> Result<(), serde::Error> {
        type Snap = (Option<pa_kernel::Message>, SimDur, u64);
        let (reply, extra, serviced): Snap = Deserialize::from_value(state)?;
        self.reply = reply;
        self.extra_latency = extra;
        self.serviced = serviced;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pa_kernel::msg::ioproto;
    use pa_kernel::{
        Action as A, ClockModel, CpuId, Endpoint, Kernel, Message, Prio, SchedOptions, Script,
        SoloRunner, SrcSel, TagSel, ThreadSpec, ThreadState, Tid, WaitMode,
    };
    use pa_simkit::{SimRng, SimTime};
    use pa_trace::{HookMask, ThreadClass};

    /// When an app on a one-CPU node gets the reply to a `bytes` request
    /// from the node's mmfsd. With `hog`, a favored thread sleeps until
    /// the first tick (10 ms) and then computes for 50 ms on that CPU.
    fn reply_at(bytes: u64, hog: bool) -> SimTime {
        let mut k = Kernel::new(
            0,
            1,
            SchedOptions::vanilla(),
            ClockModel::synced(),
            SimRng::from_seed(3),
            1 << 14,
        );
        k.trace_mut().set_mask(HookMask::NONE);
        let app = k.spawn(
            ThreadSpec::new("app", ThreadClass::App, Prio::USER).on_cpu(CpuId(0)),
            Box::new(Script::new(vec![
                A::Send(Message {
                    src: Endpoint {
                        node: 0,
                        tid: Tid(0),
                    },
                    dst: Endpoint {
                        node: 0,
                        tid: Tid(1),
                    },
                    tag: ioproto::req_tag(0),
                    bytes: 64,
                    sent_at: SimTime::ZERO,
                    payload: bytes,
                }),
                A::Recv {
                    tag: TagSel::Exact(ioproto::resp_tag(0)),
                    src: SrcSel::Any,
                    wait: WaitMode::Block,
                },
            ])),
        );
        k.spawn(
            ThreadSpec::new("mmfsd", ThreadClass::Daemon, Prio::MMFSD).on_cpu(CpuId(0)),
            Box::new(GpfsServer::new(IoServiceModel::default())),
        );
        if hog {
            k.spawn(
                ThreadSpec::new("hog", ThreadClass::Daemon, Prio::FAVORED).on_cpu(CpuId(0)),
                Box::new(Script::new(vec![
                    A::SleepUntil(SimTime::from_millis(1)),
                    A::Compute(SimDur::from_millis(50)),
                ])),
            );
        }
        let mut r = SoloRunner::new(k);
        r.boot();
        let end = r.run_until_apps_done(SimTime::from_secs(2));
        assert_eq!(r.kernel.thread_state(app), ThreadState::Exited);
        end
    }

    #[test]
    fn service_time_scales_with_bytes() {
        let m = IoServiceModel::default();
        let small = m.service_time(0);
        let big = m.service_time(1 << 20);
        assert_eq!(small, SimDur::from_micros(200));
        assert!(big > small);
        // 1 MiB at 0.25 ns/byte = 262144 ns extra.
        assert_eq!(big, SimDur::from_nanos(200_000 + 262_144));
    }

    #[test]
    fn custom_model() {
        let m = IoServiceModel {
            per_request_ns: 1_000,
            per_byte_ns: 1.0,
        };
        assert_eq!(m.service_time(500), SimDur::from_nanos(1_500));
    }

    #[test]
    fn service_time_scales_with_size() {
        assert!(reply_at(64 << 20, false) > reply_at(4 << 10, false));
    }

    #[test]
    fn starved_daemon_stalls_io() {
        // The ALE3D §5.3 mechanism in miniature: a 64 MiB request is in
        // service (~17 ms of mmfsd CPU) when a thread favored above mmfsd
        // wakes on the server's only CPU. The reply waits for the hog.
        let quiet = reply_at(64 << 20, false);
        assert!(
            quiet < SimTime::from_millis(20),
            "unstarved reply at {quiet}"
        );
        let starved = reply_at(64 << 20, true);
        assert!(
            starved >= quiet + SimDur::from_millis(50),
            "reply at {starved} did not wait for the hog (unstarved {quiet})"
        );
    }
}
#[cfg(test)]
mod server_tests {
    use super::*;
    use pa_kernel::msg::ioproto;
    use pa_kernel::{
        Action as A, ClockModel, CpuId, Endpoint, Kernel, Message, Prio, SchedOptions, Script,
        SoloRunner, SrcSel, TagSel, ThreadSpec, ThreadState, Tid, WaitMode,
    };
    use pa_simkit::{SimRng, SimTime};
    use pa_trace::{HookMask, ThreadClass};

    #[test]
    fn message_request_gets_reply() {
        let mut k = Kernel::new(
            0,
            2,
            SchedOptions::vanilla(),
            ClockModel::synced(),
            SimRng::from_seed(3),
            1 << 14,
        );
        k.trace_mut().set_mask(HookMask::ALL);
        let server_ep = Endpoint {
            node: 0,
            tid: Tid(1),
        };
        let app = k.spawn(
            ThreadSpec::new("app", ThreadClass::App, Prio::USER).on_cpu(CpuId(0)),
            Box::new(Script::new(vec![
                A::Send(Message {
                    src: Endpoint {
                        node: 0,
                        tid: Tid(0),
                    },
                    dst: server_ep,
                    tag: ioproto::req_tag(7),
                    bytes: 64,
                    sent_at: SimTime::ZERO,
                    payload: 1 << 20,
                }),
                A::Recv {
                    tag: TagSel::Exact(ioproto::resp_tag(7)),
                    src: SrcSel::Any,
                    wait: WaitMode::Block,
                },
            ])),
        );
        k.spawn(
            ThreadSpec::new("mmfsd", ThreadClass::Daemon, Prio::MMFSD).on_cpu(CpuId(1)),
            Box::new(GpfsServer::new(IoServiceModel::default())),
        );
        let mut r = SoloRunner::new(k);
        r.boot();
        let end = r.run_until_apps_done(SimTime::from_secs(2));
        assert_eq!(r.kernel.thread_state(app), ThreadState::Exited);
        // Service time for 1 MiB ≈ 200µs + 262µs + 300µs extra ≈ 760µs.
        assert!(end >= SimTime::from_micros(700), "too fast: {end}");
        assert!(end < SimTime::from_millis(5), "too slow: {end}");
    }

    #[test]
    fn requests_are_serviced_fifo() {
        // Two requests from two apps; both must complete.
        let mut k = Kernel::new(
            0,
            4,
            SchedOptions::vanilla(),
            ClockModel::synced(),
            SimRng::from_seed(3),
            1 << 14,
        );
        k.trace_mut().set_mask(HookMask::NONE);
        let server_ep = Endpoint {
            node: 0,
            tid: Tid(2),
        };
        for i in 0..2u32 {
            k.spawn(
                ThreadSpec::new(format!("app{i}"), ThreadClass::App, Prio::USER)
                    .on_cpu(CpuId(i as u8)),
                Box::new(Script::new(vec![
                    A::Send(Message {
                        src: Endpoint {
                            node: 0,
                            tid: Tid(i),
                        },
                        dst: server_ep,
                        tag: ioproto::req_tag(u64::from(i)),
                        bytes: 64,
                        sent_at: SimTime::ZERO,
                        payload: 4096,
                    }),
                    A::Recv {
                        tag: TagSel::Exact(ioproto::resp_tag(u64::from(i))),
                        src: SrcSel::Any,
                        wait: WaitMode::Block,
                    },
                ])),
            );
        }
        k.spawn(
            ThreadSpec::new("mmfsd", ThreadClass::Daemon, Prio::MMFSD).on_cpu(CpuId(3)),
            Box::new(GpfsServer::new(IoServiceModel::default())),
        );
        let mut r = SoloRunner::new(k);
        r.boot();
        r.run_until_apps_done(SimTime::from_secs(2));
        assert_eq!(r.kernel.app_alive(), 0);
    }
}
