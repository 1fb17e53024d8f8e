//! # pa-kernel — the simulated SMP-node operating system
//!
//! Policy-level model of an AIX-like kernel on a 16-way SMP node, built
//! for the PACE reproduction of Jones et al., SC'03. It implements the
//! *mechanisms* the paper modifies:
//!
//! * priority dispatching with per-CPU and global run queues
//!   ([`ReadyQueue`], [`DaemonQueuePolicy`]);
//! * periodic timer ticks with staggered or simultaneous phasing and the
//!   "big tick" divisor ([`SchedOptions`], [`TickAlign`]);
//! * delayed cross-CPU preemption, the "real time scheduling" IPI option,
//!   and the paper's improved variant with reverse preemption and
//!   concurrent IPIs ([`PreemptMode`]);
//! * tick-batched timer callouts (daemon wakeups);
//! * busy-poll and blocking receives with MPI-envelope matching
//!   ([`Mailbox`]);
//! * an I/O request path serviced by a daemon thread ([`IoServiceModel`]);
//! * device-interrupt noise sources ([`InterruptSourceSpec`]);
//! * per-node clocks with switch-clock synchronization ([`ClockModel`]).
//!
//! Thread behaviour is supplied by [`Program`] implementations; see
//! `pa-noise` for the daemon zoo and `pa-mpi` for MPI ranks.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod clock;
pub mod dispatch;
pub mod interrupts;
pub mod io;
pub mod kernel;
pub mod msg;
pub mod options;
pub mod program;
pub mod runq;
pub mod solo;
pub mod types;

pub use clock::ClockModel;
pub use dispatch::{make_dispatcher, prio_to_weight, Dispatcher};
pub use interrupts::InterruptSourceSpec;
pub use io::{IoRequest, IoServiceModel};
pub use kernel::{
    prio_band, Kernel, KernelEvent, KernelSnapshot, KernelStats, ThreadAccount, ThreadSpec,
    UsageRow, RUNQ_BANDS,
};
pub use msg::{Endpoint, Mailbox, Message, SrcSel, TagSel};
pub use options::{CostModel, SchedOptions};
pub use program::{Action, PeriodicLoop, Program, Script, StepCtx, WaitMode};
pub use runq::{DispatchKey, ReadyQueue};
pub use solo::{NodeLoop, NodeSnap, Route, SoloRunner};
pub use types::TickAlign;
pub use types::{
    CpuId, DaemonQueuePolicy, DispatcherKind, PreemptMode, Prio, QueueDiscipline, ThreadState, Tid,
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::Effects;
    use pa_simkit::{SimDur, SimRng, SimTime};
    use pa_trace::{HookId, HookMask, ThreadClass};

    fn mk_kernel(ncpus: u8, opts: SchedOptions) -> Kernel {
        let mut k = Kernel::new(
            0,
            ncpus,
            opts,
            ClockModel::synced(),
            SimRng::from_seed(7),
            1 << 16,
        );
        k.trace_mut().set_mask(HookMask::ALL);
        k
    }

    fn app_spec(name: &str, cpu: u8) -> ThreadSpec {
        ThreadSpec::new(name, ThreadClass::App, Prio::USER).on_cpu(CpuId(cpu))
    }

    #[test]
    fn single_compute_thread_runs_and_exits() {
        let mut k = mk_kernel(1, SchedOptions::vanilla());
        let tid = k.spawn(
            app_spec("app", 0),
            Box::new(Script::new(vec![Action::Compute(SimDur::from_millis(3))])),
        );
        let mut r = SoloRunner::new(k);
        r.boot();
        let end = r.run_until_apps_done(SimTime::from_secs(1));
        assert_eq!(r.kernel.app_alive(), 0);
        assert_eq!(r.kernel.thread_state(tid), ThreadState::Exited);
        // 3ms of demand plus ctx switch plus one 10ms-tick steal at most.
        assert!(end >= SimTime::from_millis(3));
        assert!(end < SimTime::from_millis(4), "took {end}");
        // CPU time should be demand + overheads, close to wall time here.
        let cpu_t = r.kernel.thread_cpu_time(tid);
        assert!(cpu_t >= SimDur::from_millis(3));
    }

    #[test]
    fn tick_cost_extends_segments() {
        // A 100ms compute on a vanilla kernel crosses ~10 ticks; each
        // steals tick_cost, so wall time exceeds demand accordingly.
        let mut k = mk_kernel(1, SchedOptions::vanilla());
        k.spawn(
            app_spec("app", 0),
            Box::new(Script::new(vec![Action::Compute(SimDur::from_millis(100))])),
        );
        let mut r = SoloRunner::new(k);
        r.boot();
        let end = r.run_until_apps_done(SimTime::from_secs(1));
        let min_expected = SimTime::from_nanos(100_000_000 + 9 * 5_000);
        assert!(end >= min_expected, "no tick stealing observed: {end}");
    }

    #[test]
    fn big_tick_reduces_tick_overhead() {
        let run = |opts: SchedOptions| {
            let mut k = mk_kernel(1, opts);
            k.spawn(
                app_spec("app", 0),
                Box::new(Script::new(vec![Action::Compute(SimDur::from_secs(2))])),
            );
            let mut r = SoloRunner::new(k);
            r.boot();
            r.run_until_apps_done(SimTime::from_secs(10)).nanos()
        };
        let vanilla = run(SchedOptions::vanilla());
        let mut big = SchedOptions::vanilla();
        big.big_tick = 25;
        let big_t = run(big);
        assert!(
            big_t < vanilla,
            "big tick should reduce overhead: {big_t} vs {vanilla}"
        );
    }

    #[test]
    fn better_priority_preempts_at_tick_lazy() {
        // App running; daemon readied by callout mid-tick-period. Under
        // Lazy preemption the daemon waits for the tick, then preempts.
        let mut k = mk_kernel(1, SchedOptions::vanilla());
        let app = k.spawn(
            app_spec("app", 0),
            Box::new(Script::new(vec![Action::Compute(SimDur::from_millis(50))])),
        );
        let daemon = k.spawn(
            ThreadSpec::new("syncd", ThreadClass::Daemon, Prio::DAEMON_OBSERVED).on_cpu(CpuId(0)),
            Box::new(Script::new(vec![
                Action::SleepUntil(SimTime::from_millis(12)),
                Action::Compute(SimDur::from_millis(2)),
            ])),
        );
        let mut r = SoloRunner::new(k);
        r.boot();
        r.run_until(SimTime::from_millis(25));
        // At 25ms: daemon woke at the 20ms tick (12ms rounded up to tick
        // processing), preempted the app immediately (same-tick resched),
        // ran 2ms, exited. The app should be running again.
        assert_eq!(r.kernel.thread_state(daemon), ThreadState::Exited);
        assert_eq!(r.kernel.running_on(CpuId(0)), Some(app));
        let daemon_cpu = r.kernel.thread_cpu_time(daemon);
        assert!(daemon_cpu >= SimDur::from_millis(2));
    }

    #[test]
    fn message_wake_is_interrupt_driven() {
        // A blocked daemon woken by a message mid-tick-period dispatches
        // before the next tick when it beats the running thread — message
        // wakeups do not ride the callout queue.
        let mut k = mk_kernel(1, SchedOptions::vanilla());
        let sender = k.spawn(
            app_spec("sender", 0),
            Box::new(Script::new(vec![
                Action::Compute(SimDur::from_millis(3)),
                Action::Send(Message {
                    src: Endpoint {
                        node: 0,
                        tid: Tid(0),
                    },
                    dst: Endpoint {
                        node: 0,
                        tid: Tid(1),
                    },
                    tag: 1,
                    bytes: 8,
                    sent_at: SimTime::ZERO,
                    payload: 0,
                }),
                Action::Compute(SimDur::from_millis(40)),
            ])),
        );
        let daemon = k.spawn(
            ThreadSpec::new("waker", ThreadClass::Daemon, Prio::DAEMON_OBSERVED).on_cpu(CpuId(0)),
            Box::new(Script::new(vec![
                Action::Recv {
                    tag: TagSel::Exact(1),
                    src: SrcSel::Any,
                    wait: WaitMode::Block,
                },
                Action::Compute(SimDur::from_micros(100)),
            ])),
        );
        let _ = sender;
        let mut r = SoloRunner::new(k);
        r.boot();
        r.run_until(SimTime::from_millis(30));
        let first_dispatch = r
            .kernel
            .trace()
            .events()
            .filter(|e| e.hook == HookId::Dispatch && e.tid == daemon.0)
            .map(|e| e.time)
            .nth(1) // 0th is the initial boot dispatch into Recv
            .expect("daemon redispatched after wake");
        // Wake happened ~3ms (send), lazy preemption notices at the 10ms
        // tick at the latest; critically NOT at 20ms+ (i.e. it did not
        // miss the first tick).
        assert!(
            first_dispatch <= SimTime::from_millis(10),
            "daemon dispatched at {first_dispatch}"
        );
    }

    #[test]
    fn reverse_preemption_needs_improved_mode() {
        // App A (USER) runs; app B (USER) waits in queue. A's priority is
        // lowered to UNFAVORED by a cosched-like daemon. Improved mode
        // IPIs within ~300µs; plain RtIpi waits for the next tick.
        let run = |preempt: PreemptMode| {
            let mut opts = SchedOptions::vanilla();
            opts.preempt = preempt;
            let mut k = mk_kernel(1, opts);
            let a = k.spawn(
                app_spec("a", 0),
                Box::new(Script::new(vec![Action::Compute(SimDur::from_millis(50))])),
            );
            let b = k.spawn(
                app_spec("b", 0),
                Box::new(Script::new(vec![Action::Compute(SimDur::from_millis(1))])),
            );
            // A cosched-style actor that lowers A's priority at ~2ms.
            // SleepUntil wakes at the tick *after* 2ms: with vanilla 10ms
            // staggered ticks on 1 CPU that is the 10ms tick, so use a
            // direct set_priority call instead, injected via a Script
            // running at COSCHED priority woken by message... simplest:
            // drive the kernel directly below.
            let mut r = SoloRunner::new(k);
            r.boot();
            r.run_until(SimTime::from_millis(2));
            let mut fx = Effects::default();
            r.kernel
                .set_priority(a, Prio::UNFAVORED, SimTime::from_millis(2), &mut fx);
            // Feed any scheduled IPIs through the kernel at their time.
            let mut pending = fx.schedule;
            pending.sort_by_key(|(t, _)| *t);
            for (t, ev) in pending {
                r.run_until(t);
                let mut fx2 = Effects::default();
                r.kernel.handle(t, ev, &mut fx2);
                for (t2, ev2) in fx2.schedule {
                    // Only SegEnd rescheduling for the preempted thread can
                    // appear; replay it inline as well.
                    r.run_until(t2);
                    let mut fx3 = Effects::default();
                    r.kernel.handle(t2, ev2, &mut fx3);
                    assert!(fx3.schedule.iter().all(|(t3, _)| *t3 > t2));
                }
            }
            r.run_until(SimTime::from_millis(30));
            let first = r
                .kernel
                .trace()
                .events()
                .find(|e| e.hook == HookId::Dispatch && e.tid == b.0)
                .map(|e| e.time);
            first
        };
        let improved = run(PreemptMode::RtIpiImproved).expect("b ran (improved)");
        let plain = run(PreemptMode::RtIpi).expect("b ran (plain)");
        assert!(
            improved < SimTime::from_millis(3),
            "improved reverse preemption at {improved}"
        );
        assert!(
            plain >= SimTime::from_millis(10),
            "plain waits for tick, got {plain}"
        );
    }

    #[test]
    fn idle_cpu_absorbs_daemon_15_of_16_style() {
        // Two CPUs, one app pinned to CPU0, CPU1 idle. A daemon homed on
        // CPU0 should be stolen by idle CPU1 and never disturb the app.
        let mut k = mk_kernel(2, SchedOptions::vanilla());
        let app = k.spawn(
            app_spec("app", 0),
            Box::new(Script::new(vec![Action::Compute(SimDur::from_millis(30))])),
        );
        let daemon = k.spawn(
            ThreadSpec::new("syncd", ThreadClass::Daemon, Prio::DAEMON_OBSERVED).on_cpu(CpuId(0)),
            Box::new(Script::new(vec![
                Action::SleepUntil(SimTime::from_millis(5)),
                Action::Compute(SimDur::from_millis(3)),
            ])),
        );
        let mut r = SoloRunner::new(k);
        r.boot();
        r.run_until(SimTime::from_millis(20));
        assert_eq!(r.kernel.thread_state(daemon), ThreadState::Exited);
        // The app must never have been undispatched from CPU0.
        let app_undispatches = r
            .kernel
            .trace()
            .events()
            .filter(|e| e.hook == HookId::Undispatch && e.tid == app.0)
            .count();
        assert_eq!(app_undispatches, 0, "app was disturbed");
        // And the daemon's burst (its post-sleep dispatch) ran on CPU1.
        // (Its time-zero boot dispatch, where it immediately sleeps, may
        // legitimately happen anywhere.)
        let daemon_burst_cpu = r
            .kernel
            .trace()
            .events()
            .filter(|e| e.hook == HookId::Dispatch && e.tid == daemon.0)
            .filter(|e| e.time >= SimTime::from_millis(1))
            .map(|e| e.cpu)
            .next()
            .expect("daemon burst dispatched");
        assert_eq!(daemon_burst_cpu, 1);
    }

    #[test]
    fn global_queue_spreads_daemons() {
        // Two daemons readied simultaneously on a 2-CPU node with both
        // CPUs busy: under the Global policy they preempt *different*
        // CPUs; under PerCpu with the same home they serialize.
        let run = |policy: DaemonQueuePolicy| {
            let mut opts = SchedOptions::vanilla();
            opts.daemon_queue = policy;
            opts.preempt = PreemptMode::RtIpiImproved;
            let mut k = mk_kernel(2, opts);
            for c in 0..2 {
                k.spawn(
                    app_spec(&format!("app{c}"), c),
                    Box::new(Script::new(vec![Action::Compute(SimDur::from_millis(100))])),
                );
            }
            let mut daemons = Vec::new();
            for d in 0..2 {
                daemons.push(
                    k.spawn(
                        ThreadSpec::new(
                            format!("d{d}"),
                            ThreadClass::Daemon,
                            Prio::DAEMON_OBSERVED,
                        )
                        .on_cpu(CpuId(0)),
                        Box::new(Script::new(vec![
                            Action::SleepUntil(SimTime::from_millis(15)),
                            Action::Compute(SimDur::from_millis(4)),
                        ])),
                    ),
                );
            }
            let mut r = SoloRunner::new(k);
            r.boot();
            r.run_until(SimTime::from_millis(60));
            // When did the second daemon finish?
            daemons
                .iter()
                .map(|&d| {
                    r.kernel
                        .trace()
                        .events()
                        .filter(|e| e.hook == HookId::Undispatch && e.tid == d.0)
                        .map(|e| e.time)
                        .last()
                        .expect("daemon ran")
                })
                .max()
                .unwrap()
        };
        let percpu = run(DaemonQueuePolicy::PerCpu);
        let global = run(DaemonQueuePolicy::Global);
        assert!(
            global < percpu,
            "global queue should overlap daemons: {global} vs {percpu}"
        );
    }

    #[test]
    fn poll_recv_completes_on_delivery() {
        let mut k = mk_kernel(1, SchedOptions::vanilla());
        let _receiver = k.spawn(
            app_spec("recv", 0),
            Box::new(Script::new(vec![Action::Recv {
                tag: TagSel::Exact(7),
                src: SrcSel::Any,
                wait: WaitMode::Poll,
            }])),
        );
        let mut r = SoloRunner::new(k);
        r.boot();
        r.run_until(SimTime::from_millis(1));
        let mut fx = Effects::default();
        let msg = Message {
            src: Endpoint {
                node: 0,
                tid: Tid(50),
            },
            dst: Endpoint {
                node: 0,
                tid: Tid(0),
            },
            tag: 7,
            bytes: 8,
            sent_at: SimTime::from_millis(1),
            payload: 0,
        };
        r.kernel.handle(
            SimTime::from_millis(1),
            KernelEvent::Deliver { msg },
            &mut fx,
        );
        // PollNotice scheduled shortly after delivery.
        assert!(fx
            .schedule
            .iter()
            .any(|(t, e)| matches!(e, KernelEvent::PollNotice { .. })
                && *t <= SimTime::from_millis(1) + SimDur::from_micros(2)));
    }

    #[test]
    fn blocked_recv_wakes_on_delivery() {
        let mut k = mk_kernel(1, SchedOptions::vanilla());
        let receiver = k.spawn(
            app_spec("recv", 0),
            Box::new(Script::new(vec![
                Action::Recv {
                    tag: TagSel::Exact(9),
                    src: SrcSel::Any,
                    wait: WaitMode::Block,
                },
                Action::Compute(SimDur::from_micros(100)),
            ])),
        );
        let sender = k.spawn(
            app_spec("send", 0),
            Box::new(Script::new(vec![
                Action::Compute(SimDur::from_micros(500)),
                Action::Send(Message {
                    src: Endpoint {
                        node: 0,
                        tid: Tid(1),
                    },
                    dst: Endpoint {
                        node: 0,
                        tid: Tid(0),
                    },
                    tag: 9,
                    bytes: 8,
                    sent_at: SimTime::ZERO,
                    payload: 0,
                }),
            ])),
        );
        let mut r = SoloRunner::new(k);
        r.boot();
        r.run_until_apps_done(SimTime::from_secs(1));
        assert_eq!(r.kernel.thread_state(receiver), ThreadState::Exited);
        assert_eq!(r.kernel.thread_state(sender), ThreadState::Exited);
    }

    #[test]
    fn io_daemon_services_requests() {
        // An app submits I/O; the designated daemon must run to complete
        // it; then the app resumes and exits.
        struct IoDaemon;
        impl Program for IoDaemon {
            fn step(&mut self, ctx: &mut StepCtx<'_>) -> Action {
                match ctx.take_io_request() {
                    Some(req) => Action::IoComplete(req),
                    None => Action::IoIdle,
                }
            }
        }
        let mut k = mk_kernel(2, SchedOptions::vanilla());
        let app = k.spawn(
            app_spec("app", 0),
            Box::new(Script::new(vec![
                Action::IoSubmit { bytes: 1 << 20 },
                Action::Compute(SimDur::from_micros(50)),
            ])),
        );
        let d = k.spawn(
            ThreadSpec::new("mmfsd", ThreadClass::Daemon, Prio::MMFSD).on_cpu(CpuId(1)),
            Box::new(IoDaemon),
        );
        k.set_io_daemon(d);
        let mut r = SoloRunner::new(k);
        r.boot();
        r.run_until_apps_done(SimTime::from_secs(1));
        assert_eq!(r.kernel.thread_state(app), ThreadState::Exited);
        // Both IoStart and IoDone must be in the trace.
        let hooks: Vec<HookId> = r
            .kernel
            .trace()
            .events()
            .map(|e| e.hook)
            .filter(|h| matches!(h, HookId::IoStart | HookId::IoDone))
            .collect();
        assert_eq!(hooks, vec![HookId::IoStart, HookId::IoDone]);
    }

    #[test]
    fn timeslice_round_robins_equal_priority() {
        // Two equal-priority compute-bound apps pinned to one CPU must
        // alternate at timeslice boundaries rather than run to completion.
        let mut k = mk_kernel(1, SchedOptions::vanilla());
        let a = k.spawn(
            app_spec("a", 0),
            Box::new(Script::new(vec![Action::Compute(SimDur::from_millis(30))])),
        );
        let b = k.spawn(
            app_spec("b", 0),
            Box::new(Script::new(vec![Action::Compute(SimDur::from_millis(30))])),
        );
        let mut r = SoloRunner::new(k);
        r.boot();
        r.run_until(SimTime::from_millis(25));
        // Both should have accumulated CPU time by 25ms.
        assert!(r.kernel.thread_cpu_time(a) > SimDur::from_millis(5));
        assert!(r.kernel.thread_cpu_time(b) > SimDur::from_millis(5));
    }

    #[test]
    fn device_interrupts_stretch_compute() {
        let mut opts = SchedOptions::vanilla();
        // Keep ticks from polluting the measurement.
        opts.costs.tick_cost = SimDur::ZERO;
        let mut k = mk_kernel(1, opts);
        k.add_interrupt_source(InterruptSourceSpec::new(
            "caddpin",
            SimDur::from_millis(2),
            SimDur::from_micros(50),
            SimDur::from_micros(50),
        ));
        k.spawn(
            app_spec("app", 0),
            Box::new(Script::new(vec![Action::Compute(SimDur::from_millis(100))])),
        );
        let mut r = SoloRunner::new(k);
        r.boot();
        let end = r.run_until_apps_done(SimTime::from_secs(1));
        // ~50 interrupts × 50µs ≈ 2.5ms extra.
        assert!(
            end > SimTime::from_millis(101),
            "interrupt stealing not observed: {end}"
        );
        assert!(end < SimTime::from_millis(110));
    }

    #[test]
    fn set_priority_requeues_ready_thread() {
        let mut k = mk_kernel(1, SchedOptions::vanilla());
        let _runner = k.spawn(
            app_spec("runner", 0),
            Box::new(Script::new(vec![Action::Compute(SimDur::from_millis(100))])),
        );
        let waiter = k.spawn(
            app_spec("waiter", 0),
            Box::new(Script::new(vec![Action::Compute(SimDur::from_millis(1))])),
        );
        let mut r = SoloRunner::new(k);
        r.boot();
        r.run_until(SimTime::from_millis(1));
        assert_eq!(r.kernel.thread_prio(waiter), Prio::USER);
        let mut fx = Effects::default();
        r.kernel
            .set_priority(waiter, Prio::FAVORED, SimTime::from_millis(1), &mut fx);
        assert_eq!(r.kernel.thread_prio(waiter), Prio::FAVORED);
        // Lazy mode: the next tick (10ms) performs the switch; the waiter
        // then runs its 1ms of work and exits.
        r.run_until(SimTime::from_millis(12));
        assert_eq!(r.kernel.thread_state(waiter), ThreadState::Exited);
        let waiter_dispatch = r
            .kernel
            .trace()
            .events()
            .find(|e| e.hook == HookId::Dispatch && e.tid == waiter.0)
            .map(|e| e.time)
            .expect("waiter dispatched");
        assert_eq!(waiter_dispatch, SimTime::from_millis(10));
    }

    #[test]
    fn usage_report_accounts_daemons() {
        let mut k = mk_kernel(1, SchedOptions::vanilla());
        k.spawn(
            ThreadSpec::new("syncd", ThreadClass::Daemon, Prio::DAEMON_OBSERVED).on_cpu(CpuId(0)),
            Box::new(PeriodicLoop::new(
                SimDur::from_millis(100),
                SimDur::from_millis(1),
                SimDur::ZERO,
            )),
        );
        let mut r = SoloRunner::new(k);
        r.boot();
        r.run_until(SimTime::from_secs(2));
        let rows = r.kernel.usage_report();
        let syncd = rows.iter().find(|u| u.name == "syncd").expect("syncd row");
        // ~20 bursts of 1ms ≈ 20ms (+ctx overhead).
        assert!(
            syncd.cpu_time >= SimDur::from_millis(15) && syncd.cpu_time <= SimDur::from_millis(30),
            "syncd cpu time {}",
            syncd.cpu_time
        );
    }

    #[test]
    fn snapshot_restore_resumes_bit_identically() {
        use serde::{Deserialize, Serialize};

        // A moderately rich node: two CPUs, two compute/sleep apps, a
        // periodic daemon, and a device-interrupt source (so the RNG
        // stream position matters).
        let assemble = || {
            let mut k = mk_kernel(2, SchedOptions::vanilla());
            k.add_interrupt_source(InterruptSourceSpec::new(
                "nic",
                SimDur::from_millis(3),
                SimDur::from_micros(20),
                SimDur::from_micros(60),
            ));
            k.spawn(
                app_spec("app0", 0),
                Box::new(Script::new(vec![
                    Action::Compute(SimDur::from_millis(40)),
                    Action::SleepUntil(SimTime::from_millis(70)),
                    Action::Compute(SimDur::from_millis(25)),
                ])),
            );
            k.spawn(
                app_spec("app1", 1),
                Box::new(Script::new(vec![
                    Action::Compute(SimDur::from_millis(30)),
                    Action::Compute(SimDur::from_millis(30)),
                ])),
            );
            k.spawn(
                ThreadSpec::new("syncd", ThreadClass::Daemon, Prio::DAEMON_OBSERVED)
                    .on_cpu(CpuId(0)),
                Box::new(PeriodicLoop::new(
                    SimDur::from_millis(10),
                    SimDur::from_micros(500),
                    SimDur::ZERO,
                )),
            );
            let mut r = SoloRunner::new(k);
            r.boot();
            r
        };
        let horizon = SimTime::from_millis(120);

        // Uninterrupted reference run.
        let mut a = assemble();
        a.run_until(horizon);
        let a_trace: Vec<_> = a.kernel.trace().events().copied().collect();

        // Checkpointed run: stop mid-flight, snapshot, restore into a
        // freshly assembled node via a JSON round trip, and continue.
        let mut b = assemble();
        b.run_until(SimTime::from_millis(55));
        let mut snap = b.capture();
        let json = snap.kernel.to_value().to_json_string();
        snap.kernel = KernelSnapshot::from_value(&serde_json::parse(&json).unwrap()).unwrap();

        let mut c = assemble();
        c.restore(snap).unwrap();
        c.run_until(horizon);

        let c_trace: Vec<_> = c.kernel.trace().events().copied().collect();
        assert_eq!(c_trace, a_trace, "trace diverged after restore");
        assert_eq!(c.kernel.stats(), a.kernel.stats());
        assert_eq!(c.events_processed(), a.events_processed());
        assert_eq!(c.kernel.usage_report(), a.kernel.usage_report());
    }

    #[test]
    fn restore_rejects_mismatched_assembly() {
        let mut a = SoloRunner::new(mk_kernel(1, SchedOptions::vanilla()));
        a.kernel.spawn(
            app_spec("app", 0),
            Box::new(Script::new(vec![Action::Compute(SimDur::from_millis(5))])),
        );
        a.boot();
        a.run_until(SimTime::from_millis(1));
        let snap = a.kernel.snapshot();

        // Different thread name.
        let mut b = SoloRunner::new(mk_kernel(1, SchedOptions::vanilla()));
        b.kernel.spawn(
            app_spec("other", 0),
            Box::new(Script::new(vec![Action::Compute(SimDur::from_millis(5))])),
        );
        b.boot();
        assert!(b.kernel.restore(&snap).is_err());

        // Different CPU count.
        let mut c = SoloRunner::new(mk_kernel(2, SchedOptions::vanilla()));
        c.kernel.spawn(
            app_spec("app", 0),
            Box::new(Script::new(vec![Action::Compute(SimDur::from_millis(5))])),
        );
        c.boot();
        assert!(c.kernel.restore(&snap).is_err());

        // Unbooted kernel.
        let mut d = mk_kernel(1, SchedOptions::vanilla());
        d.spawn(
            app_spec("app", 0),
            Box::new(Script::new(vec![Action::Compute(SimDur::from_millis(5))])),
        );
        assert!(d.restore(&snap).is_err());
    }

    #[test]
    fn cfs_splits_cpu_between_equal_spinners() {
        // Two equal-weight spinners on one CPU under the CFS policy must
        // split the CPU evenly: after any settling window their cpu_time
        // difference stays within one slice plus one tick of lazy notice.
        let mut opts = SchedOptions::vanilla();
        opts.dispatcher = DispatcherKind::Cfs;
        let mut k = mk_kernel(1, opts);
        let a = k.spawn(
            app_spec("a", 0),
            Box::new(Script::new(vec![Action::Compute(SimDur::from_secs(1))])),
        );
        let b = k.spawn(
            app_spec("b", 0),
            Box::new(Script::new(vec![Action::Compute(SimDur::from_secs(1))])),
        );
        let mut r = SoloRunner::new(k);
        r.boot();
        r.run_until(SimTime::from_millis(200));
        let ta = r.kernel.thread_cpu_time(a);
        let tb = r.kernel.thread_cpu_time(b);
        // Each should hold roughly half of the 200ms window.
        assert!(ta >= SimDur::from_millis(80), "a starved: {ta:?}");
        assert!(tb >= SimDur::from_millis(80), "b starved: {tb:?}");
        // Split within one CFS slice (latency/2 = 12ms) + one 10ms tick.
        let diff = if ta > tb { ta - tb } else { tb - ta };
        assert!(diff <= SimDur::from_millis(22), "unfair split: {diff:?}");
    }

    #[test]
    fn fair_policies_do_not_starve_unfavored_threads() {
        // Under AIX priority dispatch a USER spinner starves an UNFAVORED
        // one completely; under the fair policies the nice-to-weight table
        // only *scales* the unfavored thread's share.
        let share = |kind: DispatcherKind| {
            let mut opts = SchedOptions::vanilla();
            opts.dispatcher = kind;
            let mut k = mk_kernel(1, opts);
            k.spawn(
                app_spec("hi", 0),
                Box::new(Script::new(vec![Action::Compute(SimDur::from_secs(1))])),
            );
            let lo = k.spawn(
                ThreadSpec::new("lo", ThreadClass::App, Prio::UNFAVORED).on_cpu(CpuId(0)),
                Box::new(Script::new(vec![Action::Compute(SimDur::from_secs(1))])),
            );
            let mut r = SoloRunner::new(k);
            r.boot();
            r.run_until(SimTime::from_millis(400));
            r.kernel.thread_cpu_time(lo)
        };
        assert_eq!(share(DispatcherKind::Aix), SimDur::ZERO);
        for kind in [DispatcherKind::Cfs, DispatcherKind::Eevdf] {
            let got = share(kind);
            assert!(
                got >= SimDur::from_millis(10),
                "{kind:?} starved the unfavored thread: {got:?}"
            );
        }
    }

    #[test]
    fn fair_policies_run_message_workloads_and_snapshot() {
        // End-to-end smoke: a sender/receiver pair plus a daemon finish
        // under every dispatcher, and a mid-run snapshot restores onto an
        // identically assembled kernel bit for bit.
        for kind in DispatcherKind::ALL {
            let assemble = || {
                let mut opts = SchedOptions::vanilla();
                opts.dispatcher = kind;
                let mut k = mk_kernel(2, opts);
                k.spawn(
                    app_spec("sender", 0),
                    Box::new(Script::new(vec![
                        Action::Compute(SimDur::from_millis(3)),
                        Action::Send(Message {
                            src: Endpoint {
                                node: 0,
                                tid: Tid(0),
                            },
                            dst: Endpoint {
                                node: 0,
                                tid: Tid(1),
                            },
                            tag: 1,
                            bytes: 8,
                            sent_at: SimTime::ZERO,
                            payload: 0,
                        }),
                        Action::Compute(SimDur::from_millis(5)),
                    ])),
                );
                k.spawn(
                    app_spec("receiver", 1),
                    Box::new(Script::new(vec![
                        Action::Recv {
                            tag: TagSel::Exact(1),
                            src: SrcSel::Any,
                            wait: WaitMode::Block,
                        },
                        Action::Compute(SimDur::from_millis(4)),
                    ])),
                );
                k.spawn(
                    ThreadSpec::new("syncd", ThreadClass::Daemon, Prio::DAEMON_OBSERVED),
                    Box::new(Script::new(vec![
                        Action::SleepUntil(SimTime::from_millis(2)),
                        Action::Compute(SimDur::from_millis(1)),
                    ])),
                );
                k
            };
            let horizon = SimTime::from_millis(40);
            let mut a = SoloRunner::new(assemble());
            a.boot();
            a.run_until(horizon);
            assert_eq!(a.kernel.app_alive(), 0, "{kind:?} left apps running");
            let a_trace: Vec<_> = a.kernel.trace().events().copied().collect();

            // Checkpoint mid-run, restore into a fresh assembly, continue,
            // and demand the same history.
            let mut b = SoloRunner::new(assemble());
            b.boot();
            b.run_until(SimTime::from_millis(4));
            let snap = b.capture();

            let mut c = SoloRunner::new(assemble());
            c.boot();
            c.restore(snap).unwrap_or_else(|e| {
                panic!("{kind:?} snapshot failed to restore: {e}");
            });
            c.run_until(horizon);
            let c_trace: Vec<_> = c.kernel.trace().events().copied().collect();
            assert_eq!(c_trace, a_trace, "{kind:?} diverged after restore");
        }
    }

    #[test]
    fn exited_threads_drop_messages() {
        let mut k = mk_kernel(1, SchedOptions::vanilla());
        let t = k.spawn(
            app_spec("gone", 0),
            Box::new(Script::new(vec![Action::Compute(SimDur::from_micros(10))])),
        );
        let mut r = SoloRunner::new(k);
        r.boot();
        r.run_until_apps_done(SimTime::from_secs(1));
        let mut fx = Effects::default();
        let now = r.now();
        let msg = Message {
            src: Endpoint {
                node: 0,
                tid: Tid(9),
            },
            dst: Endpoint { node: 0, tid: t },
            tag: 1,
            bytes: 8,
            sent_at: now,
            payload: 0,
        };
        r.kernel.handle(now, KernelEvent::Deliver { msg }, &mut fx);
        assert!(fx.schedule.is_empty(), "no events for a dead thread");
    }
}
