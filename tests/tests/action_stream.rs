//! Known answers for the MPI rank program's action stream.
//!
//! Small runs drive both communication kinds the study's workloads
//! issue, the Allreduce and the halo exchange, at a power-of-two and a
//! non-power-of-two job size and under two seeds. Node 0's trace records
//! every send, receive and collective bracket a rank issues, so
//! dropping, adding or reordering one action of a collective changes
//! its digest, the event count or a per-kind mean, and fails here.

use pa_core::Experiment;
use pa_mpi::{MpiOp, OpKind, OpList, RankWorkload};
use pa_simkit::{Sha256, SimDur};

const KINDS: [OpKind; 2] = [OpKind::Allreduce, OpKind::Exchange];

/// One rank's op list: every kind, with compute between, three times.
fn ops(rank: u32, nranks: u32) -> Vec<MpiOp> {
    let peers = vec![(rank + 1) % nranks, (rank + nranks - 1) % nranks];
    let round = [
        MpiOp::Compute(SimDur::from_micros(20)),
        MpiOp::Allreduce { bytes: 64 },
        MpiOp::Compute(SimDur::from_micros(5)),
        MpiOp::Exchange { peers, bytes: 256 },
    ];
    (0..3).flat_map(|_| round.iter().cloned()).collect()
}

/// (node-0 trace digest, events, per-kind mean rank duration bits).
type Answer = (String, u64, [u64; 2]);

fn answer(nodes: u32, seed: u64) -> Answer {
    let nranks = nodes * 2;
    let out = Experiment::new(nodes, 2)
        .with_cpus_per_node(4)
        .with_trace_node(0)
        .with_seed(seed)
        .run(&mut |rank| -> Box<dyn RankWorkload> { Box::new(OpList::new(ops(rank, nranks))) });
    assert!(out.completed, "run did not finish");
    let mut h = Sha256::new();
    for e in out.sim.kernel(0).trace().events() {
        h.update(&e.time.nanos().to_le_bytes());
        h.update(&[e.cpu, e.hook.index() as u8]);
        h.update(&e.tid.to_le_bytes());
        h.update(&e.aux.to_le_bytes());
    }
    let digest: String = h.finalize()[..8]
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect();
    let rec = out.job.recorder.lock().unwrap();
    let means = KINDS.map(|k| rec.mean_rank_dur_us(k).to_bits());
    (digest, out.events, means)
}

#[test]
fn action_stream_known_answers() {
    // 2 nodes × 2 tasks is a power of two, 3 × 2 is not, so its
    // binomial tree is ragged.
    let cases = [(2, 7), (3, 7), (2, 11)];
    let got: Vec<Answer> = cases
        .iter()
        .map(|&(nodes, seed)| answer(nodes, seed))
        .collect();
    // Recorded with this op list from the rank program that still
    // carried Barrier, Allgather, Reduce and Bcast schedules, which must
    // not change them; the means are `f64` bits. On this op list seeds 7
    // and 11 produce the same history.
    let want: Vec<Answer> = vec![
        (
            "b23963f6907eee7c".into(),
            189,
            [0x4045_14ac_0831_26e9, 0x403c_bcac_0831_26e9],
        ),
        (
            "3e4a95fef21f204a".into(),
            296,
            [0x404b_cf0f_b38a_94d2, 0x403b_006d_3a06_d3a1],
        ),
        (
            "b23963f6907eee7c".into(),
            189,
            [0x4045_14ac_0831_26e9, 0x403c_bcac_0831_26e9],
        ),
    ];
    assert_eq!(got, want);
}
