//! Known answers for the MPI rank program's action stream.
//!
//! Small runs drive every collective kind (Allreduce, Barrier, Allgather
//! at a power-of-two and a ring size, Reduce, Bcast, Exchange) under two
//! seeds. Node 0's trace records every send, receive and collective
//! bracket a rank issues, so dropping, adding or reordering one action
//! of a collective changes its digest, the event count or a per-kind
//! mean, and fails here.

use pa_core::Experiment;
use pa_mpi::{MpiOp, OpKind, OpList, RankWorkload};
use pa_simkit::{Sha256, SimDur};

const KINDS: [OpKind; 6] = [
    OpKind::Allreduce,
    OpKind::Barrier,
    OpKind::Allgather,
    OpKind::Reduce,
    OpKind::Bcast,
    OpKind::Exchange,
];

/// One rank's op list: every kind, with compute between, three times.
fn ops(rank: u32, nranks: u32) -> Vec<MpiOp> {
    let peers = vec![(rank + 1) % nranks, (rank + nranks - 1) % nranks];
    let round = [
        MpiOp::Compute(SimDur::from_micros(20)),
        MpiOp::Allreduce { bytes: 64 },
        MpiOp::Barrier,
        MpiOp::Allgather { bytes: 32 },
        MpiOp::Compute(SimDur::from_micros(5)),
        MpiOp::Reduce { bytes: 128 },
        MpiOp::Bcast { bytes: 128 },
        MpiOp::Exchange { peers, bytes: 256 },
    ];
    (0..3).flat_map(|_| round.iter().cloned()).collect()
}

/// (node-0 trace digest, events, per-kind mean rank duration bits).
type Answer = (String, u64, [u64; 6]);

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
    // 2 nodes × 2 tasks is a power of two (recursive-doubling
    // Allgather); 3 × 2 takes the ring.
    let cases = [(2, 7), (3, 7), (2, 11)];
    let got: Vec<Answer> = cases
        .iter()
        .map(|&(nodes, seed)| answer(nodes, seed))
        .collect();
    // The first answer was recorded from the expanded-queue
    // implementation the walk replaced, the other two from the
    // configurable MPI at its default settings, which this fixed MPI
    // replaced; the means are `f64` bits. The digests hash hook indices:
    // they were re-recorded when deleting the two I/O hooks moved every
    // later index down by two, and under the old indices the same traces
    // still hash to the old digests.
    let want: Vec<Answer> = vec![
        (
            "30a409baf1096474".into(),
            494,
            [
                0x4045_1609_8ead_65b7,
                0x4043_ac5a_1cac_0831,
                0x4043_2137_4bc6_a7f0,
                0x401e_cb85_1eb8_51ec,
                0x4040_04d4_fdf3_b646,
                0x403c_d831_26e9_78d5,
            ],
        ),
        (
            "1294662f73c97d4f".into(),
            1093,
            [
                0x404b_cb6b_a23f_42ac,
                0x404e_8e04_1893_74bc,
                0x4052_f181_0624_dd2f,
                0x402d_96f4_6508_dfea,
                0x4048_3b69_d036_9d03,
                0x403b_12c5_f92c_5f92,
            ],
        ),
        (
            "c823ae2acad00412".into(),
            493,
            [
                0x4045_1609_8ead_65b7,
                0x4043_ac5a_1cac_0831,
                0x4043_2137_4bc6_a7f0,
                0x401e_cb85_1eb8_51ec,
                0x4040_04d4_fdf3_b646,
                0x403c_d831_26e9_78d5,
            ],
        ),
    ];
    assert_eq!(got, want);
}
