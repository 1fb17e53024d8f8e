//! Known answers for the MPI rank program's action stream.
//!
//! Small runs drive every collective kind (Allreduce under both
//! algorithms, Barrier, Allgather at a power-of-two and a ring size,
//! Reduce, Bcast, Exchange) with polling on and off and the reduce cost
//! at 0 and 300 ns. Node 0's trace records every send, receive and
//! collective bracket a rank issues, so dropping, adding or reordering
//! one action of a collective changes its digest, the event count or a
//! per-kind mean, and fails here.

use pa_core::Experiment;
use pa_mpi::coll::Algorithm;
use pa_mpi::{MpiConfig, MpiOp, OpKind, OpList, RankWorkload};
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

fn answer(nodes: u32, algorithm: Algorithm, polling: bool, reduce_ns: u64) -> Answer {
    let nranks = nodes * 2;
    let mpi = MpiConfig {
        algorithm,
        polling,
        reduce_cost: SimDur::from_nanos(reduce_ns),
        ..MpiConfig::default()
    };
    let out = Experiment::new(nodes, 2)
        .with_cpus_per_node(4)
        .with_trace_node(0)
        .with_seed(7)
        .with_mpi(mpi)
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
    use Algorithm::{BinomialTree as Tree, RecursiveDoubling as Rd};
    // 2 nodes × 2 tasks is a power of two (recursive-doubling
    // Allgather); 3 × 2 takes the ring.
    let cases = [
        (2, Tree, true, 300),
        (2, Rd, false, 0),
        (3, Tree, false, 300),
        (3, Rd, true, 0),
        (3, Tree, true, 0),
        (2, Rd, true, 300),
    ];
    let got: Vec<Answer> = cases
        .iter()
        .map(|&(nodes, alg, polling, reduce_ns)| answer(nodes, alg, polling, reduce_ns))
        .collect();
    // Recorded from the expanded-queue implementation this walk
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
            "38853b7434589abf".into(),
            368,
            [
                0x4042_fa69_2173_5ee4,
                0x4046_8751_3cc1_e099,
                0x4045_e454_a692_1736,
                0x4030_6cf8_7d9c_54a7,
                0x4045_eb7a_3284_6ff5,
                0x4041_927e_f9db_22d1,
            ],
        ),
        (
            "06d7be369fcc9aa8".into(),
            933,
            [
                0x4050_df4f_6ab9_3af0,
                0x4052_42bd_c805_761a,
                0x4058_3181_0624_dd2f,
                0x4034_ba69_2173_5ee4,
                0x404d_ffae_147a_e148,
                0x4040_562f_c962_fc96,
            ],
        ),
        (
            "320f20d65bfc9513".into(),
            970,
            [
                0x4046_8683_86f0_c0f8,
                0x404d_92cb_6f46_508e,
                0x4052_923a_b596_de8c,
                0x4029_73ae_fd7f_341d,
                0x4047_e562_1391_dcf5,
                0x403b_12c5_f92c_5f92,
            ],
        ),
        (
            "6ab80375dbde2e6f".into(),
            919,
            [
                0x404b_5838_6f0c_0f79,
                0x404e_1ad0_e560_4189,
                0x4052_9181_0624_dd2f,
                0x402d_16f4_6508_dfea,
                0x4047_e836_9d03_69d0,
                0x403b_12c5_f92c_5f92,
            ],
        ),
        (
            "af2c12cd5f0ab2e5".into(),
            541,
            [
                0x403e_7a9f_be76_c8b4,
                0x4042_9fb9_00ae_c33e,
                0x4042_2f6c_8b43_9581,
                0x4026_cd24_2e6b_dc80,
                0x4041_61e0_98ea_d65b,
                0x403c_d831_26e9_78d5,
            ],
        ),
    ];
    assert_eq!(got, want);
}
