//! Known answers for the MPI rank program's action stream.
//!
//! Small runs drive both communication kinds the study's workloads
//! issue, the Allreduce and the halo exchange, at a power-of-two and a
//! non-power-of-two job size and under two seeds. Each run outlasts a
//! clock tick, so the seed's tick phases and daemon draws reach the
//! history and every case pins a different one. Node 0's trace records
//! every send, receive and collective bracket a rank issues, so
//! dropping, adding or reordering one action of a collective changes
//! its digest, the event count or a per-kind mean, and fails here.

use pa_core::Experiment;
use pa_mpi::{MpiOp, OpKind, OpList, RankWorkload};
use pa_simkit::{Sha256, SimDur};

const KINDS: [OpKind; 2] = [OpKind::Allreduce, OpKind::Exchange];

/// One rank's op list: every kind, with compute between, three times.
/// The 2 ms compute phases stretch the run past the first 10 ms tick.
fn ops(rank: u32, nranks: u32) -> Vec<MpiOp> {
    let peers = vec![(rank + 1) % nranks, (rank + nranks - 1) % nranks];
    let round = [
        MpiOp::Compute(SimDur::from_millis(2)),
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
    // Recorded with this op list from the engine whose per-CPU timer
    // slots still held whole `SegEnd` events, which must not change
    // them; the means are `f64` bits.
    let want: Vec<Answer> = vec![
        (
            "ecb180c70c8cbe9c".into(),
            201,
            [0x4045_7f56_b2db_d194, 0x403c_bcac_0831_26e9],
        ),
        (
            "6d9e506868db5187".into(),
            311,
            [0x404c_39ba_5e35_3f7d, 0x403b_006d_3a06_d3a1],
        ),
        (
            "cd2d0ae992bb86bc".into(),
            198,
            [0x4045_3232_846f_f513, 0x403c_bcac_0831_26e9],
        ),
    ];
    // A case that repeats another's history pins nothing of its own.
    for (i, a) in got.iter().enumerate() {
        for (b, case) in got[i + 1..].iter().zip(&cases[i + 1..]) {
            assert_ne!(a.0, b.0, "case {case:?} repeats case {:?}", cases[i]);
        }
    }
    assert_eq!(got, want);
}
