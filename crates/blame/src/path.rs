//! Happens-before critical-path extraction at collective granularity.
//!
//! The happens-before relation of a bulk-synchronous run has three edge
//! kinds: intra-rank program order, message send→deliver, and barrier
//! last-arrival→release. At collective granularity the last two
//! collapse: the op with sequence number `k` cannot release anyone
//! until its *last arrival* `A_k` (the rank that reached it latest),
//! and every rank's next local segment is ordered after the op's
//! completion. The run's critical path therefore alternates
//!
//! ```text
//! [cursor, A_k]  — a local segment on the last-arrival rank's node
//! [A_k, E_k]    — the collective's release cascade
//! ```
//!
//! walked over fully-sampled ops in sequence order. The walk telescopes:
//! segment lengths sum *exactly* to `E_last − epoch`, so the path's
//! per-category attribution is an exact decomposition of the span, not
//! an estimate. Local segments are charged to the laggard's node and
//! split across categories by that rank's run-wide shares (integer
//! u128 mul/div; the division remainder goes to `overhead` so nothing
//! is lost). Collective segments are charged to the release cascade.

use crate::{BlameInput, Categories};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One rank's timing sample for one collective op, from the run
/// recorder's record-all capture.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OpSpan {
    /// Global rank id.
    pub rank: u32,
    /// Node hosting the rank.
    pub node: u32,
    /// Collective sequence number (program order, shared across ranks).
    pub seq: u64,
    /// When the rank arrived at the op, ns.
    pub start_ns: u64,
    /// When the op completed at the rank, ns.
    pub end_ns: u64,
}

/// On-path time charged to one node's local segments.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PathNode {
    /// Node id.
    pub node: u32,
    /// Times this node hosted the last arrival.
    pub hops: u64,
    /// Category split of the node's on-path local time.
    pub cats: Categories,
}

/// The extracted critical path and its exact decomposition.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CriticalPath {
    /// Fully-sampled collective ops on the path.
    pub ops: u64,
    /// Path span: last completion minus epoch. Equals the sum of all
    /// local-segment categories plus `coll_release_ns`, exactly.
    pub span_ns: u64,
    /// Category split of the local (pre-arrival) segments.
    pub on_path: Categories,
    /// Release-cascade time: last arrival to last completion, summed.
    pub coll_release_ns: u64,
    /// Per-node local-segment attribution, node order.
    pub nodes: Vec<PathNode>,
}

/// Walk the happens-before path over `input.samples`. Returns `None`
/// when no op was sampled by every rank (record-all capture off, or a
/// horizon cut before the first full collective).
pub fn extract(input: &BlameInput) -> Option<CriticalPath> {
    let nranks = input.ranks.len();
    if nranks == 0 || input.samples.is_empty() {
        return None;
    }
    let (keys, bounds) = group_by_seq(&input.samples);
    let shares: BTreeMap<u32, &Categories> =
        input.ranks.iter().map(|r| (r.rank, &r.cats)).collect();

    let mut cursor = input.epoch_ns;
    let mut ops = 0u64;
    let mut on_path = Categories::default();
    let mut coll_release_ns = 0u64;
    let mut nodes: BTreeMap<u32, PathNode> = BTreeMap::new();

    for group in bounds.windows(2).map(|b| &keys[b[0]..b[1]]) {
        if group.is_empty() {
            // A seq no rank sampled: a gap in the numbering, not an op.
            continue;
        }
        // The group is in rank order, each rank's samples in input
        // order: keep the first per rank (the recorder emits one per
        // op, this just makes duplicates benign). The last arrival is
        // the max start, ties to the lowest rank, as `>` keeps the
        // first maximum.
        let mut ranks = 0;
        let mut last_rank = None;
        let mut laggard: Option<&OpSpan> = None;
        let mut end = 0;
        for &key in group {
            let s = &input.samples[key as u32 as usize];
            if last_rank == Some(s.rank) {
                continue;
            }
            last_rank = Some(s.rank);
            ranks += 1;
            end = end.max(s.end_ns);
            if laggard.is_none_or(|l| s.start_ns > l.start_ns) {
                laggard = Some(s);
            }
        }
        if ranks != nranks {
            // Partially-sampled op (horizon cut mid-collective): the
            // last arrival is unknowable, so the walk stops here.
            break;
        }
        let laggard = laggard.expect("seq group is non-empty");

        let arrive = cursor.max(laggard.start_ns);
        let local = arrive - cursor;
        let done = arrive.max(end);
        let coll = done - arrive;
        cursor = done;
        ops += 1;
        coll_release_ns += coll;

        let split = split_by_shares(local, shares.get(&laggard.rank).copied());
        on_path.add(&split);
        let entry = nodes.entry(laggard.node).or_insert(PathNode {
            node: laggard.node,
            hops: 0,
            cats: Categories::default(),
        });
        entry.hops += 1;
        entry.cats.add(&split);
    }
    if ops == 0 {
        return None;
    }
    Some(CriticalPath {
        ops,
        span_ns: cursor - input.epoch_ns,
        on_path,
        coll_release_ns,
        nodes: nodes.into_values().collect(),
    })
}

/// Bucket the samples by seq in one counting pass. Returns each
/// sample's key `rank << 32 | index` laid out bucket by bucket, each
/// bucket sorted, so a rank's samples sit together in input order; and
/// the bucket bounds, bucket `b` being `keys[bounds[b]..bounds[b + 1]]`,
/// for seq `min + b`. A seq nobody sampled has an empty bucket.
///
/// The seq range must be narrower than the input (asserted), so the
/// table is no longer than the samples. A run's record-all capture
/// always is: every rank numbers its ops from 0 and records each one it
/// completes, so the rank that got furthest covers the range alone. The
/// recorder lists samples rank by rank, so each bucket arrives sorted
/// and its sort is one pass.
fn group_by_seq(samples: &[OpSpan]) -> (Vec<u64>, Vec<usize>) {
    assert!(
        u32::try_from(samples.len()).is_ok(),
        "critical path over 2^32 or more samples"
    );
    let lo = samples.iter().map(|s| s.seq).min().unwrap_or(0);
    let hi = samples.iter().map(|s| s.seq).max().unwrap_or(0);
    assert!(
        hi - lo < samples.len() as u64,
        "seqs {lo}..={hi} span more ops than the {} samples",
        samples.len()
    );
    let mut bounds = vec![0; (hi - lo) as usize + 2];
    for s in samples {
        bounds[(s.seq - lo) as usize + 1] += 1;
    }
    for b in 1..bounds.len() {
        bounds[b] += bounds[b - 1];
    }
    let mut next = bounds.clone();
    let mut keys = vec![0; samples.len()];
    for (i, s) in samples.iter().enumerate() {
        let slot = &mut next[(s.seq - lo) as usize];
        keys[*slot] = u64::from(s.rank) << 32 | i as u64;
        *slot += 1;
    }
    for b in bounds.windows(2) {
        keys[b[0]..b[1]].sort_unstable();
    }
    (keys, bounds)
}

/// Split `local` ns across categories in proportion to the rank's
/// run-wide decomposition. Integer u128 mul/div; the remainder (and the
/// whole amount, when the rank has no accounted time) lands in
/// `overhead` so the split sums to `local` exactly.
fn split_by_shares(local: u64, shares: Option<&Categories>) -> Categories {
    let mut out = Categories::default();
    let Some(sh) = shares else {
        out.overhead_ns = local as i64;
        return out;
    };
    // Weights are the non-negative components; a negative overhead
    // residual gets no weight (it is a correction, not a duration).
    let oh_w = sh.overhead_ns.max(0) as u64;
    let total =
        sh.compute_ns + sh.coll_wait_ns + sh.runq_wait_ns + sh.noise_ns + sh.io_wait_ns + oh_w;
    if total == 0 {
        out.overhead_ns = local as i64;
        return out;
    }
    let part = |w: u64| ((u128::from(local) * u128::from(w)) / u128::from(total)) as u64;
    out.compute_ns = part(sh.compute_ns);
    out.coll_wait_ns = part(sh.coll_wait_ns);
    out.runq_wait_ns = part(sh.runq_wait_ns);
    out.noise_ns = part(sh.noise_ns);
    out.io_wait_ns = part(sh.io_wait_ns);
    let assigned =
        out.compute_ns + out.coll_wait_ns + out.runq_wait_ns + out.noise_ns + out.io_wait_ns;
    out.overhead_ns = (local - assigned) as i64;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RankAccount;
    use proptest::prelude::*;

    /// The nested-map grouping `extract` used before the seq-indexed
    /// pass, kept as the oracle the property below checks it against.
    fn extract_by_maps(input: &BlameInput) -> Option<CriticalPath> {
        let nranks = input.ranks.len();
        if nranks == 0 || input.samples.is_empty() {
            return None;
        }
        let mut by_seq: BTreeMap<u64, BTreeMap<u32, &OpSpan>> = BTreeMap::new();
        for s in &input.samples {
            by_seq.entry(s.seq).or_default().entry(s.rank).or_insert(s);
        }
        let shares: BTreeMap<u32, &Categories> =
            input.ranks.iter().map(|r| (r.rank, &r.cats)).collect();
        let mut cursor = input.epoch_ns;
        let mut ops = 0u64;
        let mut on_path = Categories::default();
        let mut coll_release_ns = 0u64;
        let mut nodes: BTreeMap<u32, PathNode> = BTreeMap::new();
        for ranks in by_seq.values() {
            if ranks.len() != nranks {
                break;
            }
            let laggard = ranks
                .values()
                .copied()
                .max_by(|a, b| a.start_ns.cmp(&b.start_ns).then(b.rank.cmp(&a.rank)))
                .expect("seq group is non-empty");
            let end = ranks.values().map(|s| s.end_ns).max().expect("non-empty");
            let arrive = cursor.max(laggard.start_ns);
            let local = arrive - cursor;
            let done = arrive.max(end);
            cursor = done;
            ops += 1;
            coll_release_ns += done - arrive;
            let split = split_by_shares(local, shares.get(&laggard.rank).copied());
            on_path.add(&split);
            let entry = nodes.entry(laggard.node).or_insert(PathNode {
                node: laggard.node,
                hops: 0,
                cats: Categories::default(),
            });
            entry.hops += 1;
            entry.cats.add(&split);
        }
        if ops == 0 {
            return None;
        }
        Some(CriticalPath {
            ops,
            span_ns: cursor - input.epoch_ns,
            on_path,
            coll_release_ns,
            nodes: nodes.into_values().collect(),
        })
    }

    proptest! {
        #[test]
        fn seq_indexed_grouping_matches_nested_maps(
            nranks in 1u32..5,
            weights in prop::collection::vec((0u64..4, 0u64..4, 0u64..4), 5..6),
            samples in prop::collection::vec(
                (0u32..8, 0u32..3, 0u64..12, 0u64..6, 0u64..6),
                0..60,
            ),
            gaps in any::<bool>(),
            rank_major in any::<bool>(),
            epoch_ns in 0u64..8,
        ) {
            // Small ranges make duplicate (seq, rank) samples, seq gaps,
            // partial ops and tied starts common; one draw in eight is a
            // rank past `nranks`, which samples ops it holds no account
            // for. `gaps` puts seqs on odd numbers, leaving seqs nobody
            // sampled. Seqs are folded modulo the sample count, keeping
            // the range narrower than the input as `group_by_seq`
            // requires.
            let n = samples.len().max(1) as u64;
            let ranks = (0..nranks)
                .map(|r| {
                    let (c, w, n) = weights[r as usize];
                    rank(r, r % 3, Categories {
                        compute_ns: c,
                        coll_wait_ns: w,
                        noise_ns: n,
                        ..Categories::default()
                    })
                })
                .collect();
            let mut samples: Vec<OpSpan> = samples
                .into_iter()
                .map(|(r, node, seq, start, len)| {
                    let r = if r == 0 { nranks } else { r % nranks };
                    let seq = if gaps { 2 * seq + 1 } else { seq } % n;
                    span(r, node, seq, epoch_ns + start, epoch_ns + start + len)
                })
                .collect();
            if rank_major {
                // The recorder's order: rank by rank.
                samples.sort_by_key(|s| s.rank);
            }
            let input = BlameInput {
                label: "p".into(),
                ranks,
                samples,
                epoch_ns,
                ..BlameInput::default()
            };
            prop_assert_eq!(extract(&input), extract_by_maps(&input));
        }
    }

    fn rank(rank: u32, node: u32, cats: Categories) -> RankAccount {
        RankAccount {
            rank,
            node,
            wall_ns: cats.total_ns() as u64,
            cats,
        }
    }

    fn span(rank: u32, node: u32, seq: u64, start_ns: u64, end_ns: u64) -> OpSpan {
        OpSpan {
            rank,
            node,
            seq,
            start_ns,
            end_ns,
        }
    }

    fn two_rank_input() -> BlameInput {
        let even = Categories {
            compute_ns: 50,
            coll_wait_ns: 50,
            ..Categories::default()
        };
        BlameInput {
            label: "t".into(),
            wall_ns: 100,
            ranks: vec![rank(0, 0, even), rank(1, 1, even)],
            epoch_ns: 100,
            samples: vec![
                // op 0: rank 1 arrives last (at 140), completes at 150.
                span(0, 0, 0, 110, 150),
                span(1, 1, 0, 140, 150),
                // op 1: rank 0 arrives last (at 180), completes at 200.
                span(0, 0, 1, 180, 200),
                span(1, 1, 1, 160, 200),
            ],
            ..BlameInput::default()
        }
    }

    #[test]
    fn path_telescopes_exactly_to_span() {
        let input = two_rank_input();
        let p = extract(&input).expect("two full ops");
        assert_eq!(p.ops, 2);
        // span = last completion (200) − epoch (100)
        assert_eq!(p.span_ns, 100);
        // local 40 (epoch→A_0) + coll 10 + local 30 (150→A_1) + coll 20
        assert_eq!(p.coll_release_ns, 30);
        assert_eq!(p.on_path.total_ns(), 70);
        assert_eq!(
            p.on_path.total_ns() as u64 + p.coll_release_ns,
            p.span_ns,
            "telescoping must be exact"
        );
        // 50/50 compute/coll shares split each local segment evenly.
        assert_eq!(p.on_path.compute_ns, p.on_path.coll_wait_ns);
        // op 0's laggard is rank 1 (node 1), op 1's is rank 0 (node 0).
        assert_eq!(p.nodes.len(), 2);
        assert_eq!((p.nodes[0].node, p.nodes[0].hops), (0, 1));
        assert_eq!((p.nodes[1].node, p.nodes[1].hops), (1, 1));
        let node_sum: i64 = p.nodes.iter().map(|n| n.cats.total_ns()).sum();
        assert_eq!(node_sum, p.on_path.total_ns());
    }

    #[test]
    fn arrival_ties_pick_lowest_rank() {
        let mut input = two_rank_input();
        input.samples = vec![span(0, 0, 0, 140, 150), span(1, 1, 0, 140, 150)];
        let p = extract(&input).expect("one full op");
        assert_eq!(p.nodes.len(), 1);
        assert_eq!(p.nodes[0].node, 0, "tie must go to rank 0's node");
    }

    #[test]
    fn partial_op_stops_the_walk() {
        let mut input = two_rank_input();
        // op 1 lost rank 1's sample (horizon cut): walk covers op 0 only.
        input.samples.retain(|s| !(s.seq == 1 && s.rank == 1));
        let p = extract(&input).expect("op 0 is still full");
        assert_eq!(p.ops, 1);
        assert_eq!(p.span_ns, 50);
    }

    #[test]
    fn no_full_op_means_no_path() {
        let mut input = two_rank_input();
        input.samples.retain(|s| s.rank == 0);
        assert!(extract(&input).is_none());
        input.samples.clear();
        assert!(extract(&input).is_none());
    }

    #[test]
    fn split_remainder_lands_in_overhead() {
        let sh = Categories {
            compute_ns: 1,
            coll_wait_ns: 1,
            runq_wait_ns: 1,
            ..Categories::default()
        };
        let split = split_by_shares(100, Some(&sh));
        // 100/3 = 33 each; remainder 1 → overhead. Exact total.
        assert_eq!(split.compute_ns, 33);
        assert_eq!(split.overhead_ns, 1);
        assert_eq!(split.total_ns(), 100);
        let all_oh = split_by_shares(7, None);
        assert_eq!(all_oh.overhead_ns, 7);
    }
}
