//! Collective-operation communication schedules.
//!
//! §5.1 of the paper: *"The standard tree algorithm for MPI_Allreduce does
//! no more than 2·log₂(N) separate point-to-point communications to
//! complete the reduction"* — that is a binomial reduce-to-root followed
//! by a binomial broadcast, [`binomial_allreduce`]. It is the only
//! collective the study's workloads issue; their halo exchanges are
//! plain point-to-point and need no schedule.
//!
//! A schedule is the *per-rank* ordered list of [`CollStep`]s; the data
//! dependencies between ranks' steps are what turn one delayed rank into
//! a cluster-wide stall (§2's cascading effect).

use serde::{Deserialize, Serialize};

/// One step of a rank's collective schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CollStep {
    /// Send the current partial result to `peer` in round `phase`.
    Send {
        /// Destination rank.
        peer: u32,
        /// Round number (part of the message tag).
        phase: u16,
    },
    /// Receive from `peer` in round `phase`.
    Recv {
        /// Source rank.
        peer: u32,
        /// Round number.
        phase: u16,
        /// Combine into the local value (true) or replace it (false, for
        /// broadcast-style moves). Combining costs reduction compute.
        reduce: bool,
    },
}

/// Number of rounds of a binomial tree over `n` ranks.
fn tree_rounds(n: u32) -> u16 {
    if n <= 1 {
        0
    } else {
        (32 - (n - 1).leading_zeros()) as u16
    }
}

/// Binomial-tree Allreduce: reduce to rank 0, then broadcast back.
/// Works for any `n`; 2·⌈log₂ n⌉ rounds total, the paper's "standard
/// tree algorithm".
pub fn binomial_allreduce(rank: u32, n: u32) -> Vec<CollStep> {
    assert!(rank < n, "rank {rank} out of range for {n} ranks");
    let mut steps = Vec::new();
    let rounds = tree_rounds(n);
    // Reduce phase: in round k, ranks with (rank % 2^(k+1)) == 2^k send to
    // rank - 2^k; ranks with (rank % 2^(k+1)) == 0 receive from rank + 2^k
    // when that peer exists.
    for k in 0..rounds {
        let bit = 1u32 << k;
        let span = bit << 1;
        if rank % span == bit {
            steps.push(CollStep::Send {
                peer: rank - bit,
                phase: k,
            });
            break; // after sending up, this rank waits for the broadcast
        } else if rank % span == 0 && rank + bit < n {
            steps.push(CollStep::Recv {
                peer: rank + bit,
                phase: k,
                reduce: true,
            });
        }
    }
    // Broadcast phase: mirror image, rounds counted downward; phases are
    // offset so they never collide with reduce-phase tags.
    let bcast_base = rounds;
    for k in (0..rounds).rev() {
        let bit = 1u32 << k;
        let span = bit << 1;
        let phase = bcast_base + (rounds - 1 - k);
        if rank % span == bit {
            steps.push(CollStep::Recv {
                peer: rank - bit,
                phase,
                reduce: false,
            });
        } else if rank % span == 0 && rank + bit < n {
            steps.push(CollStep::Send {
                peer: rank + bit,
                phase,
            });
        }
    }
    // Receives of the broadcast must come before that rank's own
    // broadcast sends: fix ordering for non-root ranks (their Recv is
    // generated in the loop above at the round where they receive, which
    // precedes their sends in lower rounds — but the loop emits higher
    // rounds first, and a rank receives exactly once, in the highest
    // round where its bit pattern matches, so ordering is already
    // correct).
    steps
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{HashMap, HashSet, VecDeque};

    /// Total messages a schedule set sends.
    fn total_messages(schedules: &[Vec<CollStep>]) -> usize {
        schedules
            .iter()
            .flat_map(|s| s.iter())
            .filter(|s| matches!(s, CollStep::Send { .. }))
            .count()
    }

    /// Execute a schedule set abstractly: each rank runs its steps in
    /// order; a Recv blocks until the matching Send has executed. Carried
    /// values are sets of contributing ranks; a reducing Recv unions, a
    /// replacing Recv overwrites. Returns each rank's final set, or None
    /// on deadlock.
    fn simulate(schedules: &[Vec<CollStep>]) -> Option<Vec<HashSet<u32>>> {
        let n = schedules.len();
        let mut values: Vec<HashSet<u32>> = (0..n as u32).map(|r| HashSet::from([r])).collect();
        let mut pc = vec![0usize; n];
        // (src, dst, phase) -> queue of sent value-sets.
        let mut in_flight: HashMap<(u32, u32, u16), VecDeque<HashSet<u32>>> = HashMap::new();
        loop {
            let mut progressed = false;
            for r in 0..n {
                while pc[r] < schedules[r].len() {
                    match schedules[r][pc[r]] {
                        CollStep::Send { peer, phase } => {
                            let v = values[r].clone();
                            in_flight
                                .entry((r as u32, peer, phase))
                                .or_default()
                                .push_back(v);
                            pc[r] += 1;
                            progressed = true;
                        }
                        CollStep::Recv {
                            peer,
                            phase,
                            reduce,
                        } => {
                            let key = (peer, r as u32, phase);
                            let Some(q) = in_flight.get_mut(&key) else {
                                break;
                            };
                            let Some(v) = q.pop_front() else { break };
                            if reduce {
                                values[r].extend(v);
                            } else {
                                values[r] = v;
                            }
                            pc[r] += 1;
                            progressed = true;
                        }
                    }
                }
            }
            if pc.iter().enumerate().all(|(r, &p)| p == schedules[r].len()) {
                return Some(values);
            }
            if !progressed {
                return None; // deadlock
            }
        }
    }

    fn check_allreduce(n: u32, f: fn(u32, u32) -> Vec<CollStep>) {
        let schedules: Vec<_> = (0..n).map(|r| f(r, n)).collect();
        let result = simulate(&schedules).unwrap_or_else(|| panic!("deadlock at n={n}"));
        let full: HashSet<u32> = (0..n).collect();
        for (r, v) in result.iter().enumerate() {
            assert_eq!(v, &full, "rank {r} of {n} missing contributions");
        }
    }

    #[test]
    fn binomial_allreduce_all_sizes() {
        for n in 1..=66 {
            check_allreduce(n, binomial_allreduce);
        }
        for n in [128, 255, 256, 944, 1024] {
            check_allreduce(n, binomial_allreduce);
        }
    }

    #[test]
    fn binomial_message_count_matches_paper() {
        // "no more than 2·log2(N) separate point to point communications"
        // — per *rank on the critical path*; totals are 2(N-1) messages.
        for n in [2u32, 16, 944, 1024] {
            let schedules: Vec<_> = (0..n).map(|r| binomial_allreduce(r, n)).collect();
            assert_eq!(total_messages(&schedules), 2 * (n as usize - 1));
            // No rank does more than 2·ceil(log2 n) communications.
            let max_steps = schedules.iter().map(|s| s.len()).max().unwrap();
            assert!(max_steps <= 2 * tree_rounds(n) as usize + 2);
        }
    }

    #[test]
    fn single_rank_schedules_are_empty() {
        assert!(binomial_allreduce(0, 1).is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rank_bounds_checked() {
        binomial_allreduce(5, 5);
    }

    #[test]
    fn tree_rounds_values() {
        assert_eq!(tree_rounds(1), 0);
        assert_eq!(tree_rounds(2), 1);
        assert_eq!(tree_rounds(3), 2);
        assert_eq!(tree_rounds(944), 10);
        assert_eq!(tree_rounds(1024), 10);
        assert_eq!(tree_rounds(1025), 11);
    }
}
