//! Job layout: the rank ↔ thread address map.
//!
//! Thread ids are assigned by each node's kernel as the installer spawns
//! ranks, so the map can only be built after the spawn — mirroring how
//! POE's partition manager daemon learns task pids after fork and hands
//! the map out once (§4). The installer gives its ranks an unset
//! [`LayoutHandle`]; the caller builds the owned [`JobLayout`] and sets it
//! exactly once ([`Job::freeze_layout`](crate::Job::freeze_layout))
//! before the ranks run. From then on it is plain read-only data, shared
//! by rank programs on every shard of the parallel engine.

use pa_kernel::Endpoint;
use std::sync::{Arc, OnceLock};

/// Addresses of every rank, each node's co-scheduler control pipe and
/// the GPFS servers.
#[derive(Debug, Clone)]
pub struct JobLayout {
    endpoints: Vec<Endpoint>,
    tasks_per_node: u32,
    /// Indexed by node.
    cosched: Vec<Option<Endpoint>>,
    /// GPFS (mmfsd) service endpoints, in node order.
    gpfs: Vec<Endpoint>,
}

/// Shared layout handle, set once before the ranks run. A rank that runs
/// before it is set panics.
pub type LayoutHandle = Arc<OnceLock<JobLayout>>;

impl JobLayout {
    /// A layout from rank endpoints (rank order) and the block shape,
    /// plus the co-scheduler and GPFS service endpoints (node order).
    pub fn new(
        endpoints: Vec<Endpoint>,
        tasks_per_node: u32,
        cosched: impl IntoIterator<Item = Endpoint>,
        gpfs: impl IntoIterator<Item = Endpoint>,
    ) -> JobLayout {
        assert!(tasks_per_node > 0);
        assert!(
            endpoints.len() as u32 % tasks_per_node == 0,
            "ragged layouts are not modeled"
        );
        let mut by_node: Vec<Option<Endpoint>> = Vec::new();
        for ep in cosched {
            if by_node.len() <= ep.node as usize {
                by_node.resize(ep.node as usize + 1, None);
            }
            by_node[ep.node as usize] = Some(ep);
        }
        JobLayout {
            endpoints,
            tasks_per_node,
            cosched: by_node,
            gpfs: gpfs.into_iter().collect(),
        }
    }

    /// Total ranks.
    pub fn nranks(&self) -> u32 {
        self.endpoints.len() as u32
    }

    /// Tasks per node.
    pub fn tasks_per_node(&self) -> u32 {
        self.tasks_per_node
    }

    /// A rank's address.
    ///
    /// # Panics
    /// Panics if the rank is out of range — an installer bug.
    pub fn endpoint(&self, rank: u32) -> Endpoint {
        self.endpoints[rank as usize]
    }

    /// The node hosting a rank.
    pub fn node_of(&self, rank: u32) -> u32 {
        self.endpoint(rank).node
    }

    /// Ranks hosted on `node`, in rank order.
    pub fn ranks_on(&self, node: u32) -> Vec<u32> {
        (0..self.nranks())
            .filter(|&r| self.node_of(r) == node)
            .collect()
    }

    /// The co-scheduler control endpoint on `node`, if any.
    pub fn cosched(&self, node: u32) -> Option<Endpoint> {
        self.cosched.get(node as usize).copied().flatten()
    }

    /// Pick the GPFS server for transaction `token` issued by `rank`:
    /// GPFS spreads blocks (and therefore metanode/NSD service) across the
    /// cluster, so requests hash over the nodes that run a server.
    pub fn gpfs_server_for(&self, rank: u32, token: u64) -> Option<Endpoint> {
        if self.gpfs.is_empty() {
            return None;
        }
        let idx = (u64::from(rank).wrapping_mul(31).wrapping_add(token)) % self.gpfs.len() as u64;
        Some(self.gpfs[idx as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pa_kernel::Tid;

    fn ep(node: u32, tid: u32) -> Endpoint {
        Endpoint {
            node,
            tid: Tid(tid),
        }
    }

    #[test]
    fn block_layout_queries() {
        let ranks = vec![ep(0, 1), ep(0, 2), ep(1, 1), ep(1, 2)];
        let l = JobLayout::new(ranks, 2, [], []);
        assert_eq!(l.nranks(), 4);
        assert_eq!(l.tasks_per_node(), 2);
        assert_eq!(l.endpoint(2), ep(1, 1));
        assert_eq!(l.node_of(3), 1);
        assert_eq!(l.ranks_on(0), vec![0, 1]);
        assert_eq!(l.ranks_on(1), vec![2, 3]);
    }

    #[test]
    fn cosched_registration() {
        let l = JobLayout::new(vec![ep(0, 1), ep(1, 1)], 1, [ep(1, 0)], []);
        assert_eq!(l.cosched(1), Some(ep(1, 0)));
        assert_eq!(l.cosched(0), None);
        assert_eq!(l.cosched(7), None);
    }

    #[test]
    fn gpfs_requests_hash_over_servers_in_node_order() {
        let ranks = vec![ep(0, 1), ep(1, 1), ep(2, 1)];
        let l = JobLayout::new(ranks.clone(), 1, [], [ep(0, 9), ep(2, 9)]);
        assert_eq!(l.gpfs_server_for(0, 0), Some(ep(0, 9)));
        assert_eq!(l.gpfs_server_for(0, 1), Some(ep(2, 9)));
        assert_eq!(l.gpfs_server_for(1, 0), Some(ep(2, 9)));
        assert_eq!(JobLayout::new(ranks, 1, [], []).gpfs_server_for(0, 0), None);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_layout_rejected() {
        JobLayout::new(vec![ep(0, 1), ep(0, 2), ep(1, 1)], 2, [], []);
    }
}
