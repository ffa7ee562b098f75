//! Algorithm 1: irregular topological sprinting.
//!
//! Starting from the master node, nodes join the sprint topology in
//! ascending order of their **Euclidean** distance to the master, with ties
//! broken by node index. Euclidean — not Hamming — ordering keeps the active
//! region compact in *every* direction: the paper's example is 4-core
//! sprinting from node 0, where Hamming ordering may pick node 2 (two hops
//! straight east) while Euclidean ordering picks node 5 (the diagonal
//! neighbor), giving shorter worst-case inter-node communication.

use crate::geometry::NodeId;
use crate::topology::{topo_nodes, Mesh2D, Topo, Topology};

/// The activation order of all nodes (Algorithm 1's list `L`).
///
/// ```
/// use noc_sim::topology::Mesh2D;
/// use noc_sim::geometry::NodeId;
/// use noc_sim::sprint_topology::sprint_order;
///
/// let order = sprint_order(&Mesh2D::paper_4x4(), NodeId(0));
/// let ids: Vec<usize> = order.iter().map(|n| n.0).collect();
/// // Fig. 5a: 3-core sprinting uses {0, 1, 4}; 4-core adds node 5.
/// assert_eq!(&ids[..4], &[0, 1, 4, 5]);
/// ```
pub fn sprint_order(topo: &dyn Topology, master: NodeId) -> Vec<NodeId> {
    let mut nodes: Vec<NodeId> = topo_nodes(topo).collect();
    // Stable sort on the topology's sprint weight keeps index order for
    // ties, as the algorithm specifies ("break ties according to the order
    // of indexes"). On a mesh the weight is squared Euclidean distance; on
    // a circulant it is ring distance (see TOPOLOGY.md).
    nodes.sort_by_key(|&n| topo.sprint_weight(master, n));
    nodes
}

/// A sprint topology: the first `level` nodes of Algorithm 1's list.
///
/// ```
/// use noc_sim::sprint_topology::SprintSet;
/// use noc_sim::geometry::NodeId;
///
/// let set = SprintSet::paper(4); // 4-core sprint on the 4x4 mesh
/// assert!(set.is_active(NodeId(5)), "Euclidean order takes the diagonal");
/// assert!(!set.is_active(NodeId(2)), "...over the straight-line node");
/// assert_eq!(set.dark_nodes().count(), 12);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SprintSet {
    topo: Topo,
    master: NodeId,
    level: usize,
    /// Activation order (all N nodes); the active set is `order[..level]`.
    order: Vec<NodeId>,
    /// Membership mask over all nodes.
    active: Vec<bool>,
}

impl SprintSet {
    /// Builds the sprint set for `level` active cores.
    ///
    /// # Panics
    ///
    /// Panics if `level` is zero or exceeds the node count, or if `master`
    /// is out of range.
    pub fn new(mesh: Mesh2D, master: NodeId, level: usize) -> Self {
        Self::on(Topo::from(mesh), master, level)
    }

    /// Builds the sprint set on an arbitrary topology, growing the region
    /// in ascending [`Topology::sprint_weight`] order.
    ///
    /// # Panics
    ///
    /// Panics if `level` is zero or exceeds the node count, or if `master`
    /// is out of range.
    pub fn on(topo: Topo, master: NodeId, level: usize) -> Self {
        assert!(
            (1..=topo.len()).contains(&level),
            "sprint level {level} outside 1..={}",
            topo.len()
        );
        assert!(master.0 < topo.len(), "master {master} out of range");
        let order = sprint_order(topo.as_dyn(), master);
        let mut active = vec![false; topo.len()];
        for &n in &order[..level] {
            active[n.0] = true;
        }
        SprintSet {
            topo,
            master,
            level,
            order,
            active,
        }
    }

    /// The paper's default: master at the top-left corner (node 0, closest
    /// to the memory controller).
    pub fn paper(level: usize) -> Self {
        Self::new(Mesh2D::paper_4x4(), NodeId(0), level)
    }

    /// The mesh.
    ///
    /// # Panics
    ///
    /// Panics on a non-mesh sprint set; use [`SprintSet::topo`] for
    /// topology-agnostic access.
    pub fn mesh(&self) -> &Mesh2D {
        self.topo
            .as_mesh()
            .expect("sprint set is not on a mesh topology")
    }

    /// The topology the region grows on.
    pub fn topo(&self) -> &Topo {
        &self.topo
    }

    /// The master node.
    pub fn master(&self) -> NodeId {
        self.master
    }

    /// Number of active nodes.
    pub fn level(&self) -> usize {
        self.level
    }

    /// Active nodes in activation order.
    pub fn active_nodes(&self) -> &[NodeId] {
        &self.order[..self.level]
    }

    /// The full activation order (list `L` over all nodes).
    pub fn full_order(&self) -> &[NodeId] {
        &self.order
    }

    /// Whether `node` is active at this level.
    pub fn is_active(&self, node: NodeId) -> bool {
        self.active[node.0]
    }

    /// Membership mask indexed by node id — the power mask for
    /// [`crate::network::Network::set_power_mask`].
    pub fn mask(&self) -> &[bool] {
        &self.active
    }

    /// Dark (gated) nodes.
    pub fn dark_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.order[self.level..].iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn order_ids(master: usize) -> Vec<usize> {
        sprint_order(&Mesh2D::paper_4x4(), NodeId(master))
            .iter()
            .map(|n| n.0)
            .collect()
    }

    #[test]
    fn paper_order_from_corner_master() {
        // Manual distances² from node 0: see Fig. 5a.
        let ids = order_ids(0);
        assert_eq!(
            ids,
            vec![0, 1, 4, 5, 2, 8, 6, 9, 10, 3, 12, 7, 13, 11, 14, 15]
        );
    }

    #[test]
    fn euclidean_beats_hamming_for_4core() {
        // The paper's argument: 4-core sprinting with Euclidean ordering
        // accommodates node 5, not node 2.
        let ids = order_ids(0);
        assert!(ids[..4].contains(&5));
        assert!(!ids[..4].contains(&2));
    }

    #[test]
    fn three_core_set_matches_both_metrics() {
        // "both cases would choose node 0, 1, and 4 as 3-core sprinting".
        let ids = order_ids(0);
        let mut first3 = ids[..3].to_vec();
        first3.sort_unstable();
        assert_eq!(first3, vec![0, 1, 4]);
    }

    #[test]
    fn eight_core_region_matches_fig5a() {
        // The red nodes of Fig. 5a: {0, 1, 2, 4, 5, 6, 8, 9}.
        let s = SprintSet::paper(8);
        let mut ids: Vec<usize> = s.active_nodes().iter().map(|n| n.0).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 2, 4, 5, 6, 8, 9]);
    }

    #[test]
    fn center_master_grows_outwards() {
        let ids = order_ids(5);
        assert_eq!(ids[0], 5);
        // The four mesh neighbors of node 5 come next (dist² = 1).
        let mut next4 = ids[1..5].to_vec();
        next4.sort_unstable();
        assert_eq!(next4, vec![1, 4, 6, 9]);
    }

    #[test]
    fn master_is_always_first() {
        for m in 0..16 {
            assert_eq!(order_ids(m)[0], m);
        }
    }

    #[test]
    fn order_is_a_permutation() {
        for m in [0, 5, 15] {
            let mut ids = order_ids(m);
            ids.sort_unstable();
            assert_eq!(ids, (0..16).collect::<Vec<_>>());
        }
    }

    #[test]
    fn distances_are_nondecreasing_along_order() {
        let mesh = Mesh2D::new(6, 5).unwrap();
        for m in [0usize, 7, 29] {
            let order = sprint_order(&mesh, NodeId(m));
            let mc = mesh.coord(NodeId(m));
            let dists: Vec<u32> = order.iter().map(|&n| mesh.coord(n).euclidean_sq(mc)).collect();
            assert!(dists.windows(2).all(|w| w[0] <= w[1]));
        }
    }

    #[test]
    fn sprint_set_masks_and_levels() {
        let s = SprintSet::paper(4);
        assert_eq!(s.level(), 4);
        assert_eq!(s.active_nodes().len(), 4);
        assert_eq!(s.mask().iter().filter(|&&b| b).count(), 4);
        assert_eq!(s.dark_nodes().count(), 12);
        assert!(s.is_active(NodeId(0)));
        assert!(!s.is_active(NodeId(15)));
    }

    #[test]
    fn full_level_activates_everything() {
        let s = SprintSet::paper(16);
        assert!(s.mask().iter().all(|&b| b));
        assert_eq!(s.dark_nodes().count(), 0);
    }

    #[test]
    #[should_panic(expected = "sprint level")]
    fn level_zero_rejected() {
        let _ = SprintSet::paper(0);
    }

    #[test]
    #[should_panic(expected = "sprint level")]
    fn oversized_level_rejected() {
        let _ = SprintSet::paper(17);
    }
}
