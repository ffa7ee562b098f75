//! Routing functions.
//!
//! The simulator is parameterized over a [`RoutingFunction`]; the baseline is
//! dimension-order X-Y routing ([`XyRouting`]). The paper's CDOR (convex
//! dimension-order routing with connectivity bits) lives in
//! [`crate::cdor`] and implements this same trait. Each topology hands out
//! its own routing through [`Topology::routing`], and [`is_deadlock_free`]
//! checks any of them.

use std::fmt::Debug;

use crate::geometry::{Direction, NodeId, Port};
use crate::topology::{Circulant, Topology};

/// Outcome of a fault-aware route computation
/// ([`RoutingFunction::route_degraded`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteDecision {
    /// Forward the packet through this output port.
    Forward(Port),
    /// No usable path to the destination exists; drop the packet cleanly
    /// (the network counts it — see
    /// [`FaultStats::packets_dropped`](crate::fault::FaultStats)).
    Drop,
}

/// Computes the output port a head flit should take at a router.
///
/// Implementations must be deterministic: the simulator calls `route` once
/// per packet per hop during the route-compute stage.
pub trait RoutingFunction: Debug + Send + Sync {
    /// Output port for a packet at `current` heading to `dst`.
    ///
    /// Returns [`Port::Local`] when `current == dst`.
    fn route(&self, topo: &dyn Topology, current: NodeId, dst: NodeId) -> Port;

    /// Length (in hops) of the path this function produces, by walking it.
    ///
    /// Useful for tests and analytical latency estimates. Walks at most
    /// `topo.len()` hops and panics if the route does not converge (which
    /// would indicate a livelock in the routing function).
    fn path_hops(&self, topo: &dyn Topology, src: NodeId, dst: NodeId) -> u32 {
        let mut cur = src;
        let mut hops = 0;
        while cur != dst {
            let port = self.route(topo, cur, dst);
            let dir = port
                .direction()
                .unwrap_or_else(|| panic!("route({cur}, {dst}) returned Local before arrival"));
            cur = topo
                .neighbor(cur, dir)
                .unwrap_or_else(|| panic!("route({cur}, {dst}) walked off the topology going {dir}"));
            hops += 1;
            assert!(
                hops <= topo.len() as u32,
                "routing function failed to converge from {src} to {dst}"
            );
        }
        hops
    }

    /// Fault-aware route computation: like [`route`](Self::route), but some
    /// links may be unusable. `usable(a, b)` reports whether the directed
    /// link `a -> b` can currently accept a new packet.
    ///
    /// The default implementation tries the primary route first, then any
    /// other direction that strictly reduces the topology's hop distance to the
    /// destination (so fallback paths remain minimal and therefore
    /// livelock-free), in [`Direction::ALL`] order for determinism. When no
    /// minimal usable hop exists it returns [`RouteDecision::Drop`].
    ///
    /// Implementations with their own reachable-region invariants (like
    /// CDOR) should override this to keep fallbacks inside their region.
    ///
    /// ```
    /// use noc_sim::geometry::{NodeId, Port, Direction};
    /// use noc_sim::routing::{RouteDecision, RoutingFunction, XyRouting};
    /// use noc_sim::topology::Mesh2D;
    ///
    /// let mesh = Mesh2D::paper_4x4();
    /// // With 0 -> 1 unusable, X-first 0 -> 5 falls back to the south hop.
    /// let usable = |a: NodeId, b: NodeId| !(a == NodeId(0) && b == NodeId(1));
    /// assert_eq!(
    ///     XyRouting.route_degraded(&mesh, NodeId(0), NodeId(5), &usable),
    ///     RouteDecision::Forward(Port::Dir(Direction::South)),
    /// );
    /// ```
    fn route_degraded(
        &self,
        topo: &dyn Topology,
        current: NodeId,
        dst: NodeId,
        usable: &dyn Fn(NodeId, NodeId) -> bool,
    ) -> RouteDecision {
        if current == dst {
            return RouteDecision::Forward(Port::Local);
        }
        let primary = self.route(topo, current, dst);
        if let Some(d) = primary.direction() {
            if let Some(next) = topo.neighbor(current, d) {
                if usable(current, next) {
                    return RouteDecision::Forward(primary);
                }
            }
        }
        let here = topo.hops(current, dst);
        for d in Direction::ALL {
            if Port::Dir(d) == primary {
                continue;
            }
            if let Some(next) = topo.neighbor(current, d) {
                if topo.hops(next, dst) < here && usable(current, next) {
                    return RouteDecision::Forward(Port::Dir(d));
                }
            }
        }
        RouteDecision::Drop
    }

    /// Number of VC *classes* this routing function partitions each vnet's
    /// VCs into for deadlock avoidance (default 1: no partitioning, the
    /// whole vnet range is one class).
    ///
    /// With `k > 1` classes, VC allocation for non-local output ports is
    /// restricted to the class subrange chosen by
    /// [`vc_class`](Self::vc_class); every vnet's VC range must divide
    /// evenly by `k` (validated at network construction). This is how
    /// dateline-style escape arguments (the circulant's) plug into the
    /// cycle engines without touching mesh runs.
    fn vc_classes(&self) -> usize {
        1
    }

    /// The VC class a packet at `node` heading to `dst` must use on
    /// `out_port` (`0..vc_classes()`). Only consulted when
    /// [`vc_classes`](Self::vc_classes) `> 1` and `out_port` is a direction
    /// port; must be deterministic in its arguments.
    fn vc_class(&self, _topo: &dyn Topology, _node: NodeId, _out_port: Port, _dst: NodeId) -> usize {
        0
    }

    /// Full path from `src` to `dst` including both endpoints.
    fn path(&self, topo: &dyn Topology, src: NodeId, dst: NodeId) -> Vec<NodeId> {
        let mut cur = src;
        let mut path = vec![cur];
        while cur != dst {
            let port = self.route(topo, cur, dst);
            let dir = port
                .direction()
                .unwrap_or_else(|| panic!("route({cur}, {dst}) returned Local before arrival"));
            cur = topo
                .neighbor(cur, dir)
                .unwrap_or_else(|| panic!("route({cur}, {dst}) walked off the topology going {dir}"));
            path.push(cur);
            assert!(
                path.len() <= topo.len() + 1,
                "routing function failed to converge from {src} to {dst}"
            );
        }
        path
    }
}

/// Counts ordered `(src, dst)` pairs among `nodes` that a routing function
/// cannot connect when some links are unusable: walking
/// [`RoutingFunction::route_degraded`] from `src` either reaches a
/// [`RouteDecision::Drop`] or fails to converge within `topo.len()` hops.
///
/// The `resilience` bench reports this as the `unreachable_pairs` metric
/// (evaluated against permanently dead links only).
pub fn unreachable_pairs(
    routing: &dyn RoutingFunction,
    topo: &dyn Topology,
    nodes: &[NodeId],
    usable: &dyn Fn(NodeId, NodeId) -> bool,
) -> usize {
    let mut unreachable = 0;
    for &src in nodes {
        for &dst in nodes {
            if src == dst {
                continue;
            }
            let mut cur = src;
            let mut hops = 0usize;
            loop {
                match routing.route_degraded(topo, cur, dst, usable) {
                    RouteDecision::Forward(Port::Local) => break,
                    RouteDecision::Forward(p) => {
                        let d = p.direction().expect("non-local port has a direction");
                        cur = topo.neighbor(cur, d).expect("degraded route left the topology");
                    }
                    RouteDecision::Drop => {
                        unreachable += 1;
                        break;
                    }
                }
                hops += 1;
                if hops > topo.len() {
                    unreachable += 1;
                    break;
                }
            }
        }
    }
    unreachable
}

/// Classic dimension-order X-Y routing: correct X first, then Y.
///
/// Deadlock-free on a full mesh because it never makes a Y→X turn.
///
/// ```
/// use noc_sim::routing::{RoutingFunction, XyRouting};
/// use noc_sim::topology::Mesh2D;
/// use noc_sim::geometry::NodeId;
///
/// let mesh = Mesh2D::paper_4x4();
/// let xy = XyRouting;
/// assert_eq!(xy.path_hops(&mesh, NodeId(0), NodeId(15)), 6);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct XyRouting;

impl RoutingFunction for XyRouting {
    fn route(&self, topo: &dyn Topology, current: NodeId, dst: NodeId) -> Port {
        let mesh = topo.as_mesh().expect("XyRouting requires a mesh topology");
        let c = mesh.coord(current);
        let d = mesh.coord(dst);
        if c.x < d.x {
            Port::Dir(Direction::East)
        } else if c.x > d.x {
            Port::Dir(Direction::West)
        } else if c.y < d.y {
            Port::Dir(Direction::South)
        } else if c.y > d.y {
            Port::Dir(Direction::North)
        } else {
            Port::Local
        }
    }
}

/// Deterministic negative-first routing (Glass & Ni turn model): all moves
/// in the *negative* directions (west, north — toward smaller coordinates)
/// are made before any positive move, which forbids every positive→negative
/// turn and is therefore deadlock-free. Unlike dimension order it mixes the
/// dimensions on the negative leg, giving a third deadlock-free baseline
/// with a different turn set.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NegativeFirstRouting;

impl RoutingFunction for NegativeFirstRouting {
    fn route(&self, topo: &dyn Topology, current: NodeId, dst: NodeId) -> Port {
        let mesh = topo.as_mesh().expect("NegativeFirstRouting requires a mesh topology");
        let c = mesh.coord(current);
        let d = mesh.coord(dst);
        if c.x > d.x {
            Port::Dir(Direction::West)
        } else if c.y > d.y {
            Port::Dir(Direction::North)
        } else if c.x < d.x {
            Port::Dir(Direction::East)
        } else if c.y < d.y {
            Port::Dir(Direction::South)
        } else {
            Port::Local
        }
    }
}

/// Y-X routing (correct Y first, then X); used in tests as an alternative
/// deadlock-free baseline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct YxRouting;

impl RoutingFunction for YxRouting {
    fn route(&self, topo: &dyn Topology, current: NodeId, dst: NodeId) -> Port {
        let mesh = topo.as_mesh().expect("YxRouting requires a mesh topology");
        let c = mesh.coord(current);
        let d = mesh.coord(dst);
        if c.y < d.y {
            Port::Dir(Direction::South)
        } else if c.y > d.y {
            Port::Dir(Direction::North)
        } else if c.x < d.x {
            Port::Dir(Direction::East)
        } else if c.x > d.x {
            Port::Dir(Direction::West)
        } else {
            Port::Local
        }
    }
}

/// Table-free routing for the ring-circulant C(N; 1, s)
/// ([`Circulant`]).
///
/// **Full topology** (no arc restriction): chord-first dimension-order
/// routing. At every hop the index difference to the destination is
/// decomposed minimally into chords and ring steps
/// ([`Circulant::decompose`]); all chord hops are taken first, then ring
/// hops. Re-deriving the decomposition at each hop makes minimality and
/// termination *local* properties — the remaining cost drops by exactly one
/// per hop — so no routing table is needed.
///
/// **Sprint regions** (an arc mask): packets walk the unique in-arc ring
/// path. Chords are not used below the full sprint level: a chord endpoint
/// may lie outside the arc, and the unique-path property is what makes the
/// region argument trivially deadlock-free. (The trade-off — arc-only paths
/// are longer than chord paths — is documented in TOPOLOGY.md.)
///
/// **Deadlock freedom** (full topology) uses two dateline VC classes per
/// dimension ([`RoutingFunction::vc_classes`] = 2): a hop's class is 0
/// while the packet's remaining segment in the current dimension still
/// crosses the index wrap-around, and 1 after. Within a class, node indices
/// along same-port chains are strictly monotone, so the extended channel
/// dependency graph is acyclic; the chord→ring dimension order rules out
/// inter-dimension cycles. [`is_deadlock_free`] pins this per instance by
/// exhaustive path enumeration.
///
/// ```
/// use noc_sim::geometry::NodeId;
/// use noc_sim::routing::{CirculantRouting, RoutingFunction};
/// use noc_sim::topology::{Circulant, Topology};
///
/// let topo = Circulant::new(16, 5)?;
/// let routing = CirculantRouting::full();
/// // Routes are minimal: the walked path always matches the oracle.
/// assert_eq!(routing.path_hops(&topo, NodeId(0), NodeId(7)), topo.hops(NodeId(0), NodeId(7)));
/// # Ok::<(), noc_sim::error::TopologyError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CirculantRouting {
    /// Active-arc mask; `None` routes on the full topology.
    active: Option<Vec<bool>>,
}

impl CirculantRouting {
    /// Chord-first routing on the full topology.
    pub fn full() -> Self {
        CirculantRouting { active: None }
    }

    /// In-arc ring routing restricted to the active nodes.
    ///
    /// A fully-true mask degrades to [`CirculantRouting::full`] (the whole
    /// ring is not an arc, and chords are safe with every node lit).
    ///
    /// # Panics
    ///
    /// Panics if the active nodes do not form one contiguous ring arc.
    pub fn on_arc(active: Vec<bool>) -> Self {
        let n = active.len();
        let lit = active.iter().filter(|&&a| a).count();
        if lit == n {
            return CirculantRouting::full();
        }
        assert!(lit > 0, "empty sprint region");
        assert!(
            crate::topology::is_ring_arc(&active),
            "active nodes do not form a contiguous ring arc"
        );
        CirculantRouting {
            active: Some(active),
        }
    }

    /// The in-arc step from `current` toward `dst`: ring direction plus the
    /// number of remaining hops, and whether the remaining walk crosses the
    /// index wrap-around (the dateline, for class assignment).
    fn arc_walk(&self, c: &Circulant, current: NodeId, dst: NodeId) -> (Direction, usize, bool) {
        let mask = self.active.as_ref().expect("arc mode");
        assert!(
            mask[current.0] && mask[dst.0],
            "arc routing outside the active region ({current} -> {dst})"
        );
        let n = c.n();
        // Walk east; if that leaves the arc before reaching dst, the unique
        // in-arc path goes west.
        let fwd = c.delta(current, dst);
        let east_ok = (1..fwd).all(|k| mask[(current.0 + k) % n]);
        if east_ok {
            (Direction::East, fwd, current.0 + fwd >= n)
        } else {
            let back = n - fwd;
            debug_assert!(
                (1..back).all(|k| mask[(current.0 + n - k % n) % n]),
                "no in-arc path from {current} to {dst}"
            );
            (Direction::West, back, current.0 < back)
        }
    }
}

/// Downcasts the routing topology, with a clear panic for misuse.
fn circulant_of(topo: &dyn Topology) -> &Circulant {
    topo.as_circulant()
        .expect("CirculantRouting requires a circulant topology")
}

impl RoutingFunction for CirculantRouting {
    fn route(&self, topo: &dyn Topology, current: NodeId, dst: NodeId) -> Port {
        let c = circulant_of(topo);
        if current == dst {
            return Port::Local;
        }
        match &self.active {
            None => {
                let (j, r) = c.decompose(c.delta(current, dst));
                if j > 0 {
                    Port::Dir(Direction::South)
                } else if j < 0 {
                    Port::Dir(Direction::North)
                } else if r > 0 {
                    Port::Dir(Direction::East)
                } else {
                    Port::Dir(Direction::West)
                }
            }
            Some(_) => Port::Dir(self.arc_walk(c, current, dst).0),
        }
    }

    fn vc_classes(&self) -> usize {
        2
    }

    fn vc_class(&self, topo: &dyn Topology, node: NodeId, out_port: Port, dst: NodeId) -> usize {
        let c = circulant_of(topo);
        let Some(dir) = out_port.direction() else {
            return 0;
        };
        let n = c.n() as i64;
        let pos = node.0 as i64;
        // The signed remaining segment in the output port's dimension; the
        // class is 0 while that segment still crosses the index wrap (the
        // dateline) and 1 after, which is monotone along any path.
        let end = match &self.active {
            None => {
                let (j, r) = c.decompose(c.delta(node, dst));
                match dir {
                    Direction::South | Direction::North => pos + j * c.skip() as i64,
                    Direction::East | Direction::West => pos + r,
                }
            }
            Some(_) => {
                let (walk_dir, len, _) = self.arc_walk(c, node, dst);
                match walk_dir {
                    Direction::East => pos + len as i64,
                    _ => pos - len as i64,
                }
            }
        };
        usize::from(!(end >= n || end < 0))
    }

    fn route_degraded(
        &self,
        topo: &dyn Topology,
        current: NodeId,
        dst: NodeId,
        usable: &dyn Fn(NodeId, NodeId) -> bool,
    ) -> RouteDecision {
        if current == dst {
            return RouteDecision::Forward(Port::Local);
        }
        let primary = self.route(topo, current, dst);
        let d = primary.direction().expect("non-local route has a direction");
        let next = topo
            .neighbor(current, d)
            .expect("circulant nodes have all four neighbors");
        if usable(current, next) {
            return RouteDecision::Forward(primary);
        }
        match &self.active {
            // Full topology: any other minimal hop keeps the walk
            // livelock-free, exactly like the trait default.
            None => {
                let here = topo.hops(current, dst);
                for alt in Direction::ALL {
                    if Port::Dir(alt) == primary {
                        continue;
                    }
                    let m = topo.neighbor(current, alt).expect("degree-4 node");
                    if topo.hops(m, dst) < here && usable(current, m) {
                        return RouteDecision::Forward(Port::Dir(alt));
                    }
                }
                RouteDecision::Drop
            }
            // The in-arc path is unique; with its next hop unusable the
            // packet is cleanly dropped.
            Some(_) => RouteDecision::Drop,
        }
    }
}

/// Whether `routing` is deadlock-free over the `active` nodes of `topo`:
/// its extended channel dependency graph is acyclic (the Dally–Seitz
/// criterion for deterministic routing, extended with VC classes).
///
/// Channels are `(node, direction, vc class)`; routing functions with one
/// VC class (XY, CDOR) put every channel in class 0. Every active
/// source→destination path is walked, recording the dependency from each
/// acquired channel to the next; a topological sort (Kahn) then decides
/// acyclicity. This is the one machine check behind every topology's
/// deadlock-freedom claim in TOPOLOGY.md: CDOR on convex mesh regions,
/// the circulant's dateline classes on the full ring, and its in-arc
/// ring walk on partial regions.
///
/// # Panics
///
/// Panics if `active` does not have one entry per node, or if the routing
/// function walks off the topology or fails to converge.
pub fn is_deadlock_free(
    topo: &dyn Topology,
    routing: &dyn RoutingFunction,
    active: &[bool],
) -> bool {
    assert_eq!(active.len(), topo.len(), "mask length mismatch");
    let classes = routing.vc_classes();
    // Dense channel ids: (node, dir, class).
    let chan = |node: NodeId, dir: Direction, class: usize| {
        (node.0 * Direction::ALL.len() + dir as usize) * classes + class
    };
    let num_chans = topo.len() * Direction::ALL.len() * classes;
    let lit: Vec<NodeId> = (0..topo.len()).filter(|&i| active[i]).map(NodeId).collect();
    let mut edges: std::collections::BTreeSet<(usize, usize)> = std::collections::BTreeSet::new();
    for &src in &lit {
        for &dst in &lit {
            let mut cur = src;
            let mut prev: Option<usize> = None;
            let mut hops = 0;
            while cur != dst {
                let port = routing.route(topo, cur, dst);
                let dir = port
                    .direction()
                    .unwrap_or_else(|| panic!("route({cur}, {dst}) returned Local before arrival"));
                let class = if classes > 1 {
                    routing.vc_class(topo, cur, port, dst)
                } else {
                    0
                };
                let id = chan(cur, dir, class);
                if let Some(p) = prev {
                    edges.insert((p, id));
                }
                prev = Some(id);
                cur = topo
                    .neighbor(cur, dir)
                    .unwrap_or_else(|| panic!("route({cur}, {dst}) walked off the topology"));
                hops += 1;
                assert!(hops <= topo.len(), "routing failed to converge from {src} to {dst}");
            }
        }
    }
    // Kahn's algorithm; channels no path uses have in-degree 0 and fall out
    // immediately.
    let mut indeg = vec![0usize; num_chans];
    let mut out: Vec<Vec<usize>> = vec![Vec::new(); num_chans];
    for &(a, b) in &edges {
        out[a].push(b);
        indeg[b] += 1;
    }
    let mut queue: Vec<usize> = (0..num_chans).filter(|&i| indeg[i] == 0).collect();
    let mut seen = 0;
    while let Some(a) = queue.pop() {
        seen += 1;
        for &b in &out[a] {
            indeg[b] -= 1;
            if indeg[b] == 0 {
                queue.push(b);
            }
        }
    }
    seen == num_chans
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Mesh2D;

    #[test]
    fn xy_routes_minimally_between_all_pairs() {
        let mesh = Mesh2D::paper_4x4();
        let xy = XyRouting;
        for s in mesh.nodes() {
            for d in mesh.nodes() {
                assert_eq!(xy.path_hops(&mesh, s, d), mesh.hops(s, d));
            }
        }
    }

    #[test]
    fn yx_routes_minimally_between_all_pairs() {
        let mesh = Mesh2D::new(5, 3).unwrap();
        let yx = YxRouting;
        for s in mesh.nodes() {
            for d in mesh.nodes() {
                assert_eq!(yx.path_hops(&mesh, s, d), mesh.hops(s, d));
            }
        }
    }

    #[test]
    fn xy_corrects_x_before_y() {
        let mesh = Mesh2D::paper_4x4();
        // From node 0 (0,0) to node 15 (3,3): XY goes 0,1,2,3,7,11,15.
        let path = XyRouting.path(&mesh, NodeId(0), NodeId(15));
        let ids: Vec<usize> = path.iter().map(|n| n.0).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 7, 11, 15]);
    }

    #[test]
    fn yx_corrects_y_before_x() {
        let mesh = Mesh2D::paper_4x4();
        let path = YxRouting.path(&mesh, NodeId(0), NodeId(15));
        let ids: Vec<usize> = path.iter().map(|n| n.0).collect();
        assert_eq!(ids, vec![0, 4, 8, 12, 13, 14, 15]);
    }

    #[test]
    fn route_to_self_is_local() {
        let mesh = Mesh2D::paper_4x4();
        assert_eq!(XyRouting.route(&mesh, NodeId(6), NodeId(6)), Port::Local);
        assert_eq!(YxRouting.route(&mesh, NodeId(6), NodeId(6)), Port::Local);
    }

    #[test]
    fn negative_first_is_minimal_everywhere() {
        let mesh = Mesh2D::new(5, 6).unwrap();
        let nf = NegativeFirstRouting;
        for s in mesh.nodes() {
            for d in mesh.nodes() {
                assert_eq!(nf.path_hops(&mesh, s, d), mesh.hops(s, d));
            }
        }
    }

    #[test]
    fn negative_first_never_turns_positive_to_negative() {
        // The turn-model property itself: once a positive (E/S) move is
        // made, no negative (W/N) move follows.
        let mesh = Mesh2D::new(6, 6).unwrap();
        let nf = NegativeFirstRouting;
        for s in mesh.nodes() {
            for d in mesh.nodes() {
                let path = nf.path(&mesh, s, d);
                let mut seen_positive = false;
                for w in path.windows(2) {
                    let a = mesh.coord(w[0]);
                    let b = mesh.coord(w[1]);
                    let negative = b.x < a.x || b.y < a.y;
                    if seen_positive {
                        assert!(!negative, "positive->negative turn on {path:?}");
                    }
                    seen_positive |= !negative;
                }
            }
        }
    }

    #[test]
    fn negative_first_differs_from_xy_on_northeast_routes() {
        // To a destination north-east of the source, negative-first does
        // the north leg before the east leg; XY does the opposite.
        let mesh = Mesh2D::paper_4x4();
        // From node 8 (0,2) to node 3 (3,0).
        let nf_path = NegativeFirstRouting.path(&mesh, NodeId(8), NodeId(3));
        let xy_path = XyRouting.path(&mesh, NodeId(8), NodeId(3));
        assert_ne!(nf_path, xy_path);
        assert_eq!(nf_path[1], NodeId(4), "negative-first goes north first");
        assert_eq!(xy_path[1], NodeId(9), "XY goes east first");
    }

    #[test]
    fn degraded_default_falls_back_to_minimal_alternative() {
        let mesh = Mesh2D::paper_4x4();
        // 0 -> 5: primary is East (to 1). With that link down, the south hop
        // (to 4) is the other minimal move.
        let usable = |a: NodeId, b: NodeId| !(a == NodeId(0) && b == NodeId(1));
        assert_eq!(
            XyRouting.route_degraded(&mesh, NodeId(0), NodeId(5), &usable),
            RouteDecision::Forward(Port::Dir(Direction::South))
        );
        // Healthy network: primary route unchanged.
        let all = |_: NodeId, _: NodeId| true;
        assert_eq!(
            XyRouting.route_degraded(&mesh, NodeId(0), NodeId(5), &all),
            RouteDecision::Forward(Port::Dir(Direction::East))
        );
        assert_eq!(
            XyRouting.route_degraded(&mesh, NodeId(5), NodeId(5), &all),
            RouteDecision::Forward(Port::Local)
        );
    }

    #[test]
    fn degraded_default_drops_when_no_minimal_hop_is_usable() {
        let mesh = Mesh2D::paper_4x4();
        // 0 -> 3 is a straight-line route: the only minimal direction is
        // East. Killing 0 -> 1 leaves no minimal usable hop.
        let usable = |a: NodeId, b: NodeId| !(a == NodeId(0) && b == NodeId(1));
        assert_eq!(
            XyRouting.route_degraded(&mesh, NodeId(0), NodeId(3), &usable),
            RouteDecision::Drop
        );
    }

    #[test]
    fn unreachable_pairs_counts_cut_destinations() {
        let mesh = Mesh2D::paper_4x4();
        let nodes: Vec<NodeId> = mesh.nodes().collect();
        let all = |_: NodeId, _: NodeId| true;
        assert_eq!(unreachable_pairs(&XyRouting, &mesh, &nodes, &all), 0);
        // Cut every link into node 15 (from 11 and from 14): 15 becomes
        // unreachable from the other 15 nodes, and XY from 15 still gets out.
        let cut = |_a: NodeId, b: NodeId| b != NodeId(15);
        assert_eq!(unreachable_pairs(&XyRouting, &mesh, &nodes, &cut), 15);
    }

    #[test]
    fn xy_never_turns_from_y_to_x() {
        // Turn-model check: once travelling in Y, XY routing never goes back
        // to X. Verified over every pair by inspecting consecutive moves.
        let mesh = Mesh2D::new(6, 6).unwrap();
        let xy = XyRouting;
        for s in mesh.nodes() {
            for d in mesh.nodes() {
                let path = xy.path(&mesh, s, d);
                let mut seen_y = false;
                for w in path.windows(2) {
                    let a = mesh.coord(w[0]);
                    let b = mesh.coord(w[1]);
                    let is_y_move = a.x == b.x;
                    if seen_y {
                        assert!(is_y_move, "Y→X turn on path {path:?}");
                    }
                    seen_y |= is_y_move;
                }
            }
        }
    }

    /// The (n, skip) instances swept by the circulant routing tests.
    fn circulant_instances() -> Vec<(usize, usize)> {
        vec![(16, 3), (16, 5), (16, 7), (5, 2), (9, 4), (25, 7), (64, 9)]
    }

    #[test]
    fn circulant_full_routing_is_minimal_between_all_pairs() {
        for (n, skip) in circulant_instances() {
            let topo = Circulant::new(n, skip).unwrap();
            let routing = CirculantRouting::full();
            for s in 0..n {
                for d in 0..n {
                    let (s, d) = (NodeId(s), NodeId(d));
                    assert_eq!(
                        routing.path_hops(&topo, s, d),
                        topo.hops(s, d),
                        "non-minimal route {s} -> {d} on C({n}; 1, {skip})"
                    );
                }
            }
        }
    }

    #[test]
    fn circulant_full_routing_stays_within_diameter() {
        for (n, skip) in circulant_instances() {
            let topo = Circulant::new(n, skip).unwrap();
            let routing = CirculantRouting::full();
            for s in 0..n {
                for d in 0..n {
                    let hops = routing.path_hops(&topo, NodeId(s), NodeId(d));
                    assert!(hops <= topo.diameter(), "C({n}; 1, {skip}): {hops} hops");
                }
            }
        }
    }

    #[test]
    fn circulant_cdg_acyclic_across_instances() {
        // The dateline VC-class argument, machine-checked: the extended
        // channel dependency graph is acyclic for every reference instance.
        for (n, skip) in circulant_instances() {
            let topo = Circulant::new(n, skip).unwrap();
            assert!(
                is_deadlock_free(&topo, &CirculantRouting::full(), &vec![true; n]),
                "CDG of C({n}; 1, {skip}) has a cycle"
            );
        }
    }

    #[test]
    fn reference_sprint_regions_route_deadlock_free_inside_the_region() {
        // Every prefix of Algorithm 1's growth order, on every reference
        // topology, is a valid region whose gated routing is deadlock-free
        // and never leaves it: CDOR on mesh regions, the in-arc ring walk
        // on circulant arcs (and the full routings at the top level).
        use crate::sprint_topology::SprintSet;
        use crate::topology::reference_specs;
        for spec in reference_specs() {
            let topo = spec.build().unwrap();
            let n = topo.len();
            for master in [0, n - 1] {
                for level in 1..=n {
                    let set = SprintSet::on(topo.clone(), NodeId(master), level);
                    let at = format!("{} master {master} level {level}", topo.label());
                    assert!(topo.region_valid(set.mask()), "{at}: invalid region");
                    let routing = topo.routing(Some(set.mask()));
                    assert!(is_deadlock_free(&*topo, &*routing, set.mask()), "{at}: CDG cycle");
                    for &s in set.active_nodes() {
                        for &d in set.active_nodes() {
                            let path = routing.path(&*topo, s, d);
                            let inside = path.iter().all(|&x| set.is_active(x));
                            assert!(inside, "{at}: {path:?} leaves the region");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn circulant_vc_class_is_monotone_along_paths() {
        // Class 0 (pre-dateline) may hand off to class 1 (post-dateline) but
        // never the reverse within a dimension; the CDG test depends on it.
        for (n, skip) in circulant_instances() {
            let topo = Circulant::new(n, skip).unwrap();
            let routing = CirculantRouting::full();
            for s in 0..n {
                for d in 0..n {
                    if s == d {
                        continue;
                    }
                    let (s, dst) = (NodeId(s), NodeId(d));
                    let mut cur = s;
                    let mut prev: Option<(Direction, usize)> = None;
                    while cur != dst {
                        let port = routing.route(&topo, cur, dst);
                        let dir = port.direction().unwrap();
                        let class = routing.vc_class(&topo, cur, port, dst);
                        if let Some((pd, pc)) = prev {
                            if pd == dir {
                                assert!(pc <= class, "class fell {pc}->{class} on {s}->{dst}");
                            }
                        }
                        prev = Some((dir, class));
                        cur = topo.neighbor(cur, dir).unwrap();
                    }
                }
            }
        }
    }

    #[test]
    fn circulant_arc_routing_reaches_without_leaving_the_arc() {
        // Every pair inside a sprint arc is reachable by the unique in-arc
        // ring walk, and the path never touches a dark (inactive) node.
        for (n, skip) in circulant_instances() {
            let topo = Circulant::new(n, skip).unwrap();
            for start in [0usize, 3, n - 2] {
                for len in 1..n {
                    let mut active = vec![false; n];
                    for k in 0..len {
                        active[(start + k) % n] = true;
                    }
                    let routing = CirculantRouting::on_arc(active.clone());
                    let lit: Vec<usize> = (0..n).filter(|&i| active[i]).collect();
                    for &s in &lit {
                        for &d in &lit {
                            let path = routing.path(&topo, NodeId(s), NodeId(d));
                            assert_eq!(path.last(), Some(&NodeId(d)));
                            assert!(path.len() <= n, "overlong arc path {path:?}");
                            for hop in &path {
                                assert!(active[hop.0], "dark router {hop} on {s}->{d}");
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn circulant_full_mask_degrades_to_chord_routing() {
        let topo = Circulant::new(16, 5).unwrap();
        let arc = CirculantRouting::on_arc(vec![true; 16]);
        assert_eq!(arc, CirculantRouting::full());
        // Chords are used: node 0 -> node 5 is one South hop.
        assert_eq!(
            arc.route(&topo, NodeId(0), NodeId(5)),
            Port::Dir(Direction::South)
        );
    }

    #[test]
    #[should_panic(expected = "contiguous ring arc")]
    fn circulant_arc_rejects_split_regions() {
        let mut active = vec![false; 16];
        active[0] = true;
        active[1] = true;
        active[8] = true;
        let _ = CirculantRouting::on_arc(active);
    }

    #[test]
    fn circulant_degraded_falls_back_to_another_minimal_hop() {
        let topo = Circulant::new(16, 5).unwrap();
        let routing = CirculantRouting::full();
        // 0 -> 10 minimally takes two South chord hops (0 -> 5 -> 10). With
        // the 0 -> 5 link down the router picks a different minimal first
        // hop instead of dropping.
        let cut = |a: NodeId, b: NodeId| !(a == NodeId(0) && b == NodeId(5));
        match routing.route_degraded(&topo, NodeId(0), NodeId(10), &cut) {
            RouteDecision::Forward(Port::Dir(d)) => {
                let next = topo.neighbor(NodeId(0), d).unwrap();
                assert_ne!(next, NodeId(5));
                assert!(topo.hops(next, NodeId(10)) < topo.hops(NodeId(0), NodeId(10)));
            }
            other => panic!("expected a forward fallback, got {other:?}"),
        }
        // Arc mode has a unique path: the same cut cleanly drops.
        let mut active = vec![true; 16];
        active[12] = false;
        let arc = CirculantRouting::on_arc(active);
        let cut_east = |a: NodeId, b: NodeId| !(a == NodeId(0) && b == NodeId(1));
        assert_eq!(
            arc.route_degraded(&topo, NodeId(0), NodeId(2), &cut_east),
            RouteDecision::Drop
        );
    }
}
