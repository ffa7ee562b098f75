//! Struct-of-arrays storage for the router pipeline's hot state.
//!
//! [`VcStore`] keeps every scalar a stage scans in a flat array indexed by
//! a dense id, and the buffered flits — 16-byte
//! [`FlitHandle`](crate::packet::FlitHandle)s into the network's packet
//! table — in one flat slot array: `buffer_depth` contiguous slots per
//! input VC, used as a ring with per-VC head and length arrays. Nothing is
//! ever allocated per flit; the credit protocol bounds each ring at its
//! depth, which [`VcStore::push_flit`] asserts.
//!
//! # Dense indexing
//!
//! With `P = Port::COUNT` (5) and `V = vcs_per_port`:
//!
//! ```text
//! port_id(node, port)   = node * P + port          — one per router port
//! vc_id(node, port, vc) = port_id * V + vc         — one per input VC
//! out_id(node, port, vc)= port_id * V + vc         — one per output VC
//! ```
//!
//! Input and output VCs share the same id arithmetic but index different
//! arrays (`phase`/`route_*`/rings vs `out_alloc`/`credits`). Iterating ids
//! in ascending order is exactly the `(node, port, vc)` lexicographic order
//! the exhaustive engine has always used, which is what keeps the
//! struct-of-arrays engine bit-identical to the oracle. The reverse map
//! (id to port id and VC lane) is a table lookup, so the hot paths never
//! divide by the run-time `V`.
//!
//! # Per-port masks
//!
//! `occ_mask[port_id]` has bit `v` set iff input VC `v` holds at least one
//! flit; `alloc_mask[port_id]` has bit `v` set iff output VC `v` is granted;
//! `routed_mask`/`active_mask` mirror which input VCs sit in
//! [`VcPhase::Routed`]/[`VcPhase::Active`]. The allocators intersect these
//! one-word summaries (`routed & occ` = VA requesters, `active & occ` = SA
//! candidates) instead of scanning per-VC phase tags, so a port with no
//! eligible VC costs two loads (`vcs_per_port` is capped at 64 so a VC
//! always fits its port word).

use crate::geometry::Port;
use crate::packet::FlitHandle;
use crate::router::RouterParams;
use crate::vc::VcState;

/// Sentinel in the output-allocation array for an unallocated output VC.
pub const FREE_VC: u32 = u32::MAX;

/// Allocation phase of an input VC: the discriminant of [`VcState`], with
/// the route payloads split out into the `route_port`/`route_vc` arrays so
/// the stage loops can test the phase with a one-byte compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum VcPhase {
    /// No packet owns this VC ([`VcState::Idle`]).
    Idle = 0,
    /// Route computed, awaiting VC allocation ([`VcState::RouteComputed`]).
    Routed = 1,
    /// Output VC granted ([`VcState::Active`]).
    Active = 2,
    /// Discarding an unroutable packet ([`VcState::Dropping`]).
    Dropping = 3,
}

/// A bit mask of the VC lanes in `range` (`range.end <= 64`).
#[inline]
pub(crate) fn lane_mask(range: std::ops::Range<usize>) -> u64 {
    let width = range.end - range.start;
    let width_mask = if width == 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    };
    width_mask << range.start
}

/// Flat per-stage arrays for every router's hot state, shared by the whole
/// network. See the [module docs](self) for the indexing scheme.
///
/// Fields are crate-internal; [`crate::network::Network`] exposes the
/// per-node read views (`vc_state`, `credit_count`, `output_allocated`).
#[derive(Debug, Clone)]
pub struct VcStore {
    /// VCs per port (`V` in the indexing scheme).
    vcs: usize,
    /// Flit slots per input VC.
    depth: usize,
    /// Per vc id: `port_id << 6 | lane`, the division-free inverse of
    /// [`VcStore::vc_id`].
    decode: Vec<u32>,
    /// Per VC lane: the vnet that lane belongs to (fixed by the index).
    pub(crate) lane_vnet: Vec<u8>,
    // ---- input side, indexed by vc_id ----
    pub(crate) phase: Vec<VcPhase>,
    /// Output port requested/held ([`Port::index`]); valid in `Routed`/`Active`.
    pub(crate) route_port: Vec<u8>,
    /// Output VCs the packet may be granted: its vnet's partition narrowed
    /// to the hop's escape class, as a [`lane_mask`]. Written at route
    /// computation; valid in `Routed`.
    pub(crate) route_lanes: Vec<u64>,
    /// Output VC held; valid in `Active`.
    pub(crate) route_vc: Vec<u8>,
    /// Mirror of the front flit's `arrived` stamp; valid while non-empty.
    pub(crate) head_arrived: Vec<u64>,
    /// Mirror of the front flit's head marker; valid while non-empty.
    pub(crate) head_is_head: Vec<bool>,
    /// Flit rings: `depth` slots per VC, VC `id` owning
    /// `slots[id * depth..(id + 1) * depth]`.
    slots: Vec<FlitHandle>,
    /// Ring index of each VC's front flit.
    ring_head: Vec<u32>,
    /// Buffered flits per VC (at most `depth`).
    ring_len: Vec<u32>,
    /// Per `port_id`: bit `v` set iff input VC `v` is non-empty.
    pub(crate) occ_mask: Vec<u64>,
    /// Per `port_id`: bit `v` set iff input VC `v` is in [`VcPhase::Routed`].
    pub(crate) routed_mask: Vec<u64>,
    /// Per `port_id`: bit `v` set iff input VC `v` is in [`VcPhase::Active`].
    pub(crate) active_mask: Vec<u64>,
    // ---- output side, indexed by out_id / port_id ----
    /// Holder of each output VC as an input `vc_id`, or [`FREE_VC`].
    pub(crate) out_alloc: Vec<u32>,
    /// Per `port_id`: bit `v` set iff output VC `v` is allocated.
    pub(crate) alloc_mask: Vec<u64>,
    /// Downstream credits per output VC.
    pub(crate) credits: Vec<u32>,
    /// Whether the port is wired (edge routers have unconnected ports).
    pub(crate) connected: Vec<bool>,
    /// Allocated output VCs per node (O(1) "holds state" checks).
    pub(crate) alloc_count: Vec<u32>,
    /// Input VCs in [`VcPhase::Routed`] per node — lets the fast VC
    /// allocator skip a visited node with one load instead of ten.
    pub(crate) routed_count: Vec<u32>,
    /// Input VCs in [`VcPhase::Active`] per node — same early-out for the
    /// fast switch allocator.
    pub(crate) active_count: Vec<u32>,
    // ---- arbiter pointers ----
    /// VA rotating-priority pointer per output `port_id` over the `P * V`
    /// input-vc id space, kept split as `(port, vc)`.
    pub(crate) va_rr: Vec<(u8, u8)>,
    /// SA stage-1 pointer per input `port_id`, over `V`.
    pub(crate) sa_in_rr: Vec<u32>,
    /// SA stage-2 pointer per output `port_id`, over `P`.
    pub(crate) sa_out_rr: Vec<u32>,
}

impl VcStore {
    /// Builds the store for `nodes` routers; `connected(node)` reports which
    /// ports are wired, by [`Port::index`].
    pub fn new(
        nodes: usize,
        params: &RouterParams,
        connected: impl Fn(usize) -> [bool; Port::COUNT],
    ) -> Self {
        let vcs = params.vcs_per_port;
        debug_assert!(vcs <= 64, "validated by RouterParams::validate");
        let depth = params.buffer_depth;
        let ports = nodes * Port::COUNT;
        let ids = ports * vcs;
        let mut wired = Vec::with_capacity(ports);
        for node in 0..nodes {
            wired.extend_from_slice(&connected(node));
        }
        let lane_vnet: Vec<u8> = (0..vcs).map(|v| params.vc_vnet(v)).collect();
        let decode = (0..ports)
            .flat_map(|pid| (0..vcs).map(move |v| (pid as u32) << 6 | v as u32))
            .collect();
        VcStore {
            vcs,
            depth,
            decode,
            lane_vnet,
            phase: vec![VcPhase::Idle; ids],
            route_port: vec![0; ids],
            route_lanes: vec![0; ids],
            route_vc: vec![0; ids],
            head_arrived: vec![0; ids],
            head_is_head: vec![false; ids],
            slots: vec![FlitHandle::new(0, 0, 1, 0); ids * depth],
            ring_head: vec![0; ids],
            ring_len: vec![0; ids],
            occ_mask: vec![0; ports],
            routed_mask: vec![0; ports],
            active_mask: vec![0; ports],
            out_alloc: vec![FREE_VC; ids],
            alloc_mask: vec![0; ports],
            credits: vec![depth as u32; ids],
            connected: wired,
            alloc_count: vec![0; nodes],
            routed_count: vec![0; nodes],
            active_count: vec![0; nodes],
            va_rr: vec![(0, 0); ports],
            sa_in_rr: vec![0; ports],
            sa_out_rr: vec![0; ports],
        }
    }

    /// VCs per port.
    #[inline]
    pub fn vcs(&self) -> usize {
        self.vcs
    }

    /// Dense id of a router port.
    #[inline]
    pub fn port_id(&self, node: usize, port: usize) -> usize {
        node * Port::COUNT + port
    }

    /// Dense id of an input VC (also the out-VC id on the output arrays).
    #[inline]
    pub fn vc_id(&self, node: usize, port: usize, vc: usize) -> usize {
        (node * Port::COUNT + port) * self.vcs + vc
    }

    /// The port id and the port-mask bit of a dense vc id.
    #[inline]
    fn port_and_bit(&self, id: usize) -> (usize, u64) {
        let d = self.decode[id];
        ((d >> 6) as usize, 1u64 << (d & 63))
    }

    /// The `(node, port, vc)` triple a dense vc id decodes to.
    #[inline]
    pub fn vc_id_parts(&self, id: usize) -> (usize, usize, usize) {
        let d = self.decode[id] as usize;
        let pid = d >> 6;
        (pid / Port::COUNT, pid % Port::COUNT, d & 63)
    }

    /// Reconstructs the logical [`VcState`] of an input VC.
    pub fn state(&self, id: usize) -> VcState {
        match self.phase[id] {
            VcPhase::Idle => VcState::Idle,
            VcPhase::Routed => VcState::RouteComputed {
                out_port: Port::from_index(self.route_port[id] as usize),
            },
            VcPhase::Active => VcState::Active {
                out_port: Port::from_index(self.route_port[id] as usize),
                out_vc: self.route_vc[id] as usize,
            },
            VcPhase::Dropping => VcState::Dropping,
        }
    }

    /// Writes the logical [`VcState`] of an input VC into the split arrays.
    pub(crate) fn set_state(&mut self, id: usize, state: VcState) {
        match state {
            VcState::Idle => self.set_phase(id, VcPhase::Idle),
            VcState::RouteComputed { out_port } => {
                self.route_port[id] = out_port.index() as u8;
                self.set_phase(id, VcPhase::Routed);
            }
            VcState::Active { out_port, out_vc } => {
                self.route_port[id] = out_port.index() as u8;
                self.route_vc[id] = out_vc as u8;
                self.set_phase(id, VcPhase::Active);
            }
            VcState::Dropping => self.set_phase(id, VcPhase::Dropping),
        }
    }

    /// Moves an input VC to `phase`, maintaining the per-port
    /// `routed_mask`/`active_mask` summaries. Every phase transition must go
    /// through here (or [`VcStore::set_state`], which delegates) — the fast
    /// allocator bodies trust the masks instead of re-reading `phase`.
    pub(crate) fn set_phase(&mut self, id: usize, phase: VcPhase) {
        let was = self.phase[id];
        if was == phase {
            return;
        }
        self.phase[id] = phase;
        let (pid, bit) = self.port_and_bit(id);
        let node = pid / Port::COUNT;
        match was {
            VcPhase::Routed => {
                self.routed_mask[pid] &= !bit;
                self.routed_count[node] -= 1;
            }
            VcPhase::Active => {
                self.active_mask[pid] &= !bit;
                self.active_count[node] -= 1;
            }
            _ => {}
        }
        match phase {
            VcPhase::Routed => {
                self.routed_mask[pid] |= bit;
                self.routed_count[node] += 1;
            }
            VcPhase::Active => {
                self.active_mask[pid] |= bit;
                self.active_count[node] += 1;
            }
            _ => {}
        }
    }

    /// Front flit of an input VC.
    #[inline]
    pub(crate) fn front(&self, id: usize) -> Option<FlitHandle> {
        (self.ring_len[id] > 0).then(|| self.slots[id * self.depth + self.ring_head[id] as usize])
    }

    /// Buffered flits of an input VC, front first.
    pub(crate) fn flits(&self, id: usize) -> impl Iterator<Item = FlitHandle> + '_ {
        let base = id * self.depth;
        let head = self.ring_head[id] as usize;
        (0..self.ring_len[id] as usize).map(move |k| {
            let mut pos = head + k;
            if pos >= self.depth {
                pos -= self.depth;
            }
            self.slots[base + pos]
        })
    }

    /// Buffered flits in an input VC.
    #[inline]
    pub fn occupancy(&self, id: usize) -> usize {
        self.ring_len[id] as usize
    }

    /// Appends a flit to an input VC, maintaining the occupancy mask and
    /// head mirrors.
    ///
    /// # Panics
    ///
    /// Panics if the VC's ring is full: upstream sent a flit without a
    /// credit.
    pub(crate) fn push_flit(&mut self, id: usize, flit: FlitHandle) {
        let len = self.ring_len[id] as usize;
        assert!(
            len < self.depth,
            "buffer overflow at vc id {id}: credit protocol violated"
        );
        let mut pos = self.ring_head[id] as usize + len;
        if pos >= self.depth {
            pos -= self.depth;
        }
        self.slots[id * self.depth + pos] = flit;
        self.ring_len[id] += 1;
        if len == 0 {
            let (pid, bit) = self.port_and_bit(id);
            self.occ_mask[pid] |= bit;
            self.set_head_mirrors(id, flit);
        }
    }

    /// Pops the front flit of a non-empty input VC, maintaining the
    /// occupancy mask and head mirrors.
    pub(crate) fn pop_flit(&mut self, id: usize) -> FlitHandle {
        debug_assert!(self.ring_len[id] > 0, "pop from an empty VC {id}");
        let base = id * self.depth;
        let mut head = self.ring_head[id] as usize;
        let flit = self.slots[base + head];
        head += 1;
        if head == self.depth {
            head = 0;
        }
        self.ring_head[id] = head as u32;
        self.ring_len[id] -= 1;
        if self.ring_len[id] == 0 {
            let (pid, bit) = self.port_and_bit(id);
            self.occ_mask[pid] &= !bit;
        } else {
            self.set_head_mirrors(id, self.slots[base + head]);
        }
        flit
    }

    #[inline]
    fn set_head_mirrors(&mut self, id: usize, front: FlitHandle) {
        self.head_arrived[id] = front.arrived;
        self.head_is_head[id] = front.is_head();
    }

    /// Grants output VC `out_id` (on `node`) to the input VC `holder`.
    pub(crate) fn alloc_out(&mut self, node: usize, out_id: usize, holder: u32) {
        debug_assert_eq!(self.out_alloc[out_id], FREE_VC, "double allocation");
        self.out_alloc[out_id] = holder;
        let (pid, bit) = self.port_and_bit(out_id);
        self.alloc_mask[pid] |= bit;
        self.alloc_count[node] += 1;
    }

    /// Releases output VC `out_id` (on `node`).
    pub(crate) fn free_out(&mut self, node: usize, out_id: usize) {
        debug_assert_ne!(self.out_alloc[out_id], FREE_VC, "freeing a free VC");
        self.out_alloc[out_id] = FREE_VC;
        let (pid, bit) = self.port_and_bit(out_id);
        self.alloc_mask[pid] &= !bit;
        self.alloc_count[node] -= 1;
    }

    /// Lowest-index free output VC on `port_id` among the lanes in `lanes`
    /// (a requester's [`route_lanes`](Self::route_lanes)), or `None` when
    /// all are held.
    #[inline]
    pub(crate) fn first_free_out_vc(&self, port_id: usize, lanes: u64) -> Option<usize> {
        let free = !self.alloc_mask[port_id] & lanes;
        (free != 0).then(|| free.trailing_zeros() as usize)
    }

    /// The VA pointer of output `port_id` as a local id `port * V + vc`.
    pub(crate) fn va_ptr(&self, port_id: usize) -> usize {
        let (p, v) = self.va_rr[port_id];
        usize::from(p) * self.vcs + usize::from(v)
    }

    /// Sets the VA pointer of output `port_id` from a local id.
    pub(crate) fn set_va_ptr(&mut self, port_id: usize, local: usize) {
        self.va_rr[port_id] = ((local / self.vcs) as u8, (local % self.vcs) as u8);
    }

    /// Points output `port_id`'s VA arbiter just past input VC
    /// `(in_port, in_vc)`, wrapping over the `P * V` id space.
    #[inline]
    pub(crate) fn set_va_ptr_after(&mut self, port_id: usize, in_port: usize, in_vc: usize) {
        self.va_rr[port_id] = if in_vc + 1 < self.vcs {
            (in_port as u8, in_vc as u8 + 1)
        } else if in_port + 1 < Port::COUNT {
            (in_port as u8 + 1, 0)
        } else {
            (0, 0)
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> VcStore {
        VcStore::new(4, &RouterParams::paper(), |_| [true; Port::COUNT])
    }

    #[test]
    fn new_store_has_full_credits_everywhere() {
        let s = store();
        for node in 0..4 {
            for port in 0..Port::COUNT {
                for vc in 0..4 {
                    let out = s.vc_id(node, port, vc);
                    assert_eq!(s.credits[out], 4);
                    assert_eq!(s.out_alloc[out], FREE_VC);
                    assert_eq!(s.state(out), VcState::Idle);
                    assert_eq!(s.occupancy(out), 0);
                }
                assert_eq!(s.alloc_mask[s.port_id(node, port)], 0);
                assert_eq!(s.occ_mask[s.port_id(node, port)], 0);
            }
            assert_eq!(s.alloc_count[node], 0);
        }
    }

    #[test]
    fn free_vcs_reflect_allocation() {
        let mut s = store();
        let holder = s.vc_id(2, Port::Local.index(), 0) as u32;
        let port_id = s.port_id(2, 1);
        s.alloc_out(2, port_id * 4 + 2, holder);
        assert_eq!(s.first_free_out_vc(port_id, lane_mask(0..4)), Some(0));
        assert_eq!(s.first_free_out_vc(port_id, lane_mask(2..4)), Some(3));
        assert_eq!(s.alloc_count[2], 1);
        s.free_out(2, port_id * 4 + 2);
        assert_eq!(s.first_free_out_vc(port_id, lane_mask(2..4)), Some(2));
        assert_eq!(s.alloc_count[2], 0);
        assert_eq!(lane_mask(0..64), u64::MAX);
    }

    #[test]
    fn ids_round_trip() {
        let s = store();
        for node in 0..4 {
            for port in 0..Port::COUNT {
                for vc in 0..4 {
                    let id = s.vc_id(node, port, vc);
                    assert_eq!(s.vc_id_parts(id), (node, port, vc));
                }
            }
        }
    }

    #[test]
    fn vnet_lanes_are_per_vc_constants() {
        let params = RouterParams::paper_two_vnets();
        let s = VcStore::new(1, &params, |_| [true; Port::COUNT]);
        assert_eq!(s.lane_vnet, vec![0, 0, 1, 1]);
        assert_eq!(lane_mask(params.vnet_vcs(s.lane_vnet[3])), 0b1100);
    }

    #[test]
    fn va_pointer_split_matches_local_ids() {
        let params = RouterParams {
            vcs_per_port: 3,
            ..RouterParams::paper()
        };
        let mut s = VcStore::new(1, &params, |_| [true; Port::COUNT]);
        let space = Port::COUNT * 3;
        for local in 0..space {
            s.set_va_ptr(0, local);
            assert_eq!(s.va_ptr(0), local);
            s.set_va_ptr_after(0, local / 3, local % 3);
            assert_eq!(s.va_ptr(0), (local + 1) % space);
        }
    }

    #[test]
    fn push_pop_maintain_mirrors() {
        let mut s = store();
        let id = s.vc_id(1, 3, 2);
        s.push_flit(id, FlitHandle::new(7, 0, 2, 11));
        assert_eq!(s.occ_mask[id / 4] & (1 << 2), 1 << 2);
        assert_eq!(s.head_arrived[id], 11);
        assert!(s.head_is_head[id]);
        s.push_flit(id, FlitHandle::new(7, 1, 2, 12));
        assert_eq!(s.head_arrived[id], 11, "head mirror tracks the front");
        assert_eq!(s.pop_flit(id).seq(), 0);
        assert_eq!(s.head_arrived[id], 12);
        assert!(!s.head_is_head[id]);
        assert_eq!(s.pop_flit(id).seq(), 1);
        assert_eq!(s.occ_mask[id / 4], 0);
        assert!(s.front(id).is_none());
    }

    #[test]
    #[should_panic(expected = "credit protocol violated")]
    fn overfull_ring_is_rejected() {
        let mut s = store();
        let id = s.vc_id(0, 0, 0);
        for seq in 0..5 {
            s.push_flit(id, FlitHandle::new(0, seq, 5, 0));
        }
    }

    #[test]
    fn state_round_trips_through_split_arrays() {
        let mut s = store();
        let id = s.vc_id(0, 1, 3);
        for st in [
            VcState::Idle,
            VcState::RouteComputed {
                out_port: Port::Dir(crate::geometry::Direction::West),
            },
            VcState::Active {
                out_port: Port::Local,
                out_vc: 3,
            },
            VcState::Dropping,
        ] {
            s.set_state(id, st);
            assert_eq!(s.state(id), st);
        }
    }
}
