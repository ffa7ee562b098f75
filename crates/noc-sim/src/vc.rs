//! Virtual-channel state tracking.
//!
//! [`VcState`] is the logical lifecycle of an input VC. The engine stores
//! it split across the flat arrays of [`crate::soa::VcStore`], next to the
//! per-VC flit rings, so the allocator loops scan one-byte phase tags
//! instead of whole VC records.

use crate::geometry::Port;

/// Lifecycle of an input virtual channel, following the classic
/// wormhole-router state machine (Idle → RouteComputed → Active → Idle).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VcState {
    /// No packet owns this VC.
    Idle,
    /// A head flit has been buffered and its output port computed; waiting
    /// for VC allocation.
    RouteComputed {
        /// Output port chosen by the routing function.
        out_port: Port,
    },
    /// Output VC granted; flits may compete for the switch.
    Active {
        /// Output port chosen by the routing function.
        out_port: Port,
        /// Downstream VC granted by the VC allocator.
        out_vc: usize,
    },
    /// The packet owning this VC is being discarded because fault-aware
    /// routing found no usable path: every arriving flit up to and including
    /// the tail is consumed (with its credit returned upstream) instead of
    /// forwarded. Only entered under fault injection.
    Dropping,
}

impl VcState {
    /// Output port requested or held by this VC, if any.
    pub fn out_port(&self) -> Option<Port> {
        match self {
            VcState::Idle | VcState::Dropping => None,
            VcState::RouteComputed { out_port } | VcState::Active { out_port, .. } => {
                Some(*out_port)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Direction;
    use crate::packet::FlitHandle;
    use crate::router::RouterParams;
    use crate::soa::VcStore;

    /// A store with one router whose VCs are `depth` flits deep.
    fn store(depth: usize) -> VcStore {
        let params = RouterParams {
            buffer_depth: depth,
            ..RouterParams::paper()
        };
        VcStore::new(2, &params, |_| [true; Port::COUNT])
    }

    #[test]
    fn new_queue_is_empty() {
        let s = store(4);
        let id = s.vc_id(1, 2, 3);
        assert_eq!(s.occupancy(id), 0);
        assert!(s.front(id).is_none());
        assert_eq!(s.flits(id).count(), 0);
    }

    #[test]
    fn state_out_port_accessor() {
        assert_eq!(VcState::Idle.out_port(), None);
        let p = Port::Dir(Direction::East);
        assert_eq!(VcState::RouteComputed { out_port: p }.out_port(), Some(p));
        assert_eq!(
            VcState::Active {
                out_port: p,
                out_vc: 2
            }
            .out_port(),
            Some(p)
        );
    }

    #[test]
    fn fifo_order_is_preserved() {
        let mut s = store(4);
        let id = s.vc_id(0, 1, 0);
        for seq in 0..3 {
            s.push_flit(id, FlitHandle::new(0, seq, 3, 0));
        }
        assert_eq!(s.front(id).unwrap().seq(), 0);
        s.pop_flit(id);
        assert_eq!(s.front(id).unwrap().seq(), 1);
    }

    #[test]
    fn interleaved_push_pop_never_reorders() {
        for depth in [1, 3, 4, 8] {
            let mut s = store(depth);
            let (a, b) = (s.vc_id(1, 2, 3), s.vc_id(1, 2, 2));
            let (mut pushed, mut popped) = (0u32, 0u32);
            // Interleave fills and drains so the head walks every slot many
            // times; the neighbouring VC's ring must stay untouched.
            s.push_flit(b, FlitHandle::new(9, 0, 1, 0));
            for round in 0..5 * depth {
                while s.occupancy(a) < depth.min(1 + round % 3) {
                    s.push_flit(a, FlitHandle::new(1, pushed, u32::MAX >> 2, 0));
                    pushed += 1;
                }
                let drain = 1 + round % 2;
                for _ in 0..drain.min(s.occupancy(a)) {
                    assert_eq!(s.pop_flit(a).seq(), popped);
                    popped += 1;
                }
                assert_eq!(s.flits(a).count(), s.occupancy(a));
                assert!(s.flits(a).map(|f| f.seq()).eq(popped..pushed));
            }
            assert_eq!(s.front(b).map(|f| f.slot), Some(9));
            assert!(
                popped > 2 * depth as u32,
                "depth {depth}: ring never wrapped"
            );
        }
    }
}
