//! Packets and flits.
//!
//! Packets are segmented into flits for wormhole switching. The paper's
//! configuration (Table 1) uses 5-flit packets with 16-byte (128-bit) flits.

use crate::geometry::NodeId;

/// Globally unique packet identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PacketId(pub u64);

/// Position of a flit within its packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlitKind {
    /// First flit; carries routing information.
    Head,
    /// Intermediate payload flit.
    Body,
    /// Last flit; releases the wormhole channel.
    Tail,
    /// Single-flit packet (head and tail at once).
    HeadTail,
}

impl FlitKind {
    /// Whether this flit opens a packet (triggers route compute / VC alloc).
    #[inline]
    pub fn is_head(self) -> bool {
        matches!(self, FlitKind::Head | FlitKind::HeadTail)
    }

    /// Whether this flit closes a packet (releases VCs downstream).
    #[inline]
    pub fn is_tail(self) -> bool {
        matches!(self, FlitKind::Tail | FlitKind::HeadTail)
    }
}

/// One flow-control unit travelling through the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flit {
    /// Packet this flit belongs to.
    pub packet: PacketId,
    /// Head/body/tail marker.
    pub kind: FlitKind,
    /// Index within the packet, `0` for the head.
    pub seq: u32,
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Cycle at which the parent packet was *generated* (entered the source
    /// queue). Used for packet latency, which includes source queueing.
    pub created: u64,
    /// Cycle at which the packet's *head* flit entered the network (was
    /// written into the source router's local input buffer). Every flit of
    /// a packet carries the same stamp, so the tail alone yields the
    /// packet's network latency.
    pub injected: u64,
    /// Cycle at which the flit was written into the current router's input
    /// buffer; gates pipeline-stage eligibility.
    pub arrived: u64,
    /// Virtual network (message class) this flit travels on; VCs are
    /// partitioned per vnet to break protocol (request/response) deadlock
    /// cycles.
    pub vnet: u8,
    /// Whether the parent packet was generated during the measurement phase.
    pub measured: bool,
}

/// A packet awaiting injection at a source queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Packet {
    /// Unique id.
    pub id: PacketId,
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Number of flits.
    pub len: u32,
    /// Generation cycle.
    pub created: u64,
    /// Whether generated during the measurement phase.
    pub measured: bool,
    /// Virtual network (message class); `0` for single-class traffic.
    pub vnet: u8,
}

impl Packet {
    /// Builds the `seq`-th flit of this packet.
    ///
    /// # Panics
    ///
    /// Panics if `seq >= self.len`.
    pub fn flit(&self, seq: u32, injected: u64) -> Flit {
        assert!(seq < self.len, "flit index {seq} out of packet of {}", self.len);
        let kind = if self.len == 1 {
            FlitKind::HeadTail
        } else if seq == 0 {
            FlitKind::Head
        } else if seq + 1 == self.len {
            FlitKind::Tail
        } else {
            FlitKind::Body
        };
        Flit {
            packet: self.id,
            kind,
            seq,
            src: self.src,
            dst: self.dst,
            created: self.created,
            injected,
            arrived: injected,
            measured: self.measured,
            vnet: self.vnet,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn packet(len: u32) -> Packet {
        Packet {
            id: PacketId(1),
            src: NodeId(0),
            dst: NodeId(5),
            len,
            created: 10,
            measured: true,
            vnet: 0,
        }
    }

    #[test]
    fn five_flit_packet_has_head_bodies_tail() {
        let p = packet(5);
        let kinds: Vec<FlitKind> = (0..5).map(|i| p.flit(i, 12).kind).collect();
        assert_eq!(
            kinds,
            vec![
                FlitKind::Head,
                FlitKind::Body,
                FlitKind::Body,
                FlitKind::Body,
                FlitKind::Tail
            ]
        );
    }

    #[test]
    fn single_flit_packet_is_headtail() {
        let p = packet(1);
        let f = p.flit(0, 12);
        assert_eq!(f.kind, FlitKind::HeadTail);
        assert!(f.kind.is_head());
        assert!(f.kind.is_tail());
    }

    #[test]
    fn two_flit_packet_is_head_then_tail() {
        let p = packet(2);
        assert_eq!(p.flit(0, 12).kind, FlitKind::Head);
        assert_eq!(p.flit(1, 12).kind, FlitKind::Tail);
    }

    #[test]
    fn flit_carries_packet_metadata() {
        let p = packet(5);
        let f = p.flit(3, 42);
        assert_eq!(f.src, NodeId(0));
        assert_eq!(f.dst, NodeId(5));
        assert_eq!(f.created, 10);
        assert_eq!(f.injected, 42);
        assert_eq!(f.arrived, 42);
        assert!(f.measured);
    }

    #[test]
    #[should_panic(expected = "out of packet")]
    fn flit_index_out_of_range_panics() {
        let p = packet(3);
        let _ = p.flit(3, 0);
    }
}
