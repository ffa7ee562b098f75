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

/// Longest packet the network accepts, in flits: a [`FlitHandle`] keeps the
/// flit index in the 30 bits its head/tail markers leave free.
pub const MAX_PACKET_FLITS: u32 = 1 << 30;

/// The in-network form of a flit: a 16-byte handle into the network's
/// [`PacketTable`], which holds every per-packet field once. The wide
/// [`Flit`] is rebuilt from the table only when a flit leaves the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct FlitHandle {
    /// Packet-table slot of the parent packet.
    pub(crate) slot: u32,
    /// `seq << 2 | tail << 1 | head`.
    meta: u32,
    /// Buffer-write cycle while the flit sits in an input VC; scheduled
    /// arrival cycle while it is on a link.
    pub(crate) arrived: u64,
}

const _: () = assert!(std::mem::size_of::<FlitHandle>() == 16);

impl FlitHandle {
    /// The `seq`-th flit of the `len`-flit packet in `slot`.
    #[inline]
    pub(crate) fn new(slot: u32, seq: u32, len: u32, arrived: u64) -> Self {
        debug_assert!(seq < len && len <= MAX_PACKET_FLITS);
        let head = u32::from(seq == 0);
        let tail = u32::from(seq + 1 == len);
        FlitHandle {
            slot,
            meta: seq << 2 | tail << 1 | head,
            arrived,
        }
    }

    /// Index within the packet, `0` for the head.
    #[inline]
    pub(crate) fn seq(self) -> u32 {
        self.meta >> 2
    }

    /// Whether this flit opens its packet ([`FlitKind::is_head`]).
    #[inline]
    pub(crate) fn is_head(self) -> bool {
        self.meta & 1 != 0
    }

    /// Whether this flit closes its packet ([`FlitKind::is_tail`]).
    #[inline]
    pub(crate) fn is_tail(self) -> bool {
        self.meta & 2 != 0
    }
}

/// A packet inside the network and the cycle its head flit entered it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PacketEntry {
    pub(crate) packet: Packet,
    /// Head injection cycle: the `injected` stamp of every flit.
    pub(crate) injected: u64,
}

/// Slot table of the packets inside the network. A slot is taken when an
/// NI starts injecting a packet and released when the packet's tail leaves
/// the network (ejected, or consumed by fault handling); freed slots are
/// reused last-in first-out.
#[derive(Debug, Clone, Default)]
pub(crate) struct PacketTable {
    entries: Vec<PacketEntry>,
    free: Vec<u32>,
}

impl PacketTable {
    /// Stores a packet whose head enters the network at `injected`.
    pub(crate) fn alloc(&mut self, packet: Packet, injected: u64) -> u32 {
        let entry = PacketEntry { packet, injected };
        match self.free.pop() {
            Some(slot) => {
                self.entries[slot as usize] = entry;
                slot
            }
            None => {
                self.entries.push(entry);
                u32::try_from(self.entries.len() - 1).expect("packet table overflow")
            }
        }
    }

    /// Releases a slot once its packet's tail has left the network.
    #[inline]
    pub(crate) fn free(&mut self, slot: u32) {
        self.free.push(slot);
    }

    /// The packet in a live slot.
    #[inline]
    pub(crate) fn packet(&self, slot: u32) -> &Packet {
        &self.entries[slot as usize].packet
    }

    /// Rebuilds the wide [`Flit`] a handle stands for.
    pub(crate) fn flit(&self, h: FlitHandle) -> Flit {
        let e = &self.entries[h.slot as usize];
        let mut flit = e.packet.flit(h.seq(), e.injected);
        flit.arrived = h.arrived;
        flit
    }

    /// Which slots are live (`true`) or on the free list (`false`).
    ///
    /// # Panics
    ///
    /// Panics if the free list holds a slot twice or one out of range.
    pub(crate) fn live_slots(&self) -> Vec<bool> {
        let mut live = vec![true; self.entries.len()];
        for &slot in &self.free {
            let s = live
                .get_mut(slot as usize)
                .unwrap_or_else(|| panic!("free slot {slot} out of range"));
            assert!(*s, "slot {slot} is on the free list twice");
            *s = false;
        }
        live
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

    #[test]
    fn table_rebuilds_the_wide_flit() {
        let mut table = PacketTable::default();
        for len in [1, 2, 5] {
            let p = packet(len);
            let slot = table.alloc(p, 42);
            for seq in 0..len {
                let h = FlitHandle::new(slot, seq, len, 50 + u64::from(seq));
                let want = p.flit(seq, 42);
                assert_eq!(h.seq(), seq);
                assert_eq!(h.is_head(), want.kind.is_head());
                assert_eq!(h.is_tail(), want.kind.is_tail());
                assert_eq!(
                    table.flit(h),
                    Flit {
                        arrived: 50 + u64::from(seq),
                        ..want
                    }
                );
            }
        }
    }

    #[test]
    fn table_reuses_freed_slots_and_tracks_liveness() {
        let mut table = PacketTable::default();
        let a = table.alloc(packet(1), 0);
        let b = table.alloc(packet(2), 0);
        table.free(a);
        assert_eq!(table.live_slots(), vec![false, true]);
        assert_eq!(table.alloc(packet(3), 7), a, "freed slot reused");
        assert_eq!(table.packet(a).len, 3);
        assert_eq!(table.live_slots(), vec![true, true]);
        table.free(b);
        table.free(b);
        let dup = std::panic::catch_unwind(|| table.live_slots());
        assert!(dup.is_err(), "a slot freed twice must be reported");
    }
}
