//! Synthetic traffic generation.
//!
//! Traffic is defined over a *logical* node space `0..k` and mapped onto
//! physical mesh nodes through a [`Placement`]. This mirrors the paper's
//! Fig. 11 methodology: NoC-sprinting places the k communicating cores on the
//! convex sprint region, while full-sprinting places them *randomly* across
//! the fully powered mesh (averaged over ten samples).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::error::SimError;
use crate::geometry::NodeId;
use crate::packet::{Packet, PacketId};
use crate::topology::{topo_nodes, Topology};

/// Destination selection rule over a logical node space of size `k`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TrafficPattern {
    /// Uniformly random destination among the other `k - 1` nodes.
    UniformRandom,
    /// `(i, j) -> (j, i)` on a square logical grid; requires `k` to be a
    /// perfect square.
    Transpose,
    /// `dst = !src` over `log2(k)` bits; requires `k` to be a power of two.
    BitComplement,
    /// `dst = (src + k/2 - 1) % k` on a logical ring (adversarial for meshes).
    Tornado,
    /// `dst = rotate_left(src)` over `log2(k)` bits; requires a power of two.
    Shuffle,
    /// Next logical neighbor: `dst = (src + 1) % k`.
    NearestNeighbor,
    /// With probability `hot_fraction`, send to logical node 0 (e.g. the
    /// master node near the memory controller); otherwise uniform random.
    Hotspot {
        /// Probability of targeting the hotspot.
        hot_fraction: f64,
    },
}

impl TrafficPattern {
    /// Validates the pattern against a logical space of `k` nodes.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when the pattern's structural
    /// requirements (square / power-of-two size, probability range) are not
    /// met, or [`SimError::TooFewNodes`] for `k < 2`.
    pub fn validate(&self, k: usize) -> Result<(), SimError> {
        if k < 2 {
            return Err(SimError::TooFewNodes { got: k, need: 2 });
        }
        match self {
            TrafficPattern::Transpose => {
                let s = (k as f64).sqrt().round() as usize;
                if s * s != k {
                    return Err(SimError::InvalidConfig(format!(
                        "transpose requires a square node count, got {k}"
                    )));
                }
            }
            TrafficPattern::BitComplement | TrafficPattern::Shuffle
                if !k.is_power_of_two() => {
                    return Err(SimError::InvalidConfig(format!(
                        "{self:?} requires a power-of-two node count, got {k}"
                    )));
                }
            TrafficPattern::Hotspot { hot_fraction }
                if !(0.0..=1.0).contains(hot_fraction) => {
                    return Err(SimError::InvalidConfig(format!(
                        "hotspot fraction {hot_fraction} outside [0, 1]"
                    )));
                }
            _ => {}
        }
        Ok(())
    }

    /// Logical destination for logical source `src` in a space of `k` nodes.
    ///
    /// Randomized patterns draw from `rng`; deterministic patterns ignore it.
    pub fn destination(&self, src: usize, k: usize, rng: &mut SmallRng) -> usize {
        debug_assert!(src < k);
        match *self {
            TrafficPattern::UniformRandom => {
                // Uniform over the other k-1 nodes.
                let r = rng.gen_range(0..k - 1);
                if r >= src {
                    r + 1
                } else {
                    r
                }
            }
            TrafficPattern::Transpose => {
                let s = (k as f64).sqrt().round() as usize;
                let (i, j) = (src / s, src % s);
                j * s + i
            }
            TrafficPattern::BitComplement => !src & (k - 1),
            TrafficPattern::Tornado => (src + k / 2 - 1 + k) % k,
            TrafficPattern::Shuffle => {
                let bits = k.trailing_zeros();
                ((src << 1) | (src >> (bits - 1))) & (k - 1)
            }
            TrafficPattern::NearestNeighbor => (src + 1) % k,
            TrafficPattern::Hotspot { hot_fraction } => {
                if rng.gen_bool(hot_fraction) {
                    if src == 0 {
                        // Hotspot node sends uniformly instead of to itself.
                        1 + rng.gen_range(0..k - 1)
                    } else {
                        0
                    }
                } else {
                    let r = rng.gen_range(0..k - 1);
                    if r >= src {
                        r + 1
                    } else {
                        r
                    }
                }
            }
        }
    }
}

/// A logical-to-physical node mapping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    nodes: Vec<NodeId>,
}

impl Placement {
    /// Creates a placement after validating uniqueness and range.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::PlacementOutOfRange`] or
    /// [`SimError::DuplicatePlacement`] on invalid input.
    pub fn new(nodes: Vec<NodeId>, topo: &dyn Topology) -> Result<Self, SimError> {
        let mut seen = vec![false; topo.len()];
        for &n in &nodes {
            if n.0 >= topo.len() {
                return Err(SimError::PlacementOutOfRange {
                    node: n,
                    mesh_len: topo.len(),
                });
            }
            if seen[n.0] {
                return Err(SimError::DuplicatePlacement { node: n });
            }
            seen[n.0] = true;
        }
        Ok(Placement { nodes })
    }

    /// Identity placement over the whole topology.
    pub fn full(topo: &dyn Topology) -> Self {
        Placement {
            nodes: topo_nodes(topo).collect(),
        }
    }

    /// A uniformly random placement of `k` logical nodes on the mesh
    /// (full-sprinting methodology of Fig. 11).
    pub fn random(k: usize, topo: &dyn Topology, rng: &mut SmallRng) -> Self {
        assert!(k <= topo.len(), "cannot place {k} nodes on {} slots", topo.len());
        // Partial Fisher-Yates.
        let mut pool: Vec<NodeId> = topo_nodes(topo).collect();
        for i in 0..k {
            let j = rng.gen_range(i..pool.len());
            pool.swap(i, j);
        }
        pool.truncate(k);
        Placement { nodes: pool }
    }

    /// Number of logical nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the placement is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Physical node of logical node `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn physical(&self, i: usize) -> NodeId {
        self.nodes[i]
    }

    /// The physical nodes, logical order.
    pub fn physical_nodes(&self) -> &[NodeId] {
        &self.nodes
    }
}

/// On/off burst schedule: traffic is generated only during the on-phase of
/// a repeating `on + off` cycle. Models the sporadic computation bursts
/// that motivate sprinting (and that defeat reactive router gating when the
/// off-phase exceeds the idle threshold).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BurstSchedule {
    /// Cycles of active generation per period.
    pub on_cycles: u64,
    /// Idle cycles per period.
    pub off_cycles: u64,
}

impl BurstSchedule {
    /// Whether generation is active at `now`.
    pub fn is_on(&self, now: u64) -> bool {
        let period = self.on_cycles + self.off_cycles;
        if period == 0 {
            return true;
        }
        now % period < self.on_cycles
    }

    /// Earliest cycle `>= now` at which the schedule is on, or `u64::MAX`
    /// for an all-off schedule (`on_cycles == 0`).
    pub fn next_on_at(&self, now: u64) -> u64 {
        if self.is_on(now) {
            return now;
        }
        if self.on_cycles == 0 {
            return u64::MAX;
        }
        let period = self.on_cycles + self.off_cycles;
        (now / period + 1) * period
    }

    /// Fraction of time the schedule is on.
    pub fn duty_cycle(&self) -> f64 {
        let period = self.on_cycles + self.off_cycles;
        if period == 0 {
            1.0
        } else {
            self.on_cycles as f64 / period as f64
        }
    }
}

/// Open-loop Bernoulli traffic generator.
///
/// `injection_rate` is in flits/cycle/node (the paper's unit); a packet is
/// generated with probability `injection_rate / packet_len` per node per
/// cycle.
#[derive(Debug)]
pub struct TrafficGen {
    pattern: TrafficPattern,
    placement: Placement,
    injection_rate: f64,
    packet_len: u32,
    rng: SmallRng,
    next_id: u64,
    bursts: Option<BurstSchedule>,
}

impl TrafficGen {
    /// Creates a generator.
    ///
    /// # Errors
    ///
    /// Fails if the pattern is incompatible with the placement size or the
    /// rate is outside `(0, packet capacity]`.
    pub fn new(
        pattern: TrafficPattern,
        placement: Placement,
        injection_rate: f64,
        packet_len: u32,
        seed: u64,
    ) -> Result<Self, SimError> {
        pattern.validate(placement.len())?;
        if packet_len == 0 {
            return Err(SimError::InvalidConfig("packet_len must be > 0".into()));
        }
        if injection_rate <= 0.0 || injection_rate > 1.0 || injection_rate.is_nan() {
            return Err(SimError::InvalidConfig(format!(
                "injection rate {injection_rate} outside (0, 1] flits/cycle/node"
            )));
        }
        Ok(TrafficGen {
            pattern,
            placement,
            injection_rate,
            packet_len,
            rng: SmallRng::seed_from_u64(seed),
            next_id: 0,
            bursts: None,
        })
    }

    /// Restricts generation to an on/off burst schedule. The configured
    /// `injection_rate` applies *during the on-phase*; the long-run average
    /// rate is scaled by the duty cycle.
    pub fn with_bursts(mut self, schedule: BurstSchedule) -> Self {
        self.bursts = Some(schedule);
        self
    }

    /// The burst schedule, if any.
    pub fn bursts(&self) -> Option<BurstSchedule> {
        self.bursts
    }

    /// The traffic pattern.
    pub fn pattern(&self) -> TrafficPattern {
        self.pattern
    }

    /// The logical-to-physical placement.
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// Offered load in flits/cycle/node.
    pub fn injection_rate(&self) -> f64 {
        self.injection_rate
    }

    /// Generates this cycle's packets.
    pub fn generate(&mut self, now: u64, measured: bool) -> Vec<Packet> {
        let mut out = Vec::new();
        self.generate_into(now, measured, &mut out);
        out
    }

    /// [`TrafficGen::generate`], appending to a caller-owned buffer so a
    /// simulation loop allocates nothing per cycle.
    pub(crate) fn generate_into(&mut self, now: u64, measured: bool, out: &mut Vec<Packet>) {
        if let Some(b) = self.bursts {
            if !b.is_on(now) {
                return;
            }
        }
        let k = self.placement.len();
        let p = self.injection_rate / f64::from(self.packet_len);
        for src_logical in 0..k {
            if self.rng.gen_bool(p.min(1.0)) {
                let dst_logical = self.pattern.destination(src_logical, k, &mut self.rng);
                let id = self.next_id;
                self.next_id += 1;
                out.push(Packet {
                    id: PacketId(id),
                    src: self.placement.physical(src_logical),
                    dst: self.placement.physical(dst_logical),
                    len: self.packet_len,
                    created: now,
                    measured,
                    vnet: 0,
                });
            }
        }
    }

    /// Total packets generated so far.
    pub fn generated(&self) -> u64 {
        self.next_id
    }

    /// Earliest cycle `>= now` at which [`TrafficGen::generate`] may draw
    /// randomness or emit packets.
    ///
    /// During a burst off-phase `generate` returns before touching the RNG,
    /// so the cycles until the next on-phase are skippable without
    /// perturbing the random stream; everywhere else the generator consumes
    /// randomness every cycle and nothing may be skipped. Idle fast-forward
    /// in the simulation loop relies on exactly this contract.
    pub fn next_generation_at(&self, now: u64) -> u64 {
        match self.bursts {
            Some(b) => b.next_on_at(now),
            None => now,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Mesh2D;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(42)
    }

    #[test]
    fn uniform_random_never_targets_self_and_covers_all() {
        let mut r = rng();
        let k = 8;
        let mut seen = vec![false; k];
        for _ in 0..2000 {
            let d = TrafficPattern::UniformRandom.destination(3, k, &mut r);
            assert_ne!(d, 3);
            assert!(d < k);
            seen[d] = true;
        }
        seen[3] = true;
        assert!(seen.iter().all(|&s| s), "all destinations reachable");
    }

    #[test]
    fn transpose_is_involutive() {
        let mut r = rng();
        let k = 16;
        for src in 0..k {
            let d = TrafficPattern::Transpose.destination(src, k, &mut r);
            let back = TrafficPattern::Transpose.destination(d, k, &mut r);
            assert_eq!(back, src);
        }
    }

    #[test]
    fn bit_complement_pairs_nodes() {
        let mut r = rng();
        assert_eq!(TrafficPattern::BitComplement.destination(0, 16, &mut r), 15);
        assert_eq!(TrafficPattern::BitComplement.destination(5, 16, &mut r), 10);
    }

    #[test]
    fn tornado_is_half_ring_shift() {
        let mut r = rng();
        // k=16: dst = src + 7 mod 16.
        assert_eq!(TrafficPattern::Tornado.destination(0, 16, &mut r), 7);
        assert_eq!(TrafficPattern::Tornado.destination(10, 16, &mut r), 1);
    }

    #[test]
    fn shuffle_rotates_bits() {
        let mut r = rng();
        // k=8 (3 bits): 0b110 -> 0b101.
        assert_eq!(TrafficPattern::Shuffle.destination(0b110, 8, &mut r), 0b101);
    }

    #[test]
    fn hotspot_concentrates_on_node_zero() {
        let mut r = rng();
        let p = TrafficPattern::Hotspot { hot_fraction: 0.9 };
        let mut hits = 0;
        let n = 5000;
        for _ in 0..n {
            if p.destination(4, 8, &mut r) == 0 {
                hits += 1;
            }
        }
        let frac = f64::from(hits) / f64::from(n);
        assert!((frac - 0.9).abs() < 0.03, "hotspot fraction {frac}");
    }

    #[test]
    fn pattern_validation_rejects_mismatched_sizes() {
        assert!(TrafficPattern::Transpose.validate(15).is_err());
        assert!(TrafficPattern::Transpose.validate(16).is_ok());
        assert!(TrafficPattern::BitComplement.validate(12).is_err());
        assert!(TrafficPattern::Shuffle.validate(8).is_ok());
        assert!(TrafficPattern::UniformRandom.validate(1).is_err());
        assert!(TrafficPattern::Hotspot { hot_fraction: 1.5 }.validate(4).is_err());
    }

    #[test]
    fn placement_rejects_duplicates_and_out_of_range() {
        let mesh = Mesh2D::paper_4x4();
        assert!(Placement::new(vec![NodeId(0), NodeId(0)], &mesh).is_err());
        assert!(Placement::new(vec![NodeId(16)], &mesh).is_err());
        assert!(Placement::new(vec![NodeId(0), NodeId(5)], &mesh).is_ok());
    }

    #[test]
    fn random_placement_is_unique_and_in_range() {
        let mesh = Mesh2D::paper_4x4();
        let mut r = rng();
        for _ in 0..50 {
            let p = Placement::random(8, &mesh, &mut r);
            assert_eq!(p.len(), 8);
            let mut set = std::collections::HashSet::new();
            for &n in p.physical_nodes() {
                assert!(n.0 < 16);
                assert!(set.insert(n));
            }
        }
    }

    #[test]
    fn generator_offered_load_matches_rate() {
        let mesh = Mesh2D::paper_4x4();
        let mut gen = TrafficGen::new(
            TrafficPattern::UniformRandom,
            Placement::full(&mesh),
            0.4,
            5,
            7,
        )
        .unwrap();
        let cycles = 20_000u64;
        let mut flits = 0u64;
        for c in 0..cycles {
            flits += gen.generate(c, false).iter().map(|p| u64::from(p.len)).sum::<u64>();
        }
        let rate = flits as f64 / cycles as f64 / 16.0;
        assert!((rate - 0.4).abs() < 0.02, "measured offered rate {rate}");
    }

    #[test]
    fn generator_rejects_bad_rates() {
        let mesh = Mesh2D::paper_4x4();
        let p = Placement::full(&mesh);
        assert!(
            TrafficGen::new(TrafficPattern::UniformRandom, p.clone(), 0.0, 5, 0).is_err()
        );
        assert!(
            TrafficGen::new(TrafficPattern::UniformRandom, p, 1.5, 5, 0).is_err()
        );
    }

    #[test]
    fn burst_schedule_gates_generation() {
        let mesh = Mesh2D::paper_4x4();
        let mut gen = TrafficGen::new(
            TrafficPattern::UniformRandom,
            Placement::full(&mesh),
            0.9,
            5,
            3,
        )
        .unwrap()
        .with_bursts(BurstSchedule {
            on_cycles: 10,
            off_cycles: 90,
        });
        let mut on_packets = 0usize;
        let mut off_packets = 0usize;
        for c in 0..10_000u64 {
            let n = gen.generate(c, false).len();
            if c % 100 < 10 {
                on_packets += n;
            } else {
                off_packets += n;
            }
        }
        assert_eq!(off_packets, 0, "off-phase must be silent");
        assert!(on_packets > 0);
    }

    #[test]
    fn burst_duty_cycle_math() {
        let b = BurstSchedule {
            on_cycles: 25,
            off_cycles: 75,
        };
        assert!((b.duty_cycle() - 0.25).abs() < 1e-12);
        assert!(b.is_on(0));
        assert!(b.is_on(24));
        assert!(!b.is_on(25));
        assert!(!b.is_on(99));
        assert!(b.is_on(100));
    }

    #[test]
    fn degenerate_zero_period_is_always_on() {
        let b = BurstSchedule {
            on_cycles: 0,
            off_cycles: 0,
        };
        assert!(b.is_on(42));
        assert_eq!(b.duty_cycle(), 1.0);
    }

    #[test]
    fn generator_is_deterministic_per_seed() {
        let mesh = Mesh2D::paper_4x4();
        let mk = || {
            TrafficGen::new(
                TrafficPattern::UniformRandom,
                Placement::full(&mesh),
                0.3,
                5,
                123,
            )
            .unwrap()
        };
        let mut a = mk();
        let mut b = mk();
        for c in 0..100 {
            assert_eq!(a.generate(c, false), b.generate(c, false));
        }
    }

    #[test]
    fn generate_into_appends_what_generate_returns() {
        let mesh = Mesh2D::paper_4x4();
        let bursty = || {
            TrafficGen::new(
                TrafficPattern::UniformRandom,
                Placement::full(&mesh),
                0.5,
                5,
                9,
            )
            .unwrap()
            .with_bursts(BurstSchedule {
                on_cycles: 7,
                off_cycles: 5,
            })
        };
        let (mut a, mut b) = (bursty(), bursty());
        let mut buf = Vec::new();
        for c in 0..200 {
            let before = buf.len();
            b.generate_into(c, c % 3 == 0, &mut buf);
            assert_eq!(a.generate(c, c % 3 == 0), buf[before..], "cycle {c}");
        }
        assert_eq!(a.generated(), b.generated());
    }
}
