//! Cycle-level observation: the [`Probe`] trait and built-in observers.
//!
//! A probe is attached to a run via [`Network::step_observed`] /
//! [`Simulation::run_observed`](crate::sim::Simulation::run_observed) and
//! receives callbacks from every pipeline phase — injection, VC allocation,
//! switch allocation, link traversal, sleep/wake transitions — plus
//! epoch-boundary snapshots with read access to the whole [`Network`].
//!
//! ## Overhead contract
//!
//! Observation must never perturb results:
//!
//! - Probes receive `&Network`, never `&mut Network`: they cannot change
//!   simulation state, and no RNG is consumed on their behalf.
//! - Every trait method has a no-op default, and the hook sites pass
//!   `Option<&mut dyn Probe>` — the unobserved path costs one `None` branch
//!   per event and nothing else (`Network::step` compiles down to the same
//!   hot loop as before the hooks existed).
//! - The determinism suite pins the contract: a batch of operating points
//!   run with probes attached (`SyntheticJob::run_observed` in the
//!   `noc-sprinting` crate) is bit-identical to the same batch run without.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::fault::FaultEvent;
use crate::geometry::NodeId;
use crate::network::Network;
use crate::topology::topo_nodes;
use crate::router::SleepState;
use crate::stats::StreamingHistogram;

/// The phase of the warmup/measure/drain methodology a callback belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimPhase {
    /// Pre-measurement warmup.
    Warmup,
    /// The measurement window.
    Measure,
    /// Post-measurement drain.
    Drain,
}

/// Observer interface over a simulation run. All methods default to no-ops,
/// so an observer implements only the hooks it cares about; see the module
/// docs for the overhead contract.
pub trait Probe: Send {
    /// Sampling period (cycles) for [`Probe::on_epoch`]; `0` disables epoch
    /// callbacks entirely. Queried once per run by the driver.
    fn epoch_interval(&self) -> u64 {
        0
    }

    /// A methodology phase begins at `cycle`.
    fn on_phase(&mut self, _phase: SimPhase, _cycle: u64) {}

    /// Epoch boundary: read-only access to the whole network every
    /// [`Probe::epoch_interval`] cycles.
    fn on_epoch(&mut self, _cycle: u64, _net: &Network) {}

    /// A flit entered the network at `node`'s local port.
    fn on_injection(&mut self, _cycle: u64, _node: NodeId) {}

    /// A packet won an output virtual channel at `node`.
    fn on_vc_alloc(&mut self, _cycle: u64, _node: NodeId) {}

    /// A flit won switch allocation at `node`.
    fn on_switch_grant(&mut self, _cycle: u64, _node: NodeId) {}

    /// A flit started traversing the directed link `from -> to`.
    fn on_link_traversal(&mut self, _cycle: u64, _from: NodeId, _to: NodeId) {}

    /// A flit was delivered to `node`'s network interface.
    fn on_ejection(&mut self, _cycle: u64, _node: NodeId) {}

    /// A router transitioned power state under reactive gating: `asleep`
    /// is `true` when it gated itself, `false` when it finished waking.
    fn on_sleep_transition(&mut self, _cycle: u64, _node: NodeId, _asleep: bool) {}

    /// A measured packet's tail flit arrived: both latency readings in
    /// cycles (creation-to-delivery and head-injection-to-delivery).
    fn on_packet_delivered(&mut self, _cycle: u64, _packet_latency: u64, _network_latency: u64) {}

    /// A fault transition or consequence occurred (only fires when a
    /// [`FaultPlan`](crate::fault::FaultPlan) is installed).
    fn on_fault(&mut self, _cycle: u64, _event: &FaultEvent) {}
}

/// One epoch snapshot captured by [`TimeSeriesObserver`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochSample {
    /// Cycle the snapshot was taken at.
    pub cycle: u64,
    /// Flits buffered in each router's input VCs, indexed by node.
    pub buffered: Vec<usize>,
    /// Whether each router is asleep or waking (reactive gating) or dark
    /// (static gating), indexed by node.
    pub gated: Vec<bool>,
    /// Flits sent per directed link since the previous epoch, as sorted
    /// `((from, to), count)` pairs; links with no traffic are omitted.
    pub link_flits: Vec<((usize, usize), u64)>,
    /// Flits injected since the previous epoch.
    pub injections: u64,
    /// Flits ejected since the previous epoch.
    pub ejections: u64,
}

/// Built-in time-series observer: samples per-router buffer occupancy,
/// per-router gating state and per-link flit counts every `interval`
/// cycles.
#[derive(Debug)]
pub struct TimeSeriesObserver {
    interval: u64,
    samples: Vec<EpochSample>,
    link_flits: BTreeMap<(usize, usize), u64>,
    injections: u64,
    ejections: u64,
}

impl TimeSeriesObserver {
    /// An observer sampling every `interval` cycles.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn new(interval: u64) -> Self {
        assert!(interval > 0, "epoch interval must be positive");
        TimeSeriesObserver {
            interval,
            samples: Vec::new(),
            link_flits: BTreeMap::new(),
            injections: 0,
            ejections: 0,
        }
    }

    /// The captured time series, oldest first.
    pub fn samples(&self) -> &[EpochSample] {
        &self.samples
    }

    /// Renders the series as CSV: one row per `(epoch, node)` for occupancy
    /// and gating, plus per-epoch aggregate columns. Stable ordering, so
    /// the output is byte-identical across runs of a deterministic sweep.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("cycle,node,buffered,gated,epoch_injections,epoch_ejections,epoch_link_flits\n");
        for s in &self.samples {
            let total_link: u64 = s.link_flits.iter().map(|&(_, c)| c).sum();
            for (node, (&buf, &gated)) in s.buffered.iter().zip(&s.gated).enumerate() {
                let _ = writeln!(
                    out,
                    "{},{},{},{},{},{},{}",
                    s.cycle, node, buf, u8::from(gated), s.injections, s.ejections, total_link
                );
            }
        }
        out
    }
}

impl Probe for TimeSeriesObserver {
    fn epoch_interval(&self) -> u64 {
        self.interval
    }

    fn on_epoch(&mut self, cycle: u64, net: &Network) {
        let buffered = topo_nodes(net.topology())
            .map(|n| net.buffered_flits(n))
            .collect();
        let gated = topo_nodes(net.topology())
            .map(|n| {
                let r = net.router(n);
                !r.powered_on || r.sleep != SleepState::On
            })
            .collect();
        self.samples.push(EpochSample {
            cycle,
            buffered,
            gated,
            link_flits: std::mem::take(&mut self.link_flits).into_iter().collect(),
            injections: std::mem::take(&mut self.injections),
            ejections: std::mem::take(&mut self.ejections),
        });
    }

    fn on_link_traversal(&mut self, _cycle: u64, from: NodeId, to: NodeId) {
        *self.link_flits.entry((from.0, to.0)).or_insert(0) += 1;
    }

    fn on_injection(&mut self, _cycle: u64, _node: NodeId) {
        self.injections += 1;
    }

    fn on_ejection(&mut self, _cycle: u64, _node: NodeId) {
        self.ejections += 1;
    }
}

/// Built-in latency observer: feeds every measured packet delivery into two
/// [`StreamingHistogram`]s (O(1) per packet, fixed memory).
#[derive(Debug, Default)]
pub struct LatencyObserver {
    /// End-to-end (creation to delivery) latency distribution.
    pub packet: StreamingHistogram,
    /// Network (head injection to delivery) latency distribution.
    pub network: StreamingHistogram,
}

impl LatencyObserver {
    /// An empty observer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Probe for LatencyObserver {
    fn on_packet_delivered(&mut self, _cycle: u64, packet_latency: u64, network_latency: u64) {
        self.packet.record(packet_latency);
        self.network.record(network_latency);
    }
}

/// Event totals over a run, one counter per hook — the cheapest possible
/// probe, useful for tests and overhead measurements.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventCounts {
    /// Injections observed.
    pub injections: u64,
    /// VC allocations observed.
    pub vc_allocs: u64,
    /// Switch grants observed.
    pub switch_grants: u64,
    /// Link traversals observed.
    pub link_traversals: u64,
    /// Ejections observed.
    pub ejections: u64,
    /// Sleep transitions observed (both directions).
    pub sleep_transitions: u64,
    /// Measured packet deliveries observed.
    pub packets: u64,
    /// Phase transitions observed.
    pub phases: u64,
    /// Fault events observed.
    pub faults: u64,
}

impl Probe for EventCounts {
    fn on_phase(&mut self, _phase: SimPhase, _cycle: u64) {
        self.phases += 1;
    }

    fn on_injection(&mut self, _cycle: u64, _node: NodeId) {
        self.injections += 1;
    }

    fn on_vc_alloc(&mut self, _cycle: u64, _node: NodeId) {
        self.vc_allocs += 1;
    }

    fn on_switch_grant(&mut self, _cycle: u64, _node: NodeId) {
        self.switch_grants += 1;
    }

    fn on_link_traversal(&mut self, _cycle: u64, _from: NodeId, _to: NodeId) {
        self.link_traversals += 1;
    }

    fn on_ejection(&mut self, _cycle: u64, _node: NodeId) {
        self.ejections += 1;
    }

    fn on_sleep_transition(&mut self, _cycle: u64, _node: NodeId, _asleep: bool) {
        self.sleep_transitions += 1;
    }

    fn on_packet_delivered(&mut self, _cycle: u64, _p: u64, _n: u64) {
        self.packets += 1;
    }

    fn on_fault(&mut self, _cycle: u64, _event: &FaultEvent) {
        self.faults += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::Network;
    use crate::packet::{Packet, PacketId};
    use crate::router::RouterParams;
    use crate::routing::XyRouting;
    use crate::topology::Mesh2D;

    fn net() -> Network {
        Network::new(Mesh2D::paper_4x4(), RouterParams::paper(), Box::new(XyRouting)).unwrap()
    }

    fn packet(id: u64, src: usize, dst: usize, len: u32) -> Packet {
        Packet {
            id: PacketId(id),
            src: NodeId(src),
            dst: NodeId(dst),
            len,
            created: 0,
            measured: true,
            vnet: 0,
        }
    }

    #[test]
    fn event_counts_see_all_pipeline_phases() {
        let mut net = net();
        let mut counts = EventCounts::default();
        net.enqueue_packet(packet(1, 0, 3, 5));
        for _ in 0..200 {
            net.step_observed(Some(&mut counts)).unwrap();
            net.drain_ejections();
            if net.is_drained() {
                break;
            }
        }
        assert_eq!(counts.injections, 5, "five flits injected");
        assert_eq!(counts.ejections, 5, "five flits delivered");
        // Path 0 -> 1 -> 2 -> 3: one VC allocation per hop router.
        assert_eq!(counts.vc_allocs, 4);
        // 3 link hops x 5 flits (ejection is not a link traversal).
        assert_eq!(counts.link_traversals, 15);
        // One switch grant per flit per router on the path.
        assert_eq!(counts.switch_grants, 20);
        assert_eq!(counts.sleep_transitions, 0, "static gating never sleeps");
    }

    #[test]
    fn observed_step_matches_unobserved() {
        let run = |observe: bool| {
            let mut net = net();
            let mut counts = EventCounts::default();
            for i in 0..20 {
                net.enqueue_packet(packet(i, (i % 16) as usize, ((i * 7) % 16) as usize, 5));
            }
            let mut reports = Vec::new();
            for _ in 0..400 {
                let probe: Option<&mut dyn Probe> =
                    if observe { Some(&mut counts) } else { None };
                reports.push(net.step_observed(probe).unwrap());
                net.drain_ejections();
            }
            reports
        };
        assert_eq!(run(true), run(false), "probes must not perturb stepping");
    }

    #[test]
    fn time_series_observer_snapshots_occupancy() {
        let mut net = net();
        let mut obs = TimeSeriesObserver::new(10);
        for i in 0..10 {
            net.enqueue_packet(packet(i, 0, 15, 5));
        }
        for cycle in 0..300u64 {
            if cycle % obs.epoch_interval() == 0 {
                obs.on_epoch(cycle, &net);
            }
            net.step_observed(Some(&mut obs)).unwrap();
            net.drain_ejections();
        }
        let samples = obs.samples();
        assert!(samples.len() >= 30);
        assert!(samples.iter().all(|s| s.buffered.len() == 16));
        // Something was in flight at some epoch.
        assert!(samples.iter().any(|s| s.buffered.iter().sum::<usize>() > 0));
        // Flits moved along links between epochs.
        assert!(samples.iter().any(|s| !s.link_flits.is_empty()));
        let csv = obs.to_csv();
        assert!(csv.starts_with("cycle,node,"));
        assert!(csv.lines().count() > 16);
    }

    #[test]
    fn time_series_observer_samples_every_node_of_a_circulant() {
        use crate::routing::CirculantRouting;
        use crate::sim::{SimConfig, Simulation};
        use crate::topology::TopologySpec;
        use crate::traffic::{Placement, TrafficGen, TrafficPattern};

        let topo = TopologySpec::Circulant { n: 16, skip: 5 }.build().unwrap();
        let net = Network::with_topology(
            topo.clone(),
            RouterParams::paper(),
            Box::new(CirculantRouting::full()),
        )
        .unwrap();
        let traffic =
            TrafficGen::new(TrafficPattern::UniformRandom, Placement::full(&*topo), 0.1, 5, 3)
                .unwrap();
        let mut obs = TimeSeriesObserver::new(100);
        Simulation::new(net, traffic, SimConfig::quick())
            .run_observed(Some(&mut obs))
            .unwrap();
        let samples = obs.samples();
        assert!(!samples.is_empty());
        for s in samples {
            assert_eq!(s.buffered.len(), 16, "one occupancy entry per node");
            assert_eq!(s.gated.len(), 16, "one gating entry per node");
        }
    }

    #[test]
    fn latency_observer_collects_distribution() {
        let mut obs = LatencyObserver::new();
        obs.on_packet_delivered(100, 42, 35);
        obs.on_packet_delivered(120, 50, 44);
        assert_eq!(obs.packet.count(), 2);
        assert_eq!(obs.network.count(), 2);
        assert_eq!(obs.packet.min(), Some(42));
        assert_eq!(obs.network.max(), Some(44));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_epoch_interval_is_rejected() {
        let _ = TimeSeriesObserver::new(0);
    }
}
