//! Topology-pluralism acceptance suite (see TOPOLOGY.md).
//!
//! Two families of guarantees:
//!
//! 1. **Mesh bit-identity**: lifting the hard-coded mesh into the
//!    [`noc_sim::topology::Topology`] trait must be a zero-diff refactor.
//!    The pins below are `f64` bit patterns captured from the pre-trait
//!    code on the paper experiment; any behavioural drift — routing,
//!    allocator, power model — fails these, not just "roughly equal".
//! 2. **Circulant correctness on both cycle engines**: the ring-circulant
//!    C(16; 1, 5) runs in lockstep on the active-set engine and the
//!    exhaustive-sweep oracle, delivers traffic, and never enters a dark
//!    router when sprinting on a partial ring arc.

use noc_sim::geometry::NodeId;
use noc_sim::network::{Network, StepEngine};
use noc_sim::router::RouterParams;
use noc_sim::routing::CirculantRouting;
use noc_sim::sim::{SimConfig, Simulation};
use noc_sim::topology::{
    reference_specs, topology_reference, Circulant, Topo, TopologySpec,
};
use noc_sim::traffic::{Placement, TrafficGen, TrafficPattern};
use noc_sprinting::experiment::Experiment;
use noc_sprinting::runner::{SyntheticBaseline, SyntheticJob};

// ---------------------------------------------------------------------------
// Mesh bit-identity pin
// ---------------------------------------------------------------------------

/// `(level, rate, seed, baseline)` → pinned
/// `(avg_packet_latency, avg_network_latency, network_power,
/// accepted_throughput, saturated)` with the `f64`s as raw bit patterns.
#[allow(clippy::type_complexity)]
fn pinned_points() -> Vec<((usize, f64, u64, SyntheticBaseline), (u64, u64, u64, u64, bool))> {
    use SyntheticBaseline::{NocSprinting, RandomEndpoints, SpreadAggregate};
    vec![
        (
            (4, 0.05, 1, NocSprinting),
            (
                0x4032aec02944ff5b,
                0x403284d615eca7a8,
                0x3fa7579f70958bb9,
                0x3fa96872b020c49c,
                false,
            ),
        ),
        (
            (4, 0.25, 2, NocSprinting),
            (
                0x403451867da9cd1d,
                0x403342776e9abe0e,
                0x3fb7fba0b0f63dc4,
                0x3fcf8793dd97f62b,
                false,
            ),
        ),
        (
            (8, 0.12, 3, NocSprinting),
            (
                0x403649ee7e5111a4,
                0x4035d8688033b634,
                0x3fc227e17c797bab,
                0x3fbe7d566cf41f21,
                false,
            ),
        ),
        (
            (16, 0.08, 4, NocSprinting),
            (
                0x40399b489f0954cb,
                0x403953c7338649d7,
                0x3fd0b13f5eace20a,
                0x3fb4395810624dd3,
                false,
            ),
        ),
        (
            (8, 0.12, 3, SpreadAggregate),
            (
                0x4039d96f0b4dcc23,
                0x4039a45f37fcceee,
                0x3fcddc06a9fce3f7,
                0x3faede00d1b71759,
                false,
            ),
        ),
        (
            (4, 0.12, 5, RandomEndpoints),
            (
                0x403dfd0d229481be,
                0x403d98427ac5d493,
                0x3fc9042608050fbc,
                0x3fbe978d4fdf3b64,
                false,
            ),
        ),
    ]
}

#[test]
fn mesh_runs_are_bit_identical_to_pre_trait_refactor() {
    let exp = Experiment::paper();
    for ((level, rate, seed, baseline), pin) in pinned_points() {
        let job = SyntheticJob {
            topology: TopologySpec::default(),
            level,
            pattern: TrafficPattern::UniformRandom,
            rate,
            seed,
            baseline,
        };
        let m = job.run(&exp).unwrap();
        let got = (
            m.avg_packet_latency.to_bits(),
            m.avg_network_latency.to_bits(),
            m.network_power.to_bits(),
            m.accepted_throughput.to_bits(),
            m.saturated,
        );
        assert_eq!(
            got, pin,
            "mesh drift at level {level} rate {rate} seed {seed} {baseline:?}"
        );
    }
}

// ---------------------------------------------------------------------------
// Circulant on both cycle engines
// ---------------------------------------------------------------------------

fn circulant_net(engine: StepEngine, routing: CirculantRouting) -> Network {
    let topo = Topo::from(Circulant::new(16, 5).unwrap());
    let mut net = Network::with_topology(topo, RouterParams::paper(), Box::new(routing)).unwrap();
    net.set_step_engine(engine);
    net
}

/// The two cycle engines are bit-identical per cycle on the circulant, just
/// as they are on the mesh: same step report, same ejections, same final
/// in-flight count.
#[test]
fn circulant_engines_run_lockstep() {
    let topo = Topo::from(Circulant::new(16, 5).unwrap());
    let mut active = circulant_net(StepEngine::ActiveSet, CirculantRouting::full());
    let mut oracle = circulant_net(StepEngine::ExhaustiveSweep, CirculantRouting::full());
    let mut gen_a = TrafficGen::new(
        TrafficPattern::UniformRandom,
        Placement::full(topo.as_dyn()),
        0.15,
        5,
        11,
    )
    .unwrap();
    let mut gen_o = TrafficGen::new(
        TrafficPattern::UniformRandom,
        Placement::full(topo.as_dyn()),
        0.15,
        5,
        11,
    )
    .unwrap();
    for now in 0..2_000 {
        for p in gen_a.generate(now, true) {
            active.enqueue_packet(p);
        }
        for p in gen_o.generate(now, true) {
            oracle.enqueue_packet(p);
        }
        let ra = active.step().unwrap();
        let ro = oracle.step().unwrap();
        assert_eq!(ra, ro, "step report diverged at cycle {now}");
        assert_eq!(
            active.drain_ejections(),
            oracle.drain_ejections(),
            "ejections diverged at cycle {now}"
        );
        if now % 17 == 0 {
            active.validate_active_sets();
        }
    }
    assert_eq!(active.in_flight(), oracle.in_flight());
}

/// A full simulation on the circulant delivers packets and reports finite
/// latency under both engines — and the two engines agree bit-for-bit on
/// the aggregate statistics.
#[test]
fn circulant_simulation_delivers_on_both_engines() {
    let topo = Topo::from(Circulant::new(16, 5).unwrap());
    let mut outcomes = Vec::new();
    for engine in [StepEngine::ActiveSet, StepEngine::ExhaustiveSweep] {
        let net = circulant_net(engine, CirculantRouting::full());
        let traffic = TrafficGen::new(
            TrafficPattern::UniformRandom,
            Placement::full(topo.as_dyn()),
            0.10,
            5,
            3,
        )
        .unwrap();
        let out = Simulation::new(net, traffic, SimConfig::sweep()).run().unwrap();
        assert!(out.stats.packet_latency.count() > 0, "nothing delivered");
        assert!(out.stats.packet_latency.mean().unwrap().is_finite());
        outcomes.push((
            out.stats.packet_latency.count(),
            out.stats.packet_latency.mean().unwrap().to_bits(),
        ));
    }
    assert_eq!(outcomes[0], outcomes[1], "engines disagree on the circulant");
}

/// Every reference topology's canonical routing function reaches every
/// destination from every source within `diameter()` hops, takes exactly
/// `hops()` of them (minimality), and never visits a node twice.
#[test]
fn reference_topologies_route_minimally_within_diameter() {
    for spec in reference_specs() {
        let topo = spec.build().unwrap();
        let routing = topo.routing(None);
        for src in 0..topo.len() {
            for dst in 0..topo.len() {
                let expect = topo.hops(NodeId(src), NodeId(dst));
                assert!(expect <= topo.diameter(), "{spec:?}: hops exceed diameter");
                let mut at = NodeId(src);
                let mut visited = vec![false; topo.len()];
                let mut steps = 0u32;
                while at != NodeId(dst) {
                    assert!(!visited[at.0], "{spec:?} {src}->{dst}: revisited {at}");
                    visited[at.0] = true;
                    let port = routing.route(topo.as_dyn(), at, NodeId(dst));
                    let dir = port.direction().expect("non-local hop has a direction");
                    at = topo.neighbor(at, dir).expect("routed into a missing link");
                    steps += 1;
                    assert!(steps <= topo.diameter(), "{spec:?} {src}->{dst}: overran");
                }
                assert_eq!(steps, expect, "{spec:?} {src}->{dst}: non-minimal path");
            }
        }
    }
}

/// The generated summary table in TOPOLOGY.md matches the code — the same
/// drift-guard pattern as SERVICE.md's schema block.
#[test]
fn topology_md_matches_topology_reference() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../TOPOLOGY.md");
    let text = std::fs::read_to_string(path).expect("TOPOLOGY.md exists at the repository root");
    let begin = "<!-- topology:generated:begin -->";
    let end = "<!-- topology:generated:end -->";
    let start = text
        .find(begin)
        .expect("TOPOLOGY.md contains the topology:generated:begin marker")
        + begin.len();
    let stop = text
        .find(end)
        .expect("TOPOLOGY.md contains the topology:generated:end marker");
    let embedded = text[start..stop].trim();
    let generated = topology_reference();
    assert!(
        embedded == generated,
        "TOPOLOGY.md summary table has drifted from noc_sim::topology; regenerate with \
         `cargo run -p noc-sim --example print_topology_reference` and paste between the \
         markers.\n--- expected ---\n{generated}\n--- found ---\n{embedded}"
    );
}

/// Sprinting on a partial ring arc: only arc nodes are powered, traffic is
/// placed on the arc, and the dark-router contract (a flit entering a
/// powered-off router is a simulation error) passes on both engines.
#[test]
fn circulant_arc_region_never_enters_dark_routers() {
    let n = 16;
    for level in [3usize, 7, 12] {
        // Arc of `level` nodes starting at the master, by ring distance —
        // matches the circulant's sprint_weight order.
        let topo = Topo::from(Circulant::new(n, 5).unwrap());
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| {
            (
                topo.sprint_weight(NodeId(0), NodeId(i)),
                i,
            )
        });
        let mut active = vec![false; n];
        for &i in order.iter().take(level) {
            active[i] = true;
        }
        for engine in [StepEngine::ActiveSet, StepEngine::ExhaustiveSweep] {
            let mut net = Network::with_topology(
                topo.clone(),
                RouterParams::paper(),
                Box::new(CirculantRouting::on_arc(active.clone())),
            )
            .unwrap();
            net.set_step_engine(engine);
            net.set_power_mask(&active);
            let nodes: Vec<NodeId> = (0..n).filter(|&i| active[i]).map(NodeId).collect();
            let traffic = TrafficGen::new(
                TrafficPattern::UniformRandom,
                Placement::new(nodes, topo.as_dyn()).unwrap(),
                0.10,
                5,
                9,
            )
            .unwrap();
            // Any dark-router entry fails the run with DarkRouterEntered.
            let out = Simulation::new(net, traffic, SimConfig::sweep()).run().unwrap();
            assert!(out.stats.packet_latency.count() > 0, "level {level}: no traffic");
        }
    }
}
