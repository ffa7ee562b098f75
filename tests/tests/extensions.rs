//! Integration tests for the extension subsystems: trace replay, reactive
//! gating, virtual networks, closed-loop protocol flows, and the sprint
//! runtime — each exercised across crate boundaries.

use noc_sim::closed_loop::ClosedLoopSim;
use noc_sim::network::{GatingMode, Network};
use noc_sim::router::RouterParams;
use noc_sim::routing::XyRouting;
use noc_sim::topology::Mesh2D;
use noc_sim::trace::PacketTrace;
use noc_sim::traffic::{Placement, TrafficGen, TrafficPattern};
use noc_sprinting::cdor::CdorRouting;
use noc_sprinting::controller::SprintPolicy;
use noc_sprinting::experiment::Experiment;
use noc_sprinting::llc::LlcAgent;
use noc_sprinting::runtime::{SprintJob, SprintRuntime};
use noc_sprinting::sprint_topology::SprintSet;
use noc_workload::profile::by_name;

/// Replays one captured trace against two routings and compares: on the
/// full mesh CDOR(full region) must behave exactly like XY.
#[test]
fn trace_replay_gives_identical_results_across_equivalent_routings() {
    let mesh = Mesh2D::paper_4x4();
    let mut gen = TrafficGen::new(
        TrafficPattern::UniformRandom,
        Placement::full(&mesh),
        0.2,
        5,
        31,
    )
    .unwrap();
    let trace = PacketTrace::capture(&mut gen, 2_000);
    assert!(trace.len() > 100);

    let run = |routing: Box<dyn noc_sim::routing::RoutingFunction>| -> (usize, u64) {
        let mut net = Network::new(mesh, RouterParams::paper(), routing).unwrap();
        let mut replay = trace.replayer();
        let mut delivered = 0usize;
        let mut last_at = 0u64;
        for _ in 0..50_000 {
            let now = net.now();
            for p in replay.generate(now, true) {
                net.enqueue_packet(p);
            }
            net.step().unwrap();
            for e in net.drain_ejections() {
                delivered += 1;
                last_at = e.at;
            }
            if replay.exhausted() && net.is_drained() {
                break;
            }
        }
        (delivered, last_at)
    };

    let set = SprintSet::paper(16);
    let a = run(Box::new(XyRouting));
    let b = run(Box::new(CdorRouting::new(&set)));
    assert_eq!(a, b, "identical routing must give identical replay results");
    assert_eq!(a.0 as u64, trace.total_flits());
}

/// Reactive gating composes with CDOR sprint traffic: nothing is lost and
/// the unused region actually sleeps.
#[test]
fn reactive_gating_under_sprint_traffic_sleeps_the_dark_region() {
    let mesh = Mesh2D::paper_4x4();
    let set = SprintSet::paper(4);
    let mut net = Network::new(mesh, RouterParams::paper(), Box::new(XyRouting)).unwrap();
    net.set_gating_mode(GatingMode::Reactive {
        idle_threshold: 100,
        wakeup_latency: 10,
    });
    net.set_counting(true);
    let mut traffic = TrafficGen::new(
        TrafficPattern::UniformRandom,
        Placement::new(set.active_nodes().to_vec(), &mesh).unwrap(),
        0.2,
        5,
        9,
    )
    .unwrap();
    let cycles = 5_000u64;
    let mut delivered = 0u64;
    let mut generated = 0u64;
    for _ in 0..cycles {
        for p in traffic.generate(net.now(), true) {
            generated += u64::from(p.len);
            net.enqueue_packet(p);
        }
        net.step().unwrap();
        delivered += net.drain_ejections().len() as u64;
    }
    // Drain.
    for _ in 0..5_000 {
        net.step().unwrap();
        delivered += net.drain_ejections().len() as u64;
        if net.is_drained() {
            break;
        }
    }
    assert_eq!(delivered, generated, "no flit lost under reactive gating");
    // The far corner (node 15) is far from all sprint traffic: it must have
    // slept most of the run; node 0 (master, traffic endpoint) must not.
    let stats = net.sleep_stats();
    assert!(
        stats[15].0 > cycles / 2,
        "corner slept only {} of {cycles}",
        stats[15].0
    );
    assert!(stats[0].0 < cycles / 10, "master slept {} cycles", stats[0].0);
}

/// The LLC flow survives a *reactively* gated mesh too (requests wake the
/// path), at a latency penalty versus structural gating.
#[test]
fn llc_flow_on_reactive_mesh_pays_wakeups() {
    let mesh = Mesh2D::paper_4x4();
    let params = RouterParams::paper_two_vnets();
    let set = SprintSet::paper(4);
    let cores = set.active_nodes().to_vec();

    // Structural: CDOR + static gating, banks in-region.
    let mut net = Network::new(mesh, params, Box::new(CdorRouting::new(&set))).unwrap();
    net.set_power_mask(set.mask());
    let mut sim = ClosedLoopSim::new(net, LlcAgent::new(cores.clone(), cores.clone(), 0.02, 6, 3));
    sim.run(4_000, 50_000).unwrap();
    let structural = sim.agent().round_trips().mean().unwrap();

    // Reactive: all banks, whole mesh, aggressive sleeping.
    let mut net = Network::new(mesh, params, Box::new(XyRouting)).unwrap();
    net.set_gating_mode(GatingMode::Reactive {
        idle_threshold: 50,
        wakeup_latency: 12,
    });
    let mut sim = ClosedLoopSim::new(
        net,
        LlcAgent::new(cores, mesh.nodes().collect(), 0.02, 6, 3),
    );
    sim.run(4_000, 50_000).unwrap();
    let reactive = sim.agent().round_trips().mean().unwrap();

    assert!(
        reactive > structural,
        "reactive RTT {reactive} must exceed structural {structural}"
    );
}

/// The multi-burst runtime and the per-figure experiment agree on policy
/// ordering for a simple two-job scenario.
#[test]
fn runtime_policy_ordering_matches_experiment() {
    let dedup = by_name("dedup").unwrap();
    let turnaround = |policy| {
        let mut rt = SprintRuntime::new(Experiment::paper(), policy);
        let r = rt.process(&SprintJob {
            profile: dedup,
            serial_seconds: 1.0,
            arrival: 0.0,
        });
        r.finish
    };
    let non = turnaround(SprintPolicy::NonSprinting);
    let ns = turnaround(SprintPolicy::NocSprinting);
    assert!(ns < non, "sprinting must beat non-sprinting");
    // The speedup implied by the runtime matches the controller's.
    let expected = Experiment::paper()
        .controller
        .speedup(SprintPolicy::NocSprinting, &dedup);
    let measured = non / ns;
    assert!(
        (measured / expected - 1.0).abs() < 0.05,
        "runtime speedup {measured} vs controller {expected}"
    );
}

/// Two-vnet traffic through an irregular CDOR region: partitioning and
/// convex routing compose.
#[test]
fn vnets_work_inside_sprint_regions() {
    let mesh = Mesh2D::paper_4x4();
    let set = SprintSet::paper(6);
    let mut net = Network::new(
        mesh,
        RouterParams::paper_two_vnets(),
        Box::new(CdorRouting::new(&set)),
    )
    .unwrap();
    net.set_power_mask(set.mask());
    let mut id = 0u64;
    for &src in set.active_nodes() {
        for &dst in set.active_nodes() {
            for vnet in 0..2u8 {
                net.enqueue_packet(noc_sim::packet::Packet {
                    id: noc_sim::packet::PacketId(id),
                    src,
                    dst,
                    len: 3,
                    created: 0,
                    measured: true,
                    vnet,
                });
                id += 1;
            }
        }
    }
    let mut delivered = 0u64;
    for _ in 0..100_000 {
        net.step().unwrap();
        delivered += net.drain_ejections().len() as u64;
        if net.is_drained() {
            break;
        }
    }
    assert_eq!(delivered, id * 3, "all flits across both vnets delivered");
}

/// Negative-first routing is deadlock-free by the Glass–Ni turn model;
/// confirm it with the same channel-dependency machinery used for CDOR.
#[test]
fn negative_first_routing_cdg_is_acyclic() {
    use noc_sim::routing::NegativeFirstRouting;
    use noc_sprinting::is_deadlock_free;
    for (w, h) in [(4u16, 4u16), (5, 3), (6, 6)] {
        let mesh = Mesh2D::new(w, h).unwrap();
        let active = vec![true; mesh.len()];
        assert!(is_deadlock_free(&mesh, &NegativeFirstRouting, &active));
    }
}

/// A full simulation under negative-first routing on adversarial traffic.
#[test]
fn negative_first_simulation_completes() {
    use noc_sim::routing::NegativeFirstRouting;
    let mesh = Mesh2D::paper_4x4();
    let net = Network::new(mesh, RouterParams::paper(), Box::new(NegativeFirstRouting)).unwrap();
    let traffic = TrafficGen::new(
        TrafficPattern::Tornado,
        Placement::full(&mesh),
        0.3,
        5,
        13,
    )
    .unwrap();
    let out = noc_sim::sim::Simulation::new(net, traffic, noc_sim::sim::SimConfig::quick())
        .run()
        .unwrap();
    assert!(out.stats.packets_delivered > 0);
}
