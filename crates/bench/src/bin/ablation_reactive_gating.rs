//! Ablation: structural (NoC-sprinting) vs reactive (traffic-driven)
//! network power gating.
//!
//! §2 of the paper: reactive schemes (NoRD, Catnap, router parking,
//! look-ahead gating) "do not account for the underlying core status and
//! will result in sub-optimal power gating decisions". We reproduce the
//! argument quantitatively on sporadic traffic: a 4-core computation that
//! bursts on/off (the very workload sprinting targets).
//!
//! - **no gating** — the whole mesh stays powered (full-sprinting's
//!   network posture);
//! - **reactive** — routers self-gate after an idle threshold and pay a
//!   wakeup latency on the next flit. Aggressive thresholds save power but
//!   stall every burst front; conservative thresholds stop saving;
//! - **NoC-sprinting** — the sprint controller *knows* which cores sprint,
//!   so the dark region gates structurally: no wakeups, no latency tax,
//!   maximal idle credit.

use noc_bench::{banner, markdown_table};
use noc_sim::topology::TopologySpec;
use noc_sim::traffic::{BurstSchedule, TrafficPattern};
use noc_sprinting::experiment::Experiment;
use noc_sprinting::runner::{SyntheticBaseline, SyntheticJob};

fn main() {
    print!(
        "{}",
        banner(
            "Ablation",
            "Structural vs reactive network power gating",
            "reactive gating either stalls burst fronts (aggressive) or stops \
             saving (conservative); structural gating does neither"
        )
    );
    let e = Experiment::paper();
    let level = 4;
    let rate = 0.25;
    let bursts = BurstSchedule {
        on_cycles: 400,
        off_cycles: 1600,
    };
    println!(
        "workload: {level}-core sprint region, uniform-random at {rate} flits/cyc/node,\n\
         bursty {}on/{}off cycles (duty {:.0}%)\n",
        bursts.on_cycles,
        bursts.off_cycles,
        bursts.duty_cycle() * 100.0
    );

    let mut rows = Vec::new();

    // Baseline: whole mesh on, no gating of any kind.
    let base = e
        .run_network_reactive(
            level,
            TrafficPattern::UniformRandom,
            rate,
            u64::MAX, // never idle long enough: gating disabled
            0,
            Some(bursts),
            7,
        )
        .expect("baseline");
    rows.push(vec![
        "no gating".to_string(),
        format!("{:.1}", base.avg_packet_latency),
        format!("{:.1}", base.network_power * 1e3),
        "-".into(),
    ]);

    for (label, threshold, wake) in [
        ("reactive, aggressive (64 cyc)", 64u64, 10u64),
        ("reactive, moderate (512 cyc)", 512, 10),
        ("reactive, conservative (4096 cyc)", 4096, 10),
    ] {
        let m = e
            .run_network_reactive(
                level,
                TrafficPattern::UniformRandom,
                rate,
                threshold,
                wake,
                Some(bursts),
                7,
            )
            .expect("reactive run");
        rows.push(vec![
            label.to_string(),
            format!("{:.1}", m.avg_packet_latency),
            format!("{:.1}", m.network_power * 1e3),
            format!(
                "{:+.1} cyc",
                m.avg_packet_latency - base.avg_packet_latency
            ),
        ]);
    }

    // NoC-sprinting is *mode-aware*: the region is powered only while the
    // sprint runs; between bursts the chip is in nominal mode (one router).
    // The controller triggers the sprint, so region wakeup overlaps sprint
    // initiation and no packet ever stalls on a sleeping router. Measured
    // on-phase power/latency come from the simulator; the off phase is the
    // nominal network.
    let ns_on = SyntheticJob {
        topology: TopologySpec::default(),
        level,
        pattern: TrafficPattern::UniformRandom,
        rate,
        seed: 7,
        baseline: SyntheticBaseline::NocSprinting,
    }
    .run(&e)
    .expect("NoC-sprinting on-phase");
    let nominal_net = {
        // One powered router + its (zero) region links.
        let p = e
            .router_power
            .power_from_activity(
                &e.op,
                &noc_sim::router::RouterActivity::default(),
                1_000,
            );
        p.leakage.total() + p.dynamic.clock
    };
    let duty = bursts.duty_cycle();
    let ns_power = duty * ns_on.network_power + (1.0 - duty) * nominal_net;
    rows.push(vec![
        "NoC-sprinting (structural, mode-aware)".to_string(),
        format!("{:.1}", ns_on.avg_packet_latency),
        format!("{:.1}", ns_power * 1e3),
        format!(
            "{:+.1} cyc",
            ns_on.avg_packet_latency - base.avg_packet_latency
        ),
    ]);

    println!(
        "{}",
        markdown_table(
            &["scheme", "packet latency (cyc)", "network power (mW)", "latency vs no gating"],
            &rows
        )
    );
    println!("reactive gating trades latency for power blindly: aggressive thresholds");
    println!("stall burst fronts, conservative ones stop saving. NoC-sprinting's");
    println!("controller *knows* the core status (it starts the sprint), so the dark");
    println!("region gates for whole sprint phases and the region itself powers down");
    println!("between bursts — lowest power with zero latency tax.");
}
