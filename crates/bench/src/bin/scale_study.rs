//! Scale study: NoC-sprinting from 64-core (8x8) up to 4096-core (64x64)
//! chips.
//!
//! The paper evaluates a 16-core CMP; dark silicon only worsens with
//! scaling ("the fraction ... is dropping exponentially with each
//! generation"), so the mechanisms must hold on bigger meshes. This study
//! re-runs the headline comparisons on an 8x8 chip by default, or a bigger
//! chip with `--mesh 16|32|64` (the 32x32 and 64x64 points ride the
//! struct-of-arrays engine — a full sweep at those sizes was impractical on
//! the old layout):
//!
//! - Fig. 3's trend (the chip model already showed 42% NoC share at 32
//!   cores),
//! - Fig. 9/10-style latency and power for intermediate sprint levels,
//! - convexity/deadlock guarantees (already property-tested to 8x8).
//!
//! Usage: `scale_study [--mesh 8|16|32|64] [--quick] [--validate-sets N]`.
//! `--quick` trims the level sweep and uses the short simulation phases,
//! suitable as a CI smoke of the many-node path through the parallel
//! runner. `--validate-sets N` re-checks the cycle engine's work-lists and
//! struct-of-arrays mirrors against ground truth every N cycles of every
//! run, aborting on divergence.

use noc_bench::{banner, markdown_table, pct, reduction, watts, FigureHarness};
use noc_sim::sim::SimConfig;
use noc_sim::traffic::TrafficPattern;
use noc_sim::topology::TopologySpec;
use noc_sprinting::experiment::Experiment;
use noc_sprinting::runner::{SyntheticBaseline, SyntheticJob};

/// The paper's experiment (master at node 0); the mesh size travels in
/// each job's topology.
fn experiment(quick: bool, validate_every: Option<u64>) -> Experiment {
    let mut e = Experiment::paper();
    if quick {
        e.sim_config = SimConfig::quick();
    }
    e.sim_config.validate_sets_every = validate_every;
    e
}

fn main() {
    let mut mesh = 8u16;
    let mut quick = false;
    let mut validate_every: Option<u64> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--mesh" => {
                let raw = args.next();
                mesh = match raw.as_deref().map(str::parse) {
                    Some(Ok(m @ (8 | 16 | 32 | 64))) => m,
                    _ => {
                        eprintln!(
                            "--mesh must be 8, 16, 32 or 64, got {}",
                            raw.as_deref().map_or("nothing".to_string(), |v| format!("{v:?}"))
                        );
                        std::process::exit(2);
                    }
                };
            }
            "--quick" => quick = true,
            "--validate-sets" => {
                let raw = args.next();
                validate_every = match raw.as_deref().map(str::parse) {
                    Some(Ok(n)) if n > 0 => Some(n),
                    _ => {
                        eprintln!("--validate-sets requires a positive cycle count");
                        std::process::exit(2);
                    }
                };
            }
            other => {
                eprintln!(
                    "unknown argument {other}; usage: \
                     scale_study [--mesh 8|16|32|64] [--quick] [--validate-sets N]"
                );
                std::process::exit(2);
            }
        }
    }
    let cores = usize::from(mesh) * usize::from(mesh);
    print!(
        "{}",
        banner(
            "Scale study",
            &format!("NoC-sprinting on a {cores}-core, {mesh}x{mesh} mesh"),
            "the latency/power benefits grow with the dark fraction as chips scale"
        )
    );
    let e = experiment(quick, validate_every);
    let harness = FigureHarness::new();
    let rate = 0.15;
    let levels: Vec<usize> = match (mesh, quick) {
        (8, false) => vec![4, 8, 16, 32, 64],
        (8, true) => vec![4, 16, 64],
        (16, false) => vec![8, 16, 32, 64, 128, 256],
        (16, true) => vec![8, 64, 256],
        (32, false) => vec![16, 64, 256, 1024],
        (32, true) => vec![16, 256, 1024],
        (64, false) => vec![64, 256, 1024, 4096],
        _ => vec![64, 4096],
    };
    let jobs: Vec<SyntheticJob> = levels
        .iter()
        .flat_map(|&level| {
            [
                SyntheticBaseline::NocSprinting,
                SyntheticBaseline::SpreadAggregate,
            ]
            .map(|baseline| SyntheticJob {
                topology: TopologySpec::Mesh {
                    width: mesh,
                    height: mesh,
                },
                level,
                pattern: TrafficPattern::UniformRandom,
                rate,
                seed: 5,
                baseline,
            })
        })
        .collect();
    let metrics = harness.run(&e, &jobs).expect("scale-study points");
    let mut rows = Vec::new();
    for (level, chunk) in levels.iter().zip(metrics.chunks(2)) {
        let (ns, full) = (chunk[0], chunk[1]);
        rows.push(vec![
            format!("{level}/{cores} cores"),
            format!("{:.1}", ns.avg_network_latency),
            format!("{:.1}", full.avg_network_latency),
            pct(reduction(full.avg_network_latency, ns.avg_network_latency)),
            watts(ns.network_power),
            watts(full.network_power),
            pct(reduction(full.network_power, ns.network_power)),
        ]);
    }
    println!(
        "{}",
        markdown_table(
            &[
                "sprint level",
                "NoC lat (cyc)",
                "full lat (cyc)",
                "lat cut",
                "NoC power",
                "full power",
                "power cut"
            ],
            &rows
        )
    );
    println!("on the bigger chip the dark fraction at a given level is larger, so the");
    println!("power savings exceed the 4x4 numbers at matched levels, while latency");
    println!("benefits follow the same level-inverse trend as Fig. 11.");
    harness.finish("scale_study").expect("telemetry write failed");
}
