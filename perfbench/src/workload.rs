//! The three workloads: pure functions from the workload seed to the
//! batches of operating points the daemon is sent.

use noc_sim::topology::TopologySpec;
use noc_sim::traffic::TrafficPattern;
use noc_sprinting::runner::{SyntheticBaseline, SyntheticJob};

/// Fig. 11's sprint levels.
pub const FIG11_LEVELS: [usize; 2] = [4, 8];
/// Spread-aggregate samples per (level, rate), as in the `fig11` binary.
pub const FIG11_SAMPLES: u64 = 10;
/// Seed of fig11's NoC-sprinting point.
const FIG11_NOC_SEED: u64 = 42;
/// Filler records per grid point in `sweep_warm`'s prefilled cache.
pub const FILLER_PER_POINT: u64 = 13;
/// The ring-circulant of `big_topology`.
pub const BIG_TOPOLOGY: &str = "circ256s15";
/// `big_topology`'s (level, rates) grid: every rate sits well below the
/// level's saturation knee on the 256-router ring.
const BIG_GRID: [(usize, [f64; 2]); 5] = [
    (8, [0.1, 0.2]),
    (32, [0.03, 0.06]),
    (64, [0.015, 0.03]),
    (128, [0.005, 0.01]),
    (256, [0.05, 0.1]),
];

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// fig11's exact grid against an empty cache, one batch per level.
    Fig11Cold,
    /// fig11's grid, one 11-point batch per (level, rate), all cache hits.
    SweepWarm,
    /// Sparse to fully lit sprints on a 256-router ring-circulant.
    BigTopology,
}

impl Workload {
    /// Every workload, in the order BENCHMARK.json lists them.
    pub const ALL: [Workload; 3] = [
        Workload::Fig11Cold,
        Workload::SweepWarm,
        Workload::BigTopology,
    ];

    /// The workload's fixed name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig11Cold => "fig11_cold",
            Workload::SweepWarm => "sweep_warm",
            Workload::BigTopology => "big_topology",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether every point of the workload is a cache miss.
    pub fn cold(self) -> bool {
        self != Workload::SweepWarm
    }

    /// The percentile `point_ms_tail` reports: the rule of
    /// [`crate::stats::tail_percentile`] applied once to the samples a
    /// 30-second run yields on the reference machine (`fig11_cold`: 924,
    /// `sweep_warm`: about 10^6, `big_topology`: 160). Fixed, so the metric
    /// keeps its meaning when a change fits more passes into a run.
    pub fn tail_percentile(self) -> f64 {
        match self {
            Workload::Fig11Cold | Workload::SweepWarm => 95.0,
            Workload::BigTopology => 80.0,
        }
    }

    /// The batches of pass `pass` (0-based) at workload seed `seed`.
    ///
    /// Cold workloads draw fresh job seeds for every pass, so repeated
    /// passes stay cache misses; `sweep_warm` resubmits pass 0's points.
    pub fn pass(self, seed: u64, pass: u64) -> Vec<Vec<SyntheticJob>> {
        match self {
            Workload::Fig11Cold => fig11_grid(mix(seed, pass)),
            Workload::SweepWarm => fig11_grid(mix(seed, 0))
                .into_iter()
                .flat_map(|level| {
                    level
                        .chunks(1 + FIG11_SAMPLES as usize)
                        .map(<[SyntheticJob]>::to_vec)
                        .collect::<Vec<_>>()
                })
                .collect(),
            Workload::BigTopology => vec![big_grid(mix(seed, pass))],
        }
    }
}

/// splitmix64 finaliser.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The salt XORed into every job seed of pass `pass` at workload seed
/// `seed`; 0 for seed 0, pass 0, which reproduces fig11's seeds exactly.
pub fn mix(seed: u64, pass: u64) -> u64 {
    splitmix(seed ^ splitmix(pass)) ^ splitmix(splitmix(0))
}

/// fig11's rates: 0.04 to 0.95 flits/cycle per active node, step 0.07.
pub fn fig11_rates() -> Vec<f64> {
    (4..=95).step_by(7).map(|p| f64::from(p) / 100.0).collect()
}

/// fig11's grid with every job seed XORed with `salt`: one batch per
/// level, each rate contributing its NoC-sprinting point followed by
/// [`FIG11_SAMPLES`] spread-aggregate samples.
fn fig11_grid(salt: u64) -> Vec<Vec<SyntheticJob>> {
    let job = |level, rate, seed, baseline| SyntheticJob {
        topology: TopologySpec::default(),
        level,
        pattern: TrafficPattern::UniformRandom,
        rate,
        seed: seed ^ salt,
        baseline,
    };
    FIG11_LEVELS
        .iter()
        .map(|&level| {
            fig11_rates()
                .into_iter()
                .flat_map(|rate| {
                    std::iter::once(job(
                        level,
                        rate,
                        FIG11_NOC_SEED,
                        SyntheticBaseline::NocSprinting,
                    ))
                    .chain(
                        (0..FIG11_SAMPLES)
                            .map(move |s| job(level, rate, s, SyntheticBaseline::SpreadAggregate)),
                    )
                })
                .collect()
        })
        .collect()
}

/// `big_topology`'s single batch, ascending level so the fully lit points
/// finish the batch.
fn big_grid(salt: u64) -> Vec<SyntheticJob> {
    let topology = TopologySpec::from_wire_name(BIG_TOPOLOGY).expect("valid circulant name");
    let mut jobs = Vec::new();
    for (level, rates) in BIG_GRID {
        for rate in rates {
            for baseline in [
                SyntheticBaseline::NocSprinting,
                SyntheticBaseline::SpreadAggregate,
            ] {
                jobs.push(SyntheticJob {
                    topology,
                    level,
                    pattern: TrafficPattern::UniformRandom,
                    rate,
                    seed: jobs.len() as u64 ^ salt,
                    baseline,
                });
            }
        }
    }
    jobs
}

/// Keys that pad `sweep_warm`'s cache to a realistic size: each grid point
/// under [`FILLER_PER_POINT`] other seeds. The benchmark never requests
/// them, so their stored values are copies of the grid point's.
pub fn filler(seed: u64, grid: &[SyntheticJob]) -> Vec<(SyntheticJob, usize)> {
    (0..FILLER_PER_POINT)
        .flat_map(|k| {
            let salt = mix(seed, 1 << 32 | k);
            grid.iter().enumerate().map(move |(i, job)| {
                (
                    SyntheticJob {
                        seed: job.seed ^ salt,
                        ..*job
                    },
                    i,
                )
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(batches: &[Vec<SyntheticJob>]) -> Vec<u64> {
        batches
            .iter()
            .flatten()
            .map(SyntheticJob::cache_key)
            .collect()
    }

    #[test]
    fn generation_is_a_pure_function_of_the_seed() {
        for w in Workload::ALL {
            for seed in [0u64, 1, 0xdead_beef] {
                assert_eq!(keys(&w.pass(seed, 0)), keys(&w.pass(seed, 0)));
                assert_eq!(keys(&w.pass(seed, 3)), keys(&w.pass(seed, 3)));
            }
            assert_ne!(keys(&w.pass(0, 0)), keys(&w.pass(1, 0)), "{}", w.name());
        }
    }

    #[test]
    fn fixed_tail_percentiles_follow_the_rule() {
        for (w, samples) in [
            (Workload::Fig11Cold, 924),
            (Workload::SweepWarm, 1_000_000),
            (Workload::BigTopology, 160),
        ] {
            assert_eq!(
                crate::stats::tail_percentile(samples),
                Some(w.tail_percentile())
            );
        }
    }

    #[test]
    fn seed_zero_is_fig11_exactly() {
        let grid = Workload::Fig11Cold.pass(0, 0);
        assert_eq!(grid.len(), 2);
        assert_eq!(grid.iter().map(Vec::len).sum::<usize>(), 308);
        assert_eq!(grid[0][0].seed, 42);
        assert_eq!(grid[0][1].seed, 0);
        assert_eq!(grid[0][10].seed, 9);
        assert_eq!(fig11_rates().len(), 14);
    }

    #[test]
    fn warm_groups_are_the_cold_grid_and_cold_passes_are_distinct() {
        let cold = Workload::Fig11Cold.pass(5, 0);
        let warm = Workload::SweepWarm.pass(5, 7);
        assert_eq!(warm.len(), 28);
        assert!(warm.iter().all(|b| b.len() == 11));
        assert_eq!(keys(&cold), keys(&warm));
        let mut all: Vec<u64> = (0..4)
            .flat_map(|p| keys(&Workload::Fig11Cold.pass(5, p)))
            .collect();
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n, "cold passes must never repeat a key");
        let big = Workload::BigTopology.pass(5, 0);
        assert_eq!(big[0].len(), 20);
        assert_ne!(keys(&big), keys(&Workload::BigTopology.pass(5, 1)));
    }

    #[test]
    fn filler_never_collides_with_the_grid() {
        let grid: Vec<SyntheticJob> = Workload::Fig11Cold.pass(0, 0).concat();
        let mut all: Vec<u64> = grid.iter().map(SyntheticJob::cache_key).collect();
        all.extend(filler(0, &grid).iter().map(|(j, _)| j.cache_key()));
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n);
        assert_eq!(n, 308 * (1 + FILLER_PER_POINT as usize));
    }
}
