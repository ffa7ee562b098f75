//! The load-bearing guarantee of the parallel pipeline: the
//! `ExperimentRunner` produces **bit-identical** results to the serial
//! path, at any worker count, because every operating point's seed is a
//! pure function of `(base_seed, point_index)`.

use std::sync::Arc;
use std::time::Instant;

use noc_sim::error::SimError;
use noc_sim::probe::{EventCounts, Probe, TimeSeriesObserver};
use noc_sim::topology::TopologySpec;
use noc_sim::traffic::TrafficPattern;
use noc_sprinting::experiment::{Experiment, NetworkMetrics};
use noc_sprinting::runner::{
    point_seed, ExperimentRunner, ResultCache, SyntheticBaseline, SyntheticJob,
};
use noc_sprinting::telemetry::SpanRecorder;

/// The standard latency-vs-load sweep (4%, 12%, ... in 8% steps, point `i`
/// seeded by `point_seed(7, i)`) as a batch of `points` jobs on the paper
/// 4x4 mesh.
fn sweep_jobs(baseline: SyntheticBaseline, level: usize, points: usize) -> Vec<SyntheticJob> {
    (0..points)
        .map(|i| SyntheticJob {
            topology: TopologySpec::default(),
            level,
            pattern: TrafficPattern::UniformRandom,
            rate: 0.04 + 0.08 * i as f64,
            seed: point_seed(7, i),
            baseline,
        })
        .collect()
}

/// The fully powered mesh under XY routing, every node injecting.
fn quick_sweep() -> Vec<SyntheticJob> {
    sweep_jobs(SyntheticBaseline::SpreadAggregate, 16, 6)
}

/// Every field's bit pattern: equality here is bit-level, not approximate
/// (and NaN latencies compare equal to themselves).
fn bits(m: &NetworkMetrics) -> [u64; 5] {
    [
        m.avg_packet_latency.to_bits(),
        m.avg_network_latency.to_bits(),
        m.network_power.to_bits(),
        m.accepted_throughput.to_bits(),
        u64::from(m.saturated),
    ]
}

fn all_bits(ms: &[NetworkMetrics]) -> Vec<[u64; 5]> {
    ms.iter().map(bits).collect()
}

/// The serial reference: each job run on its own, in order, outside the
/// pool.
fn serial(e: &Experiment, jobs: &[SyntheticJob]) -> Vec<[u64; 5]> {
    jobs.iter()
        .map(|j| bits(&j.run(e).expect("serial point")))
        .collect()
}

/// Runs `jobs` as one pooled batch with a fresh probe from `make_probe`
/// attached to each point, recording one span per point into the runner's
/// recorder when one is attached.
fn run_observed<P: Probe>(
    runner: &ExperimentRunner,
    e: &Experiment,
    jobs: &[SyntheticJob],
    make_probe: impl Fn() -> P + Sync,
) -> (Vec<NetworkMetrics>, Vec<P>) {
    let results = runner.try_run(jobs, |i, job| {
        let start = Instant::now();
        let mut probe = make_probe();
        let m = job.run_observed(e, Some(&mut probe))?;
        if let Some(rec) = runner.span_recorder() {
            let (seed, hash) = (Some(job.seed), Some(job.cache_key()));
            rec.record("jobs", i, start, Instant::now(), false, seed, hash);
        }
        Ok::<_, SimError>((m, probe))
    });
    results.expect("observed batch").into_iter().unzip()
}

#[test]
fn parallel_sweep_is_bit_identical_to_serial() {
    let e = Experiment::quick();
    let jobs = quick_sweep();
    let serial = serial(&e, &jobs);
    for workers in [1, 2, 3, 8] {
        let runner = ExperimentRunner::with_workers(workers);
        let parallel = runner
            .run_synthetic_jobs(&e, &jobs, None)
            .expect("parallel sweep");
        assert_eq!(
            all_bits(&parallel),
            serial,
            "sweep must be reproducible with {workers} workers"
        );
    }
}

#[test]
fn parallel_cdor_sweep_matches_serial() {
    let e = Experiment::quick();
    let jobs = sweep_jobs(SyntheticBaseline::NocSprinting, 4, 4);
    let serial = serial(&e, &jobs);
    let parallel = ExperimentRunner::with_workers(4)
        .run_synthetic_jobs(&e, &jobs, None)
        .expect("parallel sweep");
    assert_eq!(all_bits(&parallel), serial);
}

#[test]
fn observed_sweep_is_bit_identical_to_unobserved_at_any_worker_count() {
    // The telemetry contract: probes observe but never perturb. A sweep run
    // with a TimeSeriesObserver on every point must produce metrics
    // bit-identical to the probe-free serial run, at any worker count.
    let e = Experiment::quick();
    let jobs = quick_sweep();
    let baseline = serial(&e, &jobs);
    for workers in [1, 2, 4] {
        let runner = ExperimentRunner::with_workers(workers);
        let (observed, probes) = run_observed(&runner, &e, &jobs, || TimeSeriesObserver::new(250));
        assert_eq!(
            all_bits(&observed),
            baseline,
            "observation must not perturb results ({workers} workers)"
        );
        assert_eq!(probes.len(), jobs.len());
        for (i, p) in probes.iter().enumerate() {
            assert!(!p.samples().is_empty(), "point {i} produced no epochs");
        }
    }
}

#[test]
fn span_recorder_and_event_counters_do_not_perturb_results() {
    // Layering the runner-side SpanRecorder on top of per-point EventCounts
    // probes still leaves the metrics bit-identical, and both telemetry
    // sinks actually see the run.
    let e = Experiment::quick();
    let jobs = quick_sweep();
    let baseline = serial(&e, &jobs);
    let rec = Arc::new(SpanRecorder::new());
    let runner = ExperimentRunner::with_workers(3).with_span_recorder(Arc::clone(&rec));
    let (observed, counters) = run_observed(&runner, &e, &jobs, EventCounts::default);
    assert_eq!(all_bits(&observed), baseline);
    assert_eq!(rec.spans().len(), jobs.len());
    for c in &counters {
        assert!(c.injections > 0, "counter probe saw no injections");
        assert!(
            c.ejections > 0 && c.ejections <= c.injections,
            "ejections must be positive and bounded by injections"
        );
    }
}

#[test]
fn seed_derivation_is_independent_of_execution() {
    // The seed schedule is a pure function of (base, index): recomputing it
    // in any order, on any thread, yields the same values.
    let expected: Vec<u64> = (0..32).map(|i| point_seed(99, i)).collect();
    let runner = ExperimentRunner::with_workers(7);
    let indices: Vec<usize> = (0..32).collect();
    let via_pool = runner.run(&indices, |_, &i| point_seed(99, i));
    assert_eq!(via_pool, expected);
    let mut reversed: Vec<u64> = (0..32).rev().map(|i| point_seed(99, i)).collect();
    reversed.reverse();
    assert_eq!(reversed, expected);
}

#[test]
fn synthetic_jobs_are_reproducible_across_worker_counts_and_caching() {
    let e = Experiment::paper();
    let jobs: Vec<SyntheticJob> = [0.05, 0.15]
        .iter()
        .flat_map(|&rate| {
            [
                SyntheticBaseline::NocSprinting,
                SyntheticBaseline::SpreadAggregate,
            ]
            .map(|baseline| SyntheticJob {
                topology: TopologySpec::default(),
                level: 4,
                pattern: TrafficPattern::UniformRandom,
                rate,
                seed: 11,
                baseline,
            })
        })
        .collect();
    let serial = ExperimentRunner::with_workers(1)
        .run_synthetic_jobs(&e, &jobs, None)
        .expect("serial jobs");
    let cache = ResultCache::new();
    let runner = ExperimentRunner::with_workers(4);
    let parallel = runner
        .run_synthetic_jobs(&e, &jobs, Some(&cache))
        .expect("parallel jobs");
    for (p, s) in parallel.iter().zip(&serial) {
        assert_eq!(p.avg_packet_latency.to_bits(), s.avg_packet_latency.to_bits());
        assert_eq!(p.avg_network_latency.to_bits(), s.avg_network_latency.to_bits());
        assert_eq!(p.network_power.to_bits(), s.network_power.to_bits());
        assert_eq!(p.accepted_throughput.to_bits(), s.accepted_throughput.to_bits());
        assert_eq!(p.saturated, s.saturated);
    }
    // A second pass over the same jobs is served from the cache and still
    // returns the identical metrics.
    assert_eq!(cache.misses(), jobs.len() as u64);
    let cached = runner
        .run_synthetic_jobs(&e, &jobs, Some(&cache))
        .expect("cached jobs");
    assert_eq!(cache.misses(), jobs.len() as u64, "no recomputation");
    assert!(cache.hits() >= jobs.len() as u64);
    for (c, s) in cached.iter().zip(&serial) {
        assert_eq!(c.avg_network_latency.to_bits(), s.avg_network_latency.to_bits());
    }
}
