//! Telemetry pipeline integration tests: manifest and Chrome-trace
//! round-trips, and the end-to-end acceptance property — a probe attached
//! to every point of a paper-preset sweep produces a per-epoch time-series
//! and a Chrome trace file while the probe-free sweep yields bit-identical
//! metrics.

use std::time::Instant;

use noc_sim::error::SimError;
use noc_sim::probe::TimeSeriesObserver;
use noc_sim::topology::TopologySpec;
use noc_sim::traffic::TrafficPattern;
use noc_sprinting::experiment::{Experiment, NetworkMetrics};
use noc_sprinting::runner::{point_seed, ExperimentRunner, SyntheticBaseline, SyntheticJob};
use noc_sprinting::telemetry::{
    validate_chrome_trace, JsonValue, ManifestPoint, RunManifest, SpanRecorder,
};

/// A scratch directory unique to this test binary's process.
fn scratch_dir(label: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "noc-telemetry-test-{label}-{}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn sample_manifest() -> RunManifest {
    let points: Vec<ManifestPoint> = (0..3)
        .map(|i| ManifestPoint {
            index: i,
            seed: point_seed(7, i),
            config_hash: 0x1000 + i as u64,
            cache_hit: i == 2,
            duration_ms: 1.5 * (i as f64 + 1.0),
            metrics: vec![
                ("network_latency".to_string(), 18.5 + i as f64),
                ("accepted".to_string(), 0.1 * (i as f64 + 1.0)),
            ],
        })
        .collect();
    RunManifest {
        figure: "fig-test".to_string(),
        config_hash: RunManifest::combine_hashes(points.iter().map(|p| p.config_hash)),
        workers: 4,
        base_seed: 7,
        seed_schedule: points.iter().map(|p| p.seed).collect(),
        wall_ms: 12.25,
        cache_hits: 1,
        cache_misses: 2,
        points,
        faults: vec![],
    }
}

#[test]
fn manifest_jsonl_round_trips_with_required_fields() {
    let m = sample_manifest();
    let text = m.to_jsonl();
    // One run-header line plus one line per point.
    assert_eq!(text.lines().count(), 1 + m.points.len());
    let header = JsonValue::parse(text.lines().next().unwrap()).expect("header parses");
    // The required fields are present in the serialized header, full-width.
    assert_eq!(
        header.get("config_hash").and_then(JsonValue::as_u64),
        Some(m.config_hash)
    );
    assert_eq!(header.get("workers").and_then(JsonValue::as_u64), Some(4));
    let schedule = header
        .get("seed_schedule")
        .and_then(JsonValue::as_array)
        .expect("seed schedule array");
    assert_eq!(schedule.len(), 3);
    for (v, p) in schedule.iter().zip(&m.points) {
        assert_eq!(v.as_u64(), Some(p.seed));
    }
    let back = RunManifest::from_jsonl(&text).expect("round trip");
    assert_eq!(back, m);
}

#[test]
fn chrome_trace_round_trips_with_required_fields() {
    let rec = SpanRecorder::new();
    let t0 = Instant::now();
    rec.record("test", 0, t0, t0, false, Some(42), Some(0xdead_beef));
    rec.record("test", 1, t0, t0, true, None, None);
    let trace = rec.chrome_trace();
    assert_eq!(validate_chrome_trace(&trace), Ok(2));
    let doc = JsonValue::parse(&trace).expect("trace parses");
    let events = doc
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .expect("traceEvents array");
    for e in events {
        for field in ["name", "ph", "ts", "dur", "pid", "tid"] {
            assert!(e.get(field).is_some(), "event missing {field}");
        }
        assert_eq!(e.get("ph").and_then(JsonValue::as_str), Some("X"));
    }
    // The per-point args carry seed and config hash where known.
    let args0 = events[0].get("args").expect("args object");
    assert_eq!(args0.get("seed").and_then(JsonValue::as_u64), Some(42));
    assert_eq!(
        args0.get("config_hash").and_then(JsonValue::as_u64),
        Some(0xdead_beef)
    );
    assert!(validate_chrome_trace("{\"traceEvents\":[{}]}").is_err());
    assert!(validate_chrome_trace("not json").is_err());
}

#[test]
fn paper_preset_sweep_with_probe_yields_time_series_and_identical_report() {
    // The issue's acceptance criterion, end to end: run the paper-preset
    // sweep (standard loads, paper router parameters) on the fully powered
    // mesh observed and unobserved, write the trace file, and pin
    // bit-identity.
    let e = Experiment::quick(); // paper presets otherwise
    let topology = TopologySpec::default();
    let jobs: Vec<SyntheticJob> = (0..4)
        .map(|i| SyntheticJob {
            topology,
            level: topology.len(),
            pattern: TrafficPattern::UniformRandom,
            rate: 0.04 + 0.08 * i as f64,
            seed: point_seed(7, i),
            baseline: SyntheticBaseline::SpreadAggregate,
        })
        .collect();
    let bits = |m: &NetworkMetrics| {
        [
            m.avg_packet_latency.to_bits(),
            m.avg_network_latency.to_bits(),
            m.network_power.to_bits(),
            m.accepted_throughput.to_bits(),
            u64::from(m.saturated),
        ]
    };

    let unprobed: Vec<_> = jobs
        .iter()
        .map(|j| bits(&j.run(&e).expect("unprobed point")))
        .collect();

    let rec = SpanRecorder::new();
    let probed = ExperimentRunner::with_workers(2)
        .try_run(&jobs, |i, job| {
            let start = Instant::now();
            let mut obs = TimeSeriesObserver::new(500);
            let m = job.run_observed(&e, Some(&mut obs))?;
            let (seed, hash) = (Some(job.seed), Some(job.cache_key()));
            rec.record("sweep", i, start, Instant::now(), false, seed, hash);
            Ok::<_, SimError>((bits(&m), obs))
        })
        .expect("probed sweep");
    let (probed, observers): (Vec<_>, Vec<_>) = probed.into_iter().unzip();

    // Bit-identical metrics.
    assert_eq!(probed, unprobed);

    // Per-epoch time-series: every point sampled every 500 cycles, and the
    // CSV export is well-formed.
    assert_eq!(observers.len(), 4);
    for obs in &observers {
        let samples = obs.samples();
        assert!(samples.len() >= 4, "expected several epochs");
        assert!(samples.windows(2).all(|w| w[1].cycle == w[0].cycle + 500));
        assert!(samples.iter().any(|s| s.injections > 0));
        let csv = obs.to_csv();
        assert!(csv.starts_with("cycle,node,"));
        assert_eq!(csv.lines().count(), 1 + samples.len() * topology.len());
    }

    // Chrome trace file: written, validated, one span per point.
    let dir = scratch_dir("sweep");
    let trace_path = dir.join("sweep.trace.json");
    std::fs::write(&trace_path, rec.chrome_trace()).expect("write trace");
    let trace = std::fs::read_to_string(&trace_path).expect("read trace");
    assert_eq!(validate_chrome_trace(&trace), Ok(4));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn manifest_file_written_by_hand_matches_parser_expectations() {
    // Simulates what a figure binary writes and `telemetry_check` reads:
    // the manifest written to disk must parse back identically.
    let dir = scratch_dir("manifest");
    let m = sample_manifest();
    let path = dir.join("fig-test.manifest.jsonl");
    std::fs::write(&path, m.to_jsonl()).expect("write manifest");
    let back =
        RunManifest::from_jsonl(&std::fs::read_to_string(&path).expect("read")).expect("parse");
    assert_eq!(back, m);
    assert_eq!(back.seed_schedule.len(), back.points.len());
    std::fs::remove_dir_all(&dir).ok();
}
