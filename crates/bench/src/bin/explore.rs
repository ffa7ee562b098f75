//! `explore` — run custom sprint-network operating points from the
//! command line.
//!
//! ```text
//! explore [--topology NAME] [--master N] [--level K] [--rate R]
//!         [--pattern uniform|transpose|bitcomp|tornado|shuffle|hotspot|neighbor]
//!         [--full] [--seed S] [--loads R1,R2,...] [--workers W]
//!         [--telemetry DIR] [--service SOCKET]
//! ```
//!
//! Every operating point is a `SyntheticJob`, the same unit the figure
//! binaries and `noc_serve` run. By default: the paper 4x4 mesh
//! (`--topology` takes any wire name from TOPOLOGY.md, e.g. `mesh8x8` or
//! `circ16s5`), master 0, level 4, uniform at 0.1 flits/cycle/node under
//! NoC-sprinting (gated region routing + gating). `--full` runs the fully
//! powered network under its full routing instead, every node injecting
//! (the `spread_aggregate` job at level N). `--loads` turns the single point
//! into a latency-vs-load sweep; point `i` is seeded with
//! `point_seed(seed, i)`. Points run as one batch on the parallel
//! `ExperimentRunner` (`--workers 1` forces the serial path; the rows are
//! bit-identical at any worker count).
//!
//! `--telemetry DIR` (or `NOC_BENCH_TELEMETRY=DIR`) additionally attaches a
//! [`TimeSeriesObserver`] to every point and writes
//! `explore.manifest.jsonl`, `explore.trace.json` (Chrome Trace Event
//! Format — load in `chrome://tracing`) and one
//! `explore.point<N>.timeseries.csv` per operating point. Telemetry only
//! observes: the printed rows are bit-identical with it on or off.
//!
//! `--service SOCKET` (or `NOC_SERVE_SOCKET=PATH`) submits the same jobs to
//! a running `noc_serve` daemon instead of simulating locally, so repeated
//! explorations hit the daemon's persistent cache. The daemon owns the
//! experiment configuration, so this mode requires master 0 and cannot
//! write telemetry. See `SERVICE.md`.

use std::path::{Path, PathBuf};
use std::time::Instant;

use noc_sim::geometry::NodeId;
use noc_sim::probe::{Probe, TimeSeriesObserver};
use noc_sim::topology::TopologySpec;
use noc_sim::traffic::TrafficPattern;
use noc_sprinting::controller::SprintController;
use noc_sprinting::experiment::{Experiment, NetworkMetrics};
use noc_sprinting::runner::{point_seed, ExperimentRunner, SyntheticBaseline, SyntheticJob};
use noc_sprinting::service::{metric_pairs, pattern_from_name};
use noc_sprinting::telemetry::{ManifestPoint, RunManifest, SpanRecorder};

/// Per-epoch sampling interval for `--telemetry` observers, in cycles.
/// `SimConfig::sweep` runs 12k measured cycles, so this yields a couple
/// dozen samples per point.
const EPOCH_INTERVAL: u64 = 500;

#[derive(Debug)]
struct Args {
    topology: TopologySpec,
    master: usize,
    level: usize,
    rate: f64,
    pattern: TrafficPattern,
    full: bool,
    seed: u64,
    loads: Option<Vec<f64>>,
    workers: Option<usize>,
    telemetry: Option<PathBuf>,
    service: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        topology: TopologySpec::default(),
        master: 0,
        level: 4,
        rate: 0.1,
        pattern: TrafficPattern::UniformRandom,
        full: false,
        seed: 1,
        loads: None,
        workers: None,
        telemetry: None,
        service: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let take = |i: &mut usize| -> Result<String, String> {
            *i += 1;
            argv.get(*i)
                .cloned()
                .ok_or_else(|| format!("missing value after {}", argv[*i - 1]))
        };
        match argv[i].as_str() {
            "--topology" => {
                let spec =
                    TopologySpec::from_wire_name(&take(&mut i)?).map_err(|e| e.to_string())?;
                spec.build().map_err(|e| e.to_string())?;
                args.topology = spec;
            }
            "--master" => args.master = take(&mut i)?.parse().map_err(|e| format!("{e}"))?,
            "--level" => args.level = take(&mut i)?.parse().map_err(|e| format!("{e}"))?,
            "--rate" => args.rate = take(&mut i)?.parse().map_err(|e| format!("{e}"))?,
            "--seed" => args.seed = take(&mut i)?.parse().map_err(|e| format!("{e}"))?,
            "--workers" => {
                let w: usize = take(&mut i)?.parse().map_err(|e| format!("{e}"))?;
                if w == 0 {
                    return Err("--workers must be at least 1".into());
                }
                args.workers = Some(w);
            }
            "--loads" => {
                let loads = take(&mut i)?
                    .split(',')
                    .map(|s| {
                        s.trim()
                            .parse::<f64>()
                            .map_err(|e| format!("bad load: {e}"))
                    })
                    .collect::<Result<Vec<f64>, String>>()?;
                if loads.is_empty() || loads.iter().any(|&l| !(l > 0.0 && l <= 1.0)) {
                    return Err("loads must be in (0, 1]".into());
                }
                args.loads = Some(loads);
            }
            "--telemetry" => args.telemetry = Some(PathBuf::from(take(&mut i)?)),
            "--service" => args.service = Some(PathBuf::from(take(&mut i)?)),
            "--full" => args.full = true,
            // Hotspot traffic sends 30% of packets to the hot node.
            "--pattern" => args.pattern = pattern_from_name(&take(&mut i)?, Some(0.3))?,
            "--help" | "-h" => {
                return Err("usage: explore [--topology NAME] [--master N] [--level K] \
                            [--rate R] [--pattern P] [--full] [--seed S] \
                            [--loads R1,R2,...] [--workers W] [--telemetry DIR] \
                            [--service SOCKET]"
                    .into())
            }
            other => return Err(format!("unknown flag {other} (try --help)")),
        }
        i += 1;
    }
    if args.telemetry.is_none() {
        args.telemetry = std::env::var_os("NOC_BENCH_TELEMETRY").map(PathBuf::from);
    }
    if args.service.is_none() {
        args.service = std::env::var_os("NOC_SERVE_SOCKET").map(PathBuf::from);
    }
    let nodes = args.topology.len();
    if args.master >= nodes || args.level == 0 || args.level > nodes {
        return Err(format!(
            "master/level out of range for {}",
            args.topology.wire_name()
        ));
    }
    if args.service.is_some() && args.master != 0 {
        return Err("--service serves the daemon's experiment (master 0); \
                    drop --master or run locally"
            .into());
    }
    if args.service.is_some() && args.telemetry.is_some() {
        return Err("--service cannot write telemetry: the daemon runs the points".into());
    }
    Ok(args)
}

/// The operating points to run: one per `--loads` entry, or the single
/// `--rate` point.
fn jobs(args: &Args) -> Vec<SyntheticJob> {
    let (level, baseline) = if args.full {
        (args.topology.len(), SyntheticBaseline::SpreadAggregate)
    } else {
        (args.level, SyntheticBaseline::NocSprinting)
    };
    let job = |rate, seed| SyntheticJob {
        topology: args.topology,
        level,
        pattern: args.pattern,
        rate,
        seed,
        baseline,
    };
    match &args.loads {
        Some(loads) => loads
            .iter()
            .enumerate()
            .map(|(i, &rate)| job(rate, point_seed(args.seed, i)))
            .collect(),
        None => vec![job(args.rate, args.seed)],
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    let jobs = jobs(&args);
    let level = jobs[0].level;
    println!(
        "topology {}, master {}, level {} ({} routers gated), {} @ {} flits/cyc/node, {}",
        args.topology.wire_name(),
        args.master,
        level,
        args.topology.len() - level,
        if args.full {
            "fully powered + full routing"
        } else {
            "NoC-sprinting (gated routing + gating)"
        },
        args.rate,
        format_args!("pattern {:?}", args.pattern),
    );
    let metrics = match &args.service {
        Some(socket) => run_service(&jobs, socket),
        None => run_local(&args, &jobs),
    };
    println!(
        "{:>8} {:>14} {:>14} {:>10} {:>5}",
        "offered", "pkt lat (cyc)", "net lat (cyc)", "accepted", "sat"
    );
    for (job, m) in jobs.iter().zip(&metrics) {
        println!(
            "{:8.3} {:14.2} {:14.2} {:10.3} {:>5}",
            job.rate,
            m.avg_packet_latency,
            m.avg_network_latency,
            m.accepted_throughput,
            if m.saturated { "yes" } else { "no" }
        );
    }
}

/// Submits `jobs` to a `noc_serve` daemon and returns its answers.
fn run_service(jobs: &[SyntheticJob], socket: &Path) -> Vec<NetworkMetrics> {
    let mut client = match noc_bench::client::connect_unix(socket) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("cannot reach noc-serve at {}: {e}", socket.display());
            std::process::exit(2);
        }
    };
    let batch = match client.submit("explore", jobs) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("service submission failed: {e}");
            std::process::exit(1);
        }
    };
    eprintln!(
        "[{} points via noc-serve at {}: {} cache hits, daemon wall {:.2} ms]",
        batch.summary.points,
        socket.display(),
        batch.summary.cache_hits,
        batch.summary.wall_ms
    );
    batch.metrics
}

/// Runs `jobs` in-process as one batch on the parallel runner, with a
/// [`TimeSeriesObserver`] per point and the telemetry files written under
/// `--telemetry`.
fn run_local(args: &Args, jobs: &[SyntheticJob]) -> Vec<NetworkMetrics> {
    let topo = args.topology.build().expect("validated by parse_args");
    let experiment = Experiment {
        controller: SprintController::new(topo, NodeId(args.master)),
        ..Experiment::paper()
    };
    let mut runner = match args.workers {
        Some(w) => ExperimentRunner::with_workers(w),
        None => ExperimentRunner::new(),
    };
    if noc_bench::progress_from_env() {
        runner = runner.with_echo("explore");
    }
    let observe = args.telemetry.is_some();
    let spans = observe.then(SpanRecorder::new);
    let started = Instant::now();
    let results = runner.try_run(jobs, |i, job| {
        let start = Instant::now();
        let mut observer = observe.then(|| TimeSeriesObserver::new(EPOCH_INTERVAL));
        let m = job.run_observed(&experiment, observer.as_mut().map(|o| o as &mut dyn Probe))?;
        if let Some(spans) = &spans {
            let (seed, hash) = (Some(job.seed), Some(job.cache_key()));
            spans.record("explore", i, start, Instant::now(), false, seed, hash);
        }
        Ok::<_, noc_sim::error::SimError>((m, observer))
    });
    let (metrics, observers): (Vec<_>, Vec<_>) = match results {
        Ok(r) => r.into_iter().unzip(),
        Err(e) => {
            eprintln!("simulation failed: {e}");
            std::process::exit(1);
        }
    };
    if let (Some(dir), Some(spans)) = (&args.telemetry, &spans) {
        let observers: Vec<_> = observers.into_iter().flatten().collect();
        let written = write_telemetry(
            dir, &runner, args.seed, jobs, &metrics, &observers, spans, started,
        );
        if let Err(e) = written {
            eprintln!("telemetry write failed: {e}");
            std::process::exit(1);
        }
    }
    let snap = runner.progress().snapshot();
    eprintln!(
        "[{} points on {} workers, busy {:.2?}]",
        snap.completed,
        runner.workers(),
        snap.busy
    );
    metrics
}

/// Writes `explore.manifest.jsonl`, `explore.trace.json` and one
/// `explore.point<N>.timeseries.csv` per point into `dir`. Each point's
/// config hash is its job's cache key, so the manifest joins the daemon's
/// point stream and cache.
#[allow(clippy::too_many_arguments)]
fn write_telemetry(
    dir: &Path,
    runner: &ExperimentRunner,
    base_seed: u64,
    jobs: &[SyntheticJob],
    metrics: &[NetworkMetrics],
    observers: &[TimeSeriesObserver],
    spans: &SpanRecorder,
    started: Instant,
) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    // Per-point wall durations come from the recorded spans.
    let mut dur_ms = vec![0.0f64; jobs.len()];
    for s in spans.spans() {
        if let Some(d) = dur_ms.get_mut(s.index) {
            *d = s.dur_us as f64 / 1e3;
        }
    }
    let points: Vec<ManifestPoint> = jobs
        .iter()
        .zip(metrics)
        .enumerate()
        .map(|(i, (job, m))| ManifestPoint {
            index: i,
            seed: job.seed,
            config_hash: job.cache_key(),
            cache_hit: false,
            duration_ms: dur_ms[i],
            metrics: metric_pairs(m),
        })
        .collect();
    let manifest = RunManifest {
        figure: "explore".to_string(),
        config_hash: RunManifest::combine_hashes(points.iter().map(|p| p.config_hash)),
        workers: runner.workers(),
        base_seed,
        seed_schedule: points.iter().map(|p| p.seed).collect(),
        wall_ms: started.elapsed().as_secs_f64() * 1e3,
        cache_hits: 0,
        cache_misses: points.len() as u64,
        points,
        faults: vec![],
    };
    let manifest_path = dir.join("explore.manifest.jsonl");
    let trace_path = dir.join("explore.trace.json");
    std::fs::write(&manifest_path, manifest.to_jsonl())?;
    std::fs::write(&trace_path, spans.chrome_trace())?;
    for (i, obs) in observers.iter().enumerate() {
        std::fs::write(
            dir.join(format!("explore.point{i}.timeseries.csv")),
            obs.to_csv(),
        )?;
    }
    eprintln!(
        "[telemetry: {}, {} and {} per-point time-series written to {}]",
        manifest_path.display(),
        trace_path.display(),
        observers.len(),
        dir.display()
    );
    Ok(())
}
