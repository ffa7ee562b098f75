//! `perfbench` — the repository benchmark: one client drives a real
//! `noc_serve` daemon in a closed loop and reports end-to-end metrics; with
//! `--trace 1` an in-process replay of the same batches reports per-layer
//! metrics instead. See `README.md` in this directory.
//!
//! ```text
//! perfbench --workload <fig11_cold|sweep_warm|big_topology> --seed N
//!           --seconds S --trace <0|1> --daemon PATH --work DIR
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; the exit code is non-zero when any
//! correctness check fails.

mod client;
mod stats;
mod trace;
mod workload;

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use noc_sprinting::runner::{ExperimentRunner, SyntheticJob};
use noc_sprinting::service::{
    code_version, metric_pairs, DiskResultCache, ServiceRequest, SubmitRequest,
};
use noc_sprinting::telemetry::JsonValue;
use noc_sprinting::{Experiment, NetworkMetrics};

use client::{Daemon, Received};
use stats::{median, percentile, tail_percentile, Fnv};
use trace::Replay;
use workload::{fig11_rates, filler, Workload, FIG11_SAMPLES};

/// Daemon spawns per run; `setup_s` is their median.
const SETUP_SPAWNS: usize = 15;
/// Passes the traced replay covers: the first two of a cold workload (each
/// pass is new work), `sweep_warm`'s first pass up to 50 times.
const COLD_REPLAY_PASSES: usize = 2;
const WARM_REPLAY_PASSES: usize = 50;
/// Default seed and per-workload point-stream digests at that seed.
const DIGESTS: &str = include_str!("../digests.json");

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    daemon: PathBuf,
    work: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut flags: HashMap<String, String> = HashMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(flag, value);
    }
    let mut take = |name: &str| flags.remove(name).ok_or_else(|| format!("missing {name}"));
    let workload = take("--workload")?;
    let args = Args {
        workload: Workload::from_name(&workload)
            .ok_or_else(|| format!("unknown workload {workload:?}"))?,
        seed: take("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds: take("--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match take("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
        },
        daemon: take("--daemon")?.into(),
        work: take("--work")?.into(),
    };
    match flags.keys().next() {
        Some(extra) => Err(format!("unknown flag {extra}")),
        None => Ok(args),
    }
}

/// One batch as sent and as answered.
struct Answered {
    jobs: Vec<SyntheticJob>,
    line: String,
    points: Vec<Option<Received>>,
}

/// The untraced, timed phase against the daemon.
struct DaemonRun {
    setup_s: Vec<f64>,
    wall_s: f64,
    /// Points delivered per second, per pass.
    pass_rates: Vec<f64>,
    /// Peak RSS (`VmHWM`) after the first pass.
    rss_mb: f64,
    latency_ms: Vec<f64>,
    attempted: usize,
    failed: usize,
    passes: usize,
    /// Share of the host's CPU time stolen by the hypervisor during the
    /// timed phase, when `/proc/stat` reports it.
    steal: Option<f64>,
    /// Every batch of every pass (cold), or of pass 0 only (warm).
    answered: Vec<Answered>,
}

/// Correctness failures collected over the run.
#[derive(Default)]
struct Checks(Vec<String>);

impl Checks {
    fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.0.push(what());
        }
    }
}

fn submit_line(id: &str, label: &str, jobs: &[SyntheticJob]) -> String {
    ServiceRequest::Submit(SubmitRequest {
        id: id.to_string(),
        label: label.to_string(),
        priority: 0,
        jobs: jobs.to_vec(),
    })
    .to_json_line()
}

/// Whether `got` carries exactly `want`'s metrics, bit for bit.
fn same_bits(want: &NetworkMetrics, got: &[(String, f64)]) -> bool {
    let want = metric_pairs(want);
    want.len() == got.len()
        && want
            .iter()
            .zip(got)
            .all(|((a, x), (b, y))| a == b && x.to_bits() == y.to_bits())
}

fn metric(got: &Received, name: &str) -> f64 {
    got.metrics
        .iter()
        .find(|(k, _)| k == name)
        .map_or(f64::NAN, |(_, v)| *v)
}

/// Digest of a point stream: every job's cache key and every metric's bit
/// pattern, in stream order; a missing point folds in a marker.
fn digest<'a>(points: impl Iterator<Item = (&'a SyntheticJob, &'a Option<Received>)>) -> u64 {
    let mut h = Fnv::default();
    for (job, got) in points {
        h.word(job.cache_key());
        match got {
            Some(got) => got.metrics.iter().for_each(|(_, v)| h.word(v.to_bits())),
            None => h.word(u64::MAX),
        }
    }
    h.finish()
}

/// Computes `sweep_warm`'s grid in-process and writes it, plus filler
/// records, into a cache directory. Returns the grid's values by key.
fn prefill(
    exp: &Experiment,
    dir: &Path,
    seed: u64,
    workers: usize,
) -> Result<HashMap<u64, NetworkMetrics>, String> {
    let grid: Vec<SyntheticJob> = Workload::SweepWarm.pass(seed, 0).concat();
    let values = ExperimentRunner::with_workers(workers)
        .try_run(&grid, |_, job| job.run(exp))
        .map_err(|e| format!("prefill: {e}"))?;
    let (cache, _) =
        DiskResultCache::open(dir, code_version("paper")).map_err(|e| e.to_string())?;
    let fill = filler(seed, &grid);
    for (job, i) in &fill {
        cache.memory().insert(job.cache_key(), values[*i]);
    }
    for (job, m) in grid.iter().zip(&values) {
        cache.memory().insert(job.cache_key(), *m);
    }
    let fill_jobs: Vec<SyntheticJob> = fill.iter().map(|(j, _)| *j).collect();
    cache.persist_jobs(&fill_jobs).map_err(|e| e.to_string())?;
    cache.persist_jobs(&grid).map_err(|e| e.to_string())?;
    Ok(grid
        .iter()
        .map(SyntheticJob::cache_key)
        .zip(values)
        .collect())
}

/// Spawns the daemon [`SETUP_SPAWNS`] times (keeping the last one), then
/// runs whole passes of the workload in a closed loop until `seconds` have
/// elapsed.
fn drive_daemon(
    args: &Args,
    workers: usize,
    run_dir: &Path,
    warm_dir: Option<&Path>,
    checks: &mut Checks,
) -> Result<DaemonRun, String> {
    let w = args.workload;
    let mut setup_s = Vec::new();
    let mut daemon = None;
    for k in 0..SETUP_SPAWNS {
        let dir = warm_dir.map_or_else(|| run_dir.join(format!("cache-{k}")), Path::to_path_buf);
        let (d, s) =
            Daemon::spawn(&args.daemon, &dir, workers).map_err(|e| format!("spawn: {e}"))?;
        setup_s.push(s);
        if k + 1 < SETUP_SPAWNS {
            d.shutdown().map_err(|e| format!("shutdown: {e}"))?;
        } else {
            daemon = Some(d);
        }
    }
    let mut daemon = daemon.expect("at least one spawn");
    let (mut latency_ms, mut answered) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed, mut passes) = (0usize, 0usize, 0usize);
    let warm = batches(w, args.seed, 0);
    let (mut pass_rates, mut rss_mb) = (Vec::new(), 0.0);
    let jiffies_before = cpu_jiffies();
    let start = Instant::now();
    while passes == 0 || start.elapsed().as_secs_f64() < args.seconds {
        let (pass_start, delivered_before) = (Instant::now(), attempted - failed);
        let fresh;
        let sent = if w.cold() {
            fresh = batches(w, args.seed, passes);
            &fresh
        } else {
            &warm
        };
        for (id, jobs, line) in sent {
            let reply = daemon
                .submit(id, line, jobs)
                .map_err(|e| format!("{id}: {e}"))?;
            attempted += jobs.len();
            failed += reply.failed;
            latency_ms.extend(reply.latency_ms);
            for v in reply.violations.into_iter().take(3) {
                checks.0.push(v);
            }
            for got in reply.points.iter().flatten() {
                checks.require(got.cache_hit != w.cold(), || {
                    format!(
                        "{id}: cache_hit={} on a {} workload",
                        got.cache_hit,
                        w.name()
                    )
                });
            }
            if w.cold() || passes == 0 {
                answered.push(Answered {
                    jobs: jobs.clone(),
                    line: line.clone(),
                    points: reply.points,
                });
            }
        }
        passes += 1;
        let delivered = attempted - failed - delivered_before;
        pass_rates.push(delivered as f64 / pass_start.elapsed().as_secs_f64());
        if passes == 1 {
            rss_mb = daemon.peak_rss_mb().map_err(|e| format!("rss: {e}"))?;
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    let steal = jiffies_before
        .zip(cpu_jiffies())
        .map(|((s0, t0), (s1, t1))| (s1 - s0) as f64 / (t1 - t0).max(1) as f64);
    daemon.shutdown().map_err(|e| format!("shutdown: {e}"))?;
    Ok(DaemonRun {
        setup_s,
        wall_s,
        pass_rates,
        rss_mb,
        latency_ms,
        attempted,
        failed,
        passes,
        steal,
        answered,
    })
}

/// (steal, total) jiffies summed over all CPUs, from `/proc/stat`.
fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some((*fields.get(7)?, fields.iter().sum()))
}

fn hex(v: Option<u64>) -> String {
    v.map_or("none".to_string(), |v| format!("{v:#018x}"))
}

/// Pass `pass`'s batches as (request id, jobs, encoded submit line).
fn batches(w: Workload, seed: u64, pass: usize) -> Vec<(String, Vec<SyntheticJob>, String)> {
    w.pass(seed, pass as u64)
        .into_iter()
        .enumerate()
        .map(|(b, jobs)| {
            let id = format!("p{pass}b{b}");
            let line = submit_line(&id, w.name(), &jobs);
            (id, jobs, line)
        })
        .collect()
}

/// Fig. 11's accuracy summary from pass 0 of `fig11_cold`: pre-saturation
/// latency and power cuts and saturation onsets, beside the paper's.
fn fig11_accuracy(pass0: &[&Answered]) -> Vec<String> {
    let per_rate = 1 + FIG11_SAMPLES as usize;
    let mut lines = Vec::new();
    for (batch, (level, paper)) in pass0
        .iter()
        .zip([(4, ("45.1%", "62.1%")), (8, ("16.1%", "25.9%"))])
    {
        let (mut lat_cuts, mut pow_cuts) = (Vec::new(), Vec::new());
        let (mut ns_onset, mut full_onset) = (None, None);
        for (rate, chunk) in fig11_rates().into_iter().zip(batch.points.chunks(per_rate)) {
            let Some(got) = chunk
                .iter()
                .map(Option::as_ref)
                .collect::<Option<Vec<&Received>>>()
            else {
                return vec![format!("accuracy: level {level} has missing points")];
            };
            let (ns, samples) = (got[0], &got[1..]);
            let mean =
                |name| samples.iter().map(|s| metric(s, name)).sum::<f64>() / samples.len() as f64;
            let full_sat = samples
                .iter()
                .filter(|s| metric(s, "saturated") != 0.0)
                .count();
            let ns_sat = metric(ns, "saturated") != 0.0;
            if ns_sat && ns_onset.is_none() {
                ns_onset = Some(rate);
            }
            if full_sat > samples.len() / 2 && full_onset.is_none() {
                full_onset = Some(rate);
            }
            if rate <= 0.32 && !ns_sat && full_sat == 0 {
                lat_cuts
                    .push(1.0 - metric(ns, "avg_network_latency") / mean("avg_network_latency"));
                pow_cuts.push(1.0 - metric(ns, "network_power") / mean("network_power"));
            }
        }
        let avg = |v: &[f64]| 100.0 * v.iter().sum::<f64>() / v.len().max(1) as f64;
        let onset = |r: Option<f64>| r.map_or("none in sweep".to_string(), |r| format!("{r:.2}"));
        lines.push(format!(
            "accuracy {level}-core: pre-saturation latency cut {:.1}% (paper {}), power cut {:.1}% (paper {}); \
             saturation onset NoC-sprinting {}, full-sprinting {} (paper: NoC-sprinting saturates earlier)",
            avg(&lat_cuts),
            paper.0,
            avg(&pow_cuts),
            paper.1,
            onset(ns_onset),
            onset(full_onset)
        ));
    }
    lines
}

struct Report {
    lines: Vec<String>,
    attempted: usize,
    failed: usize,
    metrics: Vec<(&'static str, f64, &'static str)>,
    checks: Checks,
}

fn run(args: &Args) -> Result<Report, String> {
    let w = args.workload;
    let workers = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let exp = Experiment::paper();
    let run_dir = args.work.join(format!(
        "{}-s{}-{}",
        w.name(),
        args.seed,
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&run_dir);
    std::fs::create_dir_all(&run_dir).map_err(|e| format!("{}: {e}", run_dir.display()))?;
    let mut checks = Checks::default();

    let warm_dir = run_dir.join("warm-cache");
    let cold_values = if w.cold() {
        None
    } else {
        Some(prefill(&exp, &warm_dir, args.seed, workers)?)
    };
    let run = drive_daemon(
        args,
        workers,
        &run_dir,
        cold_values.as_ref().map(|_| warm_dir.as_path()),
        &mut checks,
    )?;
    let mut lines = vec![format!(
        "perfbench {} seed={} workers={workers} passes={} points={} trace={}",
        w.name(),
        args.seed,
        run.passes,
        run.attempted,
        u8::from(args.trace)
    )];

    // Correctness: digest at the default seed, warm hits against their cold
    // values, spot points against an in-process `SyntheticJob::run`.
    let per_pass = w.pass(args.seed, 0).len();
    let pass0: Vec<&Answered> = run.answered.iter().take(per_pass).collect();
    let stream = digest(pass0.iter().flat_map(|a| a.jobs.iter().zip(&a.points)));
    let recorded = JsonValue::parse(DIGESTS).map_err(|e| format!("digests.json: {e}"))?;
    let default_seed = recorded.get("default_seed").and_then(JsonValue::as_u64);
    let pinned = recorded.get(w.name()).and_then(JsonValue::as_u64);
    if Some(args.seed) == default_seed {
        checks.require(pinned == Some(stream), || {
            format!(
                "digest {stream:#018x} != recorded {} at the default seed",
                hex(pinned)
            )
        });
    }
    lines.push(format!(
        "  digest         {stream:#018x} (recorded at default seed {default_seed:?}: {})",
        hex(pinned)
    ));
    if let Some(values) = &cold_values {
        for a in &run.answered {
            for (job, got) in a.jobs.iter().zip(&a.points) {
                let ok = got
                    .as_ref()
                    .is_some_and(|g| same_bits(&values[&job.cache_key()], &g.metrics));
                checks.require(ok, || {
                    format!(
                        "warm hit for {:#x} differs from its cold value",
                        job.cache_key()
                    )
                });
            }
        }
    } else {
        for a in pass0.iter().take(2) {
            for (job, got) in a.jobs.iter().zip(&a.points).take(2) {
                let fresh = job.run(&exp).map_err(|e| format!("spot check: {e}"))?;
                let ok = got.as_ref().is_some_and(|g| same_bits(&fresh, &g.metrics));
                checks.require(ok, || {
                    format!(
                        "daemon point {:#x} differs from SyntheticJob::run",
                        job.cache_key()
                    )
                });
            }
        }
    }
    match w {
        Workload::Fig11Cold => lines.extend(fig11_accuracy(&pass0)),
        Workload::BigTopology => lines.push(
            "accuracy: the paper has no result for a 256-router circulant; the model is unvalidated here".into(),
        ),
        Workload::SweepWarm => {}
    }

    let mut sorted = run.latency_ms.clone();
    sorted.sort_by(f64::total_cmp);
    let tail_p = w.tail_percentile();
    let end_to_end = vec![
        ("setup_s", median(&run.setup_s), "s"),
        ("points_per_s", median(&run.pass_rates), "1/s"),
        ("point_ms_p50", percentile(&sorted, 50.0), "ms"),
        ("point_ms_tail", percentile(&sorted, tail_p), "ms"),
        ("rss_mb", run.rss_mb, "MiB"),
    ];
    for (name, value, unit) in &end_to_end {
        lines.push(format!("  {name:<14} {value:.6} {unit}"));
    }
    lines.push(format!(
        "  (setup_s: median of {SETUP_SPAWNS} spawns; points_per_s: median of {} passes; \
         point_ms_tail: p{tail_p} of {} samples, where the tail rule picks p{}; rss_mb: after pass 1; \
         fail_ratio {} = {} failed of {} attempted)",
        run.pass_rates.len(),
        sorted.len(),
        tail_percentile(sorted.len()).map_or("-".to_string(), |p| p.to_string()),
        run.failed as f64 / run.attempted.max(1) as f64,
        run.failed,
        run.attempted
    ));

    if let Some(steal) = run.steal {
        lines.push(format!(
            "  host steal     {:.1}% of CPU time during the timed phase (a noisy host inflates every time above)",
            steal * 100.0
        ));
    }

    let metrics = if args.trace {
        let replay_dir = if w.cold() {
            run_dir.join("replay-cache")
        } else {
            warm_dir.clone()
        };
        let mut replay = Replay::open(&exp, &replay_dir, &code_version("paper"), workers)
            .map_err(|e| e.to_string())?;
        let (rounds, batches) = if w.cold() {
            (1, COLD_REPLAY_PASSES * per_pass)
        } else {
            (run.passes.min(WARM_REPLAY_PASSES), per_pass)
        };
        for _ in 0..rounds {
            for a in run.answered.iter().take(batches) {
                let mirrored = replay.batch(&a.line)?;
                for ((job, got), mine) in a.jobs.iter().zip(&a.points).zip(&mirrored) {
                    let ok = matches!((got, mine), (Some(g), Ok(m)) if same_bits(m, &g.metrics));
                    checks.require(ok, || {
                        format!(
                            "traced mirror differs from the daemon on {:#x}",
                            job.cache_key()
                        )
                    });
                }
            }
        }
        let spans_out = args
            .work
            .join(format!("spans-{}-s{}.jsonl", w.name(), args.seed));
        let per_layer = replay
            .finish(run.wall_s / run.attempted.max(1) as f64, &spans_out)
            .map_err(|e| format!("spans: {e}"))?;
        lines.push(format!(
            "  per-layer (traced replay; spans in {}):",
            spans_out.display()
        ));
        for (name, value, unit) in &per_layer {
            let note = if *name == "network.step_s" {
                "  (derived: sim minus traffic replay)"
            } else {
                ""
            };
            lines.push(format!("    {name:<38} {value:.6} {unit}{note}"));
        }
        per_layer
    } else {
        end_to_end
    };
    let _ = std::fs::remove_dir_all(&run_dir);
    Ok(Report {
        lines,
        attempted: run.attempted,
        failed: run.failed,
        metrics,
        checks,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for line in &report.lines {
        println!("{line}");
    }
    let correct = report.checks.0.is_empty() && report.failed == 0;
    for failure in &report.checks.0 {
        println!("  CHECK FAILED: {failure}");
    }
    println!(
        "  checks: {}",
        if correct { "all passed" } else { "FAILED" }
    );
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value, unit)| format!(r#""{name}":{{"value":{value},"unit":"{unit}"}}"#))
        .collect();
    println!(
        r#"{{"correct":{correct},"attempted":{},"failed":{},"metrics":{{{}}}}}"#,
        report.attempted,
        report.failed,
        metrics.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
