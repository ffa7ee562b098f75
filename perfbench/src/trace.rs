//! The traced run: an in-process replay of the daemon's request path that
//! times the calls into each layer's public functions.
//!
//! [`run_point`] mirrors `Experiment::run_placed_on` (reached through
//! `SyntheticJob::run`) step by step, and [`Replay::batch`] mirrors
//! `SweepService::run_submit`. Both must produce bit-identical metrics to
//! the code they mirror; the benchmark checks that on every traced run, so
//! a drifted mirror fails instead of timing a different program.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use noc_sim::error::SimError;
use noc_sim::network::{Network, StageCycles};
use noc_sim::probe::{Probe, SimPhase};
use noc_sim::router::RouterActivity;
use noc_sim::routing::{CirculantRouting, RoutingFunction, XyRouting};
use noc_sim::sim::Simulation;
use noc_sim::topology::{Topo, TopologySpec};
use noc_sim::traffic::{Placement, TrafficGen, TrafficPattern};
use noc_sprinting::runner::{ExperimentRunner, SyntheticBaseline, SyntheticJob};
use noc_sprinting::service::{metric_pairs, DiskResultCache, ServiceRequest, ServiceResponse};
use noc_sprinting::telemetry::ManifestPoint;
use noc_sprinting::{CdorRouting, Experiment, GatingPlan, NetworkMetrics, SprintSet};
use rand::SeedableRng;

use crate::stats::median;

/// One timed interval at a layer boundary.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer and call, e.g. `"sim.measure"`.
    pub name: &'static str,
    /// The batch (request) the span belongs to.
    pub batch: u32,
    /// The point within the batch, for point-level spans.
    pub point: Option<u32>,
    /// Nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// Nanoseconds since the recorder's origin.
    pub end_ns: u64,
}

impl Span {
    /// The span that caused this one.
    pub fn parent(&self) -> &'static str {
        match self.name {
            "runner.point" => "runner.batch",
            "service.lookup" | "experiment.build" | "sim.warmup" | "sim.measure" | "sim.drain"
            | "experiment.price" | "runner.wait" => "runner.point",
            _ => "request",
        }
    }

    fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// In-memory span store, written out once the run ends.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Spans {
    fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn record(
        &self,
        name: &'static str,
        batch: u32,
        point: Option<u32>,
        start: Instant,
        end: Instant,
    ) {
        let ns = |t: Instant| t.duration_since(self.origin).as_nanos() as u64;
        let span = Span {
            name,
            batch,
            point,
            start_ns: ns(start),
            end_ns: ns(end),
        };
        self.spans.lock().expect("span store poisoned").push(span);
    }

    fn of(&self, name: &str) -> Vec<f64> {
        let spans = self.spans.lock().expect("span store poisoned");
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    fn total(&self, name: &str) -> f64 {
        self.of(name).iter().fold(0.0, |a, b| a + b)
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans.lock().expect("span store poisoned").iter() {
            let point = s.point.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"name":"{}","parent":"{}","batch":{},"point":{point},"start_ns":{},"end_ns":{}}}"#,
                s.name,
                s.parent(),
                s.batch,
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Marks the start of each methodology phase; implements only `on_phase`.
#[derive(Debug, Default)]
struct PhaseClock([Option<Instant>; 3]);

impl Probe for PhaseClock {
    fn on_phase(&mut self, phase: SimPhase, _cycle: u64) {
        let slot = match phase {
            SimPhase::Warmup => 0,
            SimPhase::Measure => 1,
            SimPhase::Drain => 2,
        };
        self.0[slot] = Some(Instant::now());
    }
}

/// What a traced simulation leaves for the per-layer metrics.
#[derive(Debug, Clone)]
pub struct SimDetail {
    /// Simulated cycles.
    pub cycles: u64,
    /// Routers in the network, powered or not.
    pub routers: usize,
    /// Per-stage busy cycles.
    pub stages: StageCycles,
    /// Measurement-window activity.
    pub activity: RouterActivity,
    /// The generator's inputs, for the standalone replay.
    traffic: (TrafficPattern, Placement, f64, u32, u64),
}

/// Runs `job` as `SyntheticJob::run` does, timing construction, the three
/// simulation phases and power pricing into `spans`.
///
/// # Errors
///
/// Whatever the simulator returns.
pub fn run_point(
    exp: &Experiment,
    job: &SyntheticJob,
    spans: &Spans,
    batch: u32,
    point: u32,
) -> Result<(NetworkMetrics, SimDetail), SimError> {
    let at = Some(point);
    let build_start = Instant::now();
    let master = exp.controller.master();
    let seeded_rng = || rand::rngs::SmallRng::seed_from_u64(job.seed ^ 0x9e37_79b9_7f4a_7c15);
    let (topo, routing, placement, set, rate): (Topo, Box<dyn RoutingFunction>, _, _, _) =
        if job.topology.is_mesh() {
            let mesh = exp.system.mesh();
            let configured = TopologySpec::Mesh {
                width: mesh.width(),
                height: mesh.height(),
            };
            if job.topology != configured {
                return Err(SimError::InvalidConfig(format!(
                    "topology {} does not match the configured mesh",
                    job.topology.wire_name()
                )));
            }
            match job.baseline {
                SyntheticBaseline::NocSprinting => {
                    let set = SprintSet::new(mesh, master, job.level);
                    let placement = Placement::new(set.active_nodes().to_vec(), &mesh)?;
                    let routing = Box::new(CdorRouting::new(&set));
                    (Topo::from(mesh), routing, placement, Some(set), job.rate)
                }
                SyntheticBaseline::RandomEndpoints => {
                    let placement = Placement::random(job.level, &mesh, &mut seeded_rng());
                    (
                        Topo::from(mesh),
                        Box::new(XyRouting),
                        placement,
                        None,
                        job.rate,
                    )
                }
                SyntheticBaseline::SpreadAggregate => {
                    let rate = job.rate * job.level as f64 / mesh.len() as f64;
                    (
                        Topo::from(mesh),
                        Box::new(XyRouting),
                        Placement::full(&mesh),
                        None,
                        rate,
                    )
                }
            }
        } else {
            let topo = job
                .topology
                .build()
                .map_err(|e| SimError::InvalidConfig(e.to_string()))?;
            match job.baseline {
                SyntheticBaseline::NocSprinting => {
                    let set = SprintSet::on(topo.clone(), master, job.level);
                    let routing = Box::new(CirculantRouting::on_arc(set.mask().to_vec()));
                    let placement = Placement::new(set.active_nodes().to_vec(), topo.as_dyn())?;
                    (topo, routing, placement, Some(set), job.rate)
                }
                SyntheticBaseline::SpreadAggregate => {
                    let rate = job.rate * job.level as f64 / topo.len() as f64;
                    let placement = Placement::full(topo.as_dyn());
                    (
                        topo,
                        Box::new(CirculantRouting::full()),
                        placement,
                        None,
                        rate,
                    )
                }
                SyntheticBaseline::RandomEndpoints => {
                    let placement = Placement::random(job.level, topo.as_dyn(), &mut seeded_rng());
                    (
                        topo,
                        Box::new(CirculantRouting::full()),
                        placement,
                        None,
                        job.rate,
                    )
                }
            }
        };
    let mut net = Network::with_topology(topo.clone(), exp.system.router, routing)?;
    if let Some(set) = &set {
        net.set_power_mask(set.mask());
    }
    let powered_routers = net.powered_on_count();
    let powered_links = match &set {
        Some(set) => GatingPlan::from_sprint_set(set).links_on().len(),
        None => topo.num_directed_links(),
    };
    let traffic_inputs = (
        job.pattern,
        placement.clone(),
        rate,
        exp.system.packet_len,
        job.seed,
    );
    let traffic = TrafficGen::new(
        job.pattern,
        placement,
        rate,
        exp.system.packet_len,
        job.seed,
    )?;
    net.set_counting(false);
    let sim_start = Instant::now();
    spans.record("experiment.build", batch, at, build_start, sim_start);

    let mut clock = PhaseClock::default();
    let outcome = Simulation::new(net, traffic, exp.sim_config).run_observed(Some(&mut clock))?;
    let sim_end = Instant::now();
    let [warmup, measure, drain] = clock.0;
    let warmup = warmup.unwrap_or(sim_start);
    let measure = measure.unwrap_or(sim_end);
    let drain = drain.unwrap_or(sim_end);
    spans.record("sim.warmup", batch, at, warmup, measure);
    spans.record("sim.measure", batch, at, measure, drain);
    spans.record("sim.drain", batch, at, drain, sim_end);

    exp.stage_totals.record(&outcome.stage_cycles);
    let power = exp.network_power_of(&outcome, powered_routers, powered_links);
    spans.record("experiment.price", batch, at, sim_end, Instant::now());
    let metrics = NetworkMetrics {
        avg_packet_latency: outcome.stats.avg_packet_latency(),
        avg_network_latency: outcome.stats.avg_network_latency(),
        network_power: power,
        accepted_throughput: outcome.stats.accepted_throughput(),
        saturated: outcome.stats.saturated,
    };
    let detail = SimDetail {
        cycles: outcome.total_cycles,
        routers: topo.len(),
        stages: outcome.stage_cycles,
        activity: outcome.activity,
        traffic: traffic_inputs,
    };
    Ok((metrics, detail))
}

/// Replays the point's traffic generator alone over its simulated cycles;
/// returns the packets generated. Generation never looks at network state,
/// so the replay draws exactly the random stream the simulation drew.
fn replay_traffic(
    detail: &SimDetail,
    exp: &Experiment,
    spans: &Spans,
    batch: u32,
    point: u32,
) -> u64 {
    let (pattern, placement, rate, packet_len, seed) = detail.traffic.clone();
    let mut gen = TrafficGen::new(pattern, placement, rate, packet_len, seed)
        .expect("inputs already accepted by the simulation");
    let measure = exp.sim_config.warmup..exp.sim_config.warmup + exp.sim_config.measure;
    let start = Instant::now();
    for now in 0..detail.cycles {
        black_box(gen.generate(now, measure.contains(&now)));
    }
    spans.record("traffic.replay", batch, Some(point), start, Instant::now());
    gen.generated()
}

/// The in-process mirror of the daemon: one cache, one runner, spans.
#[derive(Debug)]
pub struct Replay<'a> {
    exp: &'a Experiment,
    runner: ExperimentRunner,
    cache: DiskResultCache,
    spans: Spans,
    details: Mutex<BTreeMap<(u32, u32), SimDetail>>,
    lookups: AtomicU64,
    hits: AtomicU64,
    points: u64,
    batches: u32,
}

/// Per point of a replayed batch: its metrics, or the simulator's error.
pub type PointResult = Result<NetworkMetrics, String>;

impl<'a> Replay<'a> {
    /// Opens the cache at `dir` (timed as `service.load`) and a runner
    /// with `workers` threads.
    ///
    /// # Errors
    ///
    /// I/O errors opening the cache.
    pub fn open(
        exp: &'a Experiment,
        dir: &Path,
        version: &str,
        workers: usize,
    ) -> io::Result<Self> {
        let spans = Spans::new();
        let start = Instant::now();
        let (cache, _) = DiskResultCache::open(dir, version)?;
        spans.record("service.load", 0, None, start, Instant::now());
        Ok(Replay {
            exp,
            runner: ExperimentRunner::with_workers(workers),
            cache,
            spans,
            details: Mutex::new(BTreeMap::new()),
            lookups: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            points: 0,
            batches: 0,
        })
    }

    /// Serves one submit `line` the way `SweepService::run_submit` does:
    /// decode, look every point up, simulate the misses on the runner,
    /// persist, and encode the `progress` and `point` events.
    ///
    /// # Errors
    ///
    /// A line that does not decode to a submit, or a persist failure.
    pub fn batch(&mut self, line: &str) -> Result<Vec<PointResult>, String> {
        let b = self.batches;
        self.batches += 1;
        let start = Instant::now();
        let request = ServiceRequest::from_json_line(line)?;
        let ServiceRequest::Submit(req) = request else {
            return Err("not a submit".into());
        };
        let batch_start = Instant::now();
        self.spans
            .record("service.decode", b, None, start, batch_start);
        let (exp, cache, spans, details) = (self.exp, &self.cache, &self.spans, &self.details);
        let (lookups, hits) = (&self.lookups, &self.hits);
        let results = self.runner.run(&req.jobs, |i, job| {
            let point_start = Instant::now();
            let at = Some(i as u32);
            spans.record("runner.wait", b, at, batch_start, point_start);
            let key = job.cache_key();
            let cached = cache.memory().get(key);
            spans.record("service.lookup", b, at, point_start, Instant::now());
            lookups.fetch_add(1, Ordering::Relaxed);
            let hit = cached.is_some();
            let result = match cached {
                Some(m) => {
                    hits.fetch_add(1, Ordering::Relaxed);
                    Ok(m)
                }
                None => run_point(exp, job, spans, b, i as u32)
                    .map(|(m, detail)| {
                        cache.memory().insert(key, m);
                        details
                            .lock()
                            .expect("detail store poisoned")
                            .insert((b, i as u32), detail);
                        m
                    })
                    .map_err(|e| e.to_string()),
            };
            spans.record("runner.point", b, at, point_start, Instant::now());
            (result, hit, point_start.elapsed().as_secs_f64() * 1e3)
        });
        let persist_start = Instant::now();
        spans.record("runner.batch", b, None, batch_start, persist_start);
        cache.persist_jobs(&req.jobs).map_err(|e| e.to_string())?;
        let encode_start = Instant::now();
        spans.record("service.persist", b, None, persist_start, encode_start);
        let total = results.len();
        for (i, ((result, hit, ms), job)) in results.iter().zip(&req.jobs).enumerate() {
            let progress = ServiceResponse::Progress {
                id: req.id.clone(),
                completed: i + 1,
                total,
                eta_ms: None,
            };
            black_box(progress.to_json_line());
            if let Ok(m) = result {
                let event = ServiceResponse::Point {
                    id: req.id.clone(),
                    point: ManifestPoint {
                        index: i,
                        seed: job.seed,
                        config_hash: job.cache_key(),
                        cache_hit: *hit,
                        duration_ms: *ms,
                        metrics: metric_pairs(m),
                    },
                };
                black_box(event.to_json_line());
            }
        }
        spans.record("service.encode", b, None, encode_start, Instant::now());
        self.points += total as u64;
        Ok(results.into_iter().map(|(r, _, _)| r).collect())
    }

    /// Replays every simulated point's traffic, then derives the per-layer
    /// metrics. `untraced_s_per_point` is the daemon's wall time per point
    /// on the same workload, for `trace.overhead_ratio`.
    pub fn finish(
        self,
        untraced_s_per_point: f64,
        spans_out: &Path,
    ) -> io::Result<Vec<(&'static str, f64, &'static str)>> {
        let details = self.details.into_inner().expect("detail store poisoned");
        let mut packets = 0u64;
        let (mut cycles, mut router_cycles, mut flits) = (0u64, 0f64, 0f64);
        let mut stages = StageCycles::default();
        let mut activity = RouterActivity::default();
        for (&(b, p), d) in &details {
            let generated = replay_traffic(d, self.exp, &self.spans, b, p);
            packets += generated;
            flits += generated as f64 * f64::from(d.traffic.3);
            cycles += d.cycles;
            router_cycles += d.cycles as f64 * d.routers as f64;
            let s = d.stages;
            stages.credit += s.credit;
            stages.link += s.link;
            stages.inject += s.inject;
            stages.va += s.va;
            stages.sa += s.sa;
            stages.eject += s.eject;
            activity = activity.merge(&d.activity);
        }
        self.spans.write_jsonl(spans_out)?;

        let sp = &self.spans;
        let points = self.points.max(1) as f64;
        let sims = details.len() as f64;
        let per = |total: f64, n: f64| if n > 0.0 { total / n } else { 0.0 };
        let sim_s = sp.total("sim.warmup") + sp.total("sim.measure") + sp.total("sim.drain");
        let generate_s = sp.total("traffic.replay");
        let step_s = (sim_s - generate_s).max(0.0);
        let lookups = self.lookups.load(Ordering::Relaxed) as f64;
        let traced_s = sp.total("service.decode")
            + sp.total("runner.batch")
            + sp.total("service.persist")
            + sp.total("service.encode");
        let busy =
            sp.total("runner.point") / (self.runner.workers() as f64 * sp.total("runner.batch"));
        Ok(vec![
            (
                "service.decode_us",
                sp.total("service.decode") / points * 1e6,
                "us",
            ),
            (
                "service.encode_us",
                sp.total("service.encode") / points * 1e6,
                "us",
            ),
            (
                "service.lookup_ns",
                per(sp.total("service.lookup"), lookups) * 1e9,
                "ns",
            ),
            (
                "service.hit_ratio",
                per(self.hits.load(Ordering::Relaxed) as f64, lookups),
                "count",
            ),
            (
                "service.persist_us",
                sp.total("service.persist") / points * 1e6,
                "us",
            ),
            ("service.load_s", sp.total("service.load"), "s"),
            (
                "runner.wait_ms_p50",
                median(&sp.of("runner.wait")) * 1e3,
                "ms",
            ),
            ("runner.busy_ratio", busy, "ratio"),
            (
                "experiment.build_us",
                per(sp.total("experiment.build"), sims) * 1e6,
                "us",
            ),
            (
                "experiment.price_us",
                per(sp.total("experiment.price"), sims) * 1e6,
                "us",
            ),
            ("sim.warmup_s", sp.total("sim.warmup"), "s"),
            ("sim.measure_s", sp.total("sim.measure"), "s"),
            ("sim.drain_s", sp.total("sim.drain"), "s"),
            ("sim.cycles", cycles as f64, "count"),
            ("sim.ns_per_cycle", per(sim_s * 1e9, cycles as f64), "ns"),
            ("sim.ns_per_flit", per(sim_s * 1e9, flits), "ns"),
            (
                "traffic.generate_ns_per_cycle",
                per(generate_s * 1e9, cycles as f64),
                "ns",
            ),
            ("traffic.packets", packets as f64, "count"),
            ("network.step_s", step_s, "s"),
            (
                "network.ns_per_router_cycle",
                per(step_s * 1e9, router_cycles),
                "ns",
            ),
            ("network.stage_busy.credit", stages.credit as f64, "count"),
            ("network.stage_busy.link", stages.link as f64, "count"),
            ("network.stage_busy.inject", stages.inject as f64, "count"),
            ("network.stage_busy.va", stages.va as f64, "count"),
            ("network.stage_busy.sa", stages.sa as f64, "count"),
            ("network.stage_busy.eject", stages.eject as f64, "count"),
            (
                "network.activity.buffer_writes",
                activity.buffer_writes as f64,
                "count",
            ),
            (
                "network.activity.crossbar_traversals",
                activity.crossbar_traversals as f64,
                "count",
            ),
            (
                "network.activity.vc_allocations",
                activity.vc_allocations as f64,
                "count",
            ),
            (
                "network.activity.switch_allocations",
                activity.switch_allocations as f64,
                "count",
            ),
            (
                "network.activity.link_flits",
                activity.link_flits as f64,
                "count",
            ),
            (
                "trace.overhead_ratio",
                per(traced_s / points, untraced_s_per_point),
                "ratio",
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::BIG_TOPOLOGY;

    /// The mirror must be `SyntheticJob::run`, bit for bit, on the mesh and
    /// the circulant path and for every baseline.
    #[test]
    fn mirror_matches_synthetic_job_run() {
        let exp = Experiment::quick();
        let spans = Spans::new();
        for topology in [
            TopologySpec::default(),
            TopologySpec::from_wire_name(BIG_TOPOLOGY).expect("valid"),
        ] {
            for baseline in [
                SyntheticBaseline::NocSprinting,
                SyntheticBaseline::RandomEndpoints,
                SyntheticBaseline::SpreadAggregate,
            ] {
                let job = SyntheticJob {
                    topology,
                    level: 8,
                    pattern: TrafficPattern::UniformRandom,
                    rate: 0.1,
                    seed: 7,
                    baseline,
                };
                let (mirrored, detail) = run_point(&exp, &job, &spans, 0, 0).expect("mirror runs");
                let bits = |m: &NetworkMetrics| {
                    metric_pairs(m)
                        .iter()
                        .map(|(_, v)| v.to_bits())
                        .collect::<Vec<_>>()
                };
                assert_eq!(
                    bits(&mirrored),
                    bits(&job.run(&exp).expect("job runs")),
                    "{job:?}"
                );
                assert!(detail.cycles > exp.sim_config.warmup + exp.sim_config.measure);
                assert_eq!(detail.routers, topology.len());
            }
        }
        for name in [
            "experiment.build",
            "sim.warmup",
            "sim.measure",
            "sim.drain",
            "experiment.price",
        ] {
            assert_eq!(spans.of(name).len(), 6, "{name}");
        }
    }
}
