//! End-to-end experiment runners: each method reproduces the measurement
//! behind one of the paper's evaluation figures by wiring the cycle-level
//! simulator, the power models and the thermal models together.

use noc_power::chip::{ChipPowerModel, CoreState};
use noc_power::link::LinkPowerModel;
use noc_power::router::{RouterConfig, RouterPowerModel};
use noc_power::tech::{OperatingPoint, TechNode};
use noc_sim::error::SimError;
use noc_sim::network::{GatingMode, Network};
use noc_sim::probe::Probe;
use noc_sim::sim::{SimConfig, SimOutcome, Simulation};
use noc_sim::topology::Topo;
use noc_sim::traffic::{BurstSchedule, Placement, TrafficGen, TrafficPattern};
use noc_thermal::grid::{TemperatureField, ThermalGrid};
use noc_thermal::sprint::SprintThermalModel;
use noc_workload::profile::BenchmarkProfile;
use noc_workload::speedup::ExecutionModel;

use std::sync::Arc;

use crate::config::SystemConfig;
use crate::controller::{SprintController, SprintPolicy};
use crate::floorplan::Floorplan;
use crate::gating::GatingPlan;
use crate::metrics::StageBusyTotals;
use crate::sprint_topology::SprintSet;

/// Network performance/power metrics of one simulated run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkMetrics {
    /// Mean end-to-end packet latency (cycles).
    pub avg_packet_latency: f64,
    /// Mean network (head-injection to delivery) latency (cycles).
    pub avg_network_latency: f64,
    /// Total network power: routers + links, dynamic + leakage (W).
    pub network_power: f64,
    /// Accepted throughput (flits/cycle/node over participating nodes).
    pub accepted_throughput: f64,
    /// Whether the operating point saturated.
    pub saturated: bool,
}

/// Floorplanning variants compared in Fig. 12.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThermalVariant {
    /// All 16 tiles sprint (Fig. 12a).
    FullSprinting,
    /// Fine-grained sprint on the logical (identity) floorplan (Fig. 12b).
    FineGrained,
    /// Fine-grained sprint with the thermal-aware floorplan (Fig. 12c).
    FineGrainedFloorplanned,
}

/// The experiment harness: system configuration plus all models.
#[derive(Debug)]
pub struct Experiment {
    /// System configuration (Table 1).
    pub system: SystemConfig,
    /// Sprint controller.
    pub controller: SprintController,
    /// Router power model.
    pub router_power: RouterPowerModel,
    /// Link power model (unit-length hop).
    pub link_power: LinkPowerModel,
    /// Chip power model.
    pub chip_power: ChipPowerModel,
    /// Lumped sprint thermal model.
    pub sprint_thermal: SprintThermalModel,
    /// Operating point during sprints.
    pub op: OperatingPoint,
    /// Simulation phases.
    pub sim_config: SimConfig,
    /// Per-pipeline-stage busy-cycle totals, folded in after every network
    /// run. Shared so the sweep service can export them as gauges.
    pub stage_totals: Arc<StageBusyTotals>,
}

impl Experiment {
    /// The paper's full evaluation setup.
    pub fn paper() -> Self {
        Experiment {
            system: SystemConfig::paper(),
            controller: SprintController::paper(),
            router_power: RouterPowerModel::new(TechNode::nm45(), RouterConfig::paper()),
            link_power: LinkPowerModel::paper(),
            chip_power: ChipPowerModel::paper(),
            sprint_thermal: SprintThermalModel::paper(),
            op: OperatingPoint::nominal(),
            sim_config: SimConfig::sweep(),
            stage_totals: Arc::new(StageBusyTotals::new()),
        }
    }

    /// A faster configuration for tests and examples.
    pub fn quick() -> Self {
        Experiment {
            sim_config: SimConfig::quick(),
            ..Self::paper()
        }
    }

    // ------------------------------------------------------------------
    // Network experiments (Figs. 9, 10, 11)
    // ------------------------------------------------------------------

    /// Runs the network for one benchmark under a policy: NoC-sprinting
    /// confines traffic and power to the sprint region with the topology's
    /// gated routing (CDOR on the mesh); all other policies run on the
    /// fully powered network with its full routing (full sprinting spreads
    /// the application over every node; naive fine-grained uses `k` nodes
    /// but leaves the whole network on).
    ///
    /// # Errors
    ///
    /// Propagates simulator errors (dark-router violations, deadlock).
    pub fn run_network(
        &self,
        policy: SprintPolicy,
        bench: &BenchmarkProfile,
        seed: u64,
    ) -> Result<NetworkMetrics, SimError> {
        let set = self.controller.sprint_set(policy, bench);
        let topo = set.topo();
        let rate = bench.injection_rate.max(0.02);
        // Uniform-random peer traffic, as in the paper's Fig. 9/10
        // methodology. For the memory-hotspot variant (a fraction of
        // traffic headed to the MC node), see
        // [`Experiment::run_network_with_memory_traffic`].
        let pattern = TrafficPattern::UniformRandom;
        // A single-core configuration has no inter-node traffic: report the
        // local-turnaround latency and the idle network's standing power
        // analytically instead of simulating a degenerate 1-node workload.
        if set.level() < 2 {
            let powered = match policy {
                SprintPolicy::NocSprinting | SprintPolicy::NonSprinting => 1,
                _ => topo.len(),
            };
            let links = if powered == topo.len() {
                topo.num_directed_links()
            } else {
                0
            };
            let p = self.router_power.power_from_activity(
                &self.op,
                &noc_sim::router::RouterActivity::default(),
                1,
            );
            let static_per_router = p.leakage.total() + p.dynamic.clock;
            return Ok(NetworkMetrics {
                avg_packet_latency: 2.0 * self.system.router.hop_latency() as f64,
                avg_network_latency: 2.0 * self.system.router.hop_latency() as f64,
                network_power: static_per_router * powered as f64
                    + self.link_power.leakage(&self.op) * links as f64,
                accepted_throughput: rate,
                saturated: false,
            });
        }
        let active = || Placement::new(set.active_nodes().to_vec(), &**topo);
        let (placement, gated) = match policy {
            SprintPolicy::NocSprinting => (active()?, Some(&set)),
            SprintPolicy::FullSprinting => (Placement::full(&**topo), None),
            // Traffic among the active cores (compactly placed, as the OS
            // would schedule), but the full network stays powered.
            SprintPolicy::NonSprinting | SprintPolicy::NaiveFineGrained => (active()?, None),
        };
        self.run_placed_on(topo.clone(), placement, gated, pattern, rate, seed, None)
    }

    /// Like [`Experiment::run_network`], but the benchmark's
    /// `memory_intensity` fraction of traffic targets the memory
    /// controller's node (the master / logical node 0) as a hotspot —
    /// modelling cache-miss traffic. A single MC port saturates quickly
    /// under 16-node full-sprinting, so callers should derate `rate_scale`
    /// (e.g. 0.5) when comparing policies.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
    pub fn run_network_with_memory_traffic(
        &self,
        policy: SprintPolicy,
        bench: &BenchmarkProfile,
        rate_scale: f64,
        seed: u64,
    ) -> Result<NetworkMetrics, SimError> {
        let set = self.controller.sprint_set(policy, bench);
        let topo = set.topo();
        let rate = (bench.injection_rate * rate_scale).max(0.02);
        let pattern = TrafficPattern::Hotspot {
            hot_fraction: bench.memory_intensity,
        };
        let (placement, gated) = match policy {
            SprintPolicy::NocSprinting => {
                (Placement::new(set.active_nodes().to_vec(), &**topo)?, Some(&set))
            }
            _ => (Placement::full(&**topo), None),
        };
        self.run_placed_on(topo.clone(), placement, gated, pattern, rate, seed, None)
    }

    /// The core of every gated or fully powered network run: builds the
    /// network on `topo` with the topology's routing (confined to the sprint
    /// set's region when `gated` is given, which also applies its power
    /// mask), simulates with `probe` attached, and prices power by powered
    /// resources.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run_placed_on(
        &self,
        topo: Topo,
        placement: Placement,
        gated: Option<&SprintSet>,
        pattern: TrafficPattern,
        rate: f64,
        seed: u64,
        probe: Option<&mut dyn Probe>,
    ) -> Result<NetworkMetrics, SimError> {
        let routing = topo.routing(gated.map(SprintSet::mask));
        let mut net = Network::with_topology(topo.clone(), self.system.router, routing)?;
        if let Some(set) = gated {
            net.set_power_mask(set.mask());
        }
        let powered_routers = net.powered_on_count();
        let powered_links = match gated {
            Some(set) => GatingPlan::from_sprint_set(set).links_on().len(),
            None => topo.num_directed_links(),
        };
        let traffic = TrafficGen::new(pattern, placement, rate, self.system.packet_len, seed)?;
        net.set_counting(false);
        let outcome = Simulation::new(net, traffic, self.sim_config).run_observed(probe)?;
        self.stage_totals.record(&outcome.stage_cycles);
        let power = self.network_power_of(&outcome, powered_routers, powered_links);
        Ok(metrics_of(&outcome, power))
    }

    /// Runs `level` compact sprint nodes under **reactive** router gating
    /// (the traffic-driven alternative of §2): the whole network is
    /// nominally powered under its full routing, but each router self-gates
    /// after `idle_threshold` idle cycles and pays `wakeup_latency` on the
    /// next arrival. Supports an on/off [`BurstSchedule`] to model sporadic
    /// computation.
    ///
    /// Power pricing credits each router's leakage+clock by its asleep
    /// fraction and charges wakeup energy per wake event; link drivers stay
    /// powered (router parking gates routers, not wires).
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
    #[allow(clippy::too_many_arguments)]
    pub fn run_network_reactive(
        &self,
        level: usize,
        pattern: TrafficPattern,
        rate: f64,
        idle_threshold: u64,
        wakeup_latency: u64,
        bursts: Option<BurstSchedule>,
        seed: u64,
    ) -> Result<NetworkMetrics, SimError> {
        let topo = self.controller.topo();
        let set = SprintSet::on(topo.clone(), self.controller.master(), level);
        let placement = Placement::new(set.active_nodes().to_vec(), &**topo)?;
        let routing = topo.routing(None);
        let mut net = Network::with_topology(topo.clone(), self.system.router, routing)?;
        net.set_gating_mode(GatingMode::Reactive {
            idle_threshold,
            wakeup_latency,
        });
        let mut traffic =
            TrafficGen::new(pattern, placement, rate, self.system.packet_len, seed)?;
        if let Some(b) = bursts {
            traffic = traffic.with_bursts(b);
        }
        let outcome = Simulation::new(net, traffic, self.sim_config).run()?;
        self.stage_totals.record(&outcome.stage_cycles);
        let power = self.network_power_reactive(&outcome);
        Ok(metrics_of(&outcome, power))
    }

    /// Prices a reactive-gating outcome: dynamic power from activity,
    /// per-router static power scaled by awake fraction, plus wakeup
    /// energy; link leakage stays (wires are not parked).
    pub fn network_power_reactive(&self, outcome: &SimOutcome) -> f64 {
        let cycles = outcome.stats.measure_cycles.max(1);
        let window_s = cycles as f64 * self.op.cycle_seconds();
        let p = self
            .router_power
            .power_from_activity(&self.op, &outcome.activity, cycles);
        let router_dynamic = p.dynamic.total() - p.dynamic.clock;
        let static_per_router = p.leakage.total() + p.dynamic.clock;
        let wake_energy = noc_power::gating::GatingParams::paper_router().wakeup_energy_j;
        let mut router_static = 0.0;
        let mut wake_power = 0.0;
        for &(sleep_cycles, wakeups) in &outcome.sleep_stats {
            let awake_frac = 1.0 - (sleep_cycles.min(cycles) as f64 / cycles as f64);
            router_static += static_per_router * awake_frac;
            wake_power += wakeups as f64 * wake_energy / window_s;
        }
        let link_dynamic = outcome.activity.link_flits as f64
            * self.link_power.energy_per_flit(&self.op)
            / window_s;
        let link_static =
            self.link_power.leakage(&self.op) * self.controller.topo().num_directed_links() as f64;
        router_dynamic + router_static + wake_power + link_dynamic + link_static
    }

    /// Prices a simulation outcome: dynamic power from activity counters,
    /// leakage for every *powered* router and link.
    pub fn network_power_of(
        &self,
        outcome: &SimOutcome,
        powered_routers: usize,
        powered_links: usize,
    ) -> f64 {
        let cycles = outcome.stats.measure_cycles.max(1);
        let p = self
            .router_power
            .power_from_activity(&self.op, &outcome.activity, cycles);
        // `power_from_activity` includes clock + leakage for ONE router;
        // scale the static parts by the powered count.
        let router_dynamic = p.dynamic.total() - p.dynamic.clock;
        let router_static =
            (p.leakage.total() + p.dynamic.clock) * powered_routers as f64;
        let window_s = cycles as f64 * self.op.cycle_seconds();
        let link_dynamic =
            outcome.activity.link_flits as f64 * self.link_power.energy_per_flit(&self.op)
                / window_s;
        let link_static = self.link_power.leakage(&self.op) * powered_links as f64;
        router_dynamic + router_static + link_dynamic + link_static
    }

    // ------------------------------------------------------------------
    // Core power (Fig. 8)
    // ------------------------------------------------------------------

    /// Time-weighted core-subsystem power for a benchmark under a policy
    /// (W): during the serial phase one sprint core works while the others
    /// idle; during parallel execution all `k` work; non-sprint cores are
    /// idle or gated according to the policy.
    pub fn core_power(&self, policy: SprintPolicy, bench: &BenchmarkProfile) -> f64 {
        let n = self.system.core_count as usize;
        let k = self.controller.sprint_level(policy, bench) as usize;
        let model = ExecutionModel::new(*bench);
        let bd = model.breakdown(k as u32);
        let inactive = if policy.gates_inactive_resources() {
            CoreState::Gated
        } else {
            CoreState::Idle
        };
        let p_active = self.chip_power.core_power(CoreState::Active);
        let p_idle = self.chip_power.core_power(CoreState::Idle);
        let p_inactive = self.chip_power.core_power(inactive);
        let outside = (n - k) as f64 * p_inactive;
        let p_serial = p_active + (k as f64 - 1.0) * p_idle + outside;
        let p_parallel = k as f64 * p_active + outside;
        (bd.serial * p_serial + bd.parallel * p_parallel) / bd.total()
    }

    /// Total chip power during the sprint (cores + L2 + NoC + MC + other),
    /// for the thermal-duration analysis (§4.4).
    pub fn chip_sprint_power(&self, policy: SprintPolicy, bench: &BenchmarkProfile) -> f64 {
        let n = self.system.core_count as usize;
        let k = self.controller.sprint_level(policy, bench) as usize;
        let inactive = if policy.gates_inactive_resources() {
            CoreState::Gated
        } else {
            CoreState::Idle
        };
        // Policies that gate inactive resources (NoC-sprinting, and nominal
        // operation under the NoC-sprinting architecture) also gate the
        // unused network nodes; the conventional baselines keep it all on.
        let noc_nodes_on = if policy.gates_inactive_resources() {
            k
        } else {
            n
        };
        let mut b = self
            .chip_power
            .sprint_breakdown(n, k, inactive, noc_nodes_on);
        // Replace the instantaneous core term with the time-weighted one.
        b.cores = self.core_power(policy, bench);
        b.total()
    }

    // ------------------------------------------------------------------
    // Thermal experiments (Figs. 1, 12; §4.4)
    // ------------------------------------------------------------------

    /// Per-logical-tile power for a sprint level under a variant.
    pub fn tile_powers(&self, variant: ThermalVariant, level: usize) -> Vec<f64> {
        let n = self.system.core_count as usize;
        let set = SprintSet::new(self.system.mesh(), self.controller.master(), level);
        (0..n)
            .map(|i| {
                let node = noc_sim::geometry::NodeId(i);
                let on = match variant {
                    ThermalVariant::FullSprinting => true,
                    _ => set.is_active(node),
                };
                let state = if on { CoreState::Active } else { CoreState::Gated };
                self.chip_power.tile_power(state, on)
            })
            .collect()
    }

    /// Steady-state heat map for one Fig. 12 variant at a sprint level.
    pub fn heatmap(&self, variant: ThermalVariant, level: usize) -> TemperatureField {
        let mesh = self.system.mesh();
        let grid = ThermalGrid::new(
            usize::from(mesh.width()),
            usize::from(mesh.height()),
            noc_thermal::grid::GridParams::paper_16block(),
        );
        let logical = self.tile_powers(variant, level);
        let power = match variant {
            ThermalVariant::FineGrainedFloorplanned => {
                let set =
                    SprintSet::new(self.system.mesh(), self.controller.master(), level);
                Floorplan::thermal_aware(&set).physical_power(&logical)
            }
            _ => logical,
        };
        grid.steady_state(&power)
    }

    /// Sprint duration until thermal shutdown under a policy (s).
    pub fn sprint_duration(&self, policy: SprintPolicy, bench: &BenchmarkProfile) -> f64 {
        self.sprint_thermal
            .sprint_duration(self.chip_sprint_power(policy, bench))
    }

    /// Chip power of a `level`-core NoC-sprinting configuration running
    /// `bench`, with time-weighted core accounting (W).
    pub fn chip_power_at_level(&self, bench: &BenchmarkProfile, level: usize) -> f64 {
        let n = self.system.core_count as usize;
        assert!((1..=n).contains(&level), "level {level} outside 1..={n}");
        let model = ExecutionModel::new(*bench);
        let bd = model.breakdown(level as u32);
        let mut b = self
            .chip_power
            .sprint_breakdown(n, level, CoreState::Gated, level);
        let p_active = self.chip_power.core_power(CoreState::Active);
        let p_idle = self.chip_power.core_power(CoreState::Idle);
        let p_gated = self.chip_power.core_power(CoreState::Gated);
        let outside = (n - level) as f64 * p_gated;
        let p_serial = p_active + (level as f64 - 1.0) * p_idle + outside;
        let p_parallel = level as f64 * p_active + outside;
        b.cores = (bd.serial * p_serial + bd.parallel * p_parallel) / bd.total();
        b.total()
    }

    /// Expected completion time of `job_seconds` of single-core work when
    /// sprinting at `level`: execution at sprint speed until the thermal
    /// budget expires, then single-core crawl for the remainder (s).
    pub fn completion_time(&self, bench: &BenchmarkProfile, level: usize, job_seconds: f64) -> f64 {
        let model = ExecutionModel::new(*bench);
        let exec = job_seconds * model.time(level as u32);
        let cap = self
            .sprint_thermal
            .sprint_duration(self.chip_power_at_level(bench, level));
        if exec <= cap {
            exec
        } else {
            let done_fraction = cap / exec;
            cap + job_seconds * (1.0 - done_fraction)
        }
    }

    /// The sprint level minimizing *completion time under the thermal
    /// envelope* for a job of `job_seconds` single-core work — the
    /// thermally-aware refinement of the controller's speedup-optimal
    /// choice: long jobs prefer lower levels that can sprint to the end.
    pub fn thermally_optimal_level(&self, bench: &BenchmarkProfile, job_seconds: f64) -> usize {
        let n = self.system.core_count as usize;
        (1..=n)
            .min_by(|&a, &b| {
                self.completion_time(bench, a, job_seconds)
                    .total_cmp(&self.completion_time(bench, b, job_seconds))
            })
            .expect("at least one level")
    }

    /// Melt-plateau (phase 2) duration under a policy (s).
    pub fn melt_duration(&self, policy: SprintPolicy, bench: &BenchmarkProfile) -> f64 {
        self.sprint_thermal
            .phase_durations(self.chip_sprint_power(policy, bench))
            .melt
    }
}

/// The network metrics of a finished run priced at `network_power`.
fn metrics_of(outcome: &SimOutcome, network_power: f64) -> NetworkMetrics {
    NetworkMetrics {
        avg_packet_latency: outcome.stats.avg_packet_latency(),
        avg_network_latency: outcome.stats.avg_network_latency(),
        network_power,
        accepted_throughput: outcome.stats.accepted_throughput(),
        saturated: outcome.stats.saturated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_workload::profile::{by_name, parsec_suite};

    fn exp() -> Experiment {
        Experiment::quick()
    }

    #[test]
    fn fig9_noc_sprinting_cuts_network_latency() {
        let e = exp();
        let dedup = by_name("dedup").unwrap();
        let full = e
            .run_network(SprintPolicy::FullSprinting, &dedup, 7)
            .unwrap();
        let ns = e.run_network(SprintPolicy::NocSprinting, &dedup, 7).unwrap();
        assert!(
            ns.avg_network_latency < full.avg_network_latency,
            "NoC-sprinting {} vs full {}",
            ns.avg_network_latency,
            full.avg_network_latency
        );
    }

    #[test]
    fn fig10_noc_sprinting_cuts_network_power() {
        let e = exp();
        let dedup = by_name("dedup").unwrap();
        let full = e
            .run_network(SprintPolicy::FullSprinting, &dedup, 11)
            .unwrap();
        let ns = e
            .run_network(SprintPolicy::NocSprinting, &dedup, 11)
            .unwrap();
        assert!(
            ns.network_power < 0.6 * full.network_power,
            "NoC-sprinting {} W vs full {} W",
            ns.network_power,
            full.network_power
        );
    }

    #[test]
    fn fig8_core_power_ordering() {
        // full > naive fine-grained > NoC-sprinting for an intermediate-
        // level benchmark.
        let e = exp();
        let vips = by_name("vips").unwrap();
        let full = e.core_power(SprintPolicy::FullSprinting, &vips);
        let naive = e.core_power(SprintPolicy::NaiveFineGrained, &vips);
        let ns = e.core_power(SprintPolicy::NocSprinting, &vips);
        assert!(full > naive, "full {full} vs naive {naive}");
        assert!(naive > ns, "naive {naive} vs NoC-sprinting {ns}");
    }

    #[test]
    fn fig8_suite_savings_shape() {
        // Paper: fine-grained saves ~25.5% even without gating;
        // NoC-sprinting saves ~69.1% on average. Our analytic workload
        // reproduces the ranking with savings in the right regime.
        let e = exp();
        let suite = parsec_suite();
        let mean = |p: SprintPolicy| {
            suite.iter().map(|b| e.core_power(p, b)).sum::<f64>() / suite.len() as f64
        };
        let full = mean(SprintPolicy::FullSprinting);
        let naive = mean(SprintPolicy::NaiveFineGrained);
        let ns = mean(SprintPolicy::NocSprinting);
        let naive_saving = 1.0 - naive / full;
        let ns_saving = 1.0 - ns / full;
        assert!(
            (0.10..0.45).contains(&naive_saving),
            "naive fine-grained saving {naive_saving}"
        );
        assert!(
            (0.40..0.80).contains(&ns_saving),
            "NoC-sprinting saving {ns_saving}"
        );
        assert!(ns_saving > naive_saving + 0.15);
    }

    #[test]
    fn blackscholes_leaves_no_gating_room() {
        // "except for blackscholes and bodytrack which achieve the optimal
        // performance speedup in full-sprinting and hence leave no space
        // for power-gating".
        let e = exp();
        let bs = by_name("blackscholes").unwrap();
        let full = e.core_power(SprintPolicy::FullSprinting, &bs);
        let ns = e.core_power(SprintPolicy::NocSprinting, &bs);
        assert!(
            ns > 0.85 * full,
            "blackscholes should save little: {ns} vs {full}"
        );
    }

    #[test]
    fn fig12_peak_ordering() {
        let e = exp();
        let full = e.heatmap(ThermalVariant::FullSprinting, 4).peak().1;
        let fg = e.heatmap(ThermalVariant::FineGrained, 4).peak().1;
        let fp = e.heatmap(ThermalVariant::FineGrainedFloorplanned, 4).peak().1;
        assert!(full > fg, "full {full} vs fine-grained {fg}");
        assert!(fg > fp, "fine-grained {fg} vs floorplanned {fp}");
    }

    #[test]
    fn sprint_duration_improves_for_intermediate_levels() {
        let e = exp();
        let dedup = by_name("dedup").unwrap();
        let full = e.melt_duration(SprintPolicy::FullSprinting, &dedup);
        let ns = e.melt_duration(SprintPolicy::NocSprinting, &dedup);
        assert!(ns > full, "melt {ns} vs {full}");
    }

    #[test]
    fn chip_power_totals_ranked_by_policy() {
        let e = exp();
        let vips = by_name("vips").unwrap();
        let full = e.chip_sprint_power(SprintPolicy::FullSprinting, &vips);
        let naive = e.chip_sprint_power(SprintPolicy::NaiveFineGrained, &vips);
        let ns = e.chip_sprint_power(SprintPolicy::NocSprinting, &vips);
        assert!(full > naive && naive > ns);
    }

    #[test]
    fn thermally_optimal_level_drops_for_long_jobs() {
        // Short jobs take the speedup-optimal level; long jobs back off to
        // a level whose sprint budget covers the whole job.
        let e = exp();
        let sc = by_name("streamcluster").unwrap();
        let short = e.thermally_optimal_level(&sc, 0.3);
        let long = e.thermally_optimal_level(&sc, 30.0);
        assert!(short >= long, "short {short} vs long {long}");
        assert!(long >= 1);
        // The long-job choice must actually be sustainable or at least
        // strictly better than the speedup-optimal choice.
        let t_long = e.completion_time(&sc, long, 30.0);
        let t_greedy = e.completion_time(&sc, short, 30.0);
        assert!(t_long <= t_greedy + 1e-9);
    }

    #[test]
    fn completion_time_matches_exec_when_sustainable() {
        let e = exp();
        let dedup = by_name("dedup").unwrap();
        // A tiny job never hits the envelope: completion == exec time.
        let model = noc_workload::speedup::ExecutionModel::new(dedup);
        let t = e.completion_time(&dedup, 4, 0.1);
        assert!((t - 0.1 * model.time(4)).abs() < 1e-12);
    }

    #[test]
    fn synthetic_run_produces_sane_metrics() {
        use crate::runner::{SyntheticBaseline, SyntheticJob};
        let job = SyntheticJob {
            topology: noc_sim::topology::TopologySpec::default(),
            level: 4,
            pattern: TrafficPattern::UniformRandom,
            rate: 0.1,
            seed: 3,
            baseline: SyntheticBaseline::NocSprinting,
        };
        let m = job.run(&exp()).unwrap();
        assert!(m.avg_packet_latency > 5.0 && m.avg_packet_latency < 200.0);
        assert!(m.network_power > 0.0);
        assert!(!m.saturated);
    }
}
