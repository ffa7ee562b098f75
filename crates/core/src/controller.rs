//! The sprint controller: picking a sprint level per workload and policy.
//!
//! The paper compares three schemes (§4.1–4.2) plus a naive variant:
//!
//! - **non-sprinting** — always one core under the TDP limit,
//! - **full-sprinting** — conventional computational sprinting, all 16
//!   cores,
//! - **naive fine-grained** — the optimal core count, but inactive cores
//!   and network left idle (no power gating),
//! - **NoC-sprinting** — the optimal core count with topological sprinting,
//!   CDOR and structural power gating of the dark region.

use noc_sim::geometry::NodeId;
use noc_sim::topology::{Mesh2D, Topo};
use noc_workload::profile::BenchmarkProfile;
use noc_workload::speedup::{ExecutionModel, OPTIMAL_TOLERANCE};

use crate::sprint_topology::SprintSet;

/// The sprinting scheme in force.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SprintPolicy {
    /// Single-core nominal operation.
    NonSprinting,
    /// All cores sprint (conventional computational sprinting).
    FullSprinting,
    /// Optimal core count, but no power gating of the leftovers.
    NaiveFineGrained,
    /// Optimal core count with topological sprinting + gating (this paper).
    NocSprinting,
}

impl SprintPolicy {
    /// All four policies, in comparison order.
    pub const ALL: [SprintPolicy; 4] = [
        SprintPolicy::NonSprinting,
        SprintPolicy::FullSprinting,
        SprintPolicy::NaiveFineGrained,
        SprintPolicy::NocSprinting,
    ];

    /// Short display name used in figure rows.
    pub fn name(self) -> &'static str {
        match self {
            SprintPolicy::NonSprinting => "non-sprinting",
            SprintPolicy::FullSprinting => "full-sprinting",
            SprintPolicy::NaiveFineGrained => "fine-grained (no gating)",
            SprintPolicy::NocSprinting => "NoC-sprinting",
        }
    }

    /// Whether inactive cores are power-gated under this policy.
    pub fn gates_inactive_resources(self) -> bool {
        matches!(self, SprintPolicy::NonSprinting | SprintPolicy::NocSprinting)
    }
}

/// Decides sprint levels and builds sprint topologies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SprintController {
    topo: Topo,
    master: NodeId,
}

impl SprintController {
    /// Creates a controller on a topology (see TOPOLOGY.md) with the given
    /// master node.
    ///
    /// # Panics
    ///
    /// Panics if the master is outside the topology.
    pub fn new(topo: impl Into<Topo>, master: NodeId) -> Self {
        let topo = topo.into();
        assert!(master.0 < topo.len(), "master {master} outside mesh");
        SprintController { topo, master }
    }

    /// The paper's controller: 4x4 mesh, master at node 0 (top-left, next
    /// to the memory controller).
    pub fn paper() -> Self {
        Self::new(Mesh2D::paper_4x4(), NodeId(0))
    }

    /// The topology the controller sprints on.
    pub fn topo(&self) -> &Topo {
        &self.topo
    }

    /// The master node.
    pub fn master(&self) -> NodeId {
        self.master
    }

    /// Sprint level (active cores) for a workload under a policy. Uses the
    /// offline profile, as the paper does ("we conduct off-line profiling on
    /// PARSEC to capture the internal parallelism").
    pub fn sprint_level(&self, policy: SprintPolicy, profile: &BenchmarkProfile) -> u32 {
        let max = self.topo.len() as u32;
        match policy {
            SprintPolicy::NonSprinting => 1,
            SprintPolicy::FullSprinting => max,
            SprintPolicy::NaiveFineGrained | SprintPolicy::NocSprinting => {
                ExecutionModel::new(*profile).optimal_cores(max, OPTIMAL_TOLERANCE)
            }
        }
    }

    /// The sprint topology for a workload under a policy.
    ///
    /// For full-sprinting and naive fine-grained operation the *entire*
    /// network stays powered (level only selects cores); the sprint set
    /// still records which cores run.
    pub fn sprint_set(&self, policy: SprintPolicy, profile: &BenchmarkProfile) -> SprintSet {
        let level = self.sprint_level(policy, profile) as usize;
        SprintSet::on(self.topo.clone(), self.master, level)
    }

    /// Execution time (normalized to single-core) under a policy.
    pub fn execution_time(&self, policy: SprintPolicy, profile: &BenchmarkProfile) -> f64 {
        let level = self.sprint_level(policy, profile);
        ExecutionModel::new(*profile).time(level)
    }

    /// Speedup over non-sprinting under a policy.
    pub fn speedup(&self, policy: SprintPolicy, profile: &BenchmarkProfile) -> f64 {
        1.0 / self.execution_time(policy, profile)
    }
}

impl Default for SprintController {
    fn default() -> Self {
        Self::paper()
    }
}

/// Retry schedule for failed router wake-ups: exponential backoff starting
/// at `base_cycles`, giving up after `max_attempts` tries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackoffPolicy {
    /// Cycles waited after the first failed attempt; doubles per retry.
    pub base_cycles: u64,
    /// Wake attempts per node before declaring it unwakeable.
    pub max_attempts: u32,
}

impl BackoffPolicy {
    /// Backoff delay after failed attempt `attempt` (0-based):
    /// `base_cycles << attempt`, saturating.
    pub fn delay(&self, attempt: u32) -> u64 {
        self.base_cycles.saturating_mul(1u64.checked_shl(attempt).unwrap_or(u64::MAX))
    }
}

impl Default for BackoffPolicy {
    /// 8 cycles base, 4 attempts (8 + 16 + 32 cycles of waiting at most).
    fn default() -> Self {
        BackoffPolicy {
            base_cycles: 8,
            max_attempts: 4,
        }
    }
}

/// Wake-up fault at one router, for [`SprintController::sprint_set_degraded`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WakeupFault {
    /// The router never wakes, no matter how often it is retried.
    Permanent,
    /// The first `n` wake attempts fail; the next succeeds (if the backoff
    /// policy allows that many attempts).
    Transient(u32),
}

/// Per-node wake-up faults injected into a sprint-up transition.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WakeupFaults {
    faults: std::collections::BTreeMap<usize, WakeupFault>,
}

impl WakeupFaults {
    /// No wake-up faults (every node wakes on the first attempt).
    pub fn none() -> Self {
        Self::default()
    }

    /// Adds a fault at `node` (replacing any previous one).
    #[must_use]
    pub fn with(mut self, node: NodeId, fault: WakeupFault) -> Self {
        self.faults.insert(node.0, fault);
        self
    }

    /// The fault at `node`, if any.
    pub fn get(&self, node: NodeId) -> Option<WakeupFault> {
        self.faults.get(&node.0).copied()
    }
}

/// Why a degraded sprint-up could not produce any usable region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WakeupError {
    /// The master node itself is unwakeable; no sprint region exists.
    MasterFailed,
}

impl std::fmt::Display for WakeupError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WakeupError::MasterFailed => write!(f, "master node failed to wake"),
        }
    }
}

impl std::error::Error for WakeupError {}

/// Outcome of a sprint-up transition under wake-up faults: the largest
/// achievable convex region plus the cost of getting there.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DegradedSprint {
    /// The level originally requested.
    pub requested_level: usize,
    /// The region actually achieved (always a convex sprint-order prefix;
    /// its level is at most `requested_level`).
    pub set: SprintSet,
    /// Requested nodes that were given up on, in sprint order: the first
    /// unwakeable node and everything behind it (the region must stay a
    /// prefix to remain convex).
    pub abandoned: Vec<NodeId>,
    /// Total wake attempts made across all nodes.
    pub attempts: u64,
    /// Wake-up transition cost in cycles: the worst per-node backoff wait
    /// (nodes wake in parallel).
    pub wake_cycles: u64,
}

impl DegradedSprint {
    /// The achieved sprint level.
    pub fn achieved_level(&self) -> usize {
        self.set.level()
    }

    /// Whether the full requested level was reached.
    pub fn is_full(&self) -> bool {
        self.achieved_level() == self.requested_level
    }
}

impl SprintController {
    /// Sprint-up with retry-with-backoff under wake-up faults: walks the
    /// sprint order up to `level`, retrying each node per `backoff`; on the
    /// first unwakeable node it *degrades* to the largest achievable convex
    /// region (the sprint-order prefix before that node) instead of
    /// panicking or powering a broken region.
    ///
    /// ```
    /// use noc_sim::geometry::NodeId;
    /// use noc_sprinting::controller::{
    ///     BackoffPolicy, SprintController, WakeupFault, WakeupFaults,
    /// };
    ///
    /// let c = SprintController::paper();
    /// // Node 4 (sprint position 2) never wakes: a requested level of 8
    /// // degrades to the level-2 prefix {0, 1}.
    /// let faults = WakeupFaults::none().with(NodeId(4), WakeupFault::Permanent);
    /// let d = c.sprint_set_degraded(8, &faults, BackoffPolicy::default()).unwrap();
    /// assert_eq!(d.achieved_level(), 2);
    /// assert!(!d.is_full());
    /// ```
    ///
    /// # Errors
    ///
    /// [`WakeupError::MasterFailed`] when the master itself cannot wake.
    ///
    /// # Panics
    ///
    /// Panics if `level` is zero or exceeds the mesh size.
    pub fn sprint_set_degraded(
        &self,
        level: usize,
        faults: &WakeupFaults,
        backoff: BackoffPolicy,
    ) -> Result<DegradedSprint, WakeupError> {
        assert!(level >= 1, "sprint level must be at least 1");
        assert!(level <= self.topo.len(), "sprint level exceeds mesh size");
        let order = crate::sprint_topology::sprint_order(self.topo.as_dyn(), self.master);
        let mut attempts = 0u64;
        let mut wake_cycles = 0u64;
        let mut achieved = 0usize;
        let mut abandoned = Vec::new();
        for (pos, &node) in order[..level].iter().enumerate() {
            // Retry-with-backoff: attempt k failing costs delay(k) cycles
            // of waiting before attempt k + 1.
            let needed = match faults.get(node) {
                None => Some(1),
                Some(WakeupFault::Transient(n)) if n < backoff.max_attempts => Some(n + 1),
                Some(WakeupFault::Transient(_)) | Some(WakeupFault::Permanent) => None,
            };
            let tried = needed.unwrap_or(backoff.max_attempts);
            attempts += u64::from(tried);
            let waited: u64 = (0..tried.saturating_sub(1)).map(|k| backoff.delay(k)).sum();
            wake_cycles = wake_cycles.max(waited);
            if needed.is_none() {
                if pos == 0 {
                    return Err(WakeupError::MasterFailed);
                }
                // The region must stay a sprint-order prefix to remain
                // convex: give up on this node and everything behind it.
                abandoned.extend_from_slice(&order[pos..level]);
                break;
            }
            achieved = pos + 1;
        }
        Ok(DegradedSprint {
            requested_level: level,
            set: SprintSet::on(self.topo.clone(), self.master, achieved),
            abandoned,
            attempts,
            wake_cycles,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_workload::profile::{by_name, parsec_suite};

    fn ctl() -> SprintController {
        SprintController::paper()
    }

    #[test]
    fn policy_levels_are_ordered() {
        let dedup = by_name("dedup").unwrap();
        let c = ctl();
        assert_eq!(c.sprint_level(SprintPolicy::NonSprinting, &dedup), 1);
        assert_eq!(c.sprint_level(SprintPolicy::FullSprinting, &dedup), 16);
        let fg = c.sprint_level(SprintPolicy::NocSprinting, &dedup);
        assert_eq!(fg, 4, "dedup's optimal level is 4 (paper §4.4)");
        assert_eq!(
            c.sprint_level(SprintPolicy::NaiveFineGrained, &dedup),
            fg,
            "naive fine-grained picks the same level, differs only in gating"
        );
    }

    #[test]
    fn fig7_means_reproduced_through_controller() {
        let c = ctl();
        let suite = parsec_suite();
        let mean = |p: SprintPolicy| {
            suite.iter().map(|b| c.speedup(p, b)).sum::<f64>() / suite.len() as f64
        };
        let ns = mean(SprintPolicy::NocSprinting);
        let full = mean(SprintPolicy::FullSprinting);
        let non = mean(SprintPolicy::NonSprinting);
        assert!((non - 1.0).abs() < 1e-12);
        assert!((3.0..4.2).contains(&ns), "NoC-sprinting mean {ns}");
        assert!((1.5..2.4).contains(&full), "full-sprinting mean {full}");
    }

    #[test]
    fn noc_sprinting_never_slower_than_full_or_non() {
        let c = ctl();
        for b in parsec_suite() {
            let t_ns = c.execution_time(SprintPolicy::NocSprinting, &b);
            let t_full = c.execution_time(SprintPolicy::FullSprinting, &b);
            let t_non = c.execution_time(SprintPolicy::NonSprinting, &b);
            // Within the optimal-pick tolerance.
            assert!(t_ns <= t_full * (1.0 + 0.031), "{}", b.name);
            assert!(t_ns <= t_non * (1.0 + 0.031), "{}", b.name);
        }
    }

    #[test]
    fn gating_attribute_per_policy() {
        assert!(SprintPolicy::NocSprinting.gates_inactive_resources());
        assert!(SprintPolicy::NonSprinting.gates_inactive_resources());
        assert!(!SprintPolicy::NaiveFineGrained.gates_inactive_resources());
        assert!(!SprintPolicy::FullSprinting.gates_inactive_resources());
    }

    #[test]
    fn sprint_set_respects_level() {
        let c = ctl();
        let vips = by_name("vips").unwrap();
        let set = c.sprint_set(SprintPolicy::NocSprinting, &vips);
        assert_eq!(set.level() as u32, c.sprint_level(SprintPolicy::NocSprinting, &vips));
        assert_eq!(set.master(), NodeId(0));
    }

    #[test]
    fn policy_names_are_distinct() {
        let names: std::collections::HashSet<&str> =
            SprintPolicy::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(names.len(), 4);
    }

    #[test]
    #[should_panic(expected = "outside mesh")]
    fn master_out_of_range_rejected() {
        let _ = SprintController::new(Mesh2D::paper_4x4(), NodeId(16));
    }

    #[test]
    fn degraded_sprint_without_faults_is_full() {
        let c = ctl();
        let d = c
            .sprint_set_degraded(8, &WakeupFaults::none(), BackoffPolicy::default())
            .unwrap();
        assert!(d.is_full());
        assert_eq!(d.achieved_level(), 8);
        assert_eq!(d.set, SprintSet::paper(8));
        assert!(d.abandoned.is_empty());
        assert_eq!(d.attempts, 8, "one attempt per node");
        assert_eq!(d.wake_cycles, 0, "no retries, no backoff waits");
    }

    #[test]
    fn transient_faults_are_retried_through() {
        let c = ctl();
        let order = crate::sprint_topology::sprint_order(c.topo().as_dyn(), c.master());
        // Second node in sprint order fails twice, then wakes.
        let faults = WakeupFaults::none().with(order[1], WakeupFault::Transient(2));
        let backoff = BackoffPolicy {
            base_cycles: 8,
            max_attempts: 4,
        };
        let d = c.sprint_set_degraded(4, &faults, backoff).unwrap();
        assert!(d.is_full(), "transient fault must not degrade the region");
        assert_eq!(d.attempts, 3 + 3, "3 attempts there, 1 each elsewhere");
        // Two failed attempts: waits of 8 then 16 cycles.
        assert_eq!(d.wake_cycles, 8 + 16);
    }

    #[test]
    fn permanent_fault_degrades_to_prefix_region() {
        let c = ctl();
        let order = crate::sprint_topology::sprint_order(c.topo().as_dyn(), c.master());
        let faults = WakeupFaults::none().with(order[2], WakeupFault::Permanent);
        let d = c
            .sprint_set_degraded(8, &faults, BackoffPolicy::default())
            .unwrap();
        assert_eq!(d.achieved_level(), 2, "capped before the dead node");
        assert_eq!(d.abandoned, order[2..8].to_vec());
        // The degraded region is still a valid convex sprint set.
        assert!(c.topo().region_valid(d.set.mask()));
        // Permanent failure burned the full retry budget on that node.
        assert_eq!(d.attempts, 2 + 4);
    }

    #[test]
    fn transient_fault_beyond_retry_budget_degrades() {
        let c = ctl();
        let order = crate::sprint_topology::sprint_order(c.topo().as_dyn(), c.master());
        let faults = WakeupFaults::none().with(order[1], WakeupFault::Transient(10));
        let backoff = BackoffPolicy {
            base_cycles: 4,
            max_attempts: 3,
        };
        let d = c.sprint_set_degraded(4, &faults, backoff).unwrap();
        assert_eq!(d.achieved_level(), 1, "10 failures > 3-attempt budget");
        assert_eq!(d.abandoned, order[1..4].to_vec());
    }

    #[test]
    fn master_failure_is_an_error() {
        let c = ctl();
        let faults = WakeupFaults::none().with(c.master(), WakeupFault::Permanent);
        assert_eq!(
            c.sprint_set_degraded(4, &faults, BackoffPolicy::default()),
            Err(WakeupError::MasterFailed)
        );
    }

    #[test]
    fn backoff_delays_double_and_saturate() {
        let b = BackoffPolicy {
            base_cycles: 8,
            max_attempts: 4,
        };
        assert_eq!(b.delay(0), 8);
        assert_eq!(b.delay(1), 16);
        assert_eq!(b.delay(2), 32);
        assert_eq!(b.delay(63), u64::MAX, "shift overflow saturates");
        assert_eq!(b.delay(100), u64::MAX);
    }
}
