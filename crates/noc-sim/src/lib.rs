//! # noc-sim — a cycle-level network-on-chip simulator
//!
//! A Garnet/booksim-class wormhole NoC simulator, built as the interconnect
//! substrate for the [NoC-Sprinting (DAC 2014)] reproduction. It models:
//!
//! - pluggable topologies ([`topology::Topology`]): 2D meshes of any size
//!   ([`topology::Mesh2D`]) and ring-circulants, each supplying its own
//!   routing and sprint-region rule,
//! - classic five-stage virtual-channel routers (BW/RC → VA → SA → ST → LT)
//!   with credit-based flow control ([`router`], [`network`]),
//! - pluggable routing functions ([`routing::RoutingFunction`]): X-Y DOR,
//!   the paper's CDOR ([`cdor`], Algorithm 2) and chord-first circulant
//!   routing, with one channel-dependency-graph deadlock check
//!   ([`routing::is_deadlock_free`]) for all of them,
//! - sprint regions grown from a master node ([`sprint_topology`],
//!   Algorithm 1) and their mesh convexity rule ([`convex`]),
//! - router power gating with *checked* isolation: a flit reaching a dark
//!   router is a simulation error, which is how the sprinting tests prove
//!   their routing never touches gated resources,
//! - booksim-style synthetic traffic ([`traffic`]) and open-loop
//!   warmup/measure/drain methodology ([`sim`]),
//! - DSENT-style activity counters per router ([`router::RouterActivity`])
//!   consumed by the `noc-power` crate.
//!
//! [NoC-Sprinting (DAC 2014)]: https://doi.org/10.1145/2593069.2593165
//!
//! ## Quickstart
//!
//! ```
//! use noc_sim::network::Network;
//! use noc_sim::router::RouterParams;
//! use noc_sim::routing::XyRouting;
//! use noc_sim::sim::{SimConfig, Simulation};
//! use noc_sim::topology::Mesh2D;
//! use noc_sim::traffic::{Placement, TrafficGen, TrafficPattern};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mesh = Mesh2D::paper_4x4();
//! let net = Network::new(mesh, RouterParams::paper(), Box::new(XyRouting))?;
//! let traffic = TrafficGen::new(
//!     TrafficPattern::UniformRandom,
//!     Placement::full(&mesh),
//!     0.1, // flits/cycle/node
//!     5,   // flits per packet (Table 1)
//!     42,  // seed
//! )?;
//! let outcome = Simulation::new(net, traffic, SimConfig::quick()).run()?;
//! assert!(outcome.stats.avg_packet_latency() > 0.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cdor;
pub mod closed_loop;
pub mod convex;
pub mod error;
pub mod fault;
pub mod geometry;
pub mod network;
pub mod packet;
pub mod probe;
pub mod router;
pub mod routing;
pub mod sim;
pub mod soa;
pub mod sprint_topology;
pub mod stats;
pub mod sweep;
pub mod topology;
pub mod trace;
pub mod traffic;
pub mod vc;

pub use closed_loop::{ClosedLoopSim, ClosedLoopStats, Delivered, ProtocolAgent};
pub use error::{SimError, TopologyError};
pub use fault::{
    FaultEvent, FaultLog, FaultPlan, FaultState, FaultStats, RandomFaultConfig, ScheduledFault,
};
pub use geometry::{Coord, Direction, NodeId, Port};
pub use network::{GatingMode, Network, StageCycles};
pub use probe::{
    EpochSample, EventCounts, LatencyObserver, Probe, SimPhase, TimeSeriesObserver,
};
pub use router::{RouterActivity, RouterParams};
pub use routing::{
    NegativeFirstRouting, RouteDecision, RoutingFunction, XyRouting, YxRouting,
};
pub use sim::{PacketAccounting, SimConfig, SimOutcome, Simulation};
pub use stats::{SimStats, StreamingHistogram};
pub use sweep::{LoadSweep, SweepPoint, SweepReport};
pub use topology::Mesh2D;
pub use trace::{PacketTrace, TraceEntry, TraceReplayer};
pub use traffic::{BurstSchedule, Placement, TrafficGen, TrafficPattern};
