//! `noc-serve`: a long-lived sweep-evaluation service with a persistent
//! result cache.
//!
//! The figure binaries rebuild the world on every invocation; this module
//! is the layer that keeps it warm. A [`SweepService`] owns one
//! [`Experiment`] configuration, one deterministic parallel
//! [`ExperimentRunner`] and one [`DiskResultCache`], and turns JSONL
//! *operating-point requests* into streamed JSONL *result events*:
//!
//! ```text
//! submit ──▶ accepted ──▶ progress*  (completion order)
//!                    └──▶ point / point_failed*  (strict index order)
//!                    └──▶ done  (batch summary)
//! ```
//!
//! The full wire contract — field tables, lifecycle, cache-key definition
//! and invalidation rules — lives in `SERVICE.md` at the repository root;
//! [`schema_reference`] generates the schema tables embedded there, and a
//! test in this module fails if the document drifts from the code.
//!
//! Three properties the contract pins:
//!
//! - **Determinism**: a batch's `point` events carry exactly the metrics a
//!   fresh serial run of the same [`SyntheticJob`]s would produce, at any
//!   worker count, whether served from cache or simulated.
//! - **Ordering**: within one request, `point`/`point_failed` events are
//!   streamed in strict job-index order (out-of-order completions are
//!   buffered); `progress` events report completions as they happen.
//! - **Persistence**: results survive daemon restarts via append-only JSONL
//!   cache segments keyed by `config hash ⊕ seed ⊕ version stamp`, with
//!   crash-safe (write-tmp-then-rename) compaction. A cache hit is
//!   bit-identical to a fresh run — `f64`s are stored by bit pattern.
//!
//! Everything is `std`-only (threads + channels); the wire format reuses
//! [`crate::telemetry`]'s [`JsonValue`] and [`ManifestPoint`].

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use noc_sim::topology::TopologySpec;
use noc_sim::traffic::TrafficPattern;

use crate::experiment::{Experiment, NetworkMetrics};
use crate::metrics::{ServiceMetrics, StatsSnapshot, ENGINE_NAME};
use crate::runner::{lock_recover, ExperimentRunner, ResultCache, SyntheticBaseline, SyntheticJob};
use crate::telemetry::{JsonValue, ManifestPoint, RunManifest};

// ---------------------------------------------------------------------------
// Version stamp
// ---------------------------------------------------------------------------

/// On-disk cache format revision; bumped whenever [`CacheRecord`]'s layout
/// or the metrics codec changes, invalidating older segments.
pub const CACHE_FORMAT_VERSION: u32 = 2;

/// Longest request line [`SweepService::serve_lines`] accepts (8 MiB, about
/// 50k jobs in one `submit`). Bounds what one client can make the daemon
/// buffer.
pub const MAX_REQUEST_LINE_BYTES: usize = 8 << 20;

/// The code-version stamp written into every [`CacheRecord`]:
/// `<crate version>+cache-v<format>+<experiment tag>`. Entries whose stamp
/// differs from the running daemon's are ignored on load and dropped by
/// compaction — the cache-invalidation rule documented in SERVICE.md.
///
/// `experiment_tag` names the daemon's experiment configuration (e.g.
/// `"paper"` or `"quick"`); one cache directory must only ever serve one
/// configuration, and the tag makes a mix-up inert instead of wrong.
pub fn code_version(experiment_tag: &str) -> String {
    format!(
        "{}+cache-v{CACHE_FORMAT_VERSION}+{experiment_tag}",
        env!("CARGO_PKG_VERSION")
    )
}

// ---------------------------------------------------------------------------
// Metrics codecs
// ---------------------------------------------------------------------------

/// The named scalar metrics every `point` event and manifest point carries,
/// in wire order. `saturated` is encoded as `0.0`/`1.0`.
pub const METRIC_FIELDS: [&str; 5] = [
    "avg_packet_latency",
    "avg_network_latency",
    "network_power",
    "accepted_throughput",
    "saturated",
];

/// Flattens [`NetworkMetrics`] into the named `(metric, value)` pairs used
/// by manifests and `point` stream events (see [`METRIC_FIELDS`]).
pub fn metric_pairs(m: &NetworkMetrics) -> Vec<(String, f64)> {
    vec![
        ("avg_packet_latency".to_string(), m.avg_packet_latency),
        ("avg_network_latency".to_string(), m.avg_network_latency),
        ("network_power".to_string(), m.network_power),
        (
            "accepted_throughput".to_string(),
            m.accepted_throughput,
        ),
        ("saturated".to_string(), f64::from(u8::from(m.saturated))),
    ]
}

/// Rebuilds [`NetworkMetrics`] from the pairs produced by
/// [`metric_pairs`]. Exact for finite values: JSON numbers are written in
/// shortest round-trippable form.
///
/// # Errors
///
/// Names the first missing metric.
pub fn metrics_from_pairs(pairs: &[(String, f64)]) -> Result<NetworkMetrics, String> {
    let get = |k: &str| {
        pairs
            .iter()
            .find(|(n, _)| n == k)
            .map(|&(_, v)| v)
            .ok_or_else(|| format!("missing metric {k:?}"))
    };
    Ok(NetworkMetrics {
        avg_packet_latency: get("avg_packet_latency")?,
        avg_network_latency: get("avg_network_latency")?,
        network_power: get("network_power")?,
        accepted_throughput: get("accepted_throughput")?,
        saturated: get("saturated")? != 0.0,
    })
}

/// Bit-exact JSON encoding of [`NetworkMetrics`] for cache records: every
/// `f64` is stored as the hex string of its bit pattern, so NaN, ±∞ and
/// every last mantissa bit survive the round trip — a cache hit returns
/// *exactly* what the simulation produced.
fn metrics_to_cache_json(m: &NetworkMetrics) -> JsonValue {
    JsonValue::Obj(vec![
        (
            "avg_packet_latency".to_string(),
            JsonValue::hex(m.avg_packet_latency.to_bits()),
        ),
        (
            "avg_network_latency".to_string(),
            JsonValue::hex(m.avg_network_latency.to_bits()),
        ),
        (
            "network_power".to_string(),
            JsonValue::hex(m.network_power.to_bits()),
        ),
        (
            "accepted_throughput".to_string(),
            JsonValue::hex(m.accepted_throughput.to_bits()),
        ),
        ("saturated".to_string(), JsonValue::Bool(m.saturated)),
    ])
}

fn metrics_from_cache_json(v: &JsonValue) -> Result<NetworkMetrics, String> {
    let bits = |k: &str| {
        v.get(k)
            .and_then(JsonValue::as_u64)
            .map(f64::from_bits)
            .ok_or_else(|| format!("cache value missing {k:?}"))
    };
    Ok(NetworkMetrics {
        avg_packet_latency: bits("avg_packet_latency")?,
        avg_network_latency: bits("avg_network_latency")?,
        network_power: bits("network_power")?,
        accepted_throughput: bits("accepted_throughput")?,
        saturated: v
            .get("saturated")
            .and_then(JsonValue::as_bool)
            .ok_or("cache value missing \"saturated\"")?,
    })
}

// ---------------------------------------------------------------------------
// Job codec
// ---------------------------------------------------------------------------

/// Wire name of a [`TrafficPattern`] (the `pattern` field of a job).
pub fn pattern_name(p: TrafficPattern) -> &'static str {
    match p {
        TrafficPattern::UniformRandom => "uniform",
        TrafficPattern::Transpose => "transpose",
        TrafficPattern::BitComplement => "bitcomp",
        TrafficPattern::Tornado => "tornado",
        TrafficPattern::Shuffle => "shuffle",
        TrafficPattern::NearestNeighbor => "neighbor",
        TrafficPattern::Hotspot { .. } => "hotspot",
    }
}

/// Decodes a [`TrafficPattern`] from its wire name; `hotspot` additionally
/// requires `hot_fraction` in `[0, 1]`.
///
/// # Errors
///
/// Unknown name, or a missing/out-of-range `hot_fraction`.
pub fn pattern_from_name(
    name: &str,
    hot_fraction: Option<f64>,
) -> Result<TrafficPattern, String> {
    match name {
        "uniform" => Ok(TrafficPattern::UniformRandom),
        "transpose" => Ok(TrafficPattern::Transpose),
        "bitcomp" => Ok(TrafficPattern::BitComplement),
        "tornado" => Ok(TrafficPattern::Tornado),
        "shuffle" => Ok(TrafficPattern::Shuffle),
        "neighbor" => Ok(TrafficPattern::NearestNeighbor),
        "hotspot" => {
            let hot_fraction =
                hot_fraction.ok_or("pattern \"hotspot\" requires hot_fraction")?;
            if !(0.0..=1.0).contains(&hot_fraction) {
                return Err(format!("hot_fraction {hot_fraction} outside [0, 1]"));
            }
            Ok(TrafficPattern::Hotspot { hot_fraction })
        }
        other => Err(format!("unknown pattern {other:?}")),
    }
}

/// Wire name of a [`SyntheticBaseline`] (the `baseline` field of a job).
pub fn baseline_name(b: SyntheticBaseline) -> &'static str {
    match b {
        SyntheticBaseline::NocSprinting => "noc_sprinting",
        SyntheticBaseline::RandomEndpoints => "random_endpoints",
        SyntheticBaseline::SpreadAggregate => "spread_aggregate",
    }
}

/// Decodes a [`SyntheticBaseline`] from its wire name.
///
/// # Errors
///
/// Unknown name.
pub fn baseline_from_name(name: &str) -> Result<SyntheticBaseline, String> {
    match name {
        "noc_sprinting" => Ok(SyntheticBaseline::NocSprinting),
        "random_endpoints" => Ok(SyntheticBaseline::RandomEndpoints),
        "spread_aggregate" => Ok(SyntheticBaseline::SpreadAggregate),
        other => Err(format!("unknown baseline {other:?}")),
    }
}

/// Encodes a [`SyntheticJob`] as the wire job object.
pub fn job_to_json(job: &SyntheticJob) -> JsonValue {
    let mut pairs = vec![
        (
            "topology".to_string(),
            JsonValue::Str(job.topology.wire_name()),
        ),
        ("level".to_string(), JsonValue::Num(job.level as f64)),
        (
            "pattern".to_string(),
            JsonValue::Str(pattern_name(job.pattern).to_string()),
        ),
    ];
    if let TrafficPattern::Hotspot { hot_fraction } = job.pattern {
        pairs.push(("hot_fraction".to_string(), JsonValue::Num(hot_fraction)));
    }
    pairs.push(("rate".to_string(), JsonValue::Num(job.rate)));
    pairs.push(("seed".to_string(), JsonValue::hex(job.seed)));
    pairs.push((
        "baseline".to_string(),
        JsonValue::Str(baseline_name(job.baseline).to_string()),
    ));
    JsonValue::Obj(pairs)
}

/// Decodes and validates a wire job object back into a [`SyntheticJob`].
///
/// # Errors
///
/// Missing/malformed fields, `level == 0`, `rate` outside `(0, 1]`, or an
/// unparseable `topology` name. An absent `topology` means the default
/// mesh4x4 — pre-topology clients stay compatible.
pub fn job_from_json(v: &JsonValue) -> Result<SyntheticJob, String> {
    let topology = match v.get("topology") {
        None => TopologySpec::default(),
        Some(t) => {
            let name = t.as_str().ok_or("job topology must be a string")?;
            TopologySpec::from_wire_name(name).map_err(|e| e.to_string())?
        }
    };
    let level = v
        .get("level")
        .and_then(JsonValue::as_u64)
        .ok_or("job missing level")? as usize;
    if level == 0 {
        return Err("job level must be at least 1".into());
    }
    let rate = v
        .get("rate")
        .and_then(JsonValue::as_f64)
        .ok_or("job missing rate")?;
    if !(rate > 0.0 && rate <= 1.0) {
        return Err(format!("job rate {rate} outside (0, 1]"));
    }
    let pattern = pattern_from_name(
        v.get("pattern")
            .and_then(JsonValue::as_str)
            .ok_or("job missing pattern")?,
        v.get("hot_fraction").and_then(JsonValue::as_f64),
    )?;
    Ok(SyntheticJob {
        topology,
        level,
        pattern,
        rate,
        seed: v
            .get("seed")
            .and_then(JsonValue::as_u64)
            .ok_or("job missing seed")?,
        baseline: baseline_from_name(
            v.get("baseline")
                .and_then(JsonValue::as_str)
                .ok_or("job missing baseline")?,
        )?,
    })
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// One batch of operating points submitted to the service.
#[derive(Debug, Clone, PartialEq)]
pub struct SubmitRequest {
    /// Client-chosen request identifier, echoed on every response event.
    pub id: String,
    /// Human-readable batch label (e.g. the figure name); defaults to
    /// `"service"` when absent on the wire.
    pub label: String,
    /// Admission priority against the daemon's queue limit (wire default 0):
    /// positive batches bypass the limit, zero batches get the full limit,
    /// negative batches only half of it. Irrelevant without a limit.
    pub priority: i64,
    /// The operating points to evaluate, in result order.
    pub jobs: Vec<SyntheticJob>,
}

/// A parsed client request (one JSON object per line).
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceRequest {
    /// Evaluate a batch of operating points.
    Submit(SubmitRequest),
    /// Cancel an in-flight batch by request id. Unknown ids *arm* the
    /// cancellation, so a cancel racing ahead of its submit still lands.
    Cancel {
        /// The target request id.
        id: String,
    },
    /// Liveness probe; answered with `pong`.
    Ping,
    /// Snapshot the engine's live metrics; answered with `stats`.
    Stats,
    /// Ask the daemon to exit cleanly.
    Shutdown,
}

impl ServiceRequest {
    /// Encodes the request as a single JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        match self {
            ServiceRequest::Submit(req) => JsonValue::Obj(vec![
                ("type".to_string(), JsonValue::Str("submit".to_string())),
                ("id".to_string(), JsonValue::Str(req.id.clone())),
                ("label".to_string(), JsonValue::Str(req.label.clone())),
                ("priority".to_string(), JsonValue::Num(req.priority as f64)),
                (
                    "jobs".to_string(),
                    JsonValue::Arr(req.jobs.iter().map(job_to_json).collect()),
                ),
            ])
            .to_json(),
            ServiceRequest::Cancel { id } => JsonValue::Obj(vec![
                ("type".to_string(), JsonValue::Str("cancel".to_string())),
                ("id".to_string(), JsonValue::Str(id.clone())),
            ])
            .to_json(),
            ServiceRequest::Ping => {
                JsonValue::Obj(vec![("type".to_string(), JsonValue::Str("ping".to_string()))])
                    .to_json()
            }
            ServiceRequest::Stats => JsonValue::Obj(vec![(
                "type".to_string(),
                JsonValue::Str("stats".to_string()),
            )])
            .to_json(),
            ServiceRequest::Shutdown => JsonValue::Obj(vec![(
                "type".to_string(),
                JsonValue::Str("shutdown".to_string()),
            )])
            .to_json(),
        }
    }

    /// Parses one request line.
    ///
    /// # Errors
    ///
    /// A description of the syntax error or invalid field.
    pub fn from_json_line(line: &str) -> Result<ServiceRequest, String> {
        let v = JsonValue::parse(line)?;
        match v.get("type").and_then(JsonValue::as_str) {
            Some("submit") => {
                let id = v
                    .get("id")
                    .and_then(JsonValue::as_str)
                    .ok_or("submit missing id")?
                    .to_string();
                let label = v
                    .get("label")
                    .and_then(JsonValue::as_str)
                    .unwrap_or("service")
                    .to_string();
                let priority = match v.get("priority") {
                    None => 0,
                    Some(p) => p
                        .as_f64()
                        .filter(|p| p.fract() == 0.0)
                        .map(|p| p as i64)
                        .ok_or("submit priority must be an integer")?,
                };
                let jobs = v
                    .get("jobs")
                    .and_then(JsonValue::as_array)
                    .ok_or("submit missing jobs array")?
                    .iter()
                    .map(job_from_json)
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(ServiceRequest::Submit(SubmitRequest {
                    id,
                    label,
                    priority,
                    jobs,
                }))
            }
            Some("cancel") => Ok(ServiceRequest::Cancel {
                id: v
                    .get("id")
                    .and_then(JsonValue::as_str)
                    .ok_or("cancel missing id")?
                    .to_string(),
            }),
            Some("ping") => Ok(ServiceRequest::Ping),
            Some("stats") => Ok(ServiceRequest::Stats),
            Some("shutdown") => Ok(ServiceRequest::Shutdown),
            other => Err(format!("unknown request type {other:?}")),
        }
    }
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

/// End-of-batch accounting carried by the `done` event.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchSummary {
    /// Jobs in the batch.
    pub points: usize,
    /// Points that produced metrics.
    pub ok: usize,
    /// Points that failed (one `point_failed` event each).
    pub failed: usize,
    /// Points skipped because the batch was cancelled (surfaced as
    /// `point_failed` events with error `"cancelled"`).
    pub cancelled: usize,
    /// Points served from the result cache.
    pub cache_hits: u64,
    /// Points that were freshly simulated.
    pub cache_misses: u64,
    /// Order-sensitive combined hash over every job's cache key
    /// ([`RunManifest::combine_hashes`]).
    pub config_hash: u64,
    /// Batch wall time, milliseconds.
    pub wall_ms: f64,
}

/// One streamed response event (one JSON object per line).
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceResponse {
    /// The request was parsed and queued; `points` results will follow.
    Accepted {
        /// Echo of the request id.
        id: String,
        /// Number of jobs accepted.
        points: usize,
    },
    /// A point finished somewhere in the batch (completion order, may be
    /// ahead of the strictly-ordered `point` stream).
    Progress {
        /// Echo of the request id.
        id: String,
        /// Points completed so far.
        completed: usize,
        /// Points in the batch.
        total: usize,
        /// Estimated milliseconds to batch completion, when the runner has
        /// seen at least one uncached point. Derived from the mean
        /// **uncached** point time and this batch's observed hit rate, so
        /// a mostly-cached batch doesn't extrapolate near-zero hit times
        /// (or drown them in a pessimistic all-points mean).
        eta_ms: Option<f64>,
    },
    /// One evaluated operating point, streamed in strict job-index order.
    Point {
        /// Echo of the request id.
        id: String,
        /// The point's identity, execution detail and metrics.
        point: ManifestPoint,
    },
    /// One failed operating point (same ordering guarantee as `point`).
    PointFailed {
        /// Echo of the request id.
        id: String,
        /// Failing job's index.
        index: usize,
        /// Failing job's cache key.
        config_hash: u64,
        /// Failing job's RNG seed.
        seed: u64,
        /// The simulator error's display form.
        error: String,
    },
    /// The batch finished; always the last event of a request.
    Done {
        /// Echo of the request id.
        id: String,
        /// End-of-batch accounting.
        summary: BatchSummary,
    },
    /// The batch was rejected by backpressure: admitting it would push the
    /// daemon's pending-point count past the request's effective queue
    /// limit. No `accepted`/`done` follows — resubmit later (or with a
    /// higher priority).
    Busy {
        /// Echo of the request id.
        id: String,
        /// Points already pending when the batch was rejected.
        pending: usize,
        /// The effective limit the batch was admitted against.
        limit: usize,
    },
    /// Answer to `cancel`.
    Cancelled {
        /// Echo of the cancel target id.
        id: String,
        /// Whether a batch with that id was in flight (`false` means the
        /// cancellation was merely armed for a future submit).
        active: bool,
    },
    /// Answer to `ping`.
    Pong {
        /// Milliseconds the engine has been up.
        uptime_ms: f64,
        /// The engine's code version (cache stamp + experiment tag), so
        /// clients can detect version skew between daemons.
        code_version: String,
        /// Engine name; always [`ENGINE_NAME`].
        engine: String,
    },
    /// Answer to `stats`: a versioned live-metrics snapshot.
    Stats {
        /// The snapshot (see `SERVICE.md` § Observability).
        snapshot: StatsSnapshot,
    },
    /// The request could not be parsed or served.
    Error {
        /// Echo of the request id, when one could be recovered.
        id: Option<String>,
        /// What went wrong.
        message: String,
    },
}

impl ServiceResponse {
    /// Encodes the event as a single JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        match self {
            ServiceResponse::Accepted { id, points } => JsonValue::Obj(vec![
                ("type".to_string(), JsonValue::Str("accepted".to_string())),
                ("id".to_string(), JsonValue::Str(id.clone())),
                ("points".to_string(), JsonValue::Num(*points as f64)),
            ])
            .to_json(),
            ServiceResponse::Progress {
                id,
                completed,
                total,
                eta_ms,
            } => {
                let mut pairs = vec![
                    ("type".to_string(), JsonValue::Str("progress".to_string())),
                    ("id".to_string(), JsonValue::Str(id.clone())),
                    ("completed".to_string(), JsonValue::Num(*completed as f64)),
                    ("total".to_string(), JsonValue::Num(*total as f64)),
                ];
                if let Some(eta) = eta_ms {
                    pairs.push(("eta_ms".to_string(), JsonValue::Num(*eta)));
                }
                JsonValue::Obj(pairs).to_json()
            }
            ServiceResponse::Point { id, point } => {
                // The manifest-point object with the request id spliced in
                // after "type", so point lines are grep-compatible with
                // manifest files.
                let JsonValue::Obj(mut pairs) = point.to_json() else {
                    unreachable!("ManifestPoint::to_json returns an object")
                };
                pairs.insert(1, ("id".to_string(), JsonValue::Str(id.clone())));
                JsonValue::Obj(pairs).to_json()
            }
            ServiceResponse::PointFailed {
                id,
                index,
                config_hash,
                seed,
                error,
            } => JsonValue::Obj(vec![
                (
                    "type".to_string(),
                    JsonValue::Str("point_failed".to_string()),
                ),
                ("id".to_string(), JsonValue::Str(id.clone())),
                ("index".to_string(), JsonValue::Num(*index as f64)),
                ("config_hash".to_string(), JsonValue::hex(*config_hash)),
                ("seed".to_string(), JsonValue::hex(*seed)),
                ("error".to_string(), JsonValue::Str(error.clone())),
            ])
            .to_json(),
            ServiceResponse::Done { id, summary } => JsonValue::Obj(vec![
                ("type".to_string(), JsonValue::Str("done".to_string())),
                ("id".to_string(), JsonValue::Str(id.clone())),
                ("points".to_string(), JsonValue::Num(summary.points as f64)),
                ("ok".to_string(), JsonValue::Num(summary.ok as f64)),
                ("failed".to_string(), JsonValue::Num(summary.failed as f64)),
                (
                    "cancelled".to_string(),
                    JsonValue::Num(summary.cancelled as f64),
                ),
                (
                    "cache_hits".to_string(),
                    JsonValue::Num(summary.cache_hits as f64),
                ),
                (
                    "cache_misses".to_string(),
                    JsonValue::Num(summary.cache_misses as f64),
                ),
                (
                    "config_hash".to_string(),
                    JsonValue::hex(summary.config_hash),
                ),
                ("wall_ms".to_string(), JsonValue::Num(summary.wall_ms)),
            ])
            .to_json(),
            ServiceResponse::Busy { id, pending, limit } => JsonValue::Obj(vec![
                ("type".to_string(), JsonValue::Str("busy".to_string())),
                ("id".to_string(), JsonValue::Str(id.clone())),
                ("pending".to_string(), JsonValue::Num(*pending as f64)),
                ("limit".to_string(), JsonValue::Num(*limit as f64)),
            ])
            .to_json(),
            ServiceResponse::Cancelled { id, active } => JsonValue::Obj(vec![
                ("type".to_string(), JsonValue::Str("cancelled".to_string())),
                ("id".to_string(), JsonValue::Str(id.clone())),
                ("active".to_string(), JsonValue::Bool(*active)),
            ])
            .to_json(),
            ServiceResponse::Pong {
                uptime_ms,
                code_version,
                engine,
            } => JsonValue::Obj(vec![
                ("type".to_string(), JsonValue::Str("pong".to_string())),
                ("uptime_ms".to_string(), JsonValue::Num(*uptime_ms)),
                (
                    "code_version".to_string(),
                    JsonValue::Str(code_version.clone()),
                ),
                ("engine".to_string(), JsonValue::Str(engine.clone())),
            ])
            .to_json(),
            ServiceResponse::Stats { snapshot } => JsonValue::Obj(vec![
                ("type".to_string(), JsonValue::Str("stats".to_string())),
                ("snapshot".to_string(), snapshot.to_json()),
            ])
            .to_json(),
            ServiceResponse::Error { id, message } => {
                let mut pairs = vec![(
                    "type".to_string(),
                    JsonValue::Str("error".to_string()),
                )];
                if let Some(id) = id {
                    pairs.push(("id".to_string(), JsonValue::Str(id.clone())));
                }
                pairs.push(("message".to_string(), JsonValue::Str(message.clone())));
                JsonValue::Obj(pairs).to_json()
            }
        }
    }

    /// Parses one response line.
    ///
    /// # Errors
    ///
    /// A description of the syntax error or missing field.
    pub fn from_json_line(line: &str) -> Result<ServiceResponse, String> {
        let v = JsonValue::parse(line)?;
        let id = || -> Result<String, String> {
            Ok(v.get("id")
                .and_then(JsonValue::as_str)
                .ok_or("event missing id")?
                .to_string())
        };
        let num = |k: &str| -> Result<usize, String> {
            v.get(k)
                .and_then(JsonValue::as_u64)
                .map(|n| n as usize)
                .ok_or_else(|| format!("event missing {k:?}"))
        };
        match v.get("type").and_then(JsonValue::as_str) {
            Some("accepted") => Ok(ServiceResponse::Accepted {
                id: id()?,
                points: num("points")?,
            }),
            Some("progress") => Ok(ServiceResponse::Progress {
                id: id()?,
                completed: num("completed")?,
                total: num("total")?,
                eta_ms: v.get("eta_ms").and_then(JsonValue::as_f64),
            }),
            Some("point") => Ok(ServiceResponse::Point {
                id: id()?,
                point: ManifestPoint::from_json(&v)?,
            }),
            Some("point_failed") => Ok(ServiceResponse::PointFailed {
                id: id()?,
                index: num("index")?,
                config_hash: v
                    .get("config_hash")
                    .and_then(JsonValue::as_u64)
                    .ok_or("point_failed missing config_hash")?,
                seed: v
                    .get("seed")
                    .and_then(JsonValue::as_u64)
                    .ok_or("point_failed missing seed")?,
                error: v
                    .get("error")
                    .and_then(JsonValue::as_str)
                    .ok_or("point_failed missing error")?
                    .to_string(),
            }),
            Some("done") => Ok(ServiceResponse::Done {
                id: id()?,
                summary: BatchSummary {
                    points: num("points")?,
                    ok: num("ok")?,
                    failed: num("failed")?,
                    cancelled: num("cancelled")?,
                    cache_hits: num("cache_hits")? as u64,
                    cache_misses: num("cache_misses")? as u64,
                    config_hash: v
                        .get("config_hash")
                        .and_then(JsonValue::as_u64)
                        .ok_or("done missing config_hash")?,
                    wall_ms: v
                        .get("wall_ms")
                        .and_then(JsonValue::as_f64)
                        .ok_or("done missing wall_ms")?,
                },
            }),
            Some("busy") => Ok(ServiceResponse::Busy {
                id: id()?,
                pending: num("pending")?,
                limit: num("limit")?,
            }),
            Some("cancelled") => Ok(ServiceResponse::Cancelled {
                id: id()?,
                active: v
                    .get("active")
                    .and_then(JsonValue::as_bool)
                    .ok_or("cancelled missing active")?,
            }),
            // Pre-observability daemons answered a bare {"type":"pong"};
            // parse leniently so daemons of mixed versions stay probeable.
            Some("pong") => Ok(ServiceResponse::Pong {
                uptime_ms: v.get("uptime_ms").and_then(JsonValue::as_f64).unwrap_or(0.0),
                code_version: v
                    .get("code_version")
                    .and_then(JsonValue::as_str)
                    .unwrap_or_default()
                    .to_string(),
                engine: v
                    .get("engine")
                    .and_then(JsonValue::as_str)
                    .unwrap_or_default()
                    .to_string(),
            }),
            Some("stats") => Ok(ServiceResponse::Stats {
                snapshot: StatsSnapshot::from_json(
                    v.get("snapshot").ok_or("stats missing snapshot")?,
                )?,
            }),
            Some("error") => Ok(ServiceResponse::Error {
                id: v.get("id").and_then(JsonValue::as_str).map(String::from),
                message: v
                    .get("message")
                    .and_then(JsonValue::as_str)
                    .ok_or("error missing message")?
                    .to_string(),
            }),
            other => Err(format!("unknown response type {other:?}")),
        }
    }
}

// ---------------------------------------------------------------------------
// Persistent cache
// ---------------------------------------------------------------------------

/// One persisted result: the line format of cache segment files.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheRecord {
    /// The job's cache key ([`SyntheticJob::cache_key`]).
    pub key: u64,
    /// The job's RNG seed (already folded into `key`; stored explicitly so
    /// segments are self-describing and auditable).
    pub seed: u64,
    /// The writing daemon's [`code_version`] stamp.
    pub version: String,
    /// The simulated metrics, `f64`s by bit pattern.
    pub value: NetworkMetrics,
}

impl CacheRecord {
    /// Encodes the record as a single JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        JsonValue::Obj(vec![
            ("type".to_string(), JsonValue::Str("cache".to_string())),
            ("key".to_string(), JsonValue::hex(self.key)),
            ("seed".to_string(), JsonValue::hex(self.seed)),
            ("version".to_string(), JsonValue::Str(self.version.clone())),
            ("value".to_string(), metrics_to_cache_json(&self.value)),
        ])
        .to_json()
    }

    /// Parses one segment line.
    ///
    /// # Errors
    ///
    /// A description of the syntax error or missing field.
    pub fn from_json_line(line: &str) -> Result<CacheRecord, String> {
        let v = JsonValue::parse(line)?;
        if v.get("type").and_then(JsonValue::as_str) != Some("cache") {
            return Err("not a cache record".into());
        }
        let version = v
            .get("version")
            .and_then(JsonValue::as_str)
            .ok_or("cache record missing version")?
            .to_string();
        if version.is_empty() {
            return Err("cache record has an empty version stamp".into());
        }
        Ok(CacheRecord {
            key: v
                .get("key")
                .and_then(JsonValue::as_u64)
                .ok_or("cache record missing key")?,
            seed: v
                .get("seed")
                .and_then(JsonValue::as_u64)
                .ok_or("cache record missing seed")?,
            version,
            value: metrics_from_cache_json(
                v.get("value").ok_or("cache record missing value")?,
            )?,
        })
    }
}

/// What [`DiskResultCache::open`] found on disk.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheLoadReport {
    /// Segment files read.
    pub segments: usize,
    /// Records loaded into memory (current version, last write wins).
    pub loaded: usize,
    /// Records ignored because their version stamp differs.
    pub stale: usize,
    /// Lines skipped because they did not parse (truncated/corrupt).
    pub corrupt: usize,
    /// One human-readable warning per skipped line or stale group.
    pub warnings: Vec<String>,
}

#[derive(Debug)]
struct DiskState {
    dir: PathBuf,
    /// Index the next new segment file will use.
    next_segment: usize,
    /// Open append handle for this process's segment, created lazily on
    /// first write so restarts without new work leave no empty files.
    open_segment: Option<io::BufWriter<fs::File>>,
    /// Keys already durably recorded (current version), with their seeds —
    /// the seed travels to compaction, which rewrites records wholesale.
    persisted: HashMap<u64, u64>,
}

/// A [`ResultCache`] extended with append-only JSONL persistence.
///
/// Segments are named `seg-NNNNNN.cache.jsonl`; each line is a
/// [`CacheRecord`]. Writers only ever *append* (crash mid-write costs at
/// most the torn final line, which the loader skips with a warning), and
/// [`DiskResultCache::compact`] rewrites the live set via
/// write-tmp-then-rename, so a crash at any instant leaves a loadable
/// directory. Duplicate keys across segments resolve last-write-wins —
/// benign, because equal keys always map to identical values.
#[derive(Debug)]
pub struct DiskResultCache {
    memory: ResultCache<NetworkMetrics>,
    version: String,
    disk: Option<Mutex<DiskState>>,
    /// Stale-version records seen at open (fixed for the cache's lifetime).
    load_stale: u64,
    /// Corrupt lines skipped at open (fixed for the cache's lifetime).
    load_corrupt: u64,
    /// Compactions performed by this process.
    compactions: AtomicU64,
    /// Bytes currently on disk across segment files (approximate during a
    /// crash window; exact after open, append and compact).
    segment_bytes: AtomicU64,
}

/// A point-in-time view of a [`DiskResultCache`]'s counters, for the
/// observability layer ([`crate::metrics`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Memoization hits since the process started.
    pub hits: u64,
    /// Memoization misses since the process started.
    pub misses: u64,
    /// Entries currently in memory.
    pub entries: usize,
    /// Keys durably recorded on disk (current version).
    pub persisted: usize,
    /// Stale-version records ignored at open.
    pub stale: u64,
    /// Corrupt lines skipped at open.
    pub corrupt: u64,
    /// Compactions performed by this process.
    pub compactions: u64,
    /// Bytes on disk across segment files.
    pub segment_bytes: u64,
}

fn segment_name(index: usize) -> String {
    format!("seg-{index:06}.cache.jsonl")
}

fn parse_segment_index(name: &str) -> Option<usize> {
    name.strip_prefix("seg-")?
        .strip_suffix(".cache.jsonl")?
        .parse()
        .ok()
}

impl DiskResultCache {
    /// A purely in-memory cache (no directory) with the given version
    /// stamp — the degenerate configuration used when the daemon runs
    /// without `--cache`.
    pub fn in_memory(version: impl Into<String>) -> Self {
        DiskResultCache {
            memory: ResultCache::new(),
            version: version.into(),
            disk: None,
            load_stale: 0,
            load_corrupt: 0,
            compactions: AtomicU64::new(0),
            segment_bytes: AtomicU64::new(0),
        }
    }

    /// Opens (creating if needed) a cache directory and loads every
    /// current-version record into memory. Corrupt lines and stale-version
    /// records are skipped, not fatal — see the returned
    /// [`CacheLoadReport`].
    ///
    /// # Errors
    ///
    /// I/O errors creating or reading the directory.
    pub fn open(dir: &Path, version: impl Into<String>) -> io::Result<(Self, CacheLoadReport)> {
        let version = version.into();
        fs::create_dir_all(dir)?;
        let mut report = CacheLoadReport::default();
        let mut names: Vec<String> = fs::read_dir(dir)?
            .filter_map(Result::ok)
            .filter_map(|e| e.file_name().into_string().ok())
            .filter(|n| parse_segment_index(n).is_some())
            .collect();
        names.sort();
        let memory = ResultCache::new();
        let mut persisted = HashMap::new();
        let mut next_segment = 0usize;
        let mut segment_bytes = 0u64;
        for name in &names {
            report.segments += 1;
            next_segment = next_segment
                .max(parse_segment_index(name).expect("filtered above") + 1);
            let text = fs::read_to_string(dir.join(name))?;
            segment_bytes += text.len() as u64;
            for (lineno, line) in text.lines().enumerate() {
                if line.trim().is_empty() {
                    continue;
                }
                match CacheRecord::from_json_line(line) {
                    Ok(rec) if rec.version == version => {
                        memory.insert(rec.key, rec.value);
                        persisted.insert(rec.key, rec.seed);
                        report.loaded += 1;
                    }
                    Ok(rec) => {
                        report.stale += 1;
                        report.warnings.push(format!(
                            "{name}:{}: version {:?} != {version:?}, entry ignored",
                            lineno + 1,
                            rec.version
                        ));
                    }
                    Err(e) => {
                        report.corrupt += 1;
                        report.warnings.push(format!(
                            "{name}:{}: corrupt cache line skipped ({e})",
                            lineno + 1
                        ));
                    }
                }
            }
        }
        Ok((
            DiskResultCache {
                memory,
                version,
                disk: Some(Mutex::new(DiskState {
                    dir: dir.to_path_buf(),
                    next_segment,
                    open_segment: None,
                    persisted,
                })),
                load_stale: report.stale as u64,
                load_corrupt: report.corrupt as u64,
                compactions: AtomicU64::new(0),
                segment_bytes: AtomicU64::new(segment_bytes),
            },
            report,
        ))
    }

    /// The cache's live counters, for metrics snapshots.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.memory.hits(),
            misses: self.memory.misses(),
            entries: self.memory.len(),
            persisted: self.persisted_len(),
            stale: self.load_stale,
            corrupt: self.load_corrupt,
            compactions: self.compactions.load(Ordering::Relaxed),
            segment_bytes: self.segment_bytes.load(Ordering::Relaxed),
        }
    }

    /// The in-memory memo table (hand this to the runner / service loop).
    pub fn memory(&self) -> &ResultCache<NetworkMetrics> {
        &self.memory
    }

    /// The version stamp written into new records.
    pub fn version(&self) -> &str {
        &self.version
    }

    /// The backing directory, if persistent.
    pub fn dir(&self) -> Option<PathBuf> {
        self.disk
            .as_ref()
            .map(|d| lock_recover(d).dir.clone())
    }

    /// Number of keys durably recorded on disk (current version).
    pub fn persisted_len(&self) -> usize {
        self.disk.as_ref().map_or(0, |d| {
            lock_recover(d).persisted.len()
        })
    }

    /// Appends every not-yet-persisted result among `jobs` to the open
    /// segment (flushed before returning). Jobs without a memory entry —
    /// failed points — are skipped. Returns the number of records written;
    /// a no-op (0) for in-memory caches.
    ///
    /// # Errors
    ///
    /// I/O errors opening or appending to the segment file.
    pub fn persist_jobs(&self, jobs: &[SyntheticJob]) -> io::Result<usize> {
        let Some(disk) = &self.disk else {
            return Ok(0);
        };
        let mut state = lock_recover(disk);
        let mut written = 0usize;
        for job in jobs {
            let key = job.cache_key();
            if state.persisted.contains_key(&key) {
                continue;
            }
            let Some(value) = self.memory.get(key) else {
                continue;
            };
            if state.open_segment.is_none() {
                let path = state.dir.join(segment_name(state.next_segment));
                state.next_segment += 1;
                let file = fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)?;
                state.open_segment = Some(io::BufWriter::new(file));
            }
            let record = CacheRecord {
                key,
                seed: job.seed,
                version: self.version.clone(),
                value,
            };
            let seg = state.open_segment.as_mut().expect("opened above");
            let line = record.to_json_line();
            seg.write_all(line.as_bytes())?;
            seg.write_all(b"\n")?;
            self.segment_bytes
                .fetch_add(line.len() as u64 + 1, Ordering::Relaxed);
            state.persisted.insert(key, job.seed);
            written += 1;
        }
        if written > 0 {
            state.open_segment.as_mut().expect("written > 0").flush()?;
        }
        Ok(written)
    }

    /// Rewrites the live record set (current version, deduplicated) into a
    /// single fresh segment and deletes the old ones. Crash-safe: the new
    /// segment is written to a `.tmp` file, synced, then renamed into
    /// place *before* any old segment is removed — at every instant the
    /// directory loads to the same live set. Returns the number of live
    /// records; a no-op (0) for in-memory caches.
    ///
    /// # Errors
    ///
    /// I/O errors writing, syncing, renaming or removing segment files.
    pub fn compact(&self) -> io::Result<usize> {
        let Some(disk) = &self.disk else {
            return Ok(0);
        };
        let mut state = lock_recover(disk);
        // Close (and flush) the open append segment first.
        if let Some(mut seg) = state.open_segment.take() {
            seg.flush()?;
        }
        let mut live: Vec<(u64, u64)> = state.persisted.iter().map(|(&k, &s)| (k, s)).collect();
        live.sort_unstable();
        let tmp_path = state.dir.join("compact.tmp");
        let mut compacted_bytes = 0u64;
        {
            let mut out = io::BufWriter::new(fs::File::create(&tmp_path)?);
            for &(key, seed) in &live {
                let value = self.memory.get(key).expect("persisted key in memory");
                let record = CacheRecord {
                    key,
                    seed,
                    version: self.version.clone(),
                    value,
                };
                let line = record.to_json_line();
                out.write_all(line.as_bytes())?;
                out.write_all(b"\n")?;
                compacted_bytes += line.len() as u64 + 1;
            }
            out.flush()?;
            out.get_ref().sync_all()?;
        }
        let target_index = state.next_segment;
        state.next_segment += 1;
        let target = state.dir.join(segment_name(target_index));
        fs::rename(&tmp_path, &target)?;
        // Only now drop the superseded segments.
        for entry in fs::read_dir(&state.dir)?.filter_map(Result::ok) {
            let Ok(name) = entry.file_name().into_string() else {
                continue;
            };
            match parse_segment_index(&name) {
                Some(i) if i != target_index => fs::remove_file(entry.path())?,
                _ => {}
            }
        }
        self.compactions.fetch_add(1, Ordering::Relaxed);
        self.segment_bytes.store(compacted_bytes, Ordering::Relaxed);
        Ok(live.len())
    }

    /// Poisons the disk-state mutex by panicking a thread while it holds
    /// the lock — a no-op for in-memory caches. Test-only hook for proving
    /// the service keeps serving after a worker panic; the daemon itself
    /// recovers the guard on every access, so a poisoned lock is harmless.
    #[doc(hidden)]
    pub fn poison_for_test(&self) {
        let Some(disk) = &self.disk else {
            return;
        };
        let result = std::thread::scope(|s| {
            s.spawn(|| {
                let _guard = disk.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
                panic!("deliberately poisoning the cache disk state");
            })
            .join()
        });
        assert!(result.is_err(), "poisoning thread must panic");
        assert!(disk.is_poisoned(), "mutex should now be poisoned");
    }
}

// ---------------------------------------------------------------------------
// The service
// ---------------------------------------------------------------------------

/// What the daemon loop should do after handling one request line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceControl {
    /// Keep serving.
    Continue,
    /// A `shutdown` request was received; exit cleanly.
    Shutdown,
}

/// Why a point produced no metrics.
#[derive(Debug, Clone, PartialEq, Eq)]
enum PointFailure {
    /// The simulator reported an error.
    Failed(String),
    /// The batch was cancelled before this point ran.
    Cancelled,
}

/// `(metrics-or-failure with cache-hit flag, worker wall ms)` for one
/// completed point, in flight between workers and the ordering collector.
type PointOutcome = (Result<(NetworkMetrics, bool), PointFailure>, f64);

/// Cancellation state for one request id.
#[derive(Debug, Default)]
struct CancelEntry {
    /// Checked by workers before each point; set by `cancel`.
    flag: Arc<AtomicBool>,
    /// Whether a batch with this id is currently running (as opposed to an
    /// armed pre-cancel waiting for its submit).
    active: bool,
}

/// The long-lived evaluation service: one [`Experiment`] configuration, a
/// deterministic parallel [`ExperimentRunner`] and a [`DiskResultCache`].
///
/// `SweepService` is transport-agnostic — front-ends (the `noc_serve`
/// binary's stdin and Unix-socket modes, or tests) feed it request lines
/// and an `emit` sink for response events. It is `Sync`: concurrent
/// requests from multiple connections share the cache and each stream
/// their own strictly-ordered results.
#[derive(Debug)]
pub struct SweepService {
    experiment: Experiment,
    runner: ExperimentRunner,
    cache: DiskResultCache,
    /// Backpressure bound: maximum pending (admitted, not yet completed)
    /// points across all in-flight batches. `None` = unbounded.
    queue_limit: Option<usize>,
    /// Points admitted and not yet completed, across all batches.
    pending: AtomicUsize,
    /// Per-request cancellation flags (including armed pre-cancels).
    cancels: Mutex<HashMap<String, CancelEntry>>,
    /// Live observability instruments (see [`crate::metrics`]). Snapshot
    /// reads never block the admission or runner hot paths: the per-point
    /// path touches only pre-resolved atomics, and the only mutexes are
    /// the latency histograms, recorded from the per-batch collector.
    metrics: ServiceMetrics,
}

impl SweepService {
    /// A service evaluating `experiment` on `runner`, memoizing into
    /// `cache`. The cache's version stamp must be dedicated to this
    /// experiment configuration (see [`code_version`]).
    pub fn new(experiment: Experiment, runner: ExperimentRunner, cache: DiskResultCache) -> Self {
        let metrics = ServiceMetrics::new(cache.version());
        SweepService {
            experiment,
            runner,
            cache,
            queue_limit: None,
            pending: AtomicUsize::new(0),
            cancels: Mutex::new(HashMap::new()),
            metrics,
        }
    }

    /// Sets the slow-point threshold: a point whose uncached runtime
    /// exceeds `factor ×` the running mean of uncached points is recorded
    /// in the stats snapshot's slow-point log.
    #[must_use]
    pub fn with_slow_point_factor(mut self, factor: f64) -> Self {
        self.metrics.set_slow_point_factor(factor);
        self
    }

    /// Bounds the pending-point queue: a `submit` whose jobs would push the
    /// pending count past its effective limit is rejected with a `busy`
    /// event instead of queuing unboundedly. The effective limit depends on
    /// the request's priority — `limit` at priority 0, `limit / 2` below,
    /// unbounded above.
    #[must_use]
    pub fn with_queue_limit(mut self, limit: usize) -> Self {
        self.queue_limit = Some(limit);
        self
    }

    /// The configured queue limit, if any.
    pub fn queue_limit(&self) -> Option<usize> {
        self.queue_limit
    }

    /// Points admitted but not yet completed, across all in-flight batches.
    pub fn pending_points(&self) -> usize {
        self.pending.load(Ordering::SeqCst)
    }

    /// Cancels the batch with request id `id`: its not-yet-started points
    /// are skipped and surface as `point_failed` events with error
    /// `"cancelled"`. Returns whether a batch with that id was in flight;
    /// if not, the cancellation is *armed* and a later submit with that id
    /// is cancelled from the start.
    pub fn cancel(&self, id: &str) -> bool {
        let mut cancels = lock_recover(&self.cancels);
        let entry = cancels.entry(id.to_string()).or_default();
        entry.flag.store(true, Ordering::SeqCst);
        entry.active
    }

    /// The experiment configuration every job is evaluated against.
    pub fn experiment(&self) -> &Experiment {
        &self.experiment
    }

    /// The result cache (for persistence control and statistics).
    pub fn cache(&self) -> &DiskResultCache {
        &self.cache
    }

    /// The live observability instruments.
    pub fn metrics(&self) -> &ServiceMetrics {
        &self.metrics
    }

    /// Builds the versioned stats snapshot served to `stats` requests and
    /// the Prometheus listener. Queue, cache and runner state are sampled
    /// here — at read time — so the serving hot paths never pay for them.
    pub fn stats_snapshot(&self) -> StatsSnapshot {
        let reg = self.metrics.registry();
        reg.gauge("noc_queue_depth").set(self.pending_points() as f64);
        reg.gauge("noc_queue_limit")
            .set(self.queue_limit.map_or(0.0, |l| l as f64));
        let cs = self.cache.stats();
        reg.counter("noc_cache_hits_total").observe(cs.hits);
        reg.counter("noc_cache_misses_total").observe(cs.misses);
        reg.counter("noc_cache_stale_records_total").observe(cs.stale);
        reg.counter("noc_cache_corrupt_lines_total").observe(cs.corrupt);
        reg.counter("noc_cache_compactions_total").observe(cs.compactions);
        reg.gauge("noc_cache_entries").set(cs.entries as f64);
        reg.gauge("noc_cache_persisted_records").set(cs.persisted as f64);
        reg.gauge("noc_cache_segment_bytes").set(cs.segment_bytes as f64);
        let progress = self.runner.progress().snapshot();
        reg.counter("noc_runner_points_scheduled_total")
            .observe(progress.scheduled as u64);
        reg.counter("noc_runner_points_completed_total")
            .observe(progress.completed as u64);
        reg.gauge("noc_runner_workers").set(self.runner.workers() as f64);
        let capacity_ns = self.metrics.uptime_ms() * 1e6 * self.runner.workers() as f64;
        if capacity_ns > 0.0 {
            reg.gauge("noc_worker_utilization")
                .set((progress.busy.as_nanos() as f64 / capacity_ns).min(1.0));
        }
        for (stage, cycles) in self.experiment.stage_totals.totals() {
            reg.gauge(&format!("noc_sim_stage_busy_cycles{{stage=\"{stage}\"}}"))
                .set(cycles as f64);
        }
        self.metrics.snapshot()
    }

    /// Serves one connection: reads `\n`-terminated request lines from
    /// `reader` until EOF or a `shutdown` request, handing every response
    /// event to `write`. Blank lines are skipped. A line longer than
    /// [`MAX_REQUEST_LINE_BYTES`] or not valid UTF-8 gets an `error` event,
    /// and the connection goes on with the next line.
    ///
    /// # Errors
    ///
    /// The first read or `write` error; the connection is over.
    pub fn serve_lines(
        &self,
        mut reader: impl io::BufRead,
        write: &mut dyn FnMut(&ServiceResponse) -> io::Result<()>,
    ) -> io::Result<ServiceControl> {
        let mut buf = Vec::new();
        loop {
            buf.clear();
            let (consumed, fits) =
                read_bounded_line(&mut reader, &mut buf, MAX_REQUEST_LINE_BYTES)?;
            if consumed == 0 {
                return Ok(ServiceControl::Continue);
            }
            let mut io_err = None;
            let mut emit = |ev: ServiceResponse| {
                if io_err.is_none() {
                    io_err = write(&ev).err();
                }
            };
            let line = if fits {
                std::str::from_utf8(&buf).map_err(|_| "is not valid UTF-8".to_string())
            } else {
                Err(format!("of {consumed} bytes exceeds the {MAX_REQUEST_LINE_BYTES}-byte limit"))
            };
            let control = match line {
                Ok(line) if line.trim().is_empty() => ServiceControl::Continue,
                Ok(line) => self.handle_line(line, &mut emit),
                Err(why) => {
                    self.metrics.count_request_error();
                    emit(ServiceResponse::Error {
                        id: None,
                        message: format!("bad request: request line {why}"),
                    });
                    ServiceControl::Continue
                }
            };
            if let Some(e) = io_err {
                return Err(e);
            }
            if control == ServiceControl::Shutdown {
                return Ok(control);
            }
        }
    }

    /// Parses and serves one request line, emitting response events.
    /// Malformed lines produce an `error` event and keep the daemon alive.
    pub fn handle_line(
        &self,
        line: &str,
        emit: &mut dyn FnMut(ServiceResponse),
    ) -> ServiceControl {
        match ServiceRequest::from_json_line(line) {
            Err(e) => {
                self.metrics.count_request_error();
                emit(ServiceResponse::Error {
                    id: None,
                    message: format!("bad request: {e}"),
                });
                ServiceControl::Continue
            }
            Ok(ServiceRequest::Ping) => {
                self.metrics.count_request("ping");
                emit(ServiceResponse::Pong {
                    uptime_ms: self.metrics.uptime_ms(),
                    code_version: self.cache.version().to_string(),
                    engine: ENGINE_NAME.to_string(),
                });
                ServiceControl::Continue
            }
            Ok(ServiceRequest::Stats) => {
                self.metrics.count_request("stats");
                emit(ServiceResponse::Stats {
                    snapshot: self.stats_snapshot(),
                });
                ServiceControl::Continue
            }
            Ok(ServiceRequest::Shutdown) => {
                self.metrics.count_request("shutdown");
                ServiceControl::Shutdown
            }
            Ok(ServiceRequest::Cancel { id }) => {
                self.metrics.count_request("cancel");
                self.metrics.cancel_received();
                let active = self.cancel(&id);
                emit(ServiceResponse::Cancelled { id, active });
                ServiceControl::Continue
            }
            Ok(ServiceRequest::Submit(req)) => {
                self.metrics.count_request("submit");
                self.run_submit(&req, emit);
                ServiceControl::Continue
            }
        }
    }

    /// The admission bound for a request of the given priority, or `None`
    /// for unbounded (no queue limit configured, or positive priority).
    fn effective_limit(&self, priority: i64) -> Option<usize> {
        let limit = self.queue_limit?;
        match priority {
            p if p > 0 => None,
            0 => Some(limit),
            _ => Some(limit / 2),
        }
    }

    /// Registers (or re-arms) the cancel entry for a starting batch and
    /// returns its shared flag.
    fn register_batch(&self, id: &str) -> Arc<AtomicBool> {
        let mut cancels = lock_recover(&self.cancels);
        let entry = cancels.entry(id.to_string()).or_default();
        entry.active = true;
        Arc::clone(&entry.flag)
    }

    /// Evaluates one batch, streaming `accepted`, `progress`,
    /// `point`/`point_failed` (strict index order) and a final `done`
    /// event into `emit`; returns the batch summary — or `None` when the
    /// batch was rejected by backpressure (a single `busy` event is
    /// emitted and nothing else).
    ///
    /// Per-point failures do not abort the batch — every job is attempted
    /// and failures surface as `point_failed` events. A cancellation
    /// ([`SweepService::cancel`]) skips the not-yet-started points, which
    /// surface as `point_failed` with error `"cancelled"`; already-computed
    /// points still stream normally.
    pub fn run_submit(
        &self,
        req: &SubmitRequest,
        emit: &mut dyn FnMut(ServiceResponse),
    ) -> Option<BatchSummary> {
        let total = req.jobs.len();
        if let Some(limit) = self.effective_limit(req.priority) {
            let admit = self.pending.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |p| {
                (p + total <= limit).then_some(p + total)
            });
            if let Err(pending) = admit {
                self.metrics.busy_rejected();
                emit(ServiceResponse::Busy {
                    id: req.id.clone(),
                    pending,
                    limit,
                });
                return None;
            }
        } else {
            self.pending.fetch_add(total, Ordering::SeqCst);
        }
        self.metrics.batch_admitted(total);
        let cancel = self.register_batch(&req.id);
        emit(ServiceResponse::Accepted {
            id: req.id.clone(),
            points: total,
        });
        let started = Instant::now();
        let (tx, rx) = mpsc::channel::<(usize, PointOutcome)>();
        let (mut ok, mut failed, mut cancelled, mut hits) = (0usize, 0usize, 0usize, 0u64);
        std::thread::scope(|s| {
            let jobs = &req.jobs;
            let cancel = &cancel;
            s.spawn(move || {
                // `Sender` is not `Sync`, so the worker closure reaches it
                // through a mutex; dropping it here (when the runner is
                // done) ends the collector loop below.
                let tx = Mutex::new(tx);
                self.runner.run(jobs, |i, job| {
                    let point_start = Instant::now();
                    let outcome = if cancel.load(Ordering::SeqCst) {
                        Err(PointFailure::Cancelled)
                    } else {
                        self.cache
                            .memory()
                            .get_or_try_insert_with_stats(job.cache_key(), || {
                                job.run(&self.experiment)
                            })
                            .map_err(|e| PointFailure::Failed(e.to_string()))
                    };
                    let elapsed = point_start.elapsed();
                    if matches!(&outcome, Ok((_, true))) {
                        // Tag the hit for ETA math (two relaxed atomic
                        // adds — same cost class as the runner's own
                        // progress accounting).
                        self.runner.progress().note_cached(elapsed);
                    }
                    let ms = elapsed.as_secs_f64() * 1e3;
                    lock_recover(&tx)
                        .send((i, (outcome, ms)))
                        .expect("collector alive while workers run");
                });
            });
            // Collector: report completions as they happen, release the
            // point stream in strict index order.
            let mut pending: BTreeMap<usize, PointOutcome> = BTreeMap::new();
            let mut next = 0usize;
            let mut batch_hits = 0usize;
            for (completed, (i, outcome)) in rx.iter().enumerate() {
                self.pending.fetch_sub(1, Ordering::SeqCst);
                let received = completed + 1;
                batch_hits += usize::from(matches!(&outcome.0, Ok((_, true))));
                // ETA from the mean *uncached* point time, scaled by this
                // batch's observed miss rate — a mostly-cached batch
                // predicts only its uncached tail, not `remaining × mean`.
                let eta_ms = self
                    .runner
                    .progress()
                    .mean_uncached_point_nanos()
                    .map(|ns| {
                        let remaining = (total - received) as f64;
                        let miss_rate = (received - batch_hits) as f64 / received as f64;
                        remaining * miss_rate * ns / 1e6 / self.runner.workers() as f64
                    });
                emit(ServiceResponse::Progress {
                    id: req.id.clone(),
                    completed: received,
                    total,
                    eta_ms,
                });
                pending.insert(i, outcome);
                while let Some((outcome, ms)) = pending.remove(&next) {
                    let job = &req.jobs[next];
                    match outcome {
                        Ok((metrics, cache_hit)) => {
                            ok += 1;
                            hits += u64::from(cache_hit);
                            self.metrics.point_completed(
                                job.cache_key(),
                                job.seed,
                                cache_hit,
                                ms,
                            );
                            emit(ServiceResponse::Point {
                                id: req.id.clone(),
                                point: ManifestPoint {
                                    index: next,
                                    seed: job.seed,
                                    config_hash: job.cache_key(),
                                    cache_hit,
                                    duration_ms: ms,
                                    metrics: metric_pairs(&metrics),
                                },
                            });
                        }
                        Err(failure) => {
                            let error = match failure {
                                PointFailure::Failed(e) => {
                                    failed += 1;
                                    self.metrics.point_failed();
                                    e
                                }
                                PointFailure::Cancelled => {
                                    cancelled += 1;
                                    self.metrics.point_cancelled();
                                    "cancelled".to_string()
                                }
                            };
                            emit(ServiceResponse::PointFailed {
                                id: req.id.clone(),
                                index: next,
                                config_hash: job.cache_key(),
                                seed: job.seed,
                                error,
                            });
                        }
                    }
                    next += 1;
                }
            }
        });
        lock_recover(&self.cancels).remove(&req.id);
        if let Err(e) = self.cache.persist_jobs(&req.jobs) {
            emit(ServiceResponse::Error {
                id: Some(req.id.clone()),
                message: format!("cache persist failed: {e}"),
            });
        }
        let summary = BatchSummary {
            points: total,
            ok,
            failed,
            cancelled,
            cache_hits: hits,
            cache_misses: ok as u64 - hits,
            config_hash: RunManifest::combine_hashes(req.jobs.iter().map(SyntheticJob::cache_key)),
            wall_ms: started.elapsed().as_secs_f64() * 1e3,
        };
        self.metrics.batch_done(summary.wall_ms);
        emit(ServiceResponse::Done {
            id: req.id.clone(),
            summary: summary.clone(),
        });
        Some(summary)
    }
}

/// Reads the next `\n`-terminated line from `reader` into `buf` without
/// its terminator, keeping it only if it fits in `max` bytes; the rest of
/// an overlong line is consumed and dropped. Returns the bytes consumed
/// (0 at end of input) and whether the line fit.
fn read_bounded_line(
    reader: &mut impl io::BufRead,
    buf: &mut Vec<u8>,
    max: usize,
) -> io::Result<(usize, bool)> {
    let mut consumed = 0;
    let mut fits = true;
    loop {
        let available = match reader.fill_buf() {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if available.is_empty() {
            return Ok((consumed, fits));
        }
        let newline = available.iter().position(|&b| b == b'\n');
        let chunk = &available[..newline.unwrap_or(available.len())];
        fits = fits && buf.len() + chunk.len() <= max;
        if fits {
            buf.extend_from_slice(chunk);
        } else {
            buf.clear();
        }
        let used = chunk.len() + usize::from(newline.is_some());
        reader.consume(used);
        consumed += used;
        if newline.is_some() {
            return Ok((consumed, fits));
        }
    }
}

// ---------------------------------------------------------------------------
// Schema reference (docs-drift guard)
// ---------------------------------------------------------------------------

/// `(field, type, meaning)` rows of one wire object.
type FieldTable = &'static [(&'static str, &'static str, &'static str)];

const REQUEST_FIELDS: FieldTable = &[
    ("submit", "id, label?, priority?, jobs", "evaluate a batch of operating points (fields below)"),
    ("cancel", "id", "cancel the in-flight batch with that id; an unknown id arms the cancel for a later submit"),
    ("ping", "—", "liveness probe; answered with `pong`"),
    ("stats", "—", "snapshot the engine's live metrics; answered with `stats`"),
    ("shutdown", "—", "ask the daemon to exit cleanly"),
];

const SUBMIT_FIELDS: FieldTable = &[
    ("type", "string", "`\"submit\"`"),
    ("id", "string", "client-chosen request identifier, echoed on every response event"),
    ("label", "string", "optional batch label (defaults to `\"service\"`)"),
    ("priority", "number", "optional integer admission priority (default 0): > 0 bypasses the queue limit, 0 admits against the full limit, < 0 against half of it"),
    ("jobs", "array", "operating points to evaluate, in result order (job objects below)"),
];

const JOB_FIELDS: FieldTable = &[
    ("topology", "string", "optional topology wire name (default `mesh4x4`): `mesh<W>x<H>` or `circ<N>s<S>` for the ring-circulant C(N; 1, S) — see TOPOLOGY.md"),
    ("level", "number", "sprint level (active cores), ≥ 1"),
    ("pattern", "string", "one of `uniform`, `transpose`, `bitcomp`, `tornado`, `shuffle`, `neighbor`, `hotspot`"),
    ("hot_fraction", "number", "hotspot probability in [0, 1]; required iff `pattern` is `hotspot`"),
    ("rate", "number", "offered load in (0, 1] flits/cycle per active sprint node"),
    ("seed", "hex string", "RNG seed (`\"0x…\"`, full 64-bit)"),
    ("baseline", "string", "one of `noc_sprinting`, `random_endpoints`, `spread_aggregate`"),
];

const POINT_FIELDS: FieldTable = &[
    ("type", "string", "`\"point\"`"),
    ("id", "string", "echo of the request id"),
    ("index", "number", "job index within the batch (streamed in strictly increasing order)"),
    ("seed", "hex string", "the job's RNG seed"),
    ("config_hash", "hex string", "the job's cache key"),
    ("cache_hit", "bool", "whether the result came from the cache"),
    ("duration_ms", "number", "worker wall time for the point (≈ 0 for hits)"),
    ("metrics", "object", "named scalars: `avg_packet_latency`, `avg_network_latency`, `network_power`, `accepted_throughput`, `saturated` (0/1)"),
];

const DONE_FIELDS: FieldTable = &[
    ("type", "string", "`\"done\"`"),
    ("id", "string", "echo of the request id"),
    ("points", "number", "jobs in the batch"),
    ("ok", "number", "points that produced metrics"),
    ("failed", "number", "points that failed (one `point_failed` event each)"),
    ("cancelled", "number", "points skipped by cancellation (surfaced as `point_failed` with error `cancelled`)"),
    ("cache_hits", "number", "points served from the result cache"),
    ("cache_misses", "number", "points freshly simulated"),
    ("config_hash", "hex string", "order-sensitive combined hash over every job's cache key"),
    ("wall_ms", "number", "batch wall time, milliseconds"),
];

const EVENT_FIELDS: FieldTable = &[
    ("accepted", "id, points", "request parsed; `points` results will follow"),
    ("progress", "id, completed, total, eta_ms?", "a point finished somewhere in the batch (completion order); `eta_ms` estimates time to batch completion from the mean uncached point time and the batch's hit rate, omitted until an uncached point has completed"),
    ("point", "see point table", "one evaluated operating point (strict index order)"),
    ("point_failed", "id, index, config_hash, seed, error", "one failed operating point (same ordering)"),
    ("done", "see done table", "batch finished; always the request's last event"),
    ("busy", "id, pending, limit", "batch rejected by backpressure; no `accepted`/`done` follows"),
    ("cancelled", "id, active", "answer to `cancel`; `active` is whether the batch was in flight"),
    ("pong", "uptime_ms, code_version, engine", "answer to `ping`; carries the engine's identity so clients detect version skew between daemons"),
    ("stats", "snapshot", "answer to `stats`: a versioned live-metrics snapshot (fields below)"),
    ("error", "id?, message", "request could not be parsed or served"),
];

const STATS_FIELDS: FieldTable = &[
    ("schema", "number", "snapshot schema version (currently 1); clients must reject unknown versions"),
    ("engine", "string", "always `\"noc-serve\"`"),
    ("code_version", "string", "the engine's code-version stamp (same format as cache records)"),
    ("uptime_ms", "number", "milliseconds since the engine started"),
    ("metrics", "object", "`counters` (name → hex count), `gauges` (name → hex f64 bit pattern), `histograms` (name → {count, sum_hi, sum_lo, min, max, buckets: [[lower, count]…]}, all hex)"),
    ("slow_points", "array", "recent slow points, oldest first: `config_hash`/`seed` (hex), `duration_ms`, `mean_ms`, `factor`"),
];

const CACHE_RECORD_FIELDS: FieldTable = &[
    ("type", "string", "`\"cache\"`"),
    ("key", "hex string", "the job's cache key (`SyntheticJob::cache_key`)"),
    ("seed", "hex string", "the job's RNG seed (also folded into `key`)"),
    ("version", "string", "the writing daemon's code-version stamp"),
    ("value", "object", "bit-exact metrics: each `f64` as the hex string of its bit pattern, plus `saturated` (bool)"),
];

fn render_table(title: &str, columns: [&str; 3], rows: FieldTable, out: &mut String) {
    let _ = writeln!(out, "#### {title}\n");
    let _ = writeln!(out, "| {} | {} | {} |", columns[0], columns[1], columns[2]);
    let _ = writeln!(out, "|---|---|---|");
    for (field, ty, meaning) in rows {
        let _ = writeln!(out, "| `{field}` | {ty} | {meaning} |");
    }
    out.push('\n');
}

/// Renders the wire-schema tables embedded in SERVICE.md between the
/// `schema:generated` markers. A unit test compares the document against
/// this function's output, so SERVICE.md cannot drift from the Rust
/// request/response types without failing CI.
pub fn schema_reference() -> String {
    let mut out = String::new();
    render_table(
        "Requests",
        ["Request", "Fields", "Meaning"],
        REQUEST_FIELDS,
        &mut out,
    );
    render_table(
        "`submit` request",
        ["Field", "Type", "Meaning"],
        SUBMIT_FIELDS,
        &mut out,
    );
    render_table("Job object", ["Field", "Type", "Meaning"], JOB_FIELDS, &mut out);
    render_table(
        "Response events",
        ["Event", "Fields", "Meaning"],
        EVENT_FIELDS,
        &mut out,
    );
    render_table(
        "`point` event",
        ["Field", "Type", "Meaning"],
        POINT_FIELDS,
        &mut out,
    );
    render_table(
        "`done` event",
        ["Field", "Type", "Meaning"],
        DONE_FIELDS,
        &mut out,
    );
    render_table(
        "`stats` snapshot",
        ["Field", "Type", "Meaning"],
        STATS_FIELDS,
        &mut out,
    );
    render_table(
        "Cache record (segment line)",
        ["Field", "Type", "Meaning"],
        CACHE_RECORD_FIELDS,
        &mut out,
    );
    out.trim_end().to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_jobs() -> Vec<SyntheticJob> {
        vec![
            SyntheticJob {
                topology: TopologySpec::default(),
                level: 4,
                pattern: TrafficPattern::UniformRandom,
                rate: 0.05,
                seed: 42,
                baseline: SyntheticBaseline::NocSprinting,
            },
            SyntheticJob {
                topology: TopologySpec::default(),
                level: 4,
                pattern: TrafficPattern::Hotspot { hot_fraction: 0.3 },
                rate: 0.1,
                seed: 7,
                baseline: SyntheticBaseline::SpreadAggregate,
            },
        ]
    }

    fn scratch_dir(label: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "noc-service-unit-{label}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    #[test]
    fn request_round_trips() {
        for req in [
            ServiceRequest::Ping,
            ServiceRequest::Stats,
            ServiceRequest::Shutdown,
            ServiceRequest::Cancel {
                id: "r9".to_string(),
            },
            ServiceRequest::Submit(SubmitRequest {
                id: "r1".to_string(),
                label: "fig11".to_string(),
                priority: 0,
                jobs: sample_jobs(),
            }),
            ServiceRequest::Submit(SubmitRequest {
                id: "r2".to_string(),
                label: "urgent".to_string(),
                priority: -3,
                jobs: sample_jobs(),
            }),
        ] {
            let line = req.to_json_line();
            assert_eq!(ServiceRequest::from_json_line(&line).unwrap(), req, "{line}");
        }
    }

    #[test]
    fn request_validation_rejects_bad_jobs() {
        let bad = [
            r#"{"type":"submit","id":"x","jobs":[{"level":0,"pattern":"uniform","rate":0.1,"seed":"0x1","baseline":"noc_sprinting"}]}"#,
            r#"{"type":"submit","id":"x","jobs":[{"level":4,"pattern":"uniform","rate":1.5,"seed":"0x1","baseline":"noc_sprinting"}]}"#,
            r#"{"type":"submit","id":"x","jobs":[{"level":4,"pattern":"hotspot","rate":0.1,"seed":"0x1","baseline":"noc_sprinting"}]}"#,
            r#"{"type":"submit","id":"x","jobs":[{"level":4,"pattern":"uniform","rate":0.1,"seed":"0x1","baseline":"nope"}]}"#,
            r#"{"type":"nonsense"}"#,
        ];
        for line in bad {
            assert!(ServiceRequest::from_json_line(line).is_err(), "{line}");
        }
    }

    #[test]
    fn responses_round_trip() {
        let point = ManifestPoint {
            index: 3,
            seed: u64::MAX,
            config_hash: 0xdead_beef,
            cache_hit: true,
            duration_ms: 0.125,
            metrics: metric_pairs(&NetworkMetrics {
                avg_packet_latency: 23.75,
                avg_network_latency: 18.5,
                network_power: 0.011,
                accepted_throughput: 0.099,
                saturated: false,
            }),
        };
        let events = [
            ServiceResponse::Accepted {
                id: "r".to_string(),
                points: 9,
            },
            ServiceResponse::Progress {
                id: "r".to_string(),
                completed: 4,
                total: 9,
                eta_ms: None,
            },
            ServiceResponse::Progress {
                id: "r".to_string(),
                completed: 5,
                total: 9,
                eta_ms: Some(125.5),
            },
            ServiceResponse::Point {
                id: "r".to_string(),
                point,
            },
            ServiceResponse::PointFailed {
                id: "r".to_string(),
                index: 5,
                config_hash: u64::MAX,
                seed: 0xabc,
                error: "deadlock at cycle 12".to_string(),
            },
            ServiceResponse::Done {
                id: "r".to_string(),
                summary: BatchSummary {
                    points: 9,
                    ok: 6,
                    failed: 1,
                    cancelled: 2,
                    cache_hits: 3,
                    cache_misses: 3,
                    config_hash: 0x1234_5678_9abc_def0,
                    wall_ms: 88.5,
                },
            },
            ServiceResponse::Busy {
                id: "r".to_string(),
                pending: 480,
                limit: 512,
            },
            ServiceResponse::Cancelled {
                id: "r".to_string(),
                active: true,
            },
            ServiceResponse::Pong {
                uptime_ms: 1234.5,
                code_version: code_version("quick"),
                engine: "noc-serve".to_string(),
            },
            ServiceResponse::Stats {
                snapshot: {
                    let m = ServiceMetrics::new(&code_version("quick"));
                    m.batch_admitted(3);
                    m.point_completed(0xabc, 0xdef, false, 2.5);
                    m.snapshot()
                },
            },
            ServiceResponse::Error {
                id: None,
                message: "bad request".to_string(),
            },
            ServiceResponse::Error {
                id: Some("r".to_string()),
                message: "cache persist failed".to_string(),
            },
        ];
        for ev in events {
            let line = ev.to_json_line();
            assert_eq!(ServiceResponse::from_json_line(&line).unwrap(), ev, "{line}");
        }
    }

    #[test]
    fn cache_record_round_trips_nonfinite_metrics_exactly() {
        let rec = CacheRecord {
            key: u64::MAX,
            seed: 0x9e37_79b9_7f4a_7c15,
            version: code_version("paper"),
            value: NetworkMetrics {
                avg_packet_latency: f64::NAN,
                avg_network_latency: f64::INFINITY,
                network_power: -0.0,
                accepted_throughput: 0.1 + 0.2, // not representable exactly
                saturated: true,
            },
        };
        let back = CacheRecord::from_json_line(&rec.to_json_line()).unwrap();
        assert_eq!(back.key, rec.key);
        assert_eq!(back.seed, rec.seed);
        assert_eq!(back.version, rec.version);
        // Bit-pattern equality, not f64 ==, so NaN and -0.0 are covered.
        assert_eq!(
            back.value.avg_packet_latency.to_bits(),
            rec.value.avg_packet_latency.to_bits()
        );
        assert_eq!(
            back.value.avg_network_latency.to_bits(),
            rec.value.avg_network_latency.to_bits()
        );
        assert_eq!(
            back.value.network_power.to_bits(),
            rec.value.network_power.to_bits()
        );
        assert_eq!(
            back.value.accepted_throughput.to_bits(),
            rec.value.accepted_throughput.to_bits()
        );
        assert!(back.value.saturated);
    }

    #[test]
    fn metric_pairs_round_trip() {
        let m = NetworkMetrics {
            avg_packet_latency: 23.75,
            avg_network_latency: 18.5,
            network_power: 0.0117,
            accepted_throughput: 0.0991,
            saturated: true,
        };
        let pairs = metric_pairs(&m);
        assert_eq!(pairs.len(), METRIC_FIELDS.len());
        for ((name, _), field) in pairs.iter().zip(METRIC_FIELDS) {
            assert_eq!(name, field);
        }
        assert_eq!(metrics_from_pairs(&pairs).unwrap(), m);
        assert!(metrics_from_pairs(&pairs[..3]).is_err());
    }

    #[test]
    fn disk_cache_persists_and_reloads() {
        let dir = scratch_dir("reload");
        let version = code_version("quick");
        let jobs = sample_jobs();
        let value = NetworkMetrics {
            avg_packet_latency: 20.0,
            avg_network_latency: 15.0,
            network_power: 0.01,
            accepted_throughput: 0.05,
            saturated: false,
        };
        {
            let (cache, report) = DiskResultCache::open(&dir, &version).unwrap();
            assert_eq!(report, CacheLoadReport::default());
            cache.memory().insert(jobs[0].cache_key(), value);
            assert_eq!(cache.persist_jobs(&jobs).unwrap(), 1);
            // Re-persisting is a no-op.
            assert_eq!(cache.persist_jobs(&jobs).unwrap(), 0);
            assert_eq!(cache.persisted_len(), 1);
        }
        let (cache, report) = DiskResultCache::open(&dir, &version).unwrap();
        assert_eq!(report.loaded, 1);
        assert_eq!(report.segments, 1);
        assert_eq!(cache.memory().get(jobs[0].cache_key()), Some(value));
        // A different version stamp sees an empty (stale) cache.
        let (cache, report) = DiskResultCache::open(&dir, code_version("paper")).unwrap();
        assert_eq!(report.loaded, 0);
        assert_eq!(report.stale, 1);
        assert!(cache.memory().is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_cache_compaction_dedupes_and_survives() {
        let dir = scratch_dir("compact");
        let version = code_version("quick");
        let jobs = sample_jobs();
        let value = NetworkMetrics {
            avg_packet_latency: 1.0,
            avg_network_latency: 2.0,
            network_power: 3.0,
            accepted_throughput: 4.0,
            saturated: false,
        };
        // Two daemon lifetimes, one job each → two segments.
        for job in &jobs {
            let (cache, _) = DiskResultCache::open(&dir, &version).unwrap();
            cache.memory().insert(job.cache_key(), value);
            cache.persist_jobs(std::slice::from_ref(job)).unwrap();
        }
        let (cache, report) = DiskResultCache::open(&dir, &version).unwrap();
        assert_eq!(report.segments, 2);
        assert_eq!(cache.compact().unwrap(), 2);
        // One segment remains, holding both records.
        let (cache, report) = DiskResultCache::open(&dir, &version).unwrap();
        assert_eq!(report.segments, 1);
        assert_eq!(report.loaded, 2);
        assert_eq!(cache.memory().len(), 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn in_memory_cache_is_a_quiet_noop_on_disk_apis() {
        let cache = DiskResultCache::in_memory(code_version("quick"));
        assert_eq!(cache.persist_jobs(&sample_jobs()).unwrap(), 0);
        assert_eq!(cache.compact().unwrap(), 0);
        assert_eq!(cache.persisted_len(), 0);
        assert!(cache.dir().is_none());
    }

    #[test]
    fn service_streams_points_in_order_and_caches() {
        let service = SweepService::new(
            Experiment::quick(),
            ExperimentRunner::with_workers(2),
            DiskResultCache::in_memory(code_version("quick")),
        );
        let req = SubmitRequest {
            id: "unit".to_string(),
            label: "unit".to_string(),
            priority: 0,
            jobs: sample_jobs(),
        };
        let mut events = Vec::new();
        let summary = service
            .run_submit(&req, &mut |e| events.push(e))
            .expect("no queue limit configured");
        assert_eq!(summary.points, 2);
        assert_eq!(summary.ok, 2);
        assert_eq!(summary.failed, 0);
        assert_eq!(summary.cache_hits, 0);
        assert_eq!(summary.cache_misses, 2);
        let indices: Vec<usize> = events
            .iter()
            .filter_map(|e| match e {
                ServiceResponse::Point { point, .. } => Some(point.index),
                _ => None,
            })
            .collect();
        assert_eq!(indices, vec![0, 1], "points stream in strict index order");
        assert!(matches!(events.first(), Some(ServiceResponse::Accepted { points: 2, .. })));
        assert!(matches!(events.last(), Some(ServiceResponse::Done { .. })));
        // Resubmission is served entirely from cache with identical metrics.
        let first: Vec<ManifestPoint> = events
            .iter()
            .filter_map(|e| match e {
                ServiceResponse::Point { point, .. } => Some(point.clone()),
                _ => None,
            })
            .collect();
        let mut events2 = Vec::new();
        let summary2 = service
            .run_submit(&req, &mut |e| events2.push(e))
            .expect("no queue limit configured");
        assert_eq!(summary2.cache_hits, 2);
        let second: Vec<ManifestPoint> = events2
            .iter()
            .filter_map(|e| match e {
                ServiceResponse::Point { point, .. } => Some(point.clone()),
                _ => None,
            })
            .collect();
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a.metrics, b.metrics, "cache hit must be bit-identical");
            assert!(!a.cache_hit);
            assert!(b.cache_hit);
        }
    }

    #[test]
    fn serve_lines_answers_non_utf8_lines_and_keeps_serving() {
        let service = SweepService::new(
            Experiment::quick(),
            ExperimentRunner::with_workers(1),
            DiskResultCache::in_memory(code_version("quick")),
        );
        let input: &[u8] = b"\xff\xfe{}\n\n  \n{\"type\":\"ping\"}\r\n{\"type\":\"shutdown\"}\n";
        let mut events = Vec::new();
        let control = service
            .serve_lines(input, &mut |ev| {
                events.push(ev.clone());
                Ok(())
            })
            .unwrap();
        assert_eq!(control, ServiceControl::Shutdown);
        assert_eq!(events.len(), 2, "{events:?}");
        assert!(
            matches!(&events[0], ServiceResponse::Error { message, .. } if message.contains("UTF-8"))
        );
        assert!(matches!(events[1], ServiceResponse::Pong { .. }));
    }

    #[test]
    fn stats_snapshot_exports_stage_busy_gauges() {
        let service = SweepService::new(
            Experiment::quick(),
            ExperimentRunner::with_workers(1),
            DiskResultCache::in_memory(code_version("quick")),
        );
        // Before any run every stage gauge samples as zero.
        let idle = service.stats_snapshot();
        for stage in ["credit", "link", "inject", "va", "sa", "eject"] {
            let name = format!("noc_sim_stage_busy_cycles{{stage=\"{stage}\"}}");
            assert_eq!(idle.metrics.gauge(&name), Some(0.0), "{name}");
        }
        let req = SubmitRequest {
            id: "stages".to_string(),
            label: "stages".to_string(),
            priority: 0,
            jobs: sample_jobs(),
        };
        service
            .run_submit(&req, &mut |_| {})
            .expect("no queue limit configured");
        // Any real run keeps the switch allocator and links busy.
        let snap = service.stats_snapshot();
        for stage in ["inject", "va", "sa", "link", "credit", "eject"] {
            let name = format!("noc_sim_stage_busy_cycles{{stage=\"{stage}\"}}");
            assert!(
                snap.metrics.gauge(&name).unwrap_or(0.0) > 0.0,
                "{name} should be positive after a run"
            );
        }
    }

    #[test]
    fn handle_line_covers_the_request_surface() {
        let service = SweepService::new(
            Experiment::quick(),
            ExperimentRunner::with_workers(1),
            DiskResultCache::in_memory(code_version("quick")),
        );
        let mut events = Vec::new();
        let mut emit = |e: ServiceResponse| events.push(e);
        assert_eq!(
            service.handle_line("{\"type\":\"ping\"}", &mut emit),
            ServiceControl::Continue
        );
        assert_eq!(
            service.handle_line("not json", &mut emit),
            ServiceControl::Continue
        );
        assert_eq!(
            service.handle_line("{\"type\":\"stats\"}", &mut emit),
            ServiceControl::Continue
        );
        assert_eq!(
            service.handle_line("{\"type\":\"shutdown\"}", &mut emit),
            ServiceControl::Shutdown
        );
        let ServiceResponse::Pong {
            code_version: ref ver,
            ref engine,
            uptime_ms,
        } = events[0]
        else {
            panic!("ping answered with {:?}", events[0]);
        };
        assert_eq!(ver, &code_version("quick"));
        assert_eq!(engine, "noc-serve");
        assert!(uptime_ms >= 0.0);
        assert!(matches!(events[1], ServiceResponse::Error { .. }));
        let ServiceResponse::Stats { ref snapshot } = events[2] else {
            panic!("stats answered with {:?}", events[2]);
        };
        assert_eq!(snapshot.engine, "noc-serve");
        assert_eq!(
            snapshot.metrics.counter("noc_requests_total{verb=\"ping\"}"),
            Some(1)
        );
        assert_eq!(snapshot.metrics.counter("noc_request_errors_total"), Some(1));
        assert_eq!(snapshot.metrics.gauge("noc_queue_depth"), Some(0.0));
    }

    fn submit(id: &str, priority: i64) -> SubmitRequest {
        SubmitRequest {
            id: id.to_string(),
            label: "unit".to_string(),
            priority,
            jobs: sample_jobs(),
        }
    }

    #[test]
    fn queue_limit_rejects_with_busy_and_priority_overrides() {
        let service = SweepService::new(
            Experiment::quick(),
            ExperimentRunner::with_workers(1),
            DiskResultCache::in_memory(code_version("quick")),
        )
        .with_queue_limit(1);
        assert_eq!(service.queue_limit(), Some(1));
        // Two jobs against a limit of one: rejected, with a lone busy event.
        let mut events = Vec::new();
        assert!(service.run_submit(&submit("b0", 0), &mut |e| events.push(e)).is_none());
        assert_eq!(events.len(), 1, "busy is the only event");
        assert!(
            matches!(&events[0], ServiceResponse::Busy { id, pending: 0, limit: 1 } if id == "b0")
        );
        // Negative priority halves the limit (1 / 2 = 0): also rejected.
        let mut events = Vec::new();
        assert!(service.run_submit(&submit("b1", -1), &mut |e| events.push(e)).is_none());
        assert!(matches!(&events[0], ServiceResponse::Busy { limit: 0, .. }));
        // Positive priority bypasses the limit entirely.
        let mut events = Vec::new();
        let summary = service
            .run_submit(&submit("b2", 1), &mut |e| events.push(e))
            .expect("positive priority bypasses the queue limit");
        assert_eq!(summary.ok, 2);
        assert_eq!(service.pending_points(), 0, "pending drains to zero");
    }

    #[test]
    fn armed_cancel_skips_every_point() {
        let service = SweepService::new(
            Experiment::quick(),
            ExperimentRunner::with_workers(2),
            DiskResultCache::in_memory(code_version("quick")),
        );
        // Cancel before the submit arrives: not active, but armed.
        assert!(!service.cancel("c0"));
        let mut events = Vec::new();
        let summary = service
            .run_submit(&submit("c0", 0), &mut |e| events.push(e))
            .expect("cancel does not reject admission");
        assert_eq!(summary.ok, 0);
        assert_eq!(summary.failed, 0);
        assert_eq!(summary.cancelled, summary.points);
        let errors: Vec<&str> = events
            .iter()
            .filter_map(|e| match e {
                ServiceResponse::PointFailed { error, .. } => Some(error.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(errors.len(), summary.points);
        assert!(errors.iter().all(|e| *e == "cancelled"));
        // The registry entry is cleared: resubmitting the same id runs.
        let summary = service
            .run_submit(&submit("c0", 0), &mut |_| {})
            .expect("admitted");
        assert_eq!(summary.ok, summary.points);
        assert_eq!(summary.cancelled, 0);
    }

    #[test]
    fn poisoned_cache_lock_keeps_the_service_serving() {
        let dir = scratch_dir("poison");
        let (cache, _) = DiskResultCache::open(&dir, code_version("quick")).unwrap();
        let service = SweepService::new(
            Experiment::quick(),
            ExperimentRunner::with_workers(2),
            cache,
        );
        service.cache().poison_for_test();
        // Every cache-path API must still answer through the recovered
        // guard rather than propagating the poison panic.
        assert_eq!(service.cache().dir().as_deref(), Some(dir.as_path()));
        let mut events = Vec::new();
        let mut emit = |e: ServiceResponse| events.push(e);
        assert_eq!(
            service.handle_line("{\"type\":\"ping\"}", &mut emit),
            ServiceControl::Continue
        );
        assert!(matches!(events[0], ServiceResponse::Pong { .. }));
        let summary = service
            .run_submit(&submit("p0", 0), &mut |_| {})
            .expect("admitted");
        assert_eq!(summary.ok, summary.points, "batch runs after poisoning");
        assert_eq!(
            service.cache().persisted_len(),
            summary.points,
            "results persist through the recovered lock"
        );
        assert_eq!(service.cache().compact().unwrap(), summary.points);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn service_md_matches_schema_reference() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../SERVICE.md");
        let text = std::fs::read_to_string(path)
            .expect("SERVICE.md exists at the repository root");
        let begin = "<!-- schema:generated:begin -->";
        let end = "<!-- schema:generated:end -->";
        let start = text
            .find(begin)
            .expect("SERVICE.md contains the schema:generated:begin marker")
            + begin.len();
        let stop = text
            .find(end)
            .expect("SERVICE.md contains the schema:generated:end marker");
        let embedded = text[start..stop].trim();
        let generated = schema_reference();
        assert!(
            embedded == generated,
            "SERVICE.md schema tables have drifted from crates/core/src/service.rs; \
             regenerate with `noc_serve --print-schema` and paste between the markers.\n\
             --- expected ---\n{generated}\n--- found ---\n{embedded}"
        );
    }
}
