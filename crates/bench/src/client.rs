//! Client side of the `noc-serve` wire protocol (see `SERVICE.md`).
//!
//! [`ServiceClient`] speaks JSONL over any `BufRead`/`Write` pair — a
//! `UnixStream` to a daemon's socket, a child process's stdio, or in-memory
//! buffers in tests — and turns one `submit` request into a validated
//! [`BatchResult`]: metrics in job order, the daemon's per-point manifest
//! records, and the end-of-batch summary. The client *checks* the
//! contract's ordering guarantee (point events must arrive in strict index
//! order) rather than re-sorting, so a misbehaving server is an error, not
//! silently repaired data.

use std::io::{BufRead, Write};

use noc_sprinting::experiment::NetworkMetrics;
use noc_sprinting::metrics::StatsSnapshot;
use noc_sprinting::runner::SyntheticJob;
use noc_sprinting::service::{
    metrics_from_pairs, BatchSummary, ServiceRequest, ServiceResponse, SubmitRequest,
};
use noc_sprinting::telemetry::ManifestPoint;

/// Why a submission failed from the client's point of view.
#[derive(Debug)]
pub enum ServiceClientError {
    /// The transport failed (write, flush, or read).
    Io(std::io::Error),
    /// The server closed the stream before the batch's `done` event.
    ConnectionClosed,
    /// A response line violated the wire contract (bad JSON, wrong id,
    /// out-of-order point, mismatched metrics…).
    Protocol(String),
    /// The server rejected the batch with a `busy` event (backpressure):
    /// `pending` points were already queued against `limit`.
    Busy {
        /// Points already pending on the server.
        pending: usize,
        /// The effective queue limit the batch was admitted against.
        limit: usize,
    },
    /// The server reported one or more failed points; the batch's
    /// metrics are incomplete.
    PointsFailed(Vec<(usize, String)>),
    /// The server sent an `error` event for this request.
    Server(String),
}

impl std::fmt::Display for ServiceClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceClientError::Io(e) => write!(f, "service transport error: {e}"),
            ServiceClientError::ConnectionClosed => {
                write!(f, "service closed the stream mid-batch")
            }
            ServiceClientError::Protocol(m) => write!(f, "service protocol violation: {m}"),
            ServiceClientError::Busy { pending, limit } => write!(
                f,
                "service busy: {pending} point(s) pending against a limit of {limit}"
            ),
            ServiceClientError::PointsFailed(pts) => {
                write!(f, "{} point(s) failed:", pts.len())?;
                for (i, e) in pts {
                    write!(f, " [{i}] {e};")?;
                }
                Ok(())
            }
            ServiceClientError::Server(m) => write!(f, "service error: {m}"),
        }
    }
}

impl std::error::Error for ServiceClientError {}

impl From<std::io::Error> for ServiceClientError {
    fn from(e: std::io::Error) -> Self {
        ServiceClientError::Io(e)
    }
}

/// A completed batch as observed by the client.
#[derive(Debug, Clone)]
pub struct BatchResult {
    /// Metrics in job order, reconstructed from the point stream.
    pub metrics: Vec<NetworkMetrics>,
    /// The daemon's per-point manifest records (index, seed, config hash,
    /// cache-hit flag, duration, named metrics), in job order.
    pub points: Vec<ManifestPoint>,
    /// The batch's `done` summary.
    pub summary: BatchSummary,
}

/// A JSONL connection to a `noc-serve` daemon.
#[derive(Debug)]
pub struct ServiceClient<R, W> {
    reader: R,
    writer: W,
    next_id: u64,
}

impl<R: BufRead, W: Write> ServiceClient<R, W> {
    /// Wraps an existing transport (socket halves, child stdio, buffers).
    pub fn over(reader: R, writer: W) -> Self {
        ServiceClient {
            reader,
            writer,
            next_id: 0,
        }
    }

    fn send(&mut self, req: &ServiceRequest) -> Result<(), ServiceClientError> {
        self.writer.write_all(req.to_json_line().as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        Ok(())
    }

    fn read_event(&mut self) -> Result<ServiceResponse, ServiceClientError> {
        loop {
            let mut line = String::new();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(ServiceClientError::ConnectionClosed);
            }
            if line.trim().is_empty() {
                continue;
            }
            return ServiceResponse::from_json_line(line.trim_end())
                .map_err(ServiceClientError::Protocol);
        }
    }

    /// Requests a live-metrics snapshot (`stats` verb).
    ///
    /// # Errors
    ///
    /// Transport failure, or anything but `stats` coming back.
    pub fn stats(&mut self) -> Result<StatsSnapshot, ServiceClientError> {
        self.send(&ServiceRequest::Stats)?;
        match self.read_event()? {
            ServiceResponse::Stats { snapshot } => Ok(snapshot),
            other => Err(ServiceClientError::Protocol(format!(
                "expected stats, got {}",
                other.to_json_line()
            ))),
        }
    }

    /// Asks the daemon to exit cleanly (no response is read).
    ///
    /// # Errors
    ///
    /// Transport failure.
    pub fn shutdown(&mut self) -> Result<(), ServiceClientError> {
        self.send(&ServiceRequest::Shutdown)
    }

    /// Submits one batch at priority 0 and consumes its event stream through `done`,
    /// validating the contract along the way: every event must echo this
    /// request's id, `point` events must arrive in strict index order, and
    /// the final metric vector must cover every job.
    ///
    /// # Errors
    ///
    /// See [`ServiceClientError`]; `Busy` when the server rejected the
    /// batch under backpressure, `PointsFailed` with the per-point errors
    /// when the batch completed but some points failed.
    pub fn submit(
        &mut self,
        label: &str,
        jobs: &[SyntheticJob],
    ) -> Result<BatchResult, ServiceClientError> {
        let id = format!("req-{}", self.next_id);
        self.next_id += 1;
        self.send(&ServiceRequest::Submit(SubmitRequest {
            id: id.clone(),
            label: label.to_string(),
            priority: 0,
            jobs: jobs.to_vec(),
        }))?;
        let mut points: Vec<ManifestPoint> = Vec::with_capacity(jobs.len());
        let mut failed: Vec<(usize, String)> = Vec::new();
        let mut accepted = false;
        loop {
            let ev = self.read_event()?;
            let check_id = |got: &str| -> Result<(), ServiceClientError> {
                if got == id {
                    Ok(())
                } else {
                    Err(ServiceClientError::Protocol(format!(
                        "event for request {got:?} while awaiting {id:?}"
                    )))
                }
            };
            match ev {
                ServiceResponse::Accepted { id: got, points } => {
                    check_id(&got)?;
                    if points != jobs.len() {
                        return Err(ServiceClientError::Protocol(format!(
                            "accepted {points} points for a {}-job batch",
                            jobs.len()
                        )));
                    }
                    accepted = true;
                }
                ServiceResponse::Progress { id: got, .. } => check_id(&got)?,
                ServiceResponse::Point { id: got, point } => {
                    check_id(&got)?;
                    let expected = points.len() + failed.len();
                    if point.index != expected {
                        return Err(ServiceClientError::Protocol(format!(
                            "point index {} out of order (expected {expected})",
                            point.index
                        )));
                    }
                    points.push(point);
                }
                ServiceResponse::PointFailed {
                    id: got,
                    index,
                    error,
                    ..
                } => {
                    check_id(&got)?;
                    let expected = points.len() + failed.len();
                    if index != expected {
                        return Err(ServiceClientError::Protocol(format!(
                            "point_failed index {index} out of order (expected {expected})"
                        )));
                    }
                    failed.push((index, error));
                }
                ServiceResponse::Done { id: got, summary } => {
                    check_id(&got)?;
                    if !accepted {
                        return Err(ServiceClientError::Protocol(
                            "done before accepted".to_string(),
                        ));
                    }
                    if !failed.is_empty() {
                        return Err(ServiceClientError::PointsFailed(failed));
                    }
                    if points.len() != jobs.len() {
                        return Err(ServiceClientError::Protocol(format!(
                            "batch closed with {} of {} points",
                            points.len(),
                            jobs.len()
                        )));
                    }
                    let metrics = points
                        .iter()
                        .map(|p| metrics_from_pairs(&p.metrics))
                        .collect::<Result<Vec<_>, _>>()
                        .map_err(ServiceClientError::Protocol)?;
                    return Ok(BatchResult {
                        metrics,
                        points,
                        summary,
                    });
                }
                ServiceResponse::Busy {
                    id: got,
                    pending,
                    limit,
                } => {
                    check_id(&got)?;
                    return Err(ServiceClientError::Busy { pending, limit });
                }
                ServiceResponse::Cancelled { .. } => {
                    return Err(ServiceClientError::Protocol(
                        "unsolicited cancelled mid-batch".to_string(),
                    ))
                }
                ServiceResponse::Pong { .. } => {
                    return Err(ServiceClientError::Protocol(
                        "unsolicited pong mid-batch".to_string(),
                    ))
                }
                ServiceResponse::Stats { .. } => {
                    return Err(ServiceClientError::Protocol(
                        "unsolicited stats mid-batch".to_string(),
                    ))
                }
                ServiceResponse::Error { message, .. } => {
                    return Err(ServiceClientError::Server(message))
                }
            }
        }
    }
}

/// A client over a Unix domain socket (the daemon's `--socket` mode).
#[cfg(unix)]
pub type UnixServiceClient =
    ServiceClient<std::io::BufReader<std::os::unix::net::UnixStream>, std::os::unix::net::UnixStream>;

/// Connects to a daemon listening on the Unix socket at `path`.
///
/// # Errors
///
/// Socket connection or handle-duplication failure.
#[cfg(unix)]
pub fn connect_unix(path: &std::path::Path) -> std::io::Result<UnixServiceClient> {
    let stream = std::os::unix::net::UnixStream::connect(path)?;
    let reader = std::io::BufReader::new(stream.try_clone()?);
    Ok(ServiceClient::over(reader, stream))
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_sim::topology::TopologySpec;
    use noc_sim::traffic::TrafficPattern;
    use noc_sprinting::runner::{ExperimentRunner, SyntheticBaseline};
    use noc_sprinting::service::{code_version, DiskResultCache, SweepService};
    use noc_sprinting::Experiment;

    fn jobs() -> Vec<SyntheticJob> {
        vec![
            SyntheticJob {
                topology: TopologySpec::default(),
                level: 4,
                pattern: TrafficPattern::UniformRandom,
                rate: 0.05,
                seed: 1,
                baseline: SyntheticBaseline::NocSprinting,
            },
            SyntheticJob {
                topology: TopologySpec::default(),
                level: 4,
                pattern: TrafficPattern::Transpose,
                rate: 0.08,
                seed: 2,
                baseline: SyntheticBaseline::NocSprinting,
            },
        ]
    }

    /// Drives the client against an in-process service over byte buffers —
    /// the same wire bytes as a socket, no daemon needed.
    #[test]
    fn submit_round_trips_through_wire_bytes() {
        let service = SweepService::new(
            Experiment::quick(),
            ExperimentRunner::with_workers(2),
            DiskResultCache::in_memory(code_version("quick")),
        );
        let jobs = jobs();
        // Client writes its request into a buffer...
        let mut request_bytes = Vec::new();
        {
            let mut client = ServiceClient::over(std::io::empty(), &mut request_bytes);
            let _ = client.submit("wire", &jobs); // fails on read: no response yet
        }
        // ...the service consumes it and produces the response bytes...
        let mut response_bytes = Vec::new();
        let text = String::from_utf8(request_bytes).unwrap();
        for line in text.lines() {
            service.handle_line(line, &mut |ev| {
                response_bytes.extend_from_slice(ev.to_json_line().as_bytes());
                response_bytes.push(b'\n');
            });
        }
        // ...and a fresh client run over the captured stream validates it
        // (both clients start at id req-0, so the echo matches).
        let mut client = ServiceClient::over(&response_bytes[..], std::io::sink());
        let result = client.submit("wire", &jobs).expect("batch completes");
        assert_eq!(result.metrics.len(), jobs.len());
        assert_eq!(result.summary.points, jobs.len());
        assert_eq!(result.summary.ok, jobs.len());
        let direct = SweepService::new(
            Experiment::quick(),
            ExperimentRunner::with_workers(1),
            DiskResultCache::in_memory(code_version("quick")),
        );
        let mut expected = Vec::new();
        direct.run_submit(
            &SubmitRequest {
                id: "x".to_string(),
                label: "x".to_string(),
                priority: 0,
                jobs: jobs.clone(),
            },
            &mut |ev| {
                if let ServiceResponse::Point { point, .. } = ev {
                    expected.push(metrics_from_pairs(&point.metrics).unwrap());
                }
            },
        );
        assert_eq!(result.metrics, expected, "wire round trip is bit-exact");
    }

    #[test]
    fn out_of_order_points_are_rejected() {
        let lines = [
            r#"{"type":"accepted","id":"req-0","points":2}"#,
            r#"{"type":"point","id":"req-0","index":1,"seed":"0x2","config_hash":"0x2","cache_hit":false,"duration_ms":1,"metrics":{"avg_packet_latency":1,"avg_network_latency":1,"network_power":1,"accepted_throughput":1,"saturated":0}}"#,
        ]
        .join("\n");
        let mut client = ServiceClient::over(lines.as_bytes(), std::io::sink());
        match client.submit("bad", &jobs()) {
            Err(ServiceClientError::Protocol(m)) => assert!(m.contains("out of order"), "{m}"),
            other => panic!("expected protocol error, got {other:?}"),
        }
    }

    #[test]
    fn closed_stream_is_reported() {
        let mut client = ServiceClient::over(&b""[..], std::io::sink());
        assert!(matches!(
            client.submit("closed", &jobs()),
            Err(ServiceClientError::ConnectionClosed)
        ));
    }
}
