//! A single-connection, closed-loop client of a `noc_serve` child process
//! speaking the JSONL wire contract over its stdin/stdout.

use std::io::{self, BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::Instant;

use noc_sprinting::runner::SyntheticJob;
use noc_sprinting::service::ServiceResponse;

/// One streamed point as the client received it.
#[derive(Debug, Clone, PartialEq)]
pub struct Received {
    /// Whether the daemon answered from its cache.
    pub cache_hit: bool,
    /// The point's metrics, in wire order.
    pub metrics: Vec<(String, f64)>,
}

/// What one batch returned.
#[derive(Debug, Default)]
pub struct BatchReply {
    /// Per job index: the point, or `None` if it failed or never came.
    pub points: Vec<Option<Received>>,
    /// Milliseconds from writing the submit to reading each point event.
    pub latency_ms: Vec<f64>,
    /// `point_failed` + `busy` + `error` events and missing points.
    pub failed: usize,
    /// Contract violations (ordering, identity, accounting).
    pub violations: Vec<String>,
}

/// A running daemon, stopped (and waited for) on drop at the latest.
#[derive(Debug)]
pub struct Daemon {
    child: Child,
    stdin: Option<ChildStdin>,
    out: BufReader<ChildStdout>,
    line: String,
}

impl Daemon {
    /// Spawns `bin` on cache directory `cache` with `workers` runner
    /// threads; returns it with the seconds from spawn to its first `pong`.
    pub fn spawn(bin: &Path, cache: &Path, workers: usize) -> io::Result<(Daemon, f64)> {
        let start = Instant::now();
        let mut child = Command::new(bin)
            .arg("--cache")
            .arg(cache)
            .arg("--workers")
            .arg(workers.to_string())
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let stdin = child.stdin.take().expect("stdin was piped");
        let out = BufReader::new(child.stdout.take().expect("stdout was piped"));
        let mut daemon = Daemon {
            child,
            stdin: Some(stdin),
            out,
            line: String::new(),
        };
        daemon.send(r#"{"type":"ping"}"#)?;
        match daemon.next_event()? {
            ServiceResponse::Pong { .. } => Ok((daemon, start.elapsed().as_secs_f64())),
            other => Err(io::Error::other(format!("expected pong, got {other:?}"))),
        }
    }

    fn send(&mut self, line: &str) -> io::Result<()> {
        let stdin = self
            .stdin
            .as_mut()
            .ok_or_else(|| io::Error::other("stdin closed"))?;
        stdin.write_all(line.as_bytes())?;
        stdin.write_all(b"\n")?;
        stdin.flush()
    }

    fn next_event(&mut self) -> io::Result<ServiceResponse> {
        self.line.clear();
        if self.out.read_line(&mut self.line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon closed stdout",
            ));
        }
        ServiceResponse::from_json_line(self.line.trim_end()).map_err(io::Error::other)
    }

    /// Sends the pre-encoded submit `line` for `jobs` under request `id`
    /// and reads events until the batch's `done` (or its `busy`).
    pub fn submit(
        &mut self,
        id: &str,
        line: &str,
        jobs: &[SyntheticJob],
    ) -> io::Result<BatchReply> {
        let n = jobs.len();
        let mut reply = BatchReply {
            points: vec![None; n],
            latency_ms: Vec::with_capacity(n),
            ..BatchReply::default()
        };
        let mut next = 0usize;
        let start = Instant::now();
        self.send(line)?;
        loop {
            let event = self.next_event()?;
            let at_ms = start.elapsed().as_secs_f64() * 1e3;
            match event {
                ServiceResponse::Progress { .. } => {}
                ServiceResponse::Accepted { id: got, points } => {
                    if got != id || points != n {
                        reply
                            .violations
                            .push(format!("accepted {got}/{points} for {id}/{n}"));
                    }
                }
                ServiceResponse::Point { id: got, point } => {
                    let expected = jobs.get(point.index);
                    if got != id
                        || point.index != next
                        || expected.map(SyntheticJob::cache_key) != Some(point.config_hash)
                        || expected.map(|j| j.seed) != Some(point.seed)
                    {
                        reply
                            .violations
                            .push(format!("{id}: unexpected point {}", point.index));
                    } else {
                        reply.latency_ms.push(at_ms);
                        reply.points[next] = Some(Received {
                            cache_hit: point.cache_hit,
                            metrics: point.metrics,
                        });
                    }
                    next = point.index + 1;
                }
                ServiceResponse::PointFailed { index, error, .. } => {
                    reply.failed += 1;
                    reply
                        .violations
                        .push(format!("{id}: point {index} failed: {error}"));
                    next = index + 1;
                }
                ServiceResponse::Busy { .. } => {
                    reply.failed += n;
                    reply.violations.push(format!("{id}: rejected busy"));
                    return Ok(reply);
                }
                ServiceResponse::Error { id: got, message } => {
                    reply.failed += 1;
                    reply.violations.push(format!("{id}: error {message}"));
                    if got.is_none() {
                        return Ok(reply);
                    }
                }
                ServiceResponse::Done { summary, .. } => {
                    // Failed and cancelled points were counted as their
                    // events arrived; count the ones that never came.
                    let missing = reply.points.iter().filter(|p| p.is_none()).count();
                    let reported = summary.failed + summary.cancelled;
                    reply.failed += missing.saturating_sub(reported);
                    if summary.ok + reported != n || missing != reported {
                        reply
                            .violations
                            .push(format!("{id}: done summary disagrees with stream"));
                    }
                    return Ok(reply);
                }
                other => reply
                    .violations
                    .push(format!("{id}: unexpected event {other:?}")),
            }
        }
    }

    /// The daemon's peak resident set (`VmHWM`), in MiB.
    pub fn peak_rss_mb(&self) -> io::Result<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kib| kib / 1024.0)
            .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))
    }

    /// Asks the daemon to exit and waits for it; fails unless it exits 0.
    pub fn shutdown(mut self) -> io::Result<()> {
        self.send(r#"{"type":"shutdown"}"#)?;
        self.stdin = None;
        let status = self.child.wait()?;
        if status.success() {
            Ok(())
        } else {
            Err(io::Error::other(format!("daemon exited with {status}")))
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // After a clean `shutdown` the child is already reaped and both
        // calls are harmless no-ops.
        self.stdin = None;
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}
