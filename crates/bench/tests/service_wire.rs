//! End-to-end wire test against the real `noc_serve` binary: spawn the
//! daemon on stdio, submit a sweep, kill it, spawn a second daemon on the
//! same cache directory, resubmit — the second batch must be 100% cache
//! hits with bit-identical result payloads, and the cache directory must
//! validate under `telemetry_check`. This is the executable form of the
//! SERVICE.md quickstart. `--compact` gets the same treatment: segments
//! from different batches fold into one that still answers every point.

use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};

use noc_sprinting::service::{BatchSummary, ServiceResponse};
use noc_sprinting::telemetry::ManifestPoint;

fn scratch_dir(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "noc-serve-wire-{label}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn spawn_daemon(cache: &std::path::Path) -> Child {
    Command::new(env!("CARGO_BIN_EXE_noc_serve"))
        .args(["--quick", "--workers", "2", "--cache"])
        .arg(cache)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn noc_serve")
}

const JOBS: [&str; 4] = [
    r#"{"level":4,"pattern":"uniform","rate":0.03,"seed":"0x65","baseline":"noc_sprinting"}"#,
    r#"{"level":4,"pattern":"transpose","rate":0.05,"seed":"0x66","baseline":"noc_sprinting"}"#,
    r#"{"level":8,"pattern":"tornado","rate":0.04,"seed":"0x67","baseline":"noc_sprinting"}"#,
    r#"{"level":8,"pattern":"hotspot","hot_fraction":0.3,"rate":0.06,"seed":"0x68","baseline":"spread_aggregate"}"#,
];

const OTHER_JOBS: [&str; 2] = [
    r#"{"level":6,"pattern":"uniform","rate":0.04,"seed":"0x71","baseline":"noc_sprinting"}"#,
    r#"{"level":16,"pattern":"tornado","rate":0.02,"seed":"0x72","baseline":"random_endpoints"}"#,
];

/// Drives one daemon lifetime: ping, submit `jobs` as one batch, shutdown;
/// returns the batch's ordered points and summary.
fn one_session(cache: &std::path::Path, jobs: &[&str]) -> (Vec<ManifestPoint>, BatchSummary) {
    let mut child = spawn_daemon(cache);
    let mut stdin = child.stdin.take().expect("stdin piped");
    let stdout = BufReader::new(child.stdout.take().expect("stdout piped"));
    writeln!(stdin, "{{\"type\":\"ping\"}}").unwrap();
    writeln!(
        stdin,
        r#"{{"type":"submit","id":"wire","label":"wire","jobs":[{}]}}"#,
        jobs.join(",")
    )
    .unwrap();
    writeln!(stdin, "{{\"type\":\"shutdown\"}}").unwrap();
    drop(stdin);
    let mut points = Vec::new();
    let mut summary = None;
    let mut got_pong = false;
    let mut progress_seen = 0usize;
    for line in stdout.lines() {
        let line = line.expect("daemon stdout");
        match ServiceResponse::from_json_line(&line).expect("well-formed event") {
            ServiceResponse::Pong { .. } => got_pong = true,
            ServiceResponse::Accepted { id, points } => {
                assert_eq!(id, "wire");
                assert_eq!(points, jobs.len());
            }
            ServiceResponse::Progress {
                completed, total, ..
            } => {
                assert!(completed >= 1 && completed <= total);
                progress_seen += 1;
            }
            ServiceResponse::Point { id, point } => {
                assert_eq!(id, "wire");
                assert_eq!(point.index, points.len(), "strict index order");
                points.push(point);
            }
            ServiceResponse::Done { id, summary: s } => {
                assert_eq!(id, "wire");
                summary = Some(s);
            }
            other => panic!("unexpected event: {other:?}"),
        }
    }
    let status = child.wait().expect("daemon exits");
    assert!(status.success(), "daemon exit status {status:?}");
    assert!(got_pong, "ping answered");
    assert_eq!(
        progress_seen,
        jobs.len(),
        "one progress event per completion"
    );
    (points, summary.expect("done event closes the batch"))
}

/// `cached` answers the same points as `fresh`, in the same order, each
/// from the cache and with bit-identical result payloads; only execution
/// metadata (cache_hit, duration) may differ — exactly what SERVICE.md
/// promises.
fn assert_cached_and_identical(fresh: &[ManifestPoint], cached: &[ManifestPoint]) {
    assert_eq!(fresh.len(), cached.len());
    for (a, b) in fresh.iter().zip(cached) {
        assert_eq!(a.seed, b.seed);
        assert_eq!(a.config_hash, b.config_hash);
        assert!(b.cache_hit);
        assert_eq!(a.metrics.len(), b.metrics.len());
        for ((na, va), (nb, vb)) in a.metrics.iter().zip(&b.metrics) {
            assert_eq!(na, nb);
            assert_eq!(va.to_bits(), vb.to_bits(), "metric {na} not bit-identical");
        }
    }
}

/// The `*.cache.jsonl` segments in `dir`, sorted by name.
fn segments(dir: &std::path::Path) -> Vec<PathBuf> {
    let mut segs: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("read cache dir")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.to_str().is_some_and(|s| s.ends_with(".cache.jsonl")))
        .collect();
    segs.sort();
    segs
}

#[test]
fn second_daemon_serves_the_sweep_entirely_from_cache() {
    let cache = scratch_dir("restart");
    let (first, s1) = one_session(&cache, &JOBS);
    assert_eq!(s1.points, 4);
    assert_eq!(s1.ok, 4);
    assert_eq!(s1.cache_hits, 0, "fresh cache simulates everything");
    assert!(first.iter().all(|p| !p.cache_hit));

    let (second, s2) = one_session(&cache, &JOBS);
    assert_eq!(
        s2.cache_hits, 4,
        "acceptance: cache-hit count equals point count"
    );
    assert_eq!(s2.cache_misses, 0);
    assert_eq!(s1.config_hash, s2.config_hash);

    assert_eq!(
        first.iter().map(|p| p.index).collect::<Vec<_>>(),
        second.iter().map(|p| p.index).collect::<Vec<_>>()
    );
    assert_cached_and_identical(&first, &second);

    // The shut-down daemons compacted: a single segment that passes
    // telemetry_check's cache validation.
    let status = Command::new(env!("CARGO_BIN_EXE_telemetry_check"))
        .arg(&cache)
        .status()
        .expect("run telemetry_check");
    assert!(status.success(), "telemetry_check validates the cache dir");
    let _ = std::fs::remove_dir_all(&cache);
}

/// `noc_serve --compact` folds segments written by different batches into
/// one, and a daemon over the compacted directory answers every point of
/// both batches from cache, bit-identical to the first answers.
#[test]
fn compact_folds_segments_and_keeps_every_answer() {
    let dir = scratch_dir("compact");
    let (cache_a, cache_b, merged) = (dir.join("a"), dir.join("b"), dir.join("merged"));
    let (first_a, _) = one_session(&cache_a, &JOBS);
    let (first_b, _) = one_session(&cache_b, &OTHER_JOBS);

    // Two segments from two batches, side by side in one directory.
    std::fs::create_dir_all(&merged).unwrap();
    for (i, seg) in segments(&cache_a)
        .iter()
        .chain(&segments(&cache_b))
        .enumerate()
    {
        std::fs::copy(seg, merged.join(format!("seg-{i:06}.cache.jsonl"))).unwrap();
    }
    assert_eq!(segments(&merged).len(), 2);

    let status = Command::new(env!("CARGO_BIN_EXE_noc_serve"))
        .args(["--quick", "--compact", "--cache"])
        .arg(&merged)
        .stderr(Stdio::null())
        .status()
        .expect("run noc_serve --compact");
    assert!(status.success(), "compaction succeeds");
    assert_eq!(segments(&merged).len(), 1, "compaction leaves one segment");

    let all_jobs: Vec<&str> = JOBS.iter().chain(&OTHER_JOBS).copied().collect();
    let (rerun, summary) = one_session(&merged, &all_jobs);
    assert_eq!(
        summary.cache_hits,
        all_jobs.len() as u64,
        "every point is a cache hit"
    );
    assert_eq!(summary.cache_misses, 0);
    let first: Vec<ManifestPoint> = first_a.into_iter().chain(first_b).collect();
    assert_cached_and_identical(&first, &rerun);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn malformed_and_failing_requests_keep_the_daemon_alive() {
    let cache = scratch_dir("errors");
    let mut child = spawn_daemon(&cache);
    let mut stdin = child.stdin.take().expect("stdin piped");
    let stdout = BufReader::new(child.stdout.take().expect("stdout piped"));
    // Garbage, then a batch whose second job fails (transpose needs a
    // square active set), then proof of life.
    writeln!(stdin, "this is not json").unwrap();
    writeln!(
        stdin,
        r#"{{"type":"submit","id":"half","jobs":[{{"level":4,"pattern":"uniform","rate":0.03,"seed":"0x1","baseline":"noc_sprinting"}},{{"level":2,"pattern":"transpose","rate":0.05,"seed":"0x2","baseline":"noc_sprinting"}}]}}"#
    )
    .unwrap();
    writeln!(stdin, "{{\"type\":\"ping\"}}").unwrap();
    writeln!(stdin, "{{\"type\":\"shutdown\"}}").unwrap();
    drop(stdin);
    let mut saw_error = false;
    let mut saw_failed = false;
    let mut saw_point = false;
    let mut saw_pong = false;
    let mut done = None;
    for line in stdout.lines() {
        match ServiceResponse::from_json_line(&line.unwrap()).unwrap() {
            ServiceResponse::Error { id, .. } => {
                assert_eq!(id, None, "parse errors have no request id");
                saw_error = true;
            }
            ServiceResponse::PointFailed { id, index, error, .. } => {
                assert_eq!(id, "half");
                assert_eq!(index, 1);
                assert!(!error.is_empty());
                saw_failed = true;
            }
            ServiceResponse::Point { point, .. } => {
                assert_eq!(point.index, 0);
                saw_point = true;
            }
            ServiceResponse::Pong { .. } => saw_pong = true,
            ServiceResponse::Done { summary, .. } => done = Some(summary),
            ServiceResponse::Accepted { .. } | ServiceResponse::Progress { .. } => {}
            other => panic!("unexpected event: {other:?}"),
        }
    }
    assert!(child.wait().expect("daemon exits").success());
    assert!(saw_error, "malformed line produced an error event");
    assert!(saw_point, "healthy point still evaluated");
    assert!(saw_failed, "failing point surfaced as point_failed");
    assert!(saw_pong, "daemon alive after both");
    let done = done.expect("batch closed");
    assert_eq!(done.ok, 1);
    assert_eq!(done.failed, 1);
    let _ = std::fs::remove_dir_all(&cache);
}

/// Hostile input gets an `error` reply on the same connection, and the
/// daemon keeps serving: a 300k-deep bracket line (which once overflowed
/// the parser's stack), a line past the length limit, and a job naming a
/// topology far beyond the node limit (which once reached the allocator).
#[test]
fn hostile_lines_get_errors_and_the_daemon_keeps_serving() {
    let cache = scratch_dir("hostile");
    let mut child = spawn_daemon(&cache);
    let mut stdin = child.stdin.take().expect("stdin piped");
    let stdout = BufReader::new(child.stdout.take().expect("stdout piped"));
    let writer = std::thread::spawn(move || {
        writeln!(stdin, "{}", "[".repeat(300_000)).unwrap();
        writeln!(stdin, "{{\"type\":\"ping\"}}").unwrap();
        let oversized = "x".repeat(noc_sprinting::service::MAX_REQUEST_LINE_BYTES + 1);
        writeln!(stdin, "{oversized}").unwrap();
        writeln!(stdin, "{{\"type\":\"ping\"}}").unwrap();
        writeln!(
            stdin,
            r#"{{"type":"submit","id":"huge","jobs":[{{"topology":"mesh65535x65535","level":4,"pattern":"uniform","rate":0.03,"seed":"0x1","baseline":"noc_sprinting"}}]}}"#
        )
        .unwrap();
        writeln!(stdin, "{{\"type\":\"ping\"}}").unwrap();
        writeln!(stdin, "{{\"type\":\"shutdown\"}}").unwrap();
    });
    let mut kinds = Vec::new();
    for line in stdout.lines() {
        let kind = match ServiceResponse::from_json_line(&line.unwrap()).unwrap() {
            ServiceResponse::Error { id, message } => {
                assert_eq!(id, None);
                assert!(message.starts_with("bad request"), "{message}");
                "error"
            }
            ServiceResponse::PointFailed { id, error, .. } => {
                assert_eq!(id, "huge");
                assert!(error.contains("the limit is 4096"), "{error}");
                "point_failed"
            }
            ServiceResponse::Pong { .. } => "pong",
            ServiceResponse::Done { summary, .. } => {
                assert_eq!((summary.ok, summary.failed), (0, 1));
                "done"
            }
            ServiceResponse::Accepted { .. } | ServiceResponse::Progress { .. } => continue,
            other => panic!("unexpected event: {other:?}"),
        };
        kinds.push(kind);
    }
    writer.join().expect("writer thread");
    assert!(child.wait().expect("daemon exits").success());
    assert_eq!(
        kinds,
        ["error", "pong", "error", "pong", "point_failed", "done", "pong"]
    );
    let _ = std::fs::remove_dir_all(&cache);
}
