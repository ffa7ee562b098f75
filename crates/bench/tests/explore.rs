//! The `explore` binary end to end. Its points are `SyntheticJob`s, so a
//! local run and a run served by a real `noc_serve` daemon must print the
//! same rows, and its telemetry manifest must carry the daemon's config
//! hashes (the jobs' cache keys).

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};

use noc_sim::topology::TopologySpec;
use noc_sim::traffic::TrafficPattern;
use noc_sprinting::runner::{point_seed, SyntheticBaseline, SyntheticJob};
use noc_sprinting::telemetry::RunManifest;

fn scratch_dir(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("noc-explore-{label}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn explore(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_explore"))
        .args(args)
        .env_remove("NOC_BENCH_TELEMETRY")
        .env_remove("NOC_SERVE_SOCKET")
        .output()
        .expect("run explore")
}

/// Runs `explore` and returns its stdout, failing the test on a non-zero
/// exit.
fn explore_ok(args: &[&str]) -> String {
    let out = explore(args);
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "explore {args:?} exited {:?}\nstdout:\n{stdout}\nstderr:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

/// The result rows: every line after the column header.
fn rows(stdout: &str) -> Vec<&str> {
    stdout
        .lines()
        .skip_while(|l| !l.trim_start().starts_with("offered"))
        .skip(1)
        .collect()
}

/// A `noc_serve` daemon on a Unix socket, killed on drop.
struct Daemon {
    child: Child,
    socket: PathBuf,
}

impl Daemon {
    fn spawn(dir: &Path) -> Daemon {
        let socket = dir.join("noc.sock");
        let child = Command::new(env!("CARGO_BIN_EXE_noc_serve"))
            .args(["--workers", "2", "--socket"])
            .arg(&socket)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn noc_serve");
        let deadline = Instant::now() + Duration::from_secs(30);
        while !socket.exists() {
            assert!(
                Instant::now() < deadline,
                "noc_serve never bound its socket"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
        Daemon { child, socket }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

#[test]
fn local_rows_match_the_daemon_and_the_manifest_joins_its_point_stream() {
    let dir = scratch_dir("service");
    let daemon = Daemon::spawn(&dir);
    let socket = daemon.socket.to_str().expect("utf-8 path");
    let tel = dir.join("tel");
    let tel_arg = tel.to_str().expect("utf-8 path");

    let local = explore_ok(&[
        "--loads",
        "0.05,0.15",
        "--workers",
        "2",
        "--telemetry",
        tel_arg,
    ]);
    let served = explore_ok(&["--loads", "0.05,0.15", "--service", socket]);
    assert_eq!(rows(&local).len(), 2, "{local}");
    assert_eq!(
        rows(&local),
        rows(&served),
        "local:\n{local}\nserved:\n{served}"
    );

    // `--full` is a plain job too, so the daemon serves it.
    let local_full = explore_ok(&["--full", "--loads", "0.05", "--workers", "1"]);
    let served_full = explore_ok(&["--full", "--loads", "0.05", "--service", socket]);
    assert_eq!(rows(&local_full).len(), 1, "{local_full}");
    assert_eq!(rows(&local_full), rows(&served_full));

    // The manifest's per-point config hashes are the daemon's, so the two
    // join: resubmitting explore's jobs is answered entirely from cache.
    let manifest = std::fs::read_to_string(tel.join("explore.manifest.jsonl")).expect("manifest");
    let manifest = RunManifest::from_jsonl(&manifest).expect("manifest parses");
    let jobs: Vec<SyntheticJob> = [0.05, 0.15]
        .iter()
        .enumerate()
        .map(|(i, &rate)| SyntheticJob {
            topology: TopologySpec::default(),
            level: 4,
            pattern: TrafficPattern::UniformRandom,
            rate,
            seed: point_seed(1, i),
            baseline: SyntheticBaseline::NocSprinting,
        })
        .collect();
    let mut client = noc_bench::client::connect_unix(&daemon.socket).expect("dial daemon");
    let batch = client.submit("explore-test", &jobs).expect("submit");
    assert_eq!(
        batch.summary.cache_hits, 2,
        "explore --service ran these jobs"
    );
    let hashes = |pts: &[noc_sprinting::telemetry::ManifestPoint]| {
        pts.iter().map(|p| p.config_hash).collect::<Vec<_>>()
    };
    assert_eq!(hashes(&manifest.points), hashes(&batch.points));
    assert_eq!(manifest.points.len(), 2);

    // One time-series CSV per point, and no more.
    for i in 0..2 {
        let csv = std::fs::read_to_string(tel.join(format!("explore.point{i}.timeseries.csv")))
            .expect("time-series csv");
        assert!(csv.starts_with("cycle,node,"), "point {i}: {csv:.80}");
    }
    assert!(!tel.join("explore.point2.timeseries.csv").exists());
    drop(daemon);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn circulant_topology_runs() {
    let out = explore_ok(&[
        "--topology",
        "circ16s5",
        "--level",
        "5",
        "--loads",
        "0.05,0.15",
    ]);
    assert!(
        out.starts_with("topology circ16s5, master 0, level 5 (11 routers gated)"),
        "{out}"
    );
    let rows = rows(&out);
    assert_eq!(rows.len(), 2, "{out}");
    assert!(
        rows.iter().all(|r| r.ends_with(" no")),
        "unsaturated at low load:\n{out}"
    );
}

#[test]
fn bad_flag_combinations_are_usage_errors() {
    for args in [
        &["--service", "/nonexistent.sock", "--telemetry", "/tmp/x"][..],
        &["--service", "/nonexistent.sock", "--master", "3"],
        &["--mesh", "8x8"],
        &["--topology", "torus4x4"],
        &["--topology", "circ16s5", "--level", "17"],
        &["--pattern", "zigzag"],
    ] {
        let out = explore(args);
        assert_eq!(out.status.code(), Some(2), "explore {args:?}");
        assert!(out.stdout.is_empty(), "explore {args:?} printed rows");
    }
}
