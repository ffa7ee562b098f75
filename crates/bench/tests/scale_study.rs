//! The `scale_study` binary in its quick mode: every point of the 8x8
//! sweep must evaluate (jobs carry their own mesh topology) and the binary
//! must exit cleanly.

use std::process::Command;

#[test]
fn scale_study_quick_8x8_runs_every_point() {
    let out = Command::new(env!("CARGO_BIN_EXE_scale_study"))
        .args(["--mesh", "8", "--quick"])
        .env("NOC_BENCH_WORKERS", "2")
        .output()
        .expect("run scale_study");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "exit {:?}\nstdout:\n{stdout}\nstderr:\n{stderr}", out.status);
    assert!(
        !stdout.contains("point_failed") && !stderr.contains("point_failed"),
        "a point failed:\n{stderr}"
    );
    for level in ["4/64 cores", "16/64 cores", "64/64 cores"] {
        assert!(stdout.contains(level), "missing row {level}:\n{stdout}");
    }
    assert!(stderr.contains("[6 points (0 cache hits)"), "{stderr}");
}
