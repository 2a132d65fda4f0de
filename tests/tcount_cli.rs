//! End-to-end tests of the `tcount` CLI binary.

use std::path::PathBuf;
use std::process::Command;

use triangles::gen::{erdos_renyi, Seed};
use triangles::graph::io;

fn tcount_bin() -> PathBuf {
    // Cargo puts integration-test binaries under target/<profile>/deps.
    let mut path = std::env::current_exe().unwrap();
    path.pop(); // deps/
    path.pop(); // <profile>/
    path.push(format!("tcount{}", std::env::consts::EXE_SUFFIX));
    path
}

fn fixture_file() -> (PathBuf, u64) {
    let g = erdos_renyi::gnm(100, 600, Seed(42));
    let expected = triangles::core::CountRequest::new(triangles::core::Backend::CpuForward)
        .run(&g)
        .unwrap()
        .triangles;
    let dir = std::env::temp_dir().join("tcount_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("fixture.txt");
    // The tests run in parallel and share the fixture: write a private copy
    // and rename it into place, so no test reads a half-written file.
    let tmp = dir.join(format!(
        "fixture.{}.{:?}.tmp",
        std::process::id(),
        std::thread::current().id()
    ));
    io::write_text(&g, &tmp).unwrap();
    std::fs::rename(&tmp, &path).unwrap();
    (path, expected)
}

#[test]
fn counts_a_text_file() {
    let (path, expected) = fixture_file();
    let out = Command::new(tcount_bin())
        .arg(&path)
        .args(["--backend", "forward", "--validate"])
        .output()
        .expect("tcount must be built (cargo test builds workspace bins)");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains(&format!("triangles: {expected}")),
        "{stdout}"
    );
    assert!(stdout.contains("validation: ok"));
}

#[test]
fn gpu_backend_reports_profile() {
    let (path, expected) = fixture_file();
    let out = Command::new(tcount_bin())
        .arg(&path)
        .args(["--backend", "gtx980", "--clustering"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains(&format!("triangles: {expected}")),
        "{stdout}"
    );
    assert!(stdout.contains("tex hit"));
    assert!(stdout.contains("transitivity ratio"));
}

#[test]
fn trace_flag_writes_a_chrome_trace() {
    let (path, expected) = fixture_file();
    let trace = std::env::temp_dir()
        .join("tcount_cli_test")
        .join("trace.json");
    let out = Command::new(tcount_bin())
        .arg(&path)
        .args(["--backend", "gtx980", "--trace", trace.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains(&format!("triangles: {expected}")));
    let content = std::fs::read_to_string(&trace).unwrap();
    assert!(content.contains("CountTriangles"));
    assert!(content.trim_end().ends_with(']'));

    // Trace with a CPU backend is rejected.
    let out = Command::new(tcount_bin())
        .arg(&path)
        .args(["--backend", "forward", "--trace", trace.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn multi_gpu_trace_names_every_device() {
    let (path, expected) = fixture_file();
    let trace = std::env::temp_dir()
        .join("tcount_cli_test")
        .join("multi_trace.json");
    let out = Command::new(tcount_bin())
        .arg(&path)
        .args(["--backend", "4xc2050", "--trace", trace.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains(&format!("triangles: {expected}")));
    let content = std::fs::read_to_string(&trace).unwrap();
    for dev in ["gpu0", "gpu1", "gpu2", "gpu3"] {
        assert!(content.contains(dev), "trace missing thread {dev}");
    }
    // Nested spans are present alongside leaf operations.
    assert!(content.contains("\"broadcast\""));
    assert!(content.contains("\"count-kernel\""));
}

#[test]
fn profile_flag_prints_phase_table_and_writes_json() {
    let (path, expected) = fixture_file();
    let json = std::env::temp_dir()
        .join("tcount_cli_test")
        .join("profile.json");
    let out = Command::new(tcount_bin())
        .arg(&path)
        .args(["--backend", "gtx980", "--profile", json.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains(&format!("triangles: {expected}")));
    // The eight preprocessing steps plus the counting kernel, each a row.
    for phase in [
        "1-copy-edges",
        "5-mark-backward",
        "8-node-array",
        "count-kernel",
        "total",
    ] {
        assert!(
            stdout.contains(phase),
            "missing profile row {phase}:\n{stdout}"
        );
    }
    for column in ["tex hit", "BW [GB/s]", "stall [cyc]", "occupancy"] {
        assert!(stdout.contains(column), "missing column {column}");
    }
    let report = std::fs::read_to_string(&json).unwrap();
    assert!(report.contains("\"phases\""));
    assert!(report.contains("\"preprocess/3-sort-edges\""));
    assert_eq!(report.matches('{').count(), report.matches('}').count());

    // Print-only form: no FILE operand, table still printed.
    let out = Command::new(tcount_bin())
        .arg(&path)
        .args(["--backend", "gtx980", "--profile"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("count-kernel"));
    assert!(!stdout.contains("profile written"));

    // Profiling a CPU backend is rejected.
    let out = Command::new(tcount_bin())
        .arg(&path)
        .args(["--backend", "forward", "--profile"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn split_backends_profile_but_do_not_trace() {
    let (path, expected) = fixture_file();
    let out = Command::new(tcount_bin())
        .arg(&path)
        .args(["--backend", "gtx980/split:3", "--profile"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains(&format!("triangles: {expected}")));
    assert!(stdout.contains("count-kernel"), "{stdout}");

    let trace = std::env::temp_dir()
        .join("tcount_cli_test")
        .join("split-trace.json");
    let out = Command::new(tcount_bin())
        .arg(&path)
        .args(["--backend", "gtx980/split:3", "--trace"])
        .arg(&trace)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn usage_lists_every_subcommand_and_the_verifier() {
    let out = Command::new(tcount_bin()).arg("--help").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let usage = String::from_utf8_lossy(&out.stderr);
    for item in [
        "/verify",
        "/sanitize",
        "verify-selftest",
        "sanitize-selftest",
    ] {
        assert!(usage.contains(item), "usage lacks {item}:\n{usage}");
    }
}

#[test]
fn bad_usage_fails_cleanly() {
    let out = Command::new(tcount_bin()).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let out = Command::new(tcount_bin())
        .args(["/nonexistent/file.txt"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let (path, _) = fixture_file();
    let out = Command::new(tcount_bin())
        .arg(&path)
        .args(["--backend", "quantum"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
}
