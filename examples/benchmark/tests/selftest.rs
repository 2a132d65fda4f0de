//! Self-test of the benchmark at smoke scale: every metric `BENCHMARK.json`
//! names comes out with its unit, counts are checked, modeled numbers
//! repeat exactly for a seed, and `compare.py` gives the right verdicts.
//!
//! Run with `cargo test --manifest-path examples/benchmark/Cargo.toml`.

use std::path::{Path, PathBuf};
use std::process::Command;

use tc_benchmark::run::{self, Run};
use tc_benchmark::stats::Metric;
use tc_benchmark::tracer::Tracer;
use tc_benchmark::workload::{Setup, Workload};
use tc_core::CountRequest;
use tc_gen::suite::SUITE_SEED;
use tc_gen::{Scale, Seed};

fn smoke_setup(workload: Workload, seed: Seed, tracer: &mut Tracer) -> Setup {
    Setup::new(workload, Scale::Smoke, seed, 1, 0.0, tracer)
}

/// One pass (two when traced) at smoke scale.
fn smoke_run(workload: Workload, seed: Seed, trace: bool) -> Run {
    let mut tracer = Tracer::new(trace);
    let setup = smoke_setup(workload, seed, &mut tracer);
    run::run(&setup, 0.0, trace, &mut tracer)
}

fn bench_json() -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
}

/// The string value of `"key"` in a flat JSON object's text.
fn field(object: &str, key: &str) -> Option<String> {
    let at = object.find(&format!("\"{key}\""))? + key.len() + 2;
    let rest = object[at..].trim_start().strip_prefix(':')?.trim_start();
    let rest = rest.strip_prefix('"')?;
    Some(rest[..rest.find('"')?].to_string())
}

/// `(name, unit)` of every metric in one of BENCHMARK.json's metric lists.
fn declared(section: &str) -> Vec<(String, String)> {
    let json = bench_json();
    let start = json
        .find(&format!("\"{section}\""))
        .expect("section present");
    let open = start + json[start..].find('[').expect("a list");
    let close = open + json[open..].find(']').expect("a closed list");
    json[open + 1..close]
        .split('{')
        .filter_map(|obj| Some((field(obj, "name")?, field(obj, "unit")?)))
        .collect()
}

fn value(metrics: &[Metric], name: &str) -> f64 {
    metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("{name} emitted"))
        .value
}

#[test]
fn every_declared_metric_is_emitted_with_its_unit() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    assert!(end_to_end.iter().any(|(n, u)| n == "setup_s" && u == "s"));
    assert!(!per_layer.is_empty());
    for workload in Workload::ALL {
        for (trace, want) in [(false, &end_to_end), (true, &per_layer)] {
            let run = smoke_run(workload, SUITE_SEED, trace);
            let got: Vec<(String, String)> = run
                .metrics
                .iter()
                .map(|m| (m.name.clone(), m.unit.to_string()))
                .collect();
            assert_eq!(&got, want, "{} trace={trace}", workload.name());
            assert!(run.attempted > 0);
            assert_eq!(run.failed, 0, "{} trace={trace}", workload.name());
            for m in &run.metrics {
                assert!(m.value.is_finite(), "{} {}", workload.name(), m.name);
            }
            if !trace {
                for m in &run.metrics {
                    assert!(m.value > 0.0, "{} {} is 0", workload.name(), m.name);
                }
            }
        }
    }
}

/// Per-layer metrics that come from the modeled clock or device counters
/// (everything except host times, host ratios and memory).
fn deterministic(run: &Run) -> Vec<(String, f64)> {
    run.metrics
        .iter()
        .filter(|m| {
            !(m.name.contains("host") || m.unit == "MB" || m.name.ends_with("_x"))
                && m.name != "engine.queue_wait_frac"
        })
        .map(|m| (m.name.clone(), m.value))
        .chain(run.op_modeled_ms.iter().cloned())
        .collect()
}

#[test]
fn modeled_numbers_repeat_for_a_seed_and_move_with_another() {
    for workload in Workload::ALL {
        let a = smoke_run(workload, SUITE_SEED, true);
        let b = smoke_run(workload, SUITE_SEED, true);
        let other = smoke_run(workload, Seed(1), true);
        let (da, db, dc) = (deterministic(&a), deterministic(&b), deterministic(&other));
        // Bit-identical: compare the printed bytes.
        assert_eq!(format!("{da:?}"), format!("{db:?}"), "{}", workload.name());
        assert_ne!(format!("{da:?}"), format!("{dc:?}"), "{}", workload.name());
        let e2e = |seed| value(&smoke_run(workload, seed, false).metrics, "modeled_ms");
        assert_eq!(e2e(SUITE_SEED).to_bits(), e2e(SUITE_SEED).to_bits());
        assert_ne!(e2e(SUITE_SEED).to_bits(), e2e(Seed(1)).to_bits());
    }
}

#[test]
fn one_shot_modeled_time_matches_the_front_door() {
    let mut tracer = Tracer::new(false);
    let setup = smoke_setup(Workload::PaperGtx980, SUITE_SEED, &mut tracer);
    let run = run::run(&setup, 0.0, false, &mut tracer);
    for (op, (label, ms)) in setup.ops.iter().zip(&run.op_modeled_ms) {
        let g = &setup.graphs[op.graph];
        let front = CountRequest::new(op.backend.clone()).run(&g.edges).unwrap();
        assert_eq!(front.seconds * 1e3, *ms, "{label}");
        assert_eq!(front.triangles, g.oracle, "{label}");
    }
}

#[test]
fn a_wrong_oracle_fails_operations_without_aborting() {
    for workload in Workload::ALL {
        let mut tracer = Tracer::new(false);
        let mut setup = smoke_setup(workload, SUITE_SEED, &mut tracer);
        setup.graphs[0].oracle += 1;
        let run = run::run(&setup, 0.0, false, &mut tracer);
        let uses_first = setup.ops.iter().filter(|op| op.graph == 0).count();
        assert_eq!(run.failed, uses_first, "{}", workload.name());
        assert_eq!(run.attempted, setup.ops.len(), "{}", workload.name());
    }
}

#[test]
fn traced_run_writes_a_chrome_trace_and_layer_self_times() {
    let mut tracer = Tracer::new(true);
    let setup = smoke_setup(Workload::ServeMixed, SUITE_SEED, &mut tracer);
    let run = run::run(&setup, 0.0, true, &mut tracer);
    let (chrome, layers) = tc_benchmark::trace_files(Workload::ServeMixed, 1, &run, &tracer);
    assert!(chrome.starts_with("[\n") && chrome.contains("run_batch: run_batch"));
    for layer in [
        "pass",
        "op",
        "gen",
        "forward",
        "run_batch",
        "prepare",
        "count",
    ] {
        assert!(
            layers.contains(&format!("\"{layer}\":")),
            "{layer} in {layers}"
        );
    }
    assert!(run.span_coverage > 0.0 && run.span_coverage <= 1.0);
}

/// One `--out` line for `compare.py`.
fn runs_line(workload: &str, metrics: &[(&str, f64)], failed: usize) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"s\"}}"))
        .collect();
    format!(
        "{{\"workload\": \"{workload}\", \"seed\": 1, \"trace\": 0, \"result\": {{\"correct\": {}, \
         \"attempted\": 10, \"failed\": {failed}, \"metrics\": {{{}}}}}}}\n",
        failed == 0,
        body.join(", ")
    )
}

fn compare(dir: &Path, a: &[String], b: &[String]) -> (i32, String) {
    let bench = dir.join("BENCHMARK.json");
    std::fs::write(
        &bench,
        r#"{"workloads": [{"name": "w", "why": "synthetic"}],
            "end_to_end": [
              {"name": "lat", "unit": "s", "better": "lower", "bound": 0.1},
              {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1}]}"#,
    )
    .unwrap();
    let (pa, pb) = (dir.join("a.jsonl"), dir.join("b.jsonl"));
    std::fs::write(&pa, a.concat()).unwrap();
    std::fs::write(&pb, b.concat()).unwrap();
    let script = Path::new(env!("CARGO_MANIFEST_DIR")).join("compare.py");
    let out = Command::new("python3")
        .arg(script)
        .arg(&pa)
        .arg(&pb)
        .arg("--bench")
        .arg(&bench)
        .output()
        .expect("python3 runs");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

fn verdict_of(table: &str, metric: &str) -> String {
    let row = table
        .lines()
        .find(|l| l.split_whitespace().nth(1) == Some(metric))
        .unwrap_or_else(|| panic!("row for {metric} in\n{table}"));
    row.split_whitespace().last().unwrap().to_string()
}

#[test]
fn compare_py_gives_the_right_verdicts() {
    if Command::new("python3").arg("--version").output().is_err() {
        eprintln!("python3 absent; skipping the compare.py check");
        return;
    }
    let dir: PathBuf =
        std::env::temp_dir().join(format!("tc-bench-compare-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let steady = |lat: f64, rate: f64| -> Vec<String> {
        (0..5)
            .map(|i| runs_line("w", &[("lat", lat + i as f64 * 0.001), ("rate", rate)], 0))
            .collect()
    };

    // Same numbers: ok.
    let (code, table) = compare(&dir, &steady(1.0, 50.0), &steady(1.0, 50.0));
    assert_eq!(
        (code, verdict_of(&table, "lat")),
        (0, "ok".into()),
        "{table}"
    );

    // Latency 30% worse, rate 30% lower: regressed, exit 1.
    let (code, table) = compare(&dir, &steady(1.0, 50.0), &steady(1.3, 35.0));
    assert_eq!(code, 1, "{table}");
    assert_eq!(verdict_of(&table, "lat"), "regressed");
    assert_eq!(verdict_of(&table, "rate"), "regressed");

    // A's spread wider than the bound and B not better in every run:
    // unresolved, which alone does not fail.
    let noisy: Vec<String> = [0.7, 0.8, 1.0, 1.2, 1.3]
        .iter()
        .map(|&lat| runs_line("w", &[("lat", lat), ("rate", 50.0)], 0))
        .collect();
    let (code, table) = compare(&dir, &noisy, &steady(1.0, 50.0));
    assert_eq!(
        (code, verdict_of(&table, "lat")),
        (0, "unresolved".into()),
        "{table}"
    );

    // Wide spread, but every B run beats every A run: ok.
    let (code, table) = compare(&dir, &noisy, &steady(0.5, 50.0));
    assert_eq!(
        (code, verdict_of(&table, "lat")),
        (0, "ok".into()),
        "{table}"
    );

    // More failed operations: exit 1 even with every metric ok.
    let failing: Vec<String> = (0..5)
        .map(|_| runs_line("w", &[("lat", 1.0), ("rate", 50.0)], 1))
        .collect();
    let (code, table) = compare(&dir, &steady(1.0, 50.0), &failing);
    assert_eq!(code, 1, "{table}");
    assert!(table.contains("failed ops rose"), "{table}");

    std::fs::remove_dir_all(&dir).unwrap();
}
