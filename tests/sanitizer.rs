//! The compute-sanitizer layer must be three things at once: **clean** on
//! every legitimate run (the whole evaluation suite, on every device
//! preset, under both the paper's schedule and the balanced one),
//! **deterministic** when it does fire (the seeded-bug reports are
//! byte-identical run to run), and a **pure observer** (Check mode changes
//! no modeled quantity, and Off leaves the golden numbers untouched).

mod common;

use triangles::core::count::{Backend, CountRequest};
use triangles::core::cpu::count_forward;
use triangles::gen::suite::{full_suite, Scale};
use triangles::graph::EdgeArray;
use triangles::simt::sanitizer::selftest;
use triangles::simt::{FindingKind, SanitizerMode};

fn sanitized_run(g: &EdgeArray, token: &str) -> triangles::core::TriangleCount {
    let backend: Backend = token.parse().unwrap_or_else(|e| panic!("{token}: {e}"));
    CountRequest::new(backend)
        .run(g)
        .unwrap_or_else(|e| panic!("{token}: {e}"))
}

#[test]
fn whole_suite_is_clean_on_every_preset_and_schedule() {
    let suite = full_suite(Scale::Smoke);
    for row in &suite {
        let want = count_forward(&row.graph).unwrap();
        for device in ["nvs5200m", "c2050", "gtx980"] {
            for schedule in ["", "/balanced"] {
                let token = format!("{device}{schedule}/sanitize");
                let result = sanitized_run(&row.graph, &token);
                assert_eq!(result.triangles, want, "{} on {token}", row.name);
                let report = result
                    .sanitizer
                    .as_ref()
                    .expect("sanitized backends attach a report");
                assert_eq!(report.mode, SanitizerMode::Check);
                assert!(
                    report.is_clean(),
                    "{} on {token} is not clean:\n{}",
                    row.name,
                    report.to_json()
                );
            }
        }
    }
}

#[test]
fn multi_gpu_and_split_backends_are_clean_and_report() {
    let suite = full_suite(Scale::Smoke);
    let row = &suite[3]; // citeseer: triangle-dense, exercises heavy bins
    let want = count_forward(&row.graph).unwrap();
    for token in [
        "2xc2050/sanitize",
        "4xgtx980/balanced/sanitize",
        "gtx980/split:3/sanitize",
    ] {
        let result = sanitized_run(&row.graph, token);
        assert_eq!(result.triangles, want, "{token}");
        let report = result.sanitizer.as_ref().expect("report present");
        assert!(report.is_clean(), "{token}:\n{}", report.to_json());
    }
}

/// The hash-intersection heavy bin must be sanitizer-clean while it is
/// actually exercising the shared-memory table (the smoke suite's tails
/// are too thin for the tuner, so this uses a clique — every edge's
/// chunk-scan work is far above the hash threshold).
#[test]
fn hash_strategy_runs_clean_under_the_sanitizer() {
    use triangles::core::count::GpuOptions;
    use triangles::core::gpu::prepared::PreparedGraph;
    use triangles::simt::DeviceConfig;

    let n = 80u32;
    let mut pairs = Vec::new();
    for u in 0..n {
        for v in (u + 1)..n {
            pairs.push((u, v));
        }
    }
    let g = EdgeArray::from_undirected_pairs(pairs);
    let want = count_forward(&g).unwrap();

    // The tuner must actually give this graph a hash bin — otherwise the
    // sanitized runs below wouldn't exercise the hash kernel at all.
    let opts = GpuOptions::balanced_hash(DeviceConfig::gtx_980().with_unlimited_memory());
    let prepared = PreparedGraph::prepare(&g, &opts).unwrap();
    assert!(
        prepared
            .bin_plan()
            .is_some_and(|p| p.occupied().any(|b| b.hash)),
        "clique must earn a hash bin"
    );
    prepared.release().unwrap();

    for token in [
        "gtx980/balanced+hash/sanitize",
        "gtx980/balanced+hash/reorder/sanitize",
        "2xc2050/balanced+hash/sanitize",
    ] {
        let result = sanitized_run(&g, token);
        assert_eq!(result.triangles, want, "{token}");
        let report = result.sanitizer.as_ref().expect("report present");
        assert_eq!(report.mode, SanitizerMode::Check, "{token}");
        assert!(report.is_clean(), "{token}:\n{}", report.to_json());
    }
}

/// The seeded-bug reports are pinned as a golden file, so a change to any
/// finding (kind, address, buffer, lane, attribution, order) fails here.
#[test]
fn seeded_bugs_are_detected_with_byte_identical_reports() {
    let first = selftest::run();
    assert!(
        selftest::all_detected(&first),
        "a seeded bug went undetected:\n{}",
        selftest::to_json(&first)
    );
    let second = selftest::run();
    assert_eq!(
        selftest::to_json(&first),
        selftest::to_json(&second),
        "seeded-bug reports must be deterministic"
    );
    common::assert_golden(
        "tests/golden/sanitize_selftest.json",
        &selftest::to_json(&first),
    );
}

#[test]
fn check_mode_is_a_pure_observer_of_modeled_perf() {
    let suite = full_suite(Scale::Smoke);
    for row in suite.iter().take(4) {
        let plain = sanitized_run(&row.graph, "gtx980");
        let checked = sanitized_run(&row.graph, "gtx980/sanitize");
        assert!(plain.sanitizer.is_none());
        assert_eq!(plain.triangles, checked.triangles, "{}", row.name);
        assert_eq!(
            plain.seconds.to_bits(),
            checked.seconds.to_bits(),
            "{}: Check mode changed the modeled wall time",
            row.name
        );
        let (p, c) = (plain.gpu.unwrap(), checked.gpu.unwrap());
        assert_eq!(p.kernel, c.kernel, "{}", row.name);
        assert_eq!(p.preprocess_s.to_bits(), c.preprocess_s.to_bits());
        assert_eq!(p.peak_device_bytes, c.peak_device_bytes);
    }
}

#[test]
fn paranoid_mode_flags_only_guard_reads_on_legitimate_kernels() {
    // Paranoid additionally reports reads in the allocation guard window.
    // The paper's kernels do over-read (that is why the arena pads), so
    // Paranoid may fire — but only ever with `GuardRead`, and the count
    // must be unaffected.
    let suite = full_suite(Scale::Smoke);
    let row = &suite[0];
    let want = count_forward(&row.graph).unwrap();
    let result = sanitized_run(&row.graph, "gtx980/sanitize:paranoid");
    assert_eq!(result.triangles, want);
    let report = result.sanitizer.as_ref().expect("report present");
    assert_eq!(report.mode, SanitizerMode::Paranoid);
    for finding in &report.findings {
        assert_eq!(
            finding.kind,
            FindingKind::GuardRead,
            "unexpected paranoid finding:\n{}",
            report.to_json()
        );
    }
}
