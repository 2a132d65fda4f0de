//! The workload-balanced scheduler must be invisible in the results: for
//! every suite graph, device preset, and bin-threshold corner the balanced
//! count equals `cpu::forward`, a prepared session is byte-identical to the
//! one-shot path, and the engine's canonical backend token keeps
//! differently-scheduled jobs from ever sharing a cached session.

use std::sync::Arc;

use triangles::core::count::{Backend, CountRequest, GpuOptions};
use triangles::core::cpu::count_forward;
use triangles::core::gpu::schedule::KernelSchedule;
use triangles::core::PreparedGraph;
use triangles::engine::{parse_jobfile, Engine, EngineConfig, Job};
use triangles::gen::suite::{full_suite, Scale};
use triangles::simt::DeviceConfig;

/// The bin-threshold corners: the auto-tuner, an all-light plan (every
/// edge in the sorted merge bin), an all-heavy plan (every edge through
/// the warp-centric kernel), and a mixed split.
fn corner_schedules() -> [KernelSchedule; 4] {
    [
        KernelSchedule::Balanced,
        KernelSchedule::BalancedFixed {
            threshold: u32::MAX,
            width: 1,
        },
        KernelSchedule::BalancedFixed {
            threshold: 0,
            width: 8,
        },
        KernelSchedule::BalancedFixed {
            threshold: 8,
            width: 16,
        },
    ]
}

/// Exactness: balanced counts match `cpu::forward` on every suite graph ×
/// device preset × bin-threshold corner.
#[test]
fn balanced_matches_cpu_forward_on_every_suite_graph_preset_and_corner() {
    let devices = [
        DeviceConfig::gtx_980(),
        DeviceConfig::tesla_c2050(),
        DeviceConfig::nvs_5200m(),
    ];
    for row in full_suite(Scale::Smoke) {
        let want = count_forward(&row.graph).unwrap();
        for device in &devices {
            for schedule in corner_schedules() {
                let mut opts = GpuOptions::new(device.clone().with_unlimited_memory());
                opts.schedule = schedule;
                let context = format!("{}/{}/{}", row.name, device.name, schedule);
                let got = CountRequest::new(Backend::Gpu(opts))
                    .run(&row.graph)
                    .unwrap_or_else(|e| panic!("{context}: {e}"));
                assert_eq!(got.triangles, want, "{context}");
            }
        }
    }
}

/// One-shot vs prepared session under a balanced schedule: identical
/// count, identical kernel hardware counters (modeled cycles included),
/// and a second count on the same session reproduces both exactly.
#[test]
fn balanced_prepared_matches_oneshot_byte_for_byte() {
    for row in full_suite(Scale::Smoke) {
        for schedule in corner_schedules() {
            let mut opts = GpuOptions::new(DeviceConfig::gtx_980().with_unlimited_memory());
            opts.schedule = schedule;
            let context = format!("{}/{}", row.name, schedule);

            let oneshot = CountRequest::new(Backend::Gpu(opts.clone()))
                .run(&row.graph)
                .unwrap_or_else(|e| panic!("{context}: one-shot: {e}"))
                .gpu
                .unwrap();
            let mut prepared = PreparedGraph::prepare(&row.graph, &opts)
                .unwrap_or_else(|e| panic!("{context}: prepare: {e}"));
            let first = prepared.count().unwrap();
            let second = prepared.count().unwrap();
            prepared.release().unwrap();

            assert_eq!(oneshot.triangles, first.triangles, "{context}");
            assert_eq!(first.triangles, second.triangles, "{context}");
            for (label, a, b) in [
                ("one-shot vs prepared", &oneshot.kernel, &first.kernel),
                ("first vs second count", &first.kernel, &second.kernel),
            ] {
                assert_eq!(
                    a.sm_cycles.to_bits(),
                    b.sm_cycles.to_bits(),
                    "{context}: {label}: sm_cycles"
                );
                assert_eq!(a.transactions, b.transactions, "{context}: {label}");
                assert_eq!(a.tex, b.tex, "{context}: {label}: tex cache");
                assert_eq!(a.l2, b.l2, "{context}: {label}: l2 cache");
            }
        }
    }
}

/// The engine cache key is the canonical backend token, which carries the
/// scheduling suffix: the same graph on `gtx980` and `gtx980/balanced`
/// builds two sessions, and repeats hit only their own schedule's entry.
#[test]
fn engine_cache_distinguishes_scheduling_knobs() {
    let row = full_suite(Scale::Smoke)
        .into_iter()
        .find(|r| r.name == "citeseer")
        .unwrap();
    let graph = Arc::new(row.graph);
    let tpe: Backend = "gtx980".parse().unwrap();
    let balanced: Backend = "gtx980/balanced".parse().unwrap();
    assert_ne!(tpe.to_string(), balanced.to_string());

    let engine = Engine::new(EngineConfig::default());
    let jobs = vec![
        Job::new("tpe-a", Arc::clone(&graph), tpe.clone()),
        Job::new("bal-a", Arc::clone(&graph), balanced.clone()),
        Job::new("tpe-b", Arc::clone(&graph), tpe),
        Job::new("bal-b", Arc::clone(&graph), balanced),
    ];
    let report = engine.run_batch(jobs);
    // One prepare per distinct token, one hit per repeat — never a
    // cross-schedule hit (which would return a differently-built session).
    assert_eq!(report.cache_hits, 2, "{}", report.to_json());
    assert_eq!(engine.cached_sessions(), 2);
    let by_name = |n: &str| {
        report
            .jobs
            .iter()
            .find(|r| r.name == n)
            .and_then(|r| r.result.as_ref().ok())
            .unwrap_or_else(|| panic!("{n} failed"))
    };
    assert_eq!(by_name("tpe-a").triangles, by_name("bal-a").triangles);
    // Kernel-phase seconds are modeled and reproduce within rounding
    // (successive counts replay the same ops from a different clock
    // offset, so the phase delta can differ by a few ulps).
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-12 * a.abs().max(b.abs());
    assert!(close(by_name("tpe-a").count_s, by_name("tpe-b").count_s));
    assert!(close(by_name("bal-a").count_s, by_name("bal-b").count_s));
    assert!(by_name("tpe-b").cache_hit && by_name("bal-b").cache_hit);
}

/// `BatchReport::to_json` stays deterministic across worker counts with
/// balanced backends in the mix.
#[test]
fn balanced_jobfile_batches_are_deterministic_across_worker_counts() {
    let text = "\
graph=citeseer backend=gtx980/balanced repeat=3
graph=citeseer backend=gtx980
graph=dblp backend=gtx980/balanced:16x8 repeat=2
";
    let render = |workers: usize| {
        let jobs = parse_jobfile(text, Scale::Smoke).unwrap();
        let engine = Engine::new(EngineConfig {
            workers,
            ..EngineConfig::default()
        });
        engine.run_batch(jobs).to_json()
    };
    let lone = render(1);
    assert_eq!(lone, render(4), "worker count leaked into the report");
    assert!(lone.contains("gtx980/balanced"), "{lone}");
    assert!(lone.contains("\"cache_hits\": 3"), "{lone}");
}
