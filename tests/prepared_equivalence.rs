//! The prepare/count split must be invisible: a one-shot pipeline run and
//! a `PreparedGraph` session must produce the same count, the same kernel
//! hardware counters, and the same modeled span timings — for every suite
//! graph, every device preset, and every kernel option combination. Plus
//! engine-level integration: batches agree with direct requests, reports
//! are deterministic across worker counts, and backpressure/timeouts
//! behave under adversarial configs.

use std::sync::Arc;

use triangles::core::count::{Backend, CountRequest, GpuOptions};
use triangles::core::{EdgeLayout, LoopVariant, PreparedCluster, PreparedCount, PreparedGraph};
use triangles::engine::{parse_jobfile, Engine, EngineConfig, EngineError, Job};
use triangles::gen::classic::complete;
use triangles::gen::suite::{full_suite, Scale};
use triangles::graph::EdgeArray;
use triangles::simt::{ClusterTopology, DeviceConfig, LaunchTally, SanitizerMode};

/// One-shot vs prepared session: identical count, kernel counters, and
/// kernel-span profile (modeled times included) on every suite graph and
/// device preset.
#[test]
fn prepared_matches_oneshot_on_every_suite_graph_and_device() {
    let devices = [
        DeviceConfig::gtx_980(),
        DeviceConfig::tesla_c2050(),
        DeviceConfig::nvs_5200m(),
    ];
    for row in full_suite(Scale::Smoke) {
        for device in &devices {
            let context = format!("{}/{}", row.name, device.name);
            let opts = GpuOptions::new(device.clone().with_unlimited_memory());

            let report = CountRequest::new(Backend::Gpu(opts.clone()))
                .run(&row.graph)
                .unwrap_or_else(|e| panic!("{context}: one-shot: {e}"))
                .gpu
                .unwrap();
            let mut prepared = PreparedGraph::prepare(&row.graph, &opts)
                .unwrap_or_else(|e| panic!("{context}: prepare: {e}"));
            let counted = prepared
                .count()
                .unwrap_or_else(|e| panic!("{context}: count: {e}"));

            assert_eq!(counted.triangles, report.triangles, "{context}");
            assert_eq!(counted.kernel, report.kernel, "{context}: kernel stats");
            assert_eq!(
                counted.profile.span("count/count-kernel"),
                report.profile.span("count/count-kernel"),
                "{context}: kernel span"
            );
            assert_eq!(
                counted.profile.span("count/reduce"),
                report.profile.span("count/reduce"),
                "{context}: reduce span"
            );
            prepared.release().unwrap();
        }
    }
}

/// The split is equivalence-preserving under every §III-D option toggle,
/// not just the defaults.
#[test]
fn prepared_matches_oneshot_for_every_kernel_option() {
    let g = full_suite(Scale::Smoke)
        .into_iter()
        .find(|r| r.name == "citeseer")
        .expect("suite has citeseer")
        .graph;
    for layout in [EdgeLayout::SoA, EdgeLayout::AoS] {
        for variant in [LoopVariant::FinalReadAvoiding, LoopVariant::Preliminary] {
            for cached in [true, false] {
                for split in [1u32, 2] {
                    let mut opts = GpuOptions::new(DeviceConfig::gtx_980().with_unlimited_memory());
                    opts.layout = layout;
                    opts.kernel = variant;
                    opts.use_texture_cache = cached;
                    opts.warp_split = split;
                    let context = format!(
                        "layout={layout:?} variant={variant:?} cached={cached} split={split}"
                    );

                    let report = CountRequest::new(Backend::Gpu(opts.clone()))
                        .run(&g)
                        .unwrap()
                        .gpu
                        .unwrap();
                    let mut prepared = PreparedGraph::prepare(&g, &opts).unwrap();
                    let counted = prepared.count().unwrap();
                    assert_eq!(counted.triangles, report.triangles, "{context}");
                    assert_eq!(counted.kernel, report.kernel, "{context}");
                }
            }
        }
    }
}

/// Repeated counts from one session keep serving the same answer with the
/// same kernel counters — the property the engine's cache relies on.
#[test]
fn repeated_counts_are_stable() {
    let g = full_suite(Scale::Smoke)
        .into_iter()
        .find(|r| r.name == "dblp")
        .unwrap()
        .graph;
    let opts = GpuOptions::new(DeviceConfig::gtx_980().with_unlimited_memory());
    let mut prepared = PreparedGraph::prepare(&g, &opts).unwrap();
    let first = prepared.count().unwrap();
    for _ in 0..3 {
        let again = prepared.count().unwrap();
        assert_eq!(again.triangles, first.triangles);
        assert_eq!(again.kernel, first.kernel);
        // Identical modeled duration up to float rounding (the subtraction
        // `elapsed() - t0` happens at different absolute clock offsets).
        assert!(
            (again.count_s - first.count_s).abs() <= first.count_s * 1e-12,
            "{} vs {}",
            again.count_s,
            first.count_s
        );
    }
    assert_eq!(prepared.counts_served(), 4);
}

/// A prepared session of a GPU or cluster backend.
enum Session {
    Single(Box<PreparedGraph>),
    Cluster(Box<PreparedCluster>),
}

impl Session {
    fn prepare(g: &EdgeArray, backend: &Backend) -> Session {
        match backend {
            Backend::Gpu(opts) => {
                Session::Single(Box::new(PreparedGraph::prepare(g, opts).unwrap()))
            }
            Backend::Cluster {
                options,
                nodes,
                devices_per_node,
                partition,
            } => {
                let topology = ClusterTopology::new(*nodes, *devices_per_node);
                let prepared = PreparedCluster::prepare(g, options, topology, *partition);
                Session::Cluster(Box::new(prepared.unwrap()))
            }
            other => panic!("{other} has no session"),
        }
    }

    fn count(&mut self) -> PreparedCount {
        match self {
            Session::Single(p) => p.count().unwrap(),
            Session::Cluster(p) => p.count().unwrap(),
        }
    }

    fn launch_tally(&self) -> LaunchTally {
        match self {
            Session::Single(p) => p.launch_tally(),
            Session::Cluster(p) => p.launch_tally(),
        }
    }
}

/// Everything of a count that does not depend on where the session clock
/// stood when the count began. (The profile's span times are absolute,
/// and its float counters are differences of running totals, so both
/// round differently as the session ages; the twin check covers them.)
fn clock_free(c: &PreparedCount) -> String {
    let spans: Vec<_> = c.profile.spans.iter().map(|s| (&s.path, s.depth)).collect();
    let t = &c.profile.totals;
    format!(
        "{} {:?} {:?} {:?} {:?} {:?} {:?}",
        c.triangles,
        c.count_s.to_bits(),
        c.per_shard_s
            .iter()
            .map(|s| s.to_bits())
            .collect::<Vec<_>>(),
        c.kernel,
        (
            t.kernel_launches,
            t.lane_steps,
            t.transactions,
            t.dram_read_bytes
        ),
        spans,
        c.trace
    )
}

/// Repeated counts of one session replay launches from the devices'
/// launch memos, and a replayed count is indistinguishable from a
/// simulated one: every count equals the session's first count and a
/// fresh session's count, and its profile JSON (which carries absolute
/// span times) equals the same count of a twin session whose devices
/// never replay (the sanitizer on, which changes no modeled bit). Every
/// launch of a repeat replays: each starts from the image the same launch
/// of the first count started from, hash tables included.
#[test]
fn repeated_counts_replay_without_changing_a_modeled_bit() {
    let suite = full_suite(Scale::Smoke);
    let tokens = [
        "gtx980",
        "gtx980/balanced",
        "gtx980/balanced+hash/verify",
        "cluster:2x2/gtx980/balanced+hash",
        "cluster:2x2:2d/c2050/balanced",
    ];
    // The clique is the fixture whose plans occupy a hash bin.
    let clique = complete(80);
    let graphs = ["kronecker-10", "watts-strogatz"]
        .map(|name| (name, &suite.iter().find(|r| r.name == name).unwrap().graph));
    for (name, g) in graphs.into_iter().chain([("clique-80", &clique)]) {
        for token in tokens {
            let context = format!("{name}/{token}");
            let backend: Backend = token.parse().unwrap();
            let mut simulating = backend.clone();
            if let Backend::Gpu(o) | Backend::Cluster { options: o, .. } = &mut simulating {
                o.sanitizer = SanitizerMode::Check;
            }

            let mut session = Session::prepare(g, &backend);
            let mut twin = Session::prepare(g, &simulating);
            let fresh = Session::prepare(g, &backend).count();
            for k in 0..3 {
                let before = session.launch_tally();
                let counted = session.count();
                if k > 0 {
                    let simulated = session.launch_tally().simulated - before.simulated;
                    assert_eq!(simulated, 0, "{context} #{k}: a repeat re-simulated");
                }
                let reference = twin.count();
                assert_eq!(clock_free(&counted), clock_free(&fresh), "{context} #{k}");
                assert_eq!(
                    counted.profile.to_json(),
                    reference.profile.to_json(),
                    "{context} #{k}: profile"
                );
                if k == 0 {
                    assert_eq!(counted.profile.to_json(), fresh.profile.to_json());
                }
            }
            assert!(session.launch_tally().replayed > 0, "{context}: no replay");
            assert_eq!(twin.launch_tally().replayed, 0, "{context}: twin replayed");
        }
    }
}

/// Engine batches agree with direct `CountRequest`s across backend kinds,
/// cache hits included.
#[test]
fn engine_batches_agree_with_direct_requests() {
    let g = Arc::new(
        full_suite(Scale::Smoke)
            .into_iter()
            .find(|r| r.name == "kronecker-8")
            .unwrap()
            .graph,
    );
    let backends = ["gtx980", "c2050", "forward", "hybrid:8", "2xc2050"];
    let mut jobs = Vec::new();
    for token in backends {
        let backend: Backend = token.parse().unwrap();
        // Twice each: the second GPU job per token exercises the cache.
        for rep in 0..2 {
            jobs.push(Job::new(
                format!("{token}#{rep}"),
                Arc::clone(&g),
                backend.clone(),
            ));
        }
    }
    let engine = Engine::new(EngineConfig::default());
    let report = engine.run_batch(jobs);
    assert!(report.cache_hits >= 2, "two GPU tokens repeat");
    for record in &report.jobs {
        let backend: Backend = record.backend.parse().unwrap();
        let direct = CountRequest::new(backend).run(&g).unwrap();
        let got = record.result.as_ref().unwrap();
        assert_eq!(got.triangles, direct.triangles, "{}", record.name);
    }
}

/// The full jobfile → engine → JSON path is deterministic across worker
/// counts (modeled time plus static cache planning).
#[test]
fn jobfile_batches_are_deterministic_across_worker_counts() {
    let text = "\
# mixed jobfile: repeats, two devices, a CPU row
graph=citeseer backend=gtx980 repeat=4
graph=dblp backend=c2050 repeat=2
graph=citeseer backend=c2050
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
    assert!(lone.contains("\"cache_hits\": 4"), "{lone}");
}

/// A one-slot queue (maximum backpressure) still completes every job.
#[test]
fn tiny_queue_and_many_jobs_complete_under_backpressure() {
    let g = Arc::new(
        full_suite(Scale::Smoke)
            .into_iter()
            .find(|r| r.name == "kronecker-6")
            .unwrap()
            .graph,
    );
    let engine = Engine::new(EngineConfig {
        workers: 3,
        queue_capacity: 1,
        cache_capacity: 2,
        ..EngineConfig::default()
    });
    let jobs: Vec<Job> = (0..24)
        .map(|i| Job::new(format!("j{i}"), Arc::clone(&g), "gtx980".parse().unwrap()))
        .collect();
    let report = engine.run_batch(jobs);
    assert_eq!(report.jobs.len(), 24);
    let expected = CountRequest::new("gtx980".parse().unwrap())
        .run(&g)
        .unwrap()
        .triangles;
    for record in &report.jobs {
        assert_eq!(record.result.as_ref().unwrap().triangles, expected);
    }
}

/// Modeled-time timeouts surface as per-job errors without failing the
/// batch, and a generous budget lets the same job pass.
#[test]
fn timeouts_are_per_job_and_modeled() {
    let g = Arc::new(
        full_suite(Scale::Smoke)
            .into_iter()
            .find(|r| r.name == "orkut")
            .unwrap()
            .graph,
    );
    let backend: Backend = "gtx980".parse().unwrap();
    let engine = Engine::new(EngineConfig::default());
    let report = engine.run_batch(vec![
        Job::new("strict", Arc::clone(&g), backend.clone()).timeout_ms(1e-9),
        Job::new("lenient", Arc::clone(&g), backend).timeout_ms(60_000.0),
    ]);
    match &report.jobs[0].result {
        Err(EngineError::Timeout { limit_ms, .. }) => assert!(*limit_ms <= 1e-9),
        other => panic!("expected timeout, got {other:?}"),
    }
    assert!(report.jobs[1].result.is_ok(), "lenient budget must pass");
}
