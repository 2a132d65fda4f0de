//! Engine-wide telemetry guarantees (DESIGN.md §13): the deterministic
//! metrics snapshot and the unified request traces must be byte-identical
//! across runs and worker counts; one trace must show a request from the
//! engine front door down to the counting kernel's phases; and failures —
//! modeled-time timeouts, queue refusals — must attribute themselves to
//! the right request stage in errors, counters, and traces alike.

use std::sync::Arc;

use triangles::core::count::{Backend, GpuOptions};
use triangles::core::PreparedGraph;
use triangles::engine::{Admission, Engine, EngineConfig, EngineError, Job};
use triangles::gen::classic::complete;
use triangles::gen::suite::{full_suite, Scale};
use triangles::graph::EdgeArray;
use triangles::telemetry::Stage;

fn gpu() -> Backend {
    Backend::Gpu(GpuOptions::new(
        triangles::simt::DeviceConfig::gtx_980().with_unlimited_memory(),
    ))
}

fn diamond() -> Arc<EdgeArray> {
    Arc::new(EdgeArray::from_undirected_pairs([
        (0, 1),
        (0, 2),
        (1, 2),
        (1, 3),
        (2, 3),
    ]))
}

fn suite_graph(name: &str) -> Arc<EdgeArray> {
    Arc::new(
        full_suite(Scale::Smoke)
            .into_iter()
            .find(|r| r.name == name)
            .unwrap_or_else(|| panic!("no suite graph {name}"))
            .graph,
    )
}

fn mixed_jobs(g1: &Arc<EdgeArray>, g2: &Arc<EdgeArray>) -> Vec<Job> {
    let mut jobs: Vec<Job> = (0..4)
        .map(|i| Job::new(format!("a{i}"), Arc::clone(g1), gpu()))
        .collect();
    jobs.push(Job::new("cpu", Arc::clone(g1), Backend::CpuForward));
    jobs.extend((0..3).map(|i| Job::new(format!("b{i}"), Arc::clone(g2), gpu())));
    jobs
}

/// The tentpole guarantee: same jobfile → byte-identical metrics JSON
/// (CI view), Prometheus exposition, and unified Chrome trace, no matter
/// how many workers raced over the queue.
#[test]
fn telemetry_artifacts_are_byte_identical_across_worker_counts() {
    let g1 = suite_graph("kronecker-6");
    let g2 = diamond();
    let mut artifacts = Vec::new();
    for workers in [1, 2, 4] {
        let engine = Engine::new(EngineConfig {
            workers,
            queue_capacity: 2,
            cache_capacity: 2,
            admission: Admission::Block,
        });
        let report = engine.run_batch(mixed_jobs(&g1, &g2));
        assert!(report.jobs.iter().all(|j| j.result.is_ok()));
        // A second batch repeats resident keys (their counts replay kernel
        // launches) beside keys that overflow the cache and run one-shot.
        let repeats = engine.run_batch(repeated_jobs(&g1, &g2));
        assert!(repeats.jobs.iter().all(|j| j.result.is_ok()));
        let replays = engine.metrics().counter_value(
            "engine_launch_replays_total",
            &[("backend", &gpu().to_string())],
        );
        assert!(replays > 0, "repeated keys must replay launches");
        artifacts.push((
            report.metrics_json(false) + &repeats.metrics_json(false),
            report.metrics_prometheus() + &repeats.metrics_prometheus(),
            report.trace_json() + &repeats.trace_json(),
        ));
    }
    let (m1, p1, t1) = &artifacts[0];
    for (m, p, t) in &artifacts[1..] {
        assert_eq!(m, m1, "metrics JSON must not depend on worker count");
        assert_eq!(t, t1, "trace must not depend on worker count");
        // The Prometheus view renders advisory series too (host timings
        // vary), so compare only its deterministic lines.
        let det = |s: &str| {
            s.lines()
                .filter(|l| {
                    !l.contains("advisory")
                        && !l.contains("_host_")
                        && !l.contains("queue_depth")
                        && !l.contains("engine_workers")
                })
                .count()
        };
        assert_eq!(det(p), det(p1));
    }
    // And a second identical run reproduces the same bytes exactly.
    let engine = Engine::new(EngineConfig {
        workers: 3,
        queue_capacity: 2,
        cache_capacity: 2,
        admission: Admission::Block,
    });
    let report = engine.run_batch(mixed_jobs(&g1, &g2));
    let repeats = engine.run_batch(repeated_jobs(&g1, &g2));
    assert_eq!(
        &(report.metrics_json(false) + &repeats.metrics_json(false)),
        m1
    );
    assert_eq!(&(report.trace_json() + &repeats.trace_json()), t1);
}

/// Resident keys of [`mixed_jobs`] again, interleaved with two keys the
/// full two-session cache runs one-shot.
fn repeated_jobs(g1: &Arc<EdgeArray>, g2: &Arc<EdgeArray>) -> Vec<Job> {
    let cluster: Backend = "cluster:2x2/gtx980/balanced".parse().unwrap();
    let hash: Backend = "gtx980/balanced+hash".parse().unwrap();
    let mut jobs = Vec::new();
    for i in 0..3 {
        jobs.push(Job::new(format!("a{i}"), Arc::clone(g1), gpu()));
        jobs.push(Job::new(format!("c{i}"), Arc::clone(g1), cluster.clone()));
        jobs.push(Job::new(format!("b{i}"), Arc::clone(g2), gpu()));
        jobs.push(Job::new(format!("h{i}"), Arc::clone(g1), hash.clone()));
    }
    jobs
}

/// Clearing the cache leaves no trace of the sessions it dropped: a batch
/// run after `clear_cache` reports, traces and replays exactly what the
/// same batch does on a fresh engine. Batch A's hash session (whose
/// kernels write per-warp hash tables into device scratch) is gone before
/// batch B prepares its own.
#[test]
fn a_batch_after_clear_cache_equals_a_fresh_engines_batch() {
    let tokens = ["gtx980/balanced+hash", "gtx980"];
    let batch = |tag: &str, hashed: &Arc<EdgeArray>, plain: &Arc<EdgeArray>| -> Vec<Job> {
        let [hash, gpu] = tokens.map(|t| t.parse::<Backend>().unwrap());
        vec![
            Job::new(format!("{tag}0"), Arc::clone(hashed), hash.clone()),
            Job::new(format!("{tag}1"), Arc::clone(hashed), hash),
            Job::new(format!("{tag}2"), Arc::clone(plain), gpu),
        ]
    };
    let replays = |engine: &Engine| {
        tokens.map(|t| {
            engine
                .metrics()
                .counter_value("engine_launch_replays_total", &[("backend", t)])
        })
    };
    let cliques = [80, 72].map(|n| Arc::new(complete(n)));
    let Ok(Backend::Gpu(opts)) = tokens[0].parse() else {
        unreachable!("a single-device token")
    };
    for clique in &cliques {
        let prepared = PreparedGraph::prepare(clique, &opts).unwrap();
        let plan = prepared.bin_plan().expect("a clique gets a bin plan");
        assert!(
            plan.bins.iter().any(|b| b.hash),
            "a clique occupies a hash bin"
        );
        prepared.release().unwrap();
    }
    let batch_a = batch("a", &cliques[0], &suite_graph("kronecker-6"));
    let batch_b = batch("b", &cliques[1], &suite_graph("watts-strogatz"));
    let config = || EngineConfig {
        workers: 2,
        queue_capacity: 4,
        cache_capacity: 4,
        admission: Admission::Block,
    };

    let used = Engine::new(config());
    assert!(used
        .run_batch(batch_a)
        .jobs
        .iter()
        .all(|j| j.result.is_ok()));
    used.clear_cache();
    let before = replays(&used);
    let after_clear = used.run_batch(batch_b.clone());
    let after = replays(&used);

    let fresh = Engine::new(config());
    let reference = fresh.run_batch(batch_b);
    assert!(reference.jobs.iter().all(|j| j.result.is_ok()));
    assert_eq!(after_clear.to_json(), reference.to_json());
    assert_eq!(after_clear.trace_json(), reference.trace_json());
    let added = [0, 1].map(|i| after[i] - before[i]);
    assert_eq!(added, replays(&fresh));
    assert!(added[0] > 0, "the repeated hash job must replay launches");
}

/// One trace shows the whole request: engine stage spans (admission,
/// cache decision, prepare, count, merge) nesting the kernel profiler's
/// spans — preprocessing steps under `engine:prepare`, the counting
/// kernel and reduction under `engine:count`.
#[test]
fn unified_trace_nests_kernel_spans_inside_engine_stages() {
    let g = suite_graph("kronecker-6");
    let engine = Engine::new(EngineConfig::default());
    let report = engine.run_batch(vec![
        Job::new("miss", Arc::clone(&g), gpu()),
        Job::new("hit", g, gpu()),
    ]);

    let miss = &report.traces[0];
    assert_eq!(miss.id, 0);
    let prepare = miss.span("engine:prepare").expect("prepare stage");
    let count = miss.span("engine:count").expect("count stage");
    assert!(prepare.dur_ns > 0);
    assert!(count.dur_ns > 0);
    assert_eq!(count.start_ns, prepare.end_ns(), "stages are contiguous");
    assert!(miss.span("engine:cache-miss").is_some());
    // Kernel-layer spans are nested inside their stage, in modeled time.
    let steps = miss
        .spans
        .iter()
        .filter(|s| s.name.starts_with("preprocess/"))
        .count();
    assert!(steps >= 7, "prepare nests the §III-B steps, got {steps}");
    let kernel = miss.span("count/count-kernel").expect("kernel span");
    assert!(kernel.start_ns >= count.start_ns && kernel.end_ns() <= count.end_ns());
    assert!(kernel.depth > count.depth);

    // The cache hit paid no prepare: its trace starts at the count.
    let hit = &report.traces[1];
    assert!(hit.span("engine:cache-hit").is_some());
    assert!(hit.span("engine:prepare").is_none());
    assert_eq!(hit.span("engine:count").unwrap().start_ns, 0);
    assert!(hit.span("count/count-kernel").is_some());

    // Both requests appear in the one serialized Chrome document, and the
    // hit's kernel spans are byte-wise on their own timeline.
    let json = report.trace_json();
    assert!(json.contains("req 0: miss"));
    assert!(json.contains("req 1: hit"));
    assert!(json.contains("count/count-kernel"));
}

/// Modeled-time timeouts attribute the blown budget to the stage whose
/// charge exceeded it, in the error, the failure counters, and the trace.
#[test]
fn timeouts_attribute_their_stage() {
    let g = diamond();
    let g2 = suite_graph("kronecker-6");
    // Probe the modeled charges once (they are deterministic), then pick
    // a budget that prepare alone fits but prepare + count does not.
    let probe = Engine::new(EngineConfig::default());
    let probed = probe.run_batch(vec![Job::new("probe", Arc::clone(&g2), gpu())]);
    let r = probed.jobs[0].result.as_ref().unwrap();
    assert!(r.prepare_s > 0.0 && r.count_s > 0.0);
    let between_ms = (2.0 * r.prepare_s + r.count_s) / 2.0 * 1e3;

    let engine = Engine::new(EngineConfig::default());
    let report = engine.run_batch(vec![
        // Budget below even the prepare charge → Prepare's fault.
        Job::new("prep-blown", Arc::clone(&g), gpu()).timeout_ms(1e-9),
        // Budget above prepare alone but below prepare+count → Count's.
        // (A distinct graph keeps this a miss so it pays the prepare.)
        Job::new("count-blown", g2, gpu()).timeout_ms(between_ms),
        Job::new("fine", g, gpu()).timeout_ms(10_000.0),
    ]);
    match &report.jobs[0].result {
        Err(e @ EngineError::Timeout { .. }) => assert_eq!(e.stage(), Stage::Prepare),
        other => panic!("expected timeout, got {other:?}"),
    }
    match &report.jobs[1].result {
        Err(e @ EngineError::Timeout { .. }) => assert_eq!(e.stage(), Stage::Count),
        other => panic!("expected timeout, got {other:?}"),
    }
    assert!(report.jobs[2].result.is_ok());

    let m = engine.metrics();
    assert_eq!(m.counter_value("engine_timeouts_total", &[]), 2);
    assert_eq!(
        m.counter_value("engine_jobs_failed_total", &[("stage", "prepare")]),
        1
    );
    assert_eq!(
        m.counter_value("engine_jobs_failed_total", &[("stage", "count")]),
        1
    );
    assert_eq!(m.counter_value("engine_jobs_ok_total", &[]), 1);

    // The failed requests' traces carry the stage-attributed error marker.
    assert!(report.traces[0].span("engine:error[prepare]").is_some());
    assert!(report.traces[1].span("engine:error[count]").is_some());
    assert!(report.traces[2].span("engine:merge").is_some());
}

/// Under `Admission::Shed` a full queue refuses jobs instead of blocking:
/// every refusal is a `QueueFull` error attributed to admission, and the
/// advisory shed counter agrees with the report exactly.
#[test]
fn shedding_counts_and_attributes_queue_refusals() {
    let g = suite_graph("kronecker-8");
    let engine = Engine::new(EngineConfig {
        workers: 1,
        queue_capacity: 1,
        cache_capacity: 1,
        admission: Admission::Shed,
    });
    // One worker, one slot: while the worker chews the first (prepare-
    // heavy) job, at most one more waits; the rest of the flood sheds.
    let jobs: Vec<Job> = (0..50)
        .map(|i| Job::new(format!("j{i}"), Arc::clone(&g), gpu()))
        .collect();
    let report = engine.run_batch(jobs);
    let shed: Vec<&str> = report
        .jobs
        .iter()
        .filter_map(|j| match &j.result {
            Err(e @ EngineError::QueueFull { .. }) => {
                assert_eq!(e.stage(), Stage::Admission);
                Some(j.name.as_str())
            }
            _ => None,
        })
        .collect();
    assert!(
        !shed.is_empty(),
        "a 50-job flood through a 1-slot queue must shed"
    );
    assert_eq!(
        engine.metrics().counter_value("engine_shed_total", &[]),
        shed.len() as u64,
        "advisory shed counter agrees with the report"
    );
    assert_eq!(
        engine
            .metrics()
            .counter_value("engine_jobs_failed_total", &[("stage", "admission")]),
        shed.len() as u64
    );
    // Shed requests still get a trace, marked at admission.
    let refused = report
        .traces
        .iter()
        .filter(|t| t.span("engine:error[admission]").is_some())
        .count();
    assert_eq!(refused, shed.len());
    // Everything that was admitted completed correctly.
    for job in &report.jobs {
        if let Ok(r) = &job.result {
            assert_eq!(
                r.triangles,
                report.jobs[0].result.as_ref().unwrap().triangles
            );
        }
    }
}

/// Blocking admission (the default) never sheds: the same flood completes
/// every job, the shed counter stays zero, and the queue's high-water
/// mark was observed.
#[test]
fn blocking_admission_completes_the_same_flood() {
    let g = diamond();
    let engine = Engine::new(EngineConfig {
        workers: 2,
        queue_capacity: 1,
        cache_capacity: 1,
        admission: Admission::Block,
    });
    let jobs: Vec<Job> = (0..30)
        .map(|i| Job::new(format!("j{i}"), Arc::clone(&g), gpu()))
        .collect();
    let report = engine.run_batch(jobs);
    assert!(report.jobs.iter().all(|j| j.result.is_ok()));
    let m = engine.metrics();
    assert_eq!(m.counter_value("engine_shed_total", &[]), 0);
    assert_eq!(m.counter_value("engine_jobs_ok_total", &[]), 30);
    assert_eq!(m.counter_value("engine_cache_hits_total", &[]), 29);
    assert_eq!(engine.cache_hit_ratio(), Some(29.0 / 30.0));
    let hw = m
        .gauge_value("engine_queue_depth_highwater", &[])
        .expect("high-water gauge set");
    assert!((0.0..=1.0).contains(&hw), "1-slot queue high water: {hw}");
}

/// The deterministic metrics view classifies only modeled quantities;
/// everything host-measured lives in the advisory section and disappears
/// in CI mode.
#[test]
fn advisory_section_separates_host_measured_series() {
    let g = diamond();
    let engine = Engine::new(EngineConfig::default());
    let report = engine.run_batch(vec![
        Job::new("gpu", Arc::clone(&g), gpu()),
        Job::new("cpu", g, Backend::CpuForward),
    ]);
    let full = report.metrics_json(true);
    let ci = report.metrics_json(false);
    // Host-measured series render only in the advisory section.
    for advisory in [
        "engine_queue_wait_host_ns",
        "engine_cpu_host_ns",
        "engine_workers",
    ] {
        assert!(full.contains(advisory), "{advisory} missing from full view");
        assert!(!ci.contains(advisory), "{advisory} leaked into CI view");
    }
    assert!(ci.contains("\"advisory\": null"));
    // Deterministic series appear in both.
    for deterministic in [
        "engine_requests_total",
        "engine_count_modeled_ns",
        "engine_cache_hit_ratio",
    ] {
        assert!(ci.contains(deterministic), "{deterministic} missing");
    }
    // The CPU job contributed no deterministic timing: its count stage is
    // an instant in the trace.
    let cpu = &report.traces[1];
    assert_eq!(cpu.span("engine:count").unwrap().dur_ns, 0);
    assert_eq!(cpu.total_ns(), 0);
}
