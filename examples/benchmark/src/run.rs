//! The timed window: closed-loop passes over a workload's ops, the
//! correctness check inside every op, and the metrics.
//!
//! A pass runs every op of the workload once, one at a time. An op fails
//! on an error, a count that differs from the oracle, or a sanitizer or
//! verifier finding; a failed op is counted and the run goes on.

use std::sync::Arc;
use std::time::Instant;

use tc_core::gpu::schedule::BinPlan;
use tc_core::{Backend, CountRequest, GpuOptions, PreparedCluster, PreparedGraph};
use tc_engine::{Engine, Job, JobResult};
use tc_simt::profiler::{Counters, Span};
use tc_simt::{ClusterTopology, SanitizerReport, VerifierReport};
use tc_telemetry::MetricValue;

use crate::stats::{self, Metric};
use crate::tracer::Tracer;
use crate::workload::{Graph, Op, Setup, Workload};

/// The eight §III-B preprocessing steps, as the profiler names them.
const PREPROCESS_STEPS: [&str; 8] = [
    "1-copy-edges",
    "2-count-vertices",
    "3-sort-edges",
    "4-node-array",
    "5-mark-backward",
    "6-remove-backward",
    "7-unzip",
    "8-node-array",
];

/// `serve-mixed`'s cache hits on this token are compared with a direct
/// `PreparedGraph::count` of the same graph (`engine.hit_overhead_x`).
const HIT_PROBE_TOKEN: &str = "gtx980";

/// `sanitize-verify` compares its count host time with this token on the
/// same graphs (`simt.sanitizer.overhead_x`).
const UNSANITIZED_TOKEN: &str = "gtx980/balanced";

/// What one run measured.
pub struct Run {
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<Metric>,
    /// Modeled milliseconds of each op of one pass.
    pub op_modeled_ms: Vec<(String, f64)>,
    /// Traced runs: median untraced pass, host s.
    pub untraced_host_s: f64,
    /// Traced runs: median traced pass minus median untraced pass, host s.
    pub tracing_overhead_s: f64,
    /// Traced runs: host seconds per traced pass spent inside the tracer
    /// itself (span records and memory probes).
    pub instrumentation_s: f64,
    /// Traced runs: the smallest share of a traced pass's host time that
    /// its op spans cover.
    pub span_coverage: f64,
}

/// Modeled-clock quantities and device counters of the ops of one pass,
/// collected only when tracing.
#[derive(Clone, Debug, Default)]
struct Modeled {
    preprocess_ms: f64,
    steps_ms: [f64; 8],
    schedule_ms: f64,
    kernel_ms: f64,
    reduce_ms: f64,
    shard_count_ms: f64,
    merge_ms: f64,
    counters: Counters,
    edges: f64,
    hash_edges: f64,
    imbalance: f64,
    findings: f64,
    launches_proven: f64,
    racechecks_skipped: f64,
}

impl Modeled {
    /// Fold in a finished session's device spans (device milliseconds,
    /// summed over devices).
    fn spans(&mut self, spans: &[Span]) {
        for s in spans {
            let ms = s.duration_s() * 1e3;
            let path = s.path.as_str();
            if path == "preprocess" {
                self.preprocess_ms += ms;
            } else if let Some(step) = path.strip_prefix("preprocess/") {
                if let Some(i) = PREPROCESS_STEPS.iter().position(|&p| p == step) {
                    self.steps_ms[i] += ms;
                }
            } else if path.ends_with("/bin-sort") || path.ends_with("/bin-gather") {
                self.schedule_ms += ms;
            } else if path.ends_with("/count-kernel") {
                self.kernel_ms += ms;
            } else if path.ends_with("/reduce") {
                self.reduce_ms += ms;
            } else if path == "shard-count" {
                self.shard_count_ms += ms;
            } else if path == "internode-merge" {
                self.merge_ms += ms;
            }
        }
    }

    fn plan(&mut self, plan: Option<&BinPlan>, edges: usize) {
        self.edges += edges as f64;
        let hashed: usize =
            plan.map_or(0, |p| p.bins.iter().filter(|b| b.hash).map(|b| b.len).sum());
        self.hash_edges += hashed as f64;
    }

    fn reports(&mut self, san: Option<&SanitizerReport>, ver: Option<&VerifierReport>) {
        if let Some(s) = san {
            self.findings += s.findings.len() as f64;
        }
        if let Some(v) = ver {
            self.findings += v.findings.len() as f64;
            self.launches_proven += v.launches_proven as f64;
            self.racechecks_skipped += v.racechecks_skipped as f64;
        }
    }
}

/// One pass over a list of ops.
#[derive(Default)]
struct Pass {
    /// The pass's span in the tracer; `None` for untraced passes.
    span: Option<usize>,
    host_s: f64,
    modeled_s: f64,
    /// Modeled seconds of each op (0 for failed and host-timed ops).
    op_modeled_s: Vec<f64>,
    latencies_s: Vec<f64>,
    attempted: usize,
    failed: usize,
    modeled: Modeled,
    /// `serve-mixed`: host seconds of the cache hits on [`HIT_PROBE_TOKEN`].
    hit_latencies_s: Vec<f64>,
    /// `serve-mixed`: cacheable requests that paid a prepare.
    prepares: usize,
}

fn check_count(got: u64, g: &Graph) -> Result<(), String> {
    if got == g.oracle {
        Ok(())
    } else {
        Err(format!("counted {got}, oracle says {}", g.oracle))
    }
}

fn check_reports(
    san: Option<&SanitizerReport>,
    ver: Option<&VerifierReport>,
) -> Result<(), String> {
    let findings = san.map_or(0, |s| s.findings.len()) + ver.map_or(0, |v| v.findings.len());
    if findings == 0 {
        Ok(())
    } else {
        Err(format!("{findings} sanitizer/verifier finding(s)"))
    }
}

fn gpu_options(op: &Op) -> &GpuOptions {
    match &op.backend {
        Backend::Gpu(opts) => opts,
        _ => unreachable!("one-shot workloads run single-device GPU tokens"),
    }
}

/// The one-shot protocol on a fresh device: prepare, count, release.
/// Modeled time is the device clock after release, as in the one-shot
/// pipeline.
fn oneshot(
    g: &Graph,
    opts: &GpuOptions,
    tracer: &mut Tracer,
    modeled: &mut Modeled,
) -> Result<f64, String> {
    let prepared = tracer.call("prepare", || PreparedGraph::prepare(&g.edges, opts));
    let mut prepared = prepared.map_err(|e| e.to_string())?;
    let counted = tracer.call("count", || prepared.count());
    let counted = counted.map_err(|e| e.to_string())?;
    let host_seconds = prepared.host_seconds();
    if tracer.is_on() {
        modeled.plan(prepared.bin_plan(), prepared.m_oriented());
        modeled.counters.add(&counted.profile.totals);
    }
    let dev = tracer.call("release", || prepared.release());
    let dev = dev.map_err(|e| e.to_string())?;
    let (san, ver) = (dev.sanitizer_report(), dev.verifier_report());
    if tracer.is_on() {
        modeled.spans(dev.spans());
        modeled.reports(san.as_ref(), ver.as_ref());
    }
    check_count(counted.triangles, g)?;
    check_reports(san.as_ref(), ver.as_ref())?;
    Ok(dev.elapsed() + host_seconds)
}

/// One request as a one-job engine batch.
fn request(engine: &Engine, g: &Graph, op: &Op, tracer: &mut Tracer) -> Result<JobResult, String> {
    let job = Job::new(op.label.clone(), Arc::clone(&g.edges), op.backend.clone());
    let mut report = tracer.call("run_batch", || engine.run_batch(vec![job]));
    let record = report.jobs.pop().expect("a one-job batch reports one job");
    let r = record.result.map_err(|e| e.to_string())?;
    check_count(r.triangles, g)?;
    Ok(r)
}

/// Run `ops` once as a pass, timing each op and the whole pass.
fn run_pass(
    setup: &Setup,
    ops: &[Op],
    label: &str,
    tracer: &mut Tracer,
    mut op_fn: impl FnMut(&Op, &mut Tracer, &mut Pass) -> Result<f64, String>,
) -> Pass {
    let mut pass = Pass {
        span: tracer.open("pass", label),
        ..Pass::default()
    };
    let t_pass = Instant::now();
    for op in ops {
        tracer.open("op", &op.label);
        let t_op = Instant::now();
        let done = op_fn(op, tracer, &mut pass);
        pass.latencies_s.push(t_op.elapsed().as_secs_f64());
        tracer.close();
        pass.attempted += 1;
        let modeled_s = done.unwrap_or_else(|e| {
            pass.failed += 1;
            eprintln!("FAILED {} in {}: {e}", op.label, setup.workload.name());
            0.0
        });
        pass.op_modeled_s.push(modeled_s);
    }
    pass.host_s = t_pass.elapsed().as_secs_f64();
    tracer.close();
    pass.modeled_s = pass.op_modeled_s.iter().sum();
    pass
}

/// One timed pass of the workload.
fn timed_pass(setup: &Setup, tracer: &mut Tracer, index: usize) -> Pass {
    let Some(engine) = &setup.engine else {
        return run_pass(
            setup,
            &setup.ops,
            &format!("pass {index}"),
            tracer,
            |op, t, p| oneshot(&setup.graphs[op.graph], gpu_options(op), t, &mut p.modeled),
        );
    };
    // Every pass starts from a cold cache, so each holds the same mix of
    // prepares, hits and one-shots.
    engine.clear_cache();
    run_pass(
        setup,
        &setup.ops,
        &format!("pass {index}"),
        tracer,
        |op, t, p| {
            let t_op = Instant::now();
            let r = request(engine, &setup.graphs[op.graph], op, t)?;
            if cacheable(&op.backend) && !r.cache_hit {
                p.prepares += 1;
            }
            if r.cache_hit && op.token == HIT_PROBE_TOKEN {
                p.hit_latencies_s.push(t_op.elapsed().as_secs_f64());
            }
            Ok(if r.modeled { r.seconds } else { 0.0 })
        },
    )
}

/// Whether the engine caches a prepared session for this backend.
fn cacheable(backend: &Backend) -> bool {
    matches!(backend, Backend::Gpu(_) | Backend::Cluster { .. })
}

/// A prepared session the direct `serve-mixed` replay keeps across
/// requests, as the engine's cache does.
enum Session {
    Single(Box<PreparedGraph>),
    Cluster(Box<PreparedCluster>),
}

impl Session {
    fn prepare(
        backend: &Backend,
        g: &Graph,
        t: &mut Tracer,
        m: &mut Modeled,
    ) -> Result<Session, String> {
        match backend {
            Backend::Gpu(opts) => {
                let prepared = t.call("prepare", || PreparedGraph::prepare(&g.edges, opts));
                let prepared = prepared.map_err(|e| e.to_string())?;
                m.plan(prepared.bin_plan(), prepared.m_oriented());
                Ok(Session::Single(Box::new(prepared)))
            }
            Backend::Cluster {
                options,
                nodes,
                devices_per_node,
                partition,
            } => {
                let topology = ClusterTopology::new(*nodes, *devices_per_node);
                let prepared = t.call("cluster.prepare", || {
                    PreparedCluster::prepare(&g.edges, options, topology, *partition)
                });
                let prepared = prepared.map_err(|e| e.to_string())?;
                m.imbalance = m.imbalance.max(prepared.imbalance());
                Ok(Session::Cluster(Box::new(prepared)))
            }
            _ => unreachable!("only cacheable backends have sessions"),
        }
    }

    fn prepare_s(&self) -> f64 {
        match self {
            Session::Single(p) => p.prepare_s(),
            Session::Cluster(p) => p.prepare_s(),
        }
    }

    /// Count once: triangles and modeled seconds.
    fn count(&mut self, t: &mut Tracer, m: &mut Modeled) -> Result<(u64, f64), String> {
        let (triangles, count_s, totals) = match self {
            Session::Single(p) => {
                let c = t.call("count", || p.count()).map_err(|e| e.to_string())?;
                (c.triangles, c.count_s, c.profile.totals)
            }
            Session::Cluster(p) => {
                let c = t
                    .call("cluster.count", || p.count())
                    .map_err(|e| e.to_string())?;
                (c.triangles, c.count_s, c.profile.totals)
            }
        };
        m.counters.add(&totals);
        Ok((triangles, count_s))
    }

    /// Release the session, folding its device spans and reports into `m`.
    fn release(self, t: &mut Tracer, m: &mut Modeled) -> Result<(), String> {
        match self {
            Session::Single(p) => {
                let dev = t
                    .call("release", || p.release())
                    .map_err(|e| e.to_string())?;
                m.spans(dev.spans());
                m.reports(
                    dev.sanitizer_report().as_ref(),
                    dev.verifier_report().as_ref(),
                );
            }
            Session::Cluster(p) => {
                for trace in p.run_traces() {
                    m.spans(&trace.spans);
                }
                t.call("cluster.release", || p.release())
                    .map_err(|e| e.to_string())?;
            }
        }
        Ok(())
    }
}

/// `serve-mixed`'s request stream replayed straight against the core API,
/// without the engine: one prepare per cacheable (graph, token), one count
/// per request, front-door one-shots for multi-GPU and CPU tokens. It
/// gives the core layers' numbers for the engine's workload.
fn direct_pass(setup: &Setup, tracer: &mut Tracer) -> Pass {
    let mut sessions: Vec<((usize, &str), Session)> = Vec::new();
    let mut pass = run_pass(setup, &setup.ops, "direct", tracer, |op, t, p| {
        let g = &setup.graphs[op.graph];
        if !cacheable(&op.backend) {
            let modeled = op.backend.is_modeled();
            let layer = if modeled { "multi" } else { "forward" };
            let r = t.call(layer, || {
                CountRequest::new(op.backend.clone()).run(&g.edges)
            });
            let r = r.map_err(|e| e.to_string())?;
            check_count(r.triangles, g)?;
            check_reports(r.sanitizer.as_ref(), r.verifier.as_ref())?;
            return Ok(if modeled { r.seconds } else { 0.0 });
        }
        let key = (op.graph, op.token);
        let (i, prepare_s) = match sessions.iter().position(|(k, _)| *k == key) {
            Some(i) => (i, 0.0),
            None => {
                let session = Session::prepare(&op.backend, g, t, &mut p.modeled)?;
                let prepare_s = session.prepare_s();
                sessions.push((key, session));
                (sessions.len() - 1, prepare_s)
            }
        };
        let (triangles, count_s) = sessions[i].1.count(t, &mut p.modeled)?;
        check_count(triangles, g)?;
        Ok(prepare_s + count_s)
    });
    tracer.open("pass", "release");
    tracer.open("op", "sessions");
    for (_, session) in sessions {
        if let Err(e) = session.release(tracer, &mut pass.modeled) {
            pass.failed += 1;
            eprintln!("FAILED releasing a serve-mixed session: {e}");
        }
    }
    tracer.close();
    tracer.close();
    pass
}

/// `sanitize-verify`'s graphs counted with [`UNSANITIZED_TOKEN`].
fn unsanitized_pass(setup: &Setup, tracer: &mut Tracer) -> Pass {
    let backend: Backend = UNSANITIZED_TOKEN.parse().expect("canonical token");
    let ops: Vec<Op> = setup
        .ops
        .iter()
        .map(|op| Op {
            graph: op.graph,
            token: UNSANITIZED_TOKEN,
            backend: backend.clone(),
            label: format!("{} @ {UNSANITIZED_TOKEN}", setup.graphs[op.graph].name),
        })
        .collect();
    run_pass(setup, &ops, "unsanitized", tracer, |op, t, p| {
        oneshot(&setup.graphs[op.graph], gpu_options(op), t, &mut p.modeled)
    })
}

/// Run passes until `seconds` have passed (at least one; a traced run
/// alternates untraced and traced passes and runs at least one of each),
/// then compute the run's metrics.
pub fn run(setup: &Setup, seconds: f64, trace: bool, tracer: &mut Tracer) -> Run {
    let mut passes: Vec<Pass> = Vec::new();
    let own_before = tracer.own_seconds();
    let start = Instant::now();
    loop {
        tracer.set_on(trace && passes.len() % 2 == 1);
        passes.push(timed_pass(setup, tracer, passes.len()));
        let enough = !trace || passes.len() >= 2;
        if enough && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    tracer.set_on(trace);
    let traced_passes = passes.iter().filter(|p| p.span.is_some()).count();
    let mut run = Run {
        attempted: passes.iter().map(|p| p.attempted).sum(),
        failed: passes.iter().map(|p| p.failed).sum(),
        metrics: Vec::new(),
        op_modeled_ms: setup
            .ops
            .iter()
            .zip(&passes[0].op_modeled_s)
            .map(|(op, s)| (op.label.clone(), s * 1e3))
            .collect(),
        untraced_host_s: 0.0,
        tracing_overhead_s: 0.0,
        instrumentation_s: stats::ratio(tracer.own_seconds() - own_before, traced_passes as f64),
        span_coverage: 0.0,
    };
    if trace {
        per_layer(setup, &passes, tracer, &mut run);
    } else {
        run.metrics = end_to_end(setup, &passes);
    }
    run
}

fn end_to_end(setup: &Setup, passes: &[Pass]) -> Vec<Metric> {
    let host: Vec<f64> = passes.iter().map(|p| p.host_s).collect();
    let modeled: Vec<f64> = passes.iter().map(|p| p.modeled_s * 1e3).collect();
    // Job percentiles are taken over the pass's jobs, each at its median
    // latency across passes: every pass runs the same jobs, so this is the
    // typical pass's latency distribution, independent of how many passes
    // fit in the window.
    let latencies: Vec<f64> = (0..setup.ops.len())
        .map(|i| stats::median(&passes.iter().map(|p| p.latencies_s[i]).collect::<Vec<_>>()))
        .collect();
    let jobs = (passes.len() * setup.ops.len()) as f64;
    vec![
        Metric::new("host_s", "s", stats::median(&host)),
        Metric::new("modeled_ms", "ms", stats::median(&modeled)),
        Metric::new("setup_s", "s", setup.setup_s()),
        Metric::new("peak_rss_mb", "MB", stats::peak_rss_mb().unwrap_or(0.0)),
        Metric::new("jobs_per_s", "1/s", stats::ratio(jobs, host.iter().sum())),
        Metric::new("job_p50_ms", "ms", stats::quantile(&latencies, 0.5) * 1e3),
        Metric::new("job_p90_ms", "ms", stats::quantile(&latencies, 0.9) * 1e3),
    ]
}

fn per_layer(setup: &Setup, passes: &[Pass], tracer: &mut Tracer, run: &mut Run) {
    let traced: Vec<&Pass> = passes.iter().filter(|p| p.span.is_some()).collect();
    let untraced: Vec<f64> = passes
        .iter()
        .filter(|p| p.span.is_none())
        .map(|p| p.host_s)
        .collect();
    let traced_host: Vec<f64> = traced.iter().map(|p| p.host_s).collect();
    run.untraced_host_s = stats::median(&untraced);
    run.tracing_overhead_s = stats::median(&traced_host) - run.untraced_host_s;
    run.span_coverage = traced
        .iter()
        .filter_map(|p| p.span)
        .map(|i| tracer.coverage(i))
        .fold(1.0, f64::min);

    // The comparator calls run after the timed passes, outside them.
    let direct = (setup.workload == Workload::ServeMixed).then(|| direct_pass(setup, tracer));
    let unsanitized =
        (setup.workload == Workload::SanitizeVerify).then(|| unsanitized_pass(setup, tracer));
    for extra in direct.iter().chain(&unsanitized) {
        run.attempted += extra.attempted;
        run.failed += extra.failed;
    }

    // The core layers' numbers come from the traced passes, or for the
    // engine workload from its direct replay.
    let core: Vec<&Pass> = match &direct {
        Some(d) => vec![d],
        None => traced.clone(),
    };
    let core_spans: Vec<usize> = core.iter().filter_map(|p| p.span).collect();
    let host = |layer: &str| {
        let per_pass: Vec<f64> = core_spans
            .iter()
            .map(|&i| tracer.layer_seconds(i, layer))
            .collect();
        stats::median(&per_pass)
    };
    let rss = |layer: &str| {
        core_spans
            .iter()
            .map(|&i| tracer.layer_peak_rss_mb(i, layer))
            .fold(0.0, f64::max)
    };
    let pass_host = stats::median(&core.iter().map(|p| p.host_s).collect::<Vec<_>>());
    let m = &core[0].modeled;
    let c = &m.counters;

    let sanitizer_overhead_x = unsanitized.as_ref().map_or(0.0, |plain| {
        let plain_count = plain.span.map_or(0.0, |i| tracer.layer_seconds(i, "count"));
        stats::ratio(host("count"), plain_count)
    });
    let (hit_overhead_x, queue_wait_frac) = match (&setup.engine, &direct) {
        (Some(engine), Some(d)) => {
            let hits: Vec<f64> = traced
                .iter()
                .flat_map(|p| p.hit_latencies_s.clone())
                .collect();
            let probe: Vec<f64> = d.span.map_or(Vec::new(), |i| {
                tracer
                    .children(i)
                    .filter(|&j| {
                        tracer.spans()[j]
                            .label
                            .ends_with(&format!("@ {HIT_PROBE_TOKEN}"))
                    })
                    .map(|j| tracer.layer_seconds(j, "count"))
                    .collect()
            });
            let served_s: f64 = passes.iter().map(|p| p.host_s).sum();
            (
                stats::ratio(stats::median(&hits), stats::median(&probe)),
                stats::ratio(queue_wait_s(engine), served_s),
            )
        }
        _ => (0.0, 0.0),
    };
    let engine_hit_ratio = setup
        .engine
        .as_ref()
        .and_then(Engine::cache_hit_ratio)
        .unwrap_or(0.0);
    let prepares = stats::median(&traced.iter().map(|p| p.prepares as f64).collect::<Vec<_>>());
    let count_host = host("count") + host("cluster.count");

    let mut out = vec![
        Metric::new("gen.host_s", "s", stats::median(&setup.gen_s)),
        Metric::new("core.prepare.host_s", "s", host("prepare")),
        Metric::new("core.prepare.peak_rss_mb", "MB", rss("prepare")),
        Metric::new("core.preprocess.modeled_ms", "ms", m.preprocess_ms),
    ];
    for (step, ms) in PREPROCESS_STEPS.iter().zip(m.steps_ms) {
        out.push(Metric::new(
            format!("core.preprocess.{step}.modeled_ms"),
            "ms",
            ms,
        ));
    }
    out.extend([
        Metric::new(
            "core.schedule.modeled_frac",
            "ratio",
            stats::ratio(m.schedule_ms, core[0].modeled_s * 1e3),
        ),
        Metric::new(
            "core.schedule.hash_edge_frac",
            "ratio",
            stats::ratio(m.hash_edges, m.edges),
        ),
        Metric::new("core.count.host_s", "s", host("count")),
        Metric::new("core.count.peak_rss_mb", "MB", rss("count")),
        Metric::new("core.count.kernel_modeled_ms", "ms", m.kernel_ms),
        Metric::new("core.count.reduce_modeled_ms", "ms", m.reduce_ms),
        Metric::new("core.count.launches", "count", c.kernel_launches as f64),
        Metric::new("simt.lane_steps", "count", c.lane_steps as f64),
        Metric::new("simt.warp_steps", "count", c.warp_steps as f64),
        Metric::new("simt.divergent_steps", "count", c.divergent_steps as f64),
        Metric::new(
            "simt.serialized_groups",
            "count",
            c.serialized_groups as f64,
        ),
        Metric::new("simt.transactions", "count", c.transactions as f64),
        Metric::new("simt.dram_read_bytes", "bytes", c.dram_read_bytes as f64),
        Metric::new(
            "simt.tex_hit_rate",
            "ratio",
            stats::ratio(c.tex.hits as f64, c.tex.accesses as f64),
        ),
        Metric::new(
            "simt.lane_steps_per_host_s",
            "1/s",
            stats::ratio(c.lane_steps as f64, count_host),
        ),
        Metric::new("simt.sanitizer.overhead_x", "x", sanitizer_overhead_x),
        Metric::new("simt.sanitizer.findings", "count", m.findings),
        Metric::new("simt.verifier.launches_proven", "count", m.launches_proven),
        Metric::new(
            "simt.verifier.racechecks_skipped",
            "count",
            m.racechecks_skipped,
        ),
        Metric::new(
            "core.cluster.prepare_host_frac",
            "ratio",
            stats::ratio(host("cluster.prepare"), pass_host),
        ),
        Metric::new(
            "core.cluster.count_host_frac",
            "ratio",
            stats::ratio(host("cluster.count"), pass_host),
        ),
        Metric::new("core.cluster.imbalance", "ratio", m.imbalance),
        Metric::new(
            "core.cluster.merge_frac",
            "ratio",
            stats::ratio(m.merge_ms, m.shard_count_ms + m.merge_ms),
        ),
        Metric::new(
            "core.multi.host_frac",
            "ratio",
            stats::ratio(host("multi"), pass_host),
        ),
        Metric::new("core.cpu.forward_host_s", "s", setup.oracle_s),
        Metric::new("engine.hit_overhead_x", "x", hit_overhead_x),
        Metric::new("engine.queue_wait_frac", "ratio", queue_wait_frac),
        Metric::new("engine.cache_hit_ratio", "ratio", engine_hit_ratio),
        Metric::new("engine.prepares", "count", prepares),
    ]);
    run.metrics = out;
}

/// Host seconds the engine's jobs waited in its queue, over its lifetime.
fn queue_wait_s(engine: &Engine) -> f64 {
    let snapshot = engine.metrics().snapshot();
    let ns: u64 = snapshot
        .advisory
        .iter()
        .filter(|f| f.name == "engine_queue_wait_host_ns")
        .flat_map(|f| &f.series)
        .map(|s| match &s.value {
            MetricValue::Histogram(h) => h.sum_ns,
            _ => 0,
        })
        .sum();
    ns as f64 * 1e-9
}
