//! Golden modeled-performance regression gate. The simulator is fully
//! deterministic, so the counting kernel's cycle count, transaction count,
//! and cache counters are exact functions of (graph, device, schedule) —
//! any drift is a real modeled-perf change and must be deliberate.
//!
//! Two snapshots: `modeled_perf.txt` pins single-device kernel stats
//! across presets and schedules; `topology_perf.txt` pins every GPU
//! topology (single device, multi-GPU stripes, split, both cluster
//! partitions) bit for bit — count, modeled wall time, kernel stats,
//! summed counters and the counting launch labels of every device.
//!
//! On mismatch, rerun with `TC_BLESS=1` to regenerate the snapshot, then
//! review the diff like any other code change:
//!
//! ```text
//! TC_BLESS=1 cargo test --release --test modeled_perf_golden
//! ```

mod common;

use std::fmt::Write as _;

use triangles::core::count::{Backend, GpuOptions};
use triangles::core::gpu::cluster::run_cluster_profiled;
use triangles::core::gpu::multi::run_multi_gpu_profiled;
use triangles::core::gpu::pipeline::{run_gpu_pipeline, run_gpu_pipeline_profiled, RunTrace};
use triangles::core::gpu::split::count_split;
use triangles::core::KernelSchedule;
use triangles::gen::suite::{full_suite, Scale};
use triangles::graph::EdgeArray;
use triangles::simt::profiler::Counters;
use triangles::simt::{ClusterTopology, DeviceConfig};

const GOLDEN_PATH: &str = "tests/golden/modeled_perf.txt";

/// The snapshot matrix: skewed + uniform smoke graphs × both measured
/// device presets × both schedules. Small enough to run in seconds, broad
/// enough that a change to coalescing, caching, binning, or either
/// counting kernel moves at least one row.
const GRAPHS: [&str; 4] = [
    "internet-topology",
    "kronecker-10",
    "barabasi-albert",
    "watts-strogatz",
];

fn devices() -> [(&'static str, DeviceConfig); 2] {
    [
        ("gtx980", DeviceConfig::gtx_980()),
        ("c2050", DeviceConfig::tesla_c2050()),
    ]
}

/// (token, schedule, reorder) variants. `balanced+hash` degrades to the
/// plain balanced plan on thin-tailed smoke graphs — identical rows there
/// are the graceful-degradation guarantee, not a snapshot bug.
fn variants() -> [(&'static str, KernelSchedule, bool); 4] {
    [
        ("tpe", KernelSchedule::ThreadPerEdge, false),
        ("balanced", KernelSchedule::Balanced, false),
        ("balanced+hash", KernelSchedule::BalancedHash, false),
        ("tpe/reorder", KernelSchedule::ThreadPerEdge, true),
    ]
}

fn snapshot() -> String {
    let suite = full_suite(Scale::Smoke);
    let mut out = String::from(
        "# graph device schedule sm_cycles transactions tex_hits/accesses l2_hits/accesses\n",
    );
    for name in GRAPHS {
        let row = suite
            .iter()
            .find(|r| r.name == name)
            .unwrap_or_else(|| panic!("{name} missing from the smoke suite"));
        for (dev_tok, device) in devices() {
            for (sched_tok, schedule, reorder) in variants() {
                let mut opts = GpuOptions::new(device.clone().with_unlimited_memory());
                opts.schedule = schedule;
                opts.reorder = reorder;
                let report = run_gpu_pipeline(&row.graph, &opts)
                    .unwrap_or_else(|e| panic!("{name}/{dev_tok}/{sched_tok}: {e}"));
                let k = &report.kernel;
                writeln!(
                    out,
                    "{name} {dev_tok} {sched_tok} {} {} {}/{} {}/{}",
                    k.sm_cycles,
                    k.transactions,
                    k.tex.hits,
                    k.tex.accesses,
                    k.l2.hits,
                    k.l2.accesses,
                )
                .unwrap();
            }
        }
    }
    out
}

#[test]
fn modeled_perf_matches_the_golden_snapshot() {
    common::assert_golden(GOLDEN_PATH, &snapshot());
}

const TOPOLOGY_GOLDEN_PATH: &str = "tests/golden/topology_perf.txt";

/// One token per GPU topology × schedule family: single device, striped
/// multi-GPU, split subproblems and both cluster partitions, with and
/// without a (hash) bin plan.
const TOPOLOGY_TOKENS: [&str; 7] = [
    "gtx980",
    "gtx980/balanced+hash",
    "2xc2050",
    "4xc2050/balanced+hash",
    "gtx980/split:3/balanced",
    "cluster:2x2/gtx980/balanced+hash",
    "cluster:2x2:2d/c2050/balanced",
];

/// An 80-vertex clique: every edge's work clears the hash gate, so it is
/// the one fixture whose plan has an occupied hash bin.
fn clique80() -> EdgeArray {
    let n = 80u32;
    EdgeArray::from_undirected_pairs((0..n).flat_map(|u| ((u + 1)..n).map(move |v| (u, v))))
}

/// The counting launches of every device, in device then log order.
fn launch_labels(traces: &[RunTrace]) -> String {
    traces
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let labels: Vec<&str> = t
                .log
                .iter()
                .map(|op| op.label.as_str())
                .filter(|l| l.starts_with("CountTriangles"))
                .collect();
            format!("dev{i}=[{}]", labels.join(", "))
        })
        .collect::<Vec<_>>()
        .join(" ")
}

fn summed_counters(traces: &[RunTrace]) -> Counters {
    let mut totals = Counters::default();
    for t in traces {
        totals.add(&t.profile.totals);
    }
    totals
}

/// One row per (graph, token): the count, the exact modeled wall time,
/// the report's kernel stats, the summed profile counters and the
/// counting launch labels of every device. Split runs expose no kernel
/// stats or device logs (their subproblems run on fresh devices), so
/// those rows pin the merged counters instead.
fn topology_snapshot() -> String {
    let suite = full_suite(Scale::Smoke);
    let graph = |name: &str| {
        suite
            .iter()
            .find(|r| r.name == name)
            .unwrap_or_else(|| panic!("{name} missing from the smoke suite"))
            .graph
            .clone()
    };
    let graphs = [
        ("kronecker-10", graph("kronecker-10")),
        ("watts-strogatz", graph("watts-strogatz")),
        ("clique-80", clique80()),
    ];
    let mut out = String::from(
        "# graph token: triangles total_s / kernel stats / summed counters / counting launches\n",
    );
    for (name, g) in &graphs {
        for token in TOPOLOGY_TOKENS {
            let backend: Backend = token.parse().unwrap();
            let ctx = format!("{name}/{token}");
            let (triangles, total_s, kernel, counters, launches) = match &backend {
                Backend::Gpu(opts) => {
                    let (r, t) =
                        run_gpu_pipeline_profiled(g, opts).unwrap_or_else(|e| panic!("{ctx}: {e}"));
                    let traces = [t];
                    let kernel = format!("{:?}", r.kernel);
                    (
                        r.triangles,
                        r.total_s,
                        kernel,
                        summed_counters(&traces),
                        launch_labels(&traces),
                    )
                }
                Backend::MultiGpu { options, devices } => {
                    let (r, traces) = run_multi_gpu_profiled(g, options, *devices)
                        .unwrap_or_else(|e| panic!("{ctx}: {e}"));
                    let kernel = format!("{:?}", r.kernel);
                    (
                        r.triangles,
                        r.total_s,
                        kernel,
                        summed_counters(&traces),
                        launch_labels(&traces),
                    )
                }
                Backend::GpuSplit { options, parts } => {
                    let r =
                        count_split(g, options, *parts).unwrap_or_else(|e| panic!("{ctx}: {e}"));
                    (
                        r.triangles,
                        r.total_s,
                        "-".into(),
                        r.profile.totals,
                        "-".into(),
                    )
                }
                Backend::Cluster {
                    options,
                    nodes,
                    devices_per_node,
                    partition,
                } => {
                    let topology = ClusterTopology::new(*nodes, *devices_per_node);
                    let (r, traces) = run_cluster_profiled(g, options, topology, *partition)
                        .unwrap_or_else(|e| panic!("{ctx}: {e}"));
                    let kernel = format!("{:?}", r.kernel);
                    (
                        r.triangles,
                        r.total_s,
                        kernel,
                        summed_counters(&traces),
                        launch_labels(&traces),
                    )
                }
                other => panic!("{other} is not a GPU topology"),
            };
            writeln!(out, "{name} {token}: {triangles} {total_s:?}").unwrap();
            writeln!(out, "  kernel {kernel}").unwrap();
            writeln!(out, "  counters {counters:?}").unwrap();
            writeln!(out, "  launches {launches}").unwrap();
        }
    }
    out
}

#[test]
fn topology_perf_matches_the_golden_snapshot() {
    common::assert_golden(TOPOLOGY_GOLDEN_PATH, &topology_snapshot());
}
