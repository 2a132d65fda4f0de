//! Golden modeled-performance regression gate. The simulator is fully
//! deterministic, so the counting kernel's cycle count, transaction count,
//! and cache counters are exact functions of (graph, device, schedule) —
//! any drift is a real modeled-perf change and must be deliberate.
//!
//! Three snapshots: `modeled_perf.txt` pins single-device kernel stats
//! across presets and schedules; `topology_perf.txt` pins every GPU
//! topology (single device, multi-GPU stripes, split, both cluster
//! partitions) bit for bit — count, modeled wall time, kernel stats,
//! summed counters and the counting launch labels of every device;
//! `multi_device.txt` pins the bytes of multi-device runs — the Chrome
//! trace of every device's spans and op log, and the merged sanitizer and
//! verifier reports.
//!
//! On mismatch, rerun with `TC_BLESS=1` to regenerate the snapshot, then
//! review the diff like any other code change:
//!
//! ```text
//! TC_BLESS=1 cargo test --release --test modeled_perf_golden
//! ```

mod common;

use std::fmt::Write as _;

use triangles::bench::profile::request_traces;
use triangles::core::count::{Backend, CountRequest, GpuOptions};
use triangles::core::gpu::pipeline::RunTrace;
use triangles::core::{GpuReport, KernelSchedule};
use triangles::gen::suite::{full_suite, Scale};
use triangles::graph::EdgeArray;
use triangles::simt::DeviceConfig;
use triangles::telemetry::chrome_trace_json;

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

/// The report of a one-shot run through the [`CountRequest`] front door.
fn gpu_run(g: &EdgeArray, backend: Backend) -> Result<GpuReport, String> {
    let counted = CountRequest::new(backend)
        .run(g)
        .map_err(|e| e.to_string())?;
    counted.gpu.ok_or_else(|| "not a GPU backend".into())
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
                let report = gpu_run(&row.graph, Backend::Gpu(opts))
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

/// One row per (graph, token): the count, the exact modeled wall time,
/// the report's kernel stats, the merged profile's counters and the
/// counting launch labels of every device. Split runs have no device
/// traces (their subproblems run on fresh devices), so those rows print
/// `-` for the kernel and the launches and pin the merged counters.
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
            let r = gpu_run(g, token.parse().unwrap())
                .unwrap_or_else(|e| panic!("{name}/{token}: {e}"));
            let (kernel, launches) = if r.traces.is_empty() {
                ("-".into(), "-".into())
            } else {
                (format!("{:?}", r.kernel), launch_labels(&r.traces))
            };
            writeln!(out, "{name} {token}: {} {:?}", r.triangles, r.total_s).unwrap();
            writeln!(out, "  kernel {kernel}").unwrap();
            writeln!(out, "  counters {:?}", r.profile.totals).unwrap();
            writeln!(out, "  launches {launches}").unwrap();
        }
    }
    out
}

#[test]
fn topology_perf_matches_the_golden_snapshot() {
    common::assert_golden(TOPOLOGY_GOLDEN_PATH, &topology_snapshot());
}

const MULTI_DEVICE_GOLDEN_PATH: &str = "tests/golden/multi_device.txt";

/// Multi-device tokens whose per-device bring-up, broadcast and merged
/// checker reports the byte snapshot pins.
const MULTI_DEVICE_TOKENS: [&str; 3] = [
    "2xc2050/balanced/sanitize/verify",
    "4xc2050/balanced+hash",
    "cluster:2x2/gtx980/balanced/sanitize/verify",
];

/// Per token on kronecker-10: the Chrome trace `tcount --trace` writes
/// (every device's phase spans and op log), then the merged sanitizer and
/// verifier report JSON (`-` when the checker is off).
fn multi_device_snapshot() -> String {
    let g = full_suite(Scale::Smoke)
        .into_iter()
        .find(|r| r.name == "kronecker-10")
        .expect("kronecker-10 in the smoke suite")
        .graph;
    let mut out = String::new();
    for token in MULTI_DEVICE_TOKENS {
        let r = gpu_run(&g, token.parse().unwrap()).unwrap_or_else(|e| panic!("{token}: {e}"));
        let json = |report: Option<String>| report.unwrap_or_else(|| "-".into());
        writeln!(out, "## {token}: {} triangles", r.triangles).unwrap();
        writeln!(
            out,
            "trace {}",
            chrome_trace_json(&request_traces(token, &r.traces))
        )
        .unwrap();
        writeln!(out, "sanitizer {}", json(r.sanitizer.map(|s| s.to_json()))).unwrap();
        writeln!(out, "verifier {}", json(r.verifier.map(|v| v.to_json()))).unwrap();
    }
    out
}

#[test]
fn multi_device_runs_match_the_golden_bytes() {
    common::assert_golden(MULTI_DEVICE_GOLDEN_PATH, &multi_device_snapshot());
}

/// Every GPU topology reports one `GpuReport` through `CountRequest`:
/// its wall time is the count's, it carries one trace per device (none
/// for split, whose subproblems run on fresh devices) and a profile merged
/// over every device or subproblem, and its sanitizer and verifier reports
/// are the ones the count carries. A CPU backend reports none.
#[test]
fn every_topology_reports_through_count_request() {
    let g = full_suite(Scale::Smoke)
        .into_iter()
        .find(|r| r.name == "watts-strogatz")
        .expect("watts-strogatz in the smoke suite")
        .graph;
    // (traces, profiled devices) per token: split:3 runs 3 single-part,
    // 3 pair and 1 triple subproblem.
    let shapes = [(1, 1), (1, 1), (2, 2), (4, 4), (0, 7), (4, 4), (4, 4)];
    for (token, (traces, devices)) in TOPOLOGY_TOKENS.into_iter().zip(shapes) {
        for token in [token.to_string(), format!("{token}/sanitize/verify")] {
            let counted = CountRequest::new(token.parse().unwrap())
                .run(&g)
                .unwrap_or_else(|e| panic!("{token}: {e}"));
            assert_eq!(counted.backend, token);
            let r = counted.gpu.as_ref().expect("GPU backends report");
            assert_eq!(r.total_s.to_bits(), counted.seconds.to_bits(), "{token}");
            assert_eq!(r.triangles, counted.triangles, "{token}");
            assert_eq!(r.traces.len(), traces, "{token}");
            assert_eq!(r.profile.devices, devices, "{token}");
            assert_eq!(counted.sanitizer, r.sanitizer, "{token}");
            assert_eq!(counted.verifier, r.verifier, "{token}");
            let checked = token.ends_with("/verify");
            assert_eq!(counted.sanitizer.is_some(), checked, "{token}");
            assert_eq!(counted.verifier.is_some(), checked, "{token}");
        }
    }
    let cpu = CountRequest::new("forward".parse().unwrap())
        .run(&g)
        .unwrap();
    assert_eq!(cpu.backend, "forward");
    assert!(cpu.gpu.is_none() && cpu.sanitizer.is_none() && cpu.verifier.is_none());
}
