//! Golden modeled-performance regression gate. The simulator is fully
//! deterministic, so the counting kernel's cycle count, transaction count,
//! and cache counters are exact functions of (graph, device, schedule) —
//! any drift is a real modeled-perf change and must be deliberate.
//!
//! On mismatch, rerun with `TC_BLESS=1` to regenerate the snapshot, then
//! review the diff like any other code change:
//!
//! ```text
//! TC_BLESS=1 cargo test --release --test modeled_perf_golden
//! ```

mod common;

use std::fmt::Write as _;

use triangles::core::count::GpuOptions;
use triangles::core::gpu::pipeline::run_gpu_pipeline;
use triangles::core::KernelSchedule;
use triangles::gen::suite::{full_suite, Scale};
use triangles::simt::DeviceConfig;

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
