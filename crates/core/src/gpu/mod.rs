//! The CUDA implementation of the paper, on the simulated device.
//!
//! * [`preprocess`] — the eight-step preprocessing phase (§III-B) and the
//!   CPU fallback for over-capacity graphs (§III-D6);
//! * [`count_kernel`] — the `CountTriangles` kernel (§III-C) as a SIMT lane
//!   program, with the §III-D optimization toggles;
//! * [`pipeline`] — the end-to-end measured run, following the paper's
//!   protocol (§IV): clock from the host-to-device copy to the final
//!   device-to-host copy and free;
//! * [`multi`] — the multi-GPU extension (§III-E);
//! * [`split`] and [`cluster`] — bounded-memory subproblems and sharded
//!   clusters (§VI future work).
//!
//! Every topology reports one [`GpuReport`]; [`crate::CountRequest`] is
//! the one-shot entry point for all of them.

pub mod cluster;
pub mod count_kernel;
pub mod multi;
pub mod pipeline;
pub mod prepared;
pub mod preprocess;
pub mod schedule;
pub mod split;
pub mod warp_centric;

pub use pipeline::GpuReport;
pub use schedule::KernelSchedule;

use tc_graph::EdgeArray;
use tc_simt::{Device, KernelStats, ProfileReport, SanitizerReport, VerifierReport};

use crate::count::Backend;
use crate::error::CoreError;
use pipeline::RunTrace;

/// One-shot run of any simulated-GPU backend — the one place that matches
/// over GPU topologies. CPU backends are a [`CoreError::InvalidBackend`].
pub(crate) fn run(g: &EdgeArray, backend: &Backend) -> Result<GpuReport, CoreError> {
    match backend {
        Backend::Gpu(opts) => pipeline::run(g, opts),
        Backend::MultiGpu { options, devices } => multi::run(g, options, *devices),
        Backend::GpuSplit { options, parts } => split::run(g, options, *parts),
        Backend::Cluster {
            options,
            nodes,
            devices_per_node,
            partition,
        } => {
            let topology = cluster::cluster_topology(*nodes, *devices_per_node)?;
            cluster::run(g, options, topology, *partition)
        }
        cpu => Err(CoreError::InvalidBackend(format!(
            "{cpu} is not a simulated-GPU backend"
        ))),
    }
}

/// The report of a multi-device run — multi-GPU stripes or cluster shards
/// — from its released devices, flat device order: one trace per device
/// named by `trace_name`, their profiles merged (counters sum, spans group
/// by path), the checker reports merged after release (so they cover the
/// teardown frees, as on a single device) and the largest per-device peak.
pub(crate) fn released_report(
    devs: &[Device],
    trace_name: impl Fn(usize, &Device) -> String,
    triangles: u64,
    preprocess_s: f64,
    count_s: f64,
    kernel: KernelStats,
    used_cpu_fallback: bool,
) -> GpuReport {
    let traces: Vec<RunTrace> = devs
        .iter()
        .enumerate()
        .map(|(i, dev)| RunTrace::of(dev, trace_name(i, dev)))
        .collect();
    let profiles: Vec<ProfileReport> = traces.iter().map(|t| t.profile.clone()).collect();
    GpuReport {
        triangles,
        total_s: preprocess_s + count_s,
        preprocess_s,
        count_s,
        kernel,
        used_cpu_fallback,
        peak_device_bytes: devs.iter().map(Device::mem_peak).max().unwrap_or(0),
        sanitizer: merge_reports(
            devs.iter().map(Device::sanitizer_report),
            SanitizerReport::merged,
        ),
        verifier: merge_reports(
            devs.iter().map(Device::verifier_report),
            VerifierReport::merged,
        ),
        profile: ProfileReport::merged(&profiles),
        traces,
    }
}

/// Merge per-device (or per-subproblem) reports in order with `merge`;
/// `None` when none was produced (the sanitizer or verifier was off).
pub(crate) fn merge_reports<R>(
    reports: impl IntoIterator<Item = Option<R>>,
    merge: fn(&[R]) -> R,
) -> Option<R> {
    let reports: Vec<R> = reports.into_iter().flatten().collect();
    (!reports.is_empty()).then(|| merge(&reports))
}

/// Which merge loop the kernel runs (§III-D3).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
#[non_exhaustive]
pub enum LoopVariant {
    /// The published kernel: heads kept in registers, one load per
    /// non-matching iteration.
    #[default]
    FinalReadAvoiding,
    /// The first attempt: reload both heads every iteration (36–48 % slower
    /// in the paper).
    Preliminary,
}

/// Edge-array layout the kernel reads (§III-D1).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
#[non_exhaustive]
pub enum EdgeLayout {
    /// Structure of arrays after the unzip step — the published layout.
    #[default]
    SoA,
    /// Array of `(u32, u32)` structs (no unzip) — 13–32 % slower.
    AoS,
}
