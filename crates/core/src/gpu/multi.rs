//! Multi-GPU counting (§III-E): preprocess on one device, broadcast the
//! edge and node arrays, give each device a stripe of edges, sum the counts.
//!
//! The achievable speedup is Amdahl-limited by the preprocessing fraction —
//! 0.08 to 0.76 across the paper's graphs, capping 4-GPU speedup between
//! 3.23× and 1.22×, best on the triangle-rich Kronecker graphs. The report
//! exposes exactly the quantities needed to check that.

use tc_graph::EdgeArray;
use tc_simt::KernelStats;

use crate::count::GpuOptions;
use crate::error::CoreError;
use crate::gpu::pipeline::GpuReport;
use crate::gpu::prepared::PreparedGraph;
use crate::gpu::released_report;
use crate::gpu::schedule::Stripe;
use crate::gpu::EdgeLayout;

/// Run the §III-E scheme on `devices` identical simulated cards, with one
/// trace per device (trace thread `gpu0`, `gpu1`, …) and their profiles
/// merged. Device 0 is a [`PreparedGraph`]; the rest are its replicas.
/// One host, `devices` cards: the interconnect is never charged.
pub(crate) fn run(
    g: &EdgeArray,
    opts: &GpuOptions,
    devices: usize,
) -> Result<GpuReport, CoreError> {
    if devices == 0 {
        return Err(CoreError::InvalidBackend(
            "a multi-GPU run needs at least one device".into(),
        ));
    }
    if opts.layout != EdgeLayout::SoA {
        return Err(CoreError::InvalidBackend(
            "the multi-GPU scheme broadcasts the production SoA layout".into(),
        ));
    }
    // Preprocess (and plan a balanced schedule) on device 0 only, then
    // broadcast its resident arrays to the replicas.
    let mut head = PreparedGraph::prepare(g, opts)?;
    let preprocess_s = head.prepare_s();
    let head_fallback = head.used_cpu_fallback();
    let head_t0 = head.device().elapsed();
    let replicas = head.replicate(devices - 1)?;

    // Each device counts its stripe — of the whole edge array under the
    // paper's scheme, of every occupied bin under a balanced plan (so each
    // device sees the same light/heavy mix and the stripes stay even).
    let mut triangles = 0u64;
    let mut kernel = KernelStats::default();
    let mut count_s = 0.0f64;
    let mut devs = Vec::with_capacity(devices);
    for (index, mut session) in std::iter::once(head).chain(replicas).enumerate() {
        let stripe = Stripe { index, of: devices };
        let tag = if session.bin_plan().is_some() {
            "bin stripe"
        } else {
            "stripe"
        };
        let (partial, slowest) = session.count_stripe("count", tag, stripe)?;
        triangles += partial;
        if index == 0 {
            kernel = slowest.unwrap_or_default();
        }
        let dev = session.release()?;
        // Each device's broadcast-plus-count window — device 0's after its
        // preprocessing, a replica's since its bring-up; the slowest
        // bounds the run.
        let t0 = if index == 0 { head_t0 } else { 0.0 };
        count_s = count_s.max(dev.elapsed() - t0);
        devs.push(dev);
    }
    Ok(released_report(
        &devs,
        |i, dev| format!("gpu{i} ({})", dev.config().name),
        triangles,
        preprocess_s,
        count_s,
        kernel,
        head_fallback,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::count_forward;
    use tc_simt::{DeviceConfig, LaunchConfig};

    fn dense_graph() -> EdgeArray {
        // Large enough that the counting kernel dominates the per-device
        // broadcast cost (the regime the paper's §III-E numbers are in).
        let mut pairs = Vec::new();
        for a in 0..96u32 {
            for b in (a + 1)..96 {
                if (a * 5 + b * 3) % 4 != 1 {
                    pairs.push((a, b));
                }
            }
        }
        EdgeArray::from_undirected_pairs(pairs)
    }

    #[test]
    fn multi_gpu_counts_match_cpu_for_1_2_4_devices() {
        let g = dense_graph();
        let want = count_forward(&g).unwrap();
        let opts = GpuOptions::new(DeviceConfig::tesla_c2050().with_unlimited_memory());
        for devices in [1, 2, 4] {
            let report = run(&g, &opts, devices).unwrap();
            assert_eq!(report.triangles, want, "devices = {devices}");
            assert_eq!(report.traces.len(), devices);
            assert_eq!(report.profile.devices, devices);
            assert!(report.total_s > 0.0);
        }
    }

    #[test]
    fn counting_phase_shrinks_with_more_devices() {
        let g = dense_graph();
        let mut opts = GpuOptions::new(DeviceConfig::tesla_c2050().with_unlimited_memory());
        // Keep the grid small relative to the edge count so each lane has a
        // work queue (the paper's regime: millions of edges per launch).
        // With more threads than edges the kernel is latency-bound and
        // striping cannot shrink the per-lane critical path.
        opts.launch = Some(LaunchConfig::new(2, 64));
        let one = run(&g, &opts, 1).unwrap();
        let four = run(&g, &opts, 4).unwrap();
        // Kernel stripes are a quarter of the work; allow broadcast costs.
        assert!(
            four.count_s < one.count_s,
            "4-GPU count {} !< 1-GPU count {}",
            four.count_s,
            one.count_s
        );
        // Preprocessing is identical (device 0 does it alone).
        let rel = (four.preprocess_s - one.preprocess_s).abs() / one.preprocess_s;
        assert!(rel < 1e-9, "preprocessing must not depend on device count");
    }

    #[test]
    fn balanced_multi_gpu_counts_match_cpu_for_every_device_count() {
        let g = dense_graph();
        let want = count_forward(&g).unwrap();
        let dev = DeviceConfig::tesla_c2050().with_unlimited_memory();
        for schedule in [
            crate::KernelSchedule::Balanced,
            crate::KernelSchedule::BalancedFixed {
                threshold: 32,
                width: 8,
            },
        ] {
            let mut opts = GpuOptions::new(dev.clone());
            opts.schedule = schedule;
            for devices in [1, 2, 3, 4] {
                let report = run(&g, &opts, devices).unwrap();
                assert_eq!(
                    report.triangles, want,
                    "schedule = {schedule}, devices = {devices}"
                );
            }
        }
    }

    #[test]
    fn single_device_multi_matches_pipeline_shape() {
        let g = dense_graph();
        let opts = GpuOptions::new(DeviceConfig::tesla_c2050().with_unlimited_memory());
        let multi = run(&g, &opts, 1).unwrap();
        let single = crate::gpu::pipeline::run(&g, &opts).unwrap();
        assert_eq!(multi.triangles, single.triangles);
    }
}
