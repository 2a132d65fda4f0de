//! Multi-GPU counting (§III-E): preprocess on one device, broadcast the
//! edge and node arrays, give each device a stripe of edges, sum the counts.
//!
//! The achievable speedup is Amdahl-limited by the preprocessing fraction —
//! 0.08 to 0.76 across the paper's graphs, capping 4-GPU speedup between
//! 3.23× and 1.22×, best on the triangle-rich Kronecker graphs. The report
//! exposes exactly the quantities needed to check that.

use tc_graph::EdgeArray;
use tc_simt::{
    Cluster, ClusterTopology, Device, Interconnect, KernelStats, SanitizerReport, VerifierReport,
};

use crate::count::GpuOptions;
use crate::error::CoreError;
use crate::gpu::count_kernel::KernelArrays;
use crate::gpu::pipeline::{GpuReport, RunTrace};
use crate::gpu::preprocess::preprocess_auto;
use crate::gpu::schedule::{
    alloc_hash_scratch, build_plan, dispatch_bins, Bins, DispatchCtx, Stripe,
};
use crate::gpu::EdgeLayout;
use crate::gpu::{merge_reports, merged_profile};

/// Run the §III-E scheme on `devices` identical simulated cards, with one
/// [`RunTrace`] per device (trace thread `gpu0`, `gpu1`, …) and their
/// profiles merged.
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
    // Fold the per-run sanitizer request into the device preset so every
    // striped device installs its shadow map at construction.
    let mut cfg = opts.device.clone();
    cfg.sanitizer = cfg.sanitizer.max(opts.sanitizer);
    cfg.verifier = cfg.verifier || opts.verify;
    // One host, `devices` cards: a one-node cluster, which never charges
    // the interconnect.
    let mut group = Cluster::homogeneous(
        ClusterTopology::new(1, devices),
        Interconnect::default(),
        &cfg,
    );
    if opts.preinit_context {
        group.preinit_all();
    }
    group.reset_clocks();

    // Preprocess on device 0 only, reserving room for its result array.
    let lc = opts.launch_config(group.device(0).config());
    let total_threads = lc.active_threads(group.device(0).config().warp_size);
    group.device_mut(0).push_phase("preprocess");
    let pre = preprocess_auto(
        group.device_mut(0),
        g,
        false,
        total_threads as u64 * 8,
        opts.reorder,
    );
    group.device_mut(0).pop_phase();
    let pre = pre?;

    // The balanced bin plan, built and charged on device 0 like the
    // preprocessing it extends.
    group.device_mut(0).push_phase("schedule");
    let plan = build_plan(group.device_mut(0), &pre, opts.schedule);
    group.device_mut(0).pop_phase();
    let plan = plan?;
    let preprocess_s = group.device(0).elapsed() + pre.host_seconds;

    // Broadcast the shared arrays (plus the gathered bin-ordered edge
    // copies under a balanced plan). Target clocks start accumulating here.
    let t_before: Vec<f64> = group.iter().map(Device::elapsed).collect();
    for i in 0..devices {
        group.device_mut(i).push_phase("broadcast");
    }
    let nbr = group.broadcast(0, &pre.nbr)?;
    let owner = group.broadcast(0, &pre.owner)?;
    let node = group.broadcast(0, &pre.node)?;
    let gathered = match &plan {
        Some(plan) => Some((group.broadcast(0, &plan.eu)?, group.broadcast(0, &plan.ev)?)),
        None => None,
    };
    for i in 0..devices {
        group.device_mut(i).pop_phase();
    }

    // Each device counts its stripe — of the whole edge array under the
    // paper's scheme, of every occupied bin under a balanced plan (so each
    // device sees the same light/heavy mix and the stripes stay even).
    let mut triangles = 0u64;
    let mut kernel = KernelStats::default();
    for i in 0..devices {
        let dev = group.device_mut(i);
        dev.push_phase("count");
        let result = dev.alloc::<u64>(total_threads)?;
        // Each device runs its own stripe of every bin with the full
        // launch geometry, so each needs its own hash-table scratch.
        let hash_scratch = alloc_hash_scratch(dev, plan.as_ref(), total_threads)?;
        let (arrays, bins, tag) = match (&plan, &gathered) {
            (Some(plan), Some((eu, ev))) => {
                let arrays = KernelArrays::Gathered {
                    eu: eu[i],
                    ev: ev[i],
                    adj: nbr[i],
                };
                (arrays, Bins::Plan(&plan.bins), "bin stripe")
            }
            _ => {
                let arrays = KernelArrays::SoA {
                    nbr: nbr[i],
                    owner: owner[i],
                };
                (arrays, Bins::Whole(pre.m), "stripe")
            }
        };
        let ctx = DispatchCtx {
            opts,
            lc,
            node: node[i],
            result,
            hash_scratch,
            tag,
        };
        let stripe = Stripe {
            index: i,
            of: devices,
        };
        let (partial, slowest) = dispatch_bins(dev, arrays, bins, stripe, &ctx)?;
        triangles += partial;
        if i == 0 {
            kernel = slowest.unwrap_or_default();
        }
        if let Some(scratch) = hash_scratch {
            dev.free(scratch)?;
        }
        dev.free(result)?;
        dev.pop_phase();
    }

    // Each device's broadcast-plus-count window; the slowest bounds the run.
    let count_s = group
        .iter()
        .zip(&t_before)
        .map(|(dev, t0)| dev.elapsed() - t0)
        .fold(0.0, f64::max);
    let traces: Vec<RunTrace> = group
        .iter()
        .enumerate()
        .map(|(i, dev)| RunTrace::of(dev, format!("gpu{i} ({})", dev.config().name)))
        .collect();
    Ok(GpuReport {
        triangles,
        total_s: preprocess_s + count_s,
        preprocess_s,
        count_s,
        kernel,
        used_cpu_fallback: pre.used_cpu_fallback,
        peak_device_bytes: group.iter().map(Device::mem_peak).max().unwrap_or(0),
        sanitizer: merge_reports(
            group.iter().map(Device::sanitizer_report),
            SanitizerReport::merged,
        ),
        verifier: merge_reports(
            group.iter().map(Device::verifier_report),
            VerifierReport::merged,
        ),
        profile: merged_profile(&traces),
        traces,
    })
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
