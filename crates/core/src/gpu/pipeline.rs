//! The end-to-end single-GPU run, following the paper's measurement
//! protocol (§IV): pre-initialize the CUDA context, start the clock just
//! before the host-to-device copy, stop it right after the result comes
//! back and device memory is freed.

use tc_graph::EdgeArray;
use tc_simt::profiler::{ProfileReport, Span};
use tc_simt::{Device, KernelStats, SanitizerReport, TimedOp, VerifierReport};

use crate::count::GpuOptions;
use crate::error::CoreError;
use crate::gpu::prepared::PreparedGraph;

/// Everything a simulated-GPU run reports, on every topology (one card,
/// striped multi-GPU, split subproblems, a sharded cluster): the count,
/// the paper-style wall time, the preprocessing/counting breakdown the
/// §III-E Amdahl analysis needs, the kernel profile Table II reports, and
/// the per-phase profile and per-device traces behind them.
#[derive(Clone, Debug)]
pub struct GpuReport {
    pub triangles: u64,
    /// Wall-clock of the measured window, in seconds (simulated device time
    /// plus measured host time for the fallback path).
    pub total_s: f64,
    /// Preprocessing (everything before the counting kernel, including the
    /// input copy — the paper's preprocessing phase starts at the copy).
    pub preprocess_s: f64,
    /// Counting kernel + final reduction (the slowest device's window on
    /// multi-device topologies).
    pub count_s: f64,
    /// The slowest counting launch (device 0's on multi-GPU stripes).
    pub kernel: KernelStats,
    /// Whether §III-D6 CPU preprocessing was needed (a † row).
    pub used_cpu_fallback: bool,
    /// Device allocation high-water mark (the largest over devices or
    /// subproblems).
    pub peak_device_bytes: u64,
    /// Compute-sanitizer findings for the whole run, including the
    /// teardown frees, merged in device (or run) order (`None` when the
    /// sanitizer was off).
    pub sanitizer: Option<SanitizerReport>,
    /// Static launch-verifier report for the whole run, merged the same
    /// way (`None` when the verifier was off).
    pub verifier: Option<VerifierReport>,
    /// Per-phase profile of the run, merged over devices or subproblems.
    pub profile: ProfileReport,
    /// One trace per simulated device. Empty for split runs, whose
    /// subproblems run one after another on fresh devices and so have no
    /// single device timeline.
    pub traces: Vec<RunTrace>,
}

impl GpuReport {
    /// Fraction of the run spent preprocessing (the §III-E Amdahl input).
    pub fn preprocess_fraction(&self) -> f64 {
        if self.total_s > 0.0 {
            self.preprocess_s / self.total_s
        } else {
            0.0
        }
    }
}

/// Everything the profiler recorded about one device's run: the leaf
/// operation log, the phase spans, and the aggregated [`ProfileReport`].
/// `tc_bench::profile::request_traces` turns `log`/`spans` into the
/// request traces `tc_telemetry::chrome_trace_json` renders as a nested
/// Perfetto view; `profile` feeds the report renderers.
#[derive(Clone, Debug)]
pub struct RunTrace {
    pub device_name: String,
    pub log: Vec<TimedOp>,
    pub spans: Vec<Span>,
    pub profile: ProfileReport,
}

impl RunTrace {
    /// Snapshot everything `dev` recorded, under trace-thread name `name`.
    pub(crate) fn of(dev: &Device, name: String) -> RunTrace {
        RunTrace {
            device_name: name,
            log: dev.time_log().to_vec(),
            spans: dev.spans().to_vec(),
            profile: dev.profile(),
        }
    }
}

/// Run the full pipeline on a fresh simulated device: one
/// prepare/count/release round trip, so the one-shot path and the serving
/// path ([`PreparedGraph`]) execute the same device operations by
/// construction.
pub(crate) fn run(g: &EdgeArray, opts: &GpuOptions) -> Result<GpuReport, CoreError> {
    let mut prepared = PreparedGraph::prepare(g, opts)?;
    let preprocess_s = prepared.prepare_s();
    let counted = prepared.count()?;
    let host_seconds = prepared.host_seconds();
    let used_cpu_fallback = prepared.used_cpu_fallback();
    // Teardown stays inside the measured window, like the paper's protocol
    // (frees charge no simulated time, so the window is unchanged).
    let dev = prepared.release()?;
    let total_s = dev.elapsed() + host_seconds;
    let trace = RunTrace::of(&dev, dev.config().name.to_string());
    Ok(GpuReport {
        triangles: counted.triangles,
        total_s,
        preprocess_s,
        count_s: total_s - preprocess_s,
        kernel: counted.kernel,
        used_cpu_fallback,
        peak_device_bytes: dev.mem_peak(),
        // Snapshot the sanitizer after release so the teardown frees
        // (double frees, stale handles) are covered too.
        sanitizer: dev.sanitizer_report(),
        verifier: dev.verifier_report(),
        profile: trace.profile.clone(),
        traces: vec![trace],
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::count::GpuOptions;
    use crate::cpu::count_forward;
    use crate::gpu::EdgeLayout;
    use tc_simt::DeviceConfig;

    fn diamond() -> EdgeArray {
        EdgeArray::from_undirected_pairs([(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    }

    #[test]
    fn pipeline_counts_correctly() {
        let g = diamond();
        let opts = GpuOptions::new(DeviceConfig::gtx_980().with_unlimited_memory());
        let report = run(&g, &opts).unwrap();
        assert_eq!(report.triangles, 2);
        assert!(!report.used_cpu_fallback);
        assert!(report.total_s > 0.0);
        assert!(report.preprocess_s > 0.0);
        assert!(report.count_s > 0.0);
        assert!((0.0..=1.0).contains(&report.preprocess_fraction()));
    }

    #[test]
    fn all_option_combinations_agree() {
        // A graph with enough structure to stress every code path.
        let mut pairs = Vec::new();
        for a in 0..12u32 {
            for b in (a + 1)..12 {
                if (a * 7 + b * 13) % 3 != 0 {
                    pairs.push((a, b));
                }
            }
        }
        let g = EdgeArray::from_undirected_pairs(pairs);
        let want = count_forward(&g).unwrap();
        let base = DeviceConfig::gtx_980().with_unlimited_memory();
        for layout in [EdgeLayout::SoA, EdgeLayout::AoS] {
            for variant in [
                crate::gpu::LoopVariant::FinalReadAvoiding,
                crate::gpu::LoopVariant::Preliminary,
            ] {
                for cached in [true, false] {
                    let mut opts = GpuOptions::new(base.clone());
                    opts.layout = layout;
                    opts.kernel = variant;
                    opts.use_texture_cache = cached;
                    let report = run(&g, &opts).unwrap();
                    assert_eq!(
                        report.triangles, want,
                        "layout={layout:?} variant={variant:?} cached={cached}"
                    );
                }
            }
        }
    }

    #[test]
    fn pipeline_log_covers_every_phase() {
        let g = diamond();
        let opts = GpuOptions::new(DeviceConfig::gtx_980().with_unlimited_memory());
        let report = run(&g, &opts).unwrap();
        assert_eq!(report.triangles, 2);
        let log = &report.traces[0].log;
        let labels: Vec<&str> = log.iter().map(|op| op.label.as_str()).collect();
        assert!(labels.iter().any(|l| l.contains("htod")));
        assert!(labels.iter().any(|l| l.contains("thrust::sort")));
        assert!(labels.iter().any(|l| l.contains("CountTriangles")));
        let logged: f64 = log.iter().map(|op| op.seconds).sum();
        assert!((logged - report.total_s).abs() < 1e-12);
    }

    #[test]
    fn warp_split_preserves_the_count() {
        let g = diamond();
        let mut opts = GpuOptions::new(DeviceConfig::gtx_980().with_unlimited_memory());
        opts.warp_split = 2;
        let report = run(&g, &opts).unwrap();
        assert_eq!(report.triangles, 2);
    }

    #[test]
    fn fallback_path_engages_and_counts() {
        // Capacity window chosen between the fallback peak and the full
        // peak, with a small explicit launch so the result array stays
        // negligible. This reproduces a † row of Table I.
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        for a in 0..40u32 {
            for b in (a + 1)..40 {
                if (a + b) % 4 == 0 {
                    pairs.push((a, b));
                }
            }
        }
        let big = EdgeArray::from_undirected_pairs(pairs);
        let full = crate::gpu::preprocess::full_path_peak_bytes(&big);
        let fallback = crate::gpu::preprocess::fallback_path_peak_bytes(&big);
        let result_bytes = 2u64 * 64 * 8; // 2 blocks × 64 threads × u64
        let capacity = (fallback + full) / 2 + result_bytes + 1024;
        let mut opts = GpuOptions::new(DeviceConfig::gtx_980().with_memory_capacity(capacity));
        opts.launch = Some(tc_simt::LaunchConfig::new(2, 64));
        let report = run(&big, &opts).unwrap();
        assert!(
            report.used_cpu_fallback,
            "capacity window must force the fallback"
        );
        assert_eq!(report.triangles, count_forward(&big).unwrap());
    }

    #[test]
    fn device_memory_is_clean_after_run() {
        // The run frees everything it allocated: a second run succeeds at a
        // tight capacity that a leaked first run would blow.
        let g = diamond();
        let result_bytes = 2u64 * 64 * 8;
        let cfg = DeviceConfig::gtx_980().with_memory_capacity(
            crate::gpu::preprocess::full_path_peak_bytes(&g) + result_bytes + 1024,
        );
        let mut opts = GpuOptions::new(cfg);
        opts.launch = Some(tc_simt::LaunchConfig::new(2, 64));
        let a = run(&g, &opts).unwrap();
        let b = run(&g, &opts).unwrap();
        assert_eq!(a.triangles, b.triangles);
        assert!(a.peak_device_bytes > 0);
    }
}
