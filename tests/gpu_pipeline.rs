//! End-to-end properties of the simulated GPU pipeline: determinism,
//! capacity-fallback equivalence, multi-GPU consistency, and the paper's
//! measurement-protocol details.

use triangles::core::count::{Backend, CountRequest, GpuOptions};
use triangles::core::gpu::preprocess::{fallback_path_peak_bytes, full_path_peak_bytes};
use triangles::core::{CoreError, GpuReport, PreparedGraph};
use triangles::gen::suite::{full_suite, Scale};
use triangles::gen::{erdos_renyi, Seed};
use triangles::graph::EdgeArray;
use triangles::simt::{DeviceConfig, LaunchConfig};

/// A one-shot single-device run through the [`CountRequest`] front door.
fn one_device(g: &EdgeArray, opts: &GpuOptions) -> Result<GpuReport, CoreError> {
    let counted = CountRequest::new(Backend::Gpu(opts.clone())).run(g)?;
    Ok(counted.gpu.expect("GPU runs report"))
}

/// A one-shot run striped over `devices` simulated cards.
fn striped(g: &EdgeArray, options: &GpuOptions, devices: usize) -> GpuReport {
    let backend = Backend::MultiGpu {
        options: options.clone(),
        devices,
    };
    let counted = CountRequest::new(backend).run(g).unwrap();
    counted.gpu.expect("GPU runs report")
}

/// The oriented arc and vertex counts preprocessing leaves on the device.
fn oriented_shape(g: &EdgeArray, opts: &GpuOptions) -> (usize, usize) {
    let prepared = PreparedGraph::prepare(g, opts).unwrap();
    let shape = (prepared.m_oriented(), prepared.n());
    prepared.release().unwrap();
    shape
}

#[test]
fn simulated_times_are_deterministic() {
    let g = erdos_renyi::gnm(400, 2_000, Seed(1));
    let opts = GpuOptions::new(DeviceConfig::gtx_980().with_unlimited_memory());
    let a = one_device(&g, &opts).unwrap();
    let b = one_device(&g, &opts).unwrap();
    assert_eq!(a.triangles, b.triangles);
    assert_eq!(a.total_s, b.total_s, "simulated time must be bit-identical");
    assert_eq!(a.kernel.sm_cycles, b.kernel.sm_cycles);
    assert_eq!(a.kernel.dram_bytes, b.kernel.dram_bytes);
    assert_eq!(a.kernel.tex, b.kernel.tex);
}

#[test]
fn fallback_gives_identical_counts_and_orientation() {
    let g = erdos_renyi::gnm(300, 3_000, Seed(2));
    let roomy = GpuOptions::new(DeviceConfig::gtx_980().with_unlimited_memory());
    let full = one_device(&g, &roomy).unwrap();
    assert!(!full.used_cpu_fallback);

    let launch = LaunchConfig::new(2, 64);
    let reserve = launch.active_threads(32) as u64 * 8;
    let node = (g.num_nodes() as u64 + 1) * 4;
    let window = (full_path_peak_bytes(&g) + fallback_path_peak_bytes(&g)) / 2 + reserve + node;
    let mut tight = GpuOptions::new(DeviceConfig::gtx_980().with_memory_capacity(window));
    tight.launch = Some(launch);
    let fb = one_device(&g, &tight).unwrap();
    assert!(fb.used_cpu_fallback);
    assert_eq!(fb.triangles, full.triangles);
    assert_eq!(oriented_shape(&g, &tight), oriented_shape(&g, &roomy));
    // The fallback path's device footprint is roughly half.
    assert!(fb.peak_device_bytes < full.peak_device_bytes);
}

#[test]
fn device_count_never_changes_the_answer() {
    let suite = full_suite(Scale::Smoke);
    let opts = GpuOptions::new(DeviceConfig::tesla_c2050().with_unlimited_memory());
    for row in suite.iter().take(4) {
        let counts: Vec<u64> = [1usize, 2, 3, 4]
            .iter()
            .map(|&d| striped(&row.graph, &opts, d).triangles)
            .collect();
        assert!(
            counts.windows(2).all(|w| w[0] == w[1]),
            "{}: {counts:?}",
            row.name
        );
    }
}

#[test]
fn preprocessing_time_is_independent_of_device_count() {
    let g = erdos_renyi::gnm(500, 4_000, Seed(3));
    let opts = GpuOptions::new(DeviceConfig::tesla_c2050().with_unlimited_memory());
    let one = striped(&g, &opts, 1);
    let four = striped(&g, &opts, 4);
    assert_eq!(one.preprocess_s, four.preprocess_s);
}

#[test]
fn phase_breakdown_adds_up() {
    let g = erdos_renyi::gnm(300, 2_500, Seed(4));
    let opts = GpuOptions::new(DeviceConfig::gtx_980().with_unlimited_memory());
    let r = one_device(&g, &opts).unwrap();
    assert!(r.preprocess_s > 0.0);
    assert!(r.count_s > 0.0);
    let sum = r.preprocess_s + r.count_s;
    assert!(
        (sum - r.total_s).abs() < 1e-12 * r.total_s.max(1.0),
        "{sum} vs {}",
        r.total_s
    );
    assert!((0.0..=1.0).contains(&r.preprocess_fraction()));
}

#[test]
fn reports_are_populated() {
    let g = erdos_renyi::gnm(200, 1_500, Seed(5));
    let opts = GpuOptions::new(DeviceConfig::gtx_980().with_unlimited_memory());
    let r = one_device(&g, &opts).unwrap();
    assert_eq!(oriented_shape(&g, &opts), (g.num_edges(), g.num_nodes()));
    assert!(r.kernel.lane_steps > 0);
    assert!(r.kernel.tex.accesses > 0);
    assert!(r.peak_device_bytes > 0);
    assert!(r.kernel.achieved_bandwidth_gbs >= 0.0);
}

#[test]
fn graph_too_large_even_for_fallback_errors_cleanly() {
    let g = erdos_renyi::gnm(300, 3_000, Seed(6));
    let opts = GpuOptions::new(DeviceConfig::gtx_980().with_memory_capacity(1024));
    match one_device(&g, &opts) {
        Err(e) => match e.root() {
            CoreError::GraphTooLargeForDevice {
                required_bytes,
                capacity_bytes,
            } => {
                assert!(required_bytes > capacity_bytes);
                // The context annotation names the device and phase.
                let msg = e.to_string();
                assert!(msg.contains("GTX 980"), "{msg}");
                assert!(msg.contains("preprocess"), "{msg}");
            }
            other => panic!("expected GraphTooLargeForDevice, got {other:?}"),
        },
        other => panic!("expected GraphTooLargeForDevice, got {other:?}"),
    }
}

#[test]
fn smaller_devices_simulate_slower() {
    let g = erdos_renyi::gnm(600, 6_000, Seed(7));
    let gtx = one_device(
        &g,
        &GpuOptions::new(DeviceConfig::gtx_980().with_unlimited_memory()),
    )
    .unwrap();
    let c2050 = one_device(
        &g,
        &GpuOptions::new(DeviceConfig::tesla_c2050().with_unlimited_memory()),
    )
    .unwrap();
    let nvs = one_device(
        &g,
        &GpuOptions::new(DeviceConfig::nvs_5200m().with_unlimited_memory()),
    )
    .unwrap();
    assert!(gtx.total_s < c2050.total_s, "GTX 980 must beat the C2050");
    assert!(
        c2050.total_s < nvs.total_s,
        "C2050 must beat the laptop part"
    );
}
