//! Criterion bench for §III-E: the multi-GPU pipeline at 1, 2, and 4
//! simulated Tesla C2050s.

mod common;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tc_core::count::{Backend, CountRequest, GpuOptions};
use tc_gen::suite::GraphSpec;
use tc_simt::DeviceConfig;

fn bench_multi_gpu(c: &mut Criterion) {
    let g = GraphSpec::Kronecker(2).generate(common::scale(), common::seed());
    let opts = GpuOptions::new(DeviceConfig::tesla_c2050().with_unlimited_memory());
    let mut group = c.benchmark_group("multi-gpu");
    group.sample_size(10);
    for devices in [1usize, 2, 4] {
        group.bench_with_input(BenchmarkId::from_parameter(devices), &devices, |b, &d| {
            let request = CountRequest::new(Backend::MultiGpu {
                options: opts.clone(),
                devices: d,
            });
            b.iter(|| request.run(&g).unwrap().triangles)
        });
    }
    group.finish();
}

criterion_group!(benches, bench_multi_gpu);
criterion_main!(benches);
