//! Criterion bench for the §III-D ablations: each optimization toggle on
//! the LiveJournal analog, measured as host time of the simulated pipeline.
//! (The modeled device-time ratios are the `repro ablations` output.)

mod common;

use criterion::{criterion_group, criterion_main, Criterion};
use tc_core::count::{Backend, CountRequest, GpuOptions};
use tc_core::gpu::{EdgeLayout, LoopVariant};
use tc_gen::suite::GraphSpec;
use tc_simt::DeviceConfig;

fn bench_ablations(c: &mut Criterion) {
    let g = GraphSpec::LiveJournal.generate(common::scale(), common::seed());
    let device = DeviceConfig::gtx_980().with_unlimited_memory();
    let mut group = c.benchmark_group("ablations");
    group.sample_size(10);

    let variants: Vec<(&str, GpuOptions)> = {
        let base = GpuOptions::new(device.clone());
        let mut aos = base.clone();
        aos.layout = EdgeLayout::AoS;
        let mut prelim = base.clone();
        prelim.kernel = LoopVariant::Preliminary;
        let mut nocache = base.clone();
        nocache.use_texture_cache = false;
        let mut split = base.clone();
        split.warp_split = 2;
        vec![
            ("published", base),
            ("aos-layout", aos),
            ("preliminary-loop", prelim),
            ("no-texture-cache", nocache),
            ("warp-split-2", split),
        ]
    };
    for (name, opts) in variants {
        let request = CountRequest::new(Backend::Gpu(opts));
        group.bench_function(name, |b| b.iter(|| request.run(&g).unwrap().triangles));
    }
    group.finish();
}

criterion_group!(benches, bench_ablations);
criterion_main!(benches);
