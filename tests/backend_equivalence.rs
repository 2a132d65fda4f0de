//! Cross-backend equivalence: every algorithm in the repository must agree
//! on every graph — classic fixtures with closed-form counts, the full
//! smoke-scale evaluation suite, and the brute-force reference.

use triangles::core::count::{Backend, CountRequest, GpuOptions};
use triangles::core::verify::count_brute_force;
use triangles::core::{CoreError, EdgeLayout, LoopVariant};
use triangles::gen::suite::{full_suite, Scale};
use triangles::gen::{classic, watts_strogatz::WattsStrogatz, Seed};
use triangles::graph::EdgeArray;
use triangles::simt::DeviceConfig;

/// The [`CountRequest`] front door, narrowed to the bare count.
fn count(g: &EdgeArray, backend: Backend) -> Result<u64, CoreError> {
    CountRequest::new(backend).run(g).map(|r| r.triangles)
}

fn all_backends() -> Vec<Backend> {
    vec![
        Backend::CpuForward,
        Backend::CpuEdgeIterator,
        Backend::CpuNodeIterator,
        Backend::CpuForwardHashed,
        Backend::CpuParallel,
        Backend::CpuHybrid { threshold: None },
        Backend::CpuHybrid { threshold: Some(4) },
        Backend::Gpu(GpuOptions::new(
            DeviceConfig::gtx_980().with_unlimited_memory(),
        )),
        Backend::GpuSplit {
            options: GpuOptions::new(DeviceConfig::gtx_980().with_unlimited_memory()),
            parts: 3,
        },
        Backend::Gpu(GpuOptions::new(
            DeviceConfig::tesla_c2050().with_unlimited_memory(),
        )),
        Backend::Gpu(GpuOptions::new(
            DeviceConfig::nvs_5200m().with_unlimited_memory(),
        )),
        Backend::MultiGpu {
            options: GpuOptions::new(DeviceConfig::tesla_c2050().with_unlimited_memory()),
            devices: 4,
        },
        Backend::Gpu(GpuOptions::balanced_hash(
            DeviceConfig::gtx_980().with_unlimited_memory(),
        )),
        Backend::Gpu({
            let mut o = GpuOptions::new(DeviceConfig::gtx_980().with_unlimited_memory());
            o.reorder = true;
            o
        }),
        Backend::Gpu({
            let mut o = GpuOptions::balanced_hash(DeviceConfig::gtx_980().with_unlimited_memory());
            o.reorder = true;
            o
        }),
        Backend::MultiGpu {
            options: {
                let mut o =
                    GpuOptions::balanced(DeviceConfig::tesla_c2050().with_unlimited_memory());
                o.reorder = true;
                o
            },
            devices: 2,
        },
    ]
}

fn assert_all_agree(g: &EdgeArray, expected: u64, context: &str) {
    for backend in all_backends() {
        let token = backend.to_string();
        let got = count(g, backend).unwrap_or_else(|e| panic!("{context}/{token}: {e}"));
        assert_eq!(got, expected, "{context}: backend {token} disagrees");
    }
}

#[test]
fn closed_form_fixtures() {
    assert_all_agree(
        &classic::complete(10),
        classic::complete_triangles(10),
        "K10",
    );
    assert_all_agree(&classic::complete_bipartite(6, 7), 0, "K6,7");
    assert_all_agree(&classic::cycle(12), 0, "C12");
    assert_all_agree(&classic::cycle(3), 1, "C3");
    assert_all_agree(&classic::star(20), 0, "S20");
    assert_all_agree(&classic::wheel(9), classic::wheel_triangles(9), "W9");
    assert_all_agree(&classic::grid(5, 7), 0, "grid5x7");
    assert_all_agree(&classic::triangle_soup(17), 17, "17 disjoint triangles");
    assert_all_agree(&classic::path(9), 0, "P9");
}

#[test]
fn watts_strogatz_lattice_closed_form() {
    let ws = WattsStrogatz::new(120, 8, 0.0);
    let g = ws.generate(Seed(5));
    assert_all_agree(&g, ws.lattice_triangles(), "WS lattice k=8");
}

#[test]
fn suite_graphs_agree_with_brute_force_where_small() {
    for row in full_suite(Scale::Smoke) {
        let expected = count(&row.graph, Backend::CpuForward).unwrap();
        if row.graph.num_nodes() <= 1200 {
            assert_eq!(
                expected,
                count_brute_force(&row.graph),
                "{}: forward vs brute force",
                row.name
            );
        }
        assert_all_agree(&row.graph, expected, &row.name);
    }
}

#[test]
fn every_gpu_option_combination_agrees() {
    let g = full_suite(Scale::Smoke)
        .into_iter()
        .find(|r| r.name == "citeseer")
        .expect("suite has citeseer")
        .graph;
    let expected = count(&g, Backend::CpuForward).unwrap();
    for layout in [EdgeLayout::SoA, EdgeLayout::AoS] {
        for variant in [LoopVariant::FinalReadAvoiding, LoopVariant::Preliminary] {
            for cached in [true, false] {
                for split in [1u32, 2] {
                    let mut opts = GpuOptions::new(DeviceConfig::gtx_980().with_unlimited_memory());
                    opts.layout = layout;
                    opts.kernel = variant;
                    opts.use_texture_cache = cached;
                    opts.warp_split = split;
                    let got = count(&g, Backend::Gpu(opts)).unwrap();
                    assert_eq!(
                        got, expected,
                        "layout={layout:?} variant={variant:?} cached={cached} split={split}"
                    );
                }
            }
        }
    }
}

#[test]
fn empty_and_tiny_graphs() {
    assert_all_agree(&EdgeArray::default(), 0, "empty");
    assert_all_agree(
        &EdgeArray::from_undirected_pairs([(0, 1)]),
        0,
        "single edge",
    );
    assert_all_agree(
        &EdgeArray::from_undirected_pairs([(0, 1), (1, 2), (2, 0)]),
        1,
        "single triangle",
    );
}
