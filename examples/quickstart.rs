//! Quickstart: generate a graph, count its triangles on the CPU baseline
//! and on the simulated GPU, and print what the paper's Table I would show
//! for it.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use triangles::core::count::{Backend, CountRequest};
use triangles::gen::kronecker::Rmat;
use triangles::gen::Seed;
use triangles::graph::GraphStats;

fn main() {
    // A Kronecker R-MAT graph like the paper's synthetic suite: 2^12
    // vertices, ~16 undirected edges per vertex.
    let graph = Rmat::scale(12).edge_factor(16).generate(Seed(42));
    let stats = GraphStats::from_edge_array(&graph);
    println!(
        "graph: {} nodes, {} edges, max degree {}",
        stats.num_nodes, stats.num_edges, stats.max_degree
    );

    // The paper's CPU baseline: the sequential forward algorithm.
    let cpu = CountRequest::new(Backend::CpuForward)
        .run(&graph)
        .expect("cpu count");
    println!(
        "cpu-forward       : {:>12} triangles in {:8.2} ms (measured)",
        cpu.triangles,
        cpu.seconds * 1e3
    );

    // The paper's contribution: the parallel forward algorithm on a
    // (simulated) GTX 980.
    let gpu = CountRequest::new(Backend::gpu_gtx980())
        .run(&graph)
        .expect("gpu count");
    let report = gpu.gpu.as_ref().expect("GPU runs carry a report");
    println!(
        "gpu-sim (GTX 980) : {:>12} triangles in {:8.2} ms (simulated), speedup {:.1}x",
        gpu.triangles,
        gpu.seconds * 1e3,
        cpu.seconds / gpu.seconds
    );
    println!(
        "   kernel: {:.2} ms, texture-cache hit rate {:.1}%, {:.1} GB/s DRAM",
        report.kernel.time_s * 1e3,
        report.kernel.tex.hit_rate() * 100.0,
        report.kernel.achieved_bandwidth_gbs
    );
    println!(
        "   preprocessing fraction: {:.2} (drives the multi-GPU ceiling, paper §III-E)",
        report.preprocess_fraction()
    );

    assert_eq!(cpu.triangles, gpu.triangles, "backends must agree");
    println!("cpu and gpu agree ✓");
}
