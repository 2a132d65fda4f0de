//! The paper's §VI future-work directions and §V comparison points, all
//! implemented in this repository:
//!
//! * graph splitting so the graph never has to fit on the device at once
//!   (the scheme of [5], Suri–Vassilvitskii);
//! * the hybrid algorithm with dense counting for high-degree vertices
//!   (toward [21], Alon–Yuster–Zwick);
//! * the approximation alternatives (DOULION [6], wedge sampling [7]).
//!
//! ```text
//! cargo run --release -p triangles --example beyond_the_paper
//! ```

use triangles::core::approx::{doulion, wedge_sampling};
use triangles::core::count::{Backend, CountRequest, GpuOptions};
use triangles::gen::kronecker::Rmat;
use triangles::gen::Seed;
use triangles::simt::DeviceConfig;

fn main() {
    let graph = Rmat::scale(11).edge_factor(24).generate(Seed(9));
    let exact = CountRequest::new(Backend::CpuForward)
        .run(&graph)
        .expect("exact")
        .triangles;
    println!(
        "graph: {} nodes, {} edges, {} triangles (exact)\n",
        graph.num_nodes(),
        graph.num_edges(),
        exact
    );

    // --- §VI direction 1: splitting past the memory wall -------------------
    // A device too small for the whole graph, even with the §III-D6
    // fallback; splitting into 6 vertex ranges bounds every subproblem.
    let small = DeviceConfig::gtx_980().with_memory_capacity(
        triangles::core::gpu::preprocess::fallback_path_peak_bytes(&graph) / 2 + 256 * 1024,
    );
    let opts = GpuOptions::new(small);
    let whole = CountRequest::new(Backend::Gpu(opts.clone())).run(&graph);
    println!(
        "whole graph on the small device: {}",
        match &whole {
            Err(e) => format!("fails as expected ({e})"),
            Ok(_) => "unexpectedly fits".into(),
        }
    );
    let split = CountRequest::new(Backend::GpuSplit {
        options: opts,
        parts: 6,
    })
    .run(&graph)
    .expect("split run");
    assert_eq!(split.triangles, exact);
    let report = split.gpu.expect("GPU runs report");
    println!(
        "split into 6 ranges: {} triangles across {} subproblems, peak {} device bytes ✓\n",
        split.triangles, report.profile.devices, report.peak_device_bytes
    );

    // --- §VI direction 2: hybrid high-degree handling ----------------------
    for backend in [
        Backend::CpuHybrid { threshold: None },
        Backend::CpuHybrid {
            threshold: Some(64),
        },
    ] {
        let token = backend.to_string();
        let n = CountRequest::new(backend)
            .run(&graph)
            .expect("hybrid")
            .triangles;
        assert_eq!(n, exact);
        println!("{token:<24}: {n} ✓");
    }

    // --- §V alternative: approximation ------------------------------------
    println!();
    for p in [0.8, 0.5, 0.3] {
        let est = doulion(&graph, p, 1234).expect("doulion");
        println!(
            "doulion(p={p:.1})         : {est:>14.0}  ({:+.2}% vs exact)",
            100.0 * (est - exact as f64) / exact as f64
        );
    }
    for samples in [1_000, 10_000, 100_000] {
        let est = wedge_sampling(&graph, samples, 99).expect("wedges");
        println!(
            "wedge-sampling({samples:>6}) : {est:>14.0}  ({:+.2}% vs exact)",
            100.0 * (est - exact as f64) / exact as f64
        );
    }
    println!("\nApproximations land within a few percent — the trade-off §V describes.");
}
