//! The multi-GPU setup of paper §III-E: preprocess once, broadcast, count
//! stripes on 1, 2, and 4 simulated Tesla C2050s, and compare the observed
//! speedup with the Amdahl ceiling implied by the preprocessing fraction.
//!
//! ```text
//! cargo run --release --example multi_gpu
//! ```

use triangles::core::count::{Backend, CountRequest, GpuOptions};
use triangles::core::GpuReport;
use triangles::gen::kronecker::Rmat;
use triangles::gen::Seed;
use triangles::graph::EdgeArray;
use triangles::simt::DeviceConfig;

/// One run of `graph` striped over `devices` simulated Tesla C2050s.
fn striped(graph: &EdgeArray, devices: usize) -> GpuReport {
    let options = GpuOptions::new(DeviceConfig::tesla_c2050().with_unlimited_memory());
    let counted = CountRequest::new(Backend::MultiGpu { options, devices })
        .run(graph)
        .expect("multi gpu");
    counted.gpu.expect("GPU runs report")
}

fn main() {
    // Kronecker graphs have the largest triangles-to-edges ratio of the
    // suite, which is why they profit most from extra devices (§III-E).
    let graph = Rmat::scale(12).edge_factor(38).generate(Seed(3));
    println!(
        "graph: {} nodes, {} edges",
        graph.num_nodes(),
        graph.num_edges()
    );

    let single = striped(&graph, 1);
    let f = single.preprocess_fraction();
    println!(
        "single C2050: {:.3} ms total ({:.3} ms preprocessing, fraction {:.2})",
        single.total_s * 1e3,
        single.preprocess_s * 1e3,
        f
    );

    println!(
        "\n{:>8} {:>12} {:>14} {:>16}",
        "devices", "total [ms]", "speedup", "amdahl ceiling"
    );
    for devices in [1usize, 2, 4] {
        let run = striped(&graph, devices);
        assert_eq!(run.triangles, single.triangles);
        let ceiling = 1.0 / (f + (1.0 - f) / devices as f64);
        println!(
            "{:>8} {:>12.3} {:>13.2}x {:>15.2}x",
            devices,
            run.total_s * 1e3,
            single.total_s / run.total_s,
            ceiling
        );
    }
    println!("\ntriangles: {}", single.triangles);
    println!("The observed speedup tracks (and stays below) the Amdahl ceiling");
    println!("set by the single-device preprocessing phase — §III-E's argument.");
}
