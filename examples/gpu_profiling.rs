//! Profile the counting kernel like the paper's Table II session, then
//! toggle each §III-D optimization off to see its cost — all on the
//! simulated GTX 980.
//!
//! ```text
//! cargo run --release --example gpu_profiling
//! ```

use triangles::core::count::{Backend, CountRequest, GpuOptions};
use triangles::core::{EdgeLayout, GpuReport, LoopVariant};
use triangles::gen::barabasi_albert::BarabasiAlbert;
use triangles::gen::Seed;
use triangles::graph::EdgeArray;
use triangles::simt::DeviceConfig;

/// One simulated GTX 980 run of `graph` under `opts`.
fn run(graph: &EdgeArray, opts: &GpuOptions) -> GpuReport {
    let counted = CountRequest::new(Backend::Gpu(opts.clone()))
        .run(graph)
        .expect("pipeline");
    counted.gpu.expect("GPU runs report")
}

fn main() {
    // Barabási–Albert: the workload with the lowest cache hit rate in
    // Table II — preferential attachment produces hub lists too large for
    // the texture cache.
    let graph = BarabasiAlbert::new(4_000, 32).generate(Seed(11));
    println!(
        "graph: barabasi-albert, {} nodes, {} edges\n",
        graph.num_nodes(),
        graph.num_edges()
    );

    let device = DeviceConfig::gtx_980().with_unlimited_memory();
    let published = GpuOptions::new(device);
    let base = run(&graph, &published);
    println!("published configuration (SoA, read-avoiding loop, texture cache):");
    println!(
        "  kernel time          : {:>9.3} ms",
        base.kernel.time_s * 1e3
    );
    println!(
        "  texture cache hit    : {:>8.2} %",
        base.kernel.tex.hit_rate() * 100.0
    );
    println!(
        "  achieved bandwidth   : {:>9.2} GB/s",
        base.kernel.achieved_bandwidth_gbs
    );
    println!(
        "  DRAM traffic         : {:>9.2} MiB",
        base.kernel.dram_bytes as f64 / (1 << 20) as f64
    );
    println!(
        "  warp divergence      : {:>8.2} % of warp steps",
        100.0 * base.kernel.divergent_steps as f64 / base.kernel.warp_steps as f64
    );

    println!("\nswitching each optimization off (paper §III-D):");
    let toggles: Vec<(&str, GpuOptions)> = {
        let mut aos = published.clone();
        aos.layout = EdgeLayout::AoS;
        let mut prelim = published.clone();
        prelim.kernel = LoopVariant::Preliminary;
        let mut nocache = published.clone();
        nocache.use_texture_cache = false;
        let mut split = published;
        split.warp_split = 2;
        vec![
            ("array-of-structures layout (no unzip)", aos),
            ("preliminary merge loop (re-reads both heads)", prelim),
            ("no texture cache (no const __restrict__)", nocache),
            ("half warps (III-D5 experiment)", split),
        ]
    };
    for (label, opts) in toggles {
        let run = run(&graph, &opts);
        assert_eq!(run.triangles, base.triangles);
        let delta = run.kernel.time_s / base.kernel.time_s;
        println!(
            "  {label:<46} kernel {:>8.3} ms  ({:+.1} % vs published)",
            run.kernel.time_s * 1e3,
            (delta - 1.0) * 100.0
        );
    }
    println!("\ntriangles: {}", base.triangles);
}
