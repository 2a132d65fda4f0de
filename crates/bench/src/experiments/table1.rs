//! Table I: per-graph CPU time, Tesla C2050 time/speedup, 4×C2050
//! time/speedup, GTX 980 time/speedup.
//!
//! Shape criteria vs the paper: every GPU speedup ≫ 1; the GTX-980 column
//! roughly doubles the C2050 column; the † capacity-fallback marker appears
//! on the Orkut and top-Kronecker analogs (C2050 only); the 4-GPU column
//! helps most on triangle-dense graphs.

use tc_core::count::{Backend, GpuOptions};
use tc_core::cpu::count_forward;
use tc_gen::suite::full_suite_seeded;
use tc_simt::DeviceConfig;

use crate::report::{ms, ratio, Table};

use super::{gpu_run, time_host, ExpConfig};

/// One row of Table I.
#[derive(Clone, Debug)]
pub struct Row {
    pub name: String,
    pub nodes: usize,
    pub edges: usize,
    pub triangles: u64,
    pub cpu_s: f64,
    pub c2050_s: f64,
    pub c2050_dagger: bool,
    pub quad_s: f64,
    pub quad_dagger: bool,
    pub gtx_s: f64,
}

impl Row {
    pub fn c2050_speedup(&self) -> f64 {
        self.cpu_s / self.c2050_s
    }
    /// The paper's second speedup column: 4 GPUs over 1 GPU.
    pub fn quad_speedup(&self) -> f64 {
        self.c2050_s / self.quad_s
    }
    pub fn gtx_speedup(&self) -> f64 {
        self.cpu_s / self.gtx_s
    }
}

/// Run the full Table I experiment.
pub fn run(cfg: &ExpConfig) -> Vec<Row> {
    let suite = full_suite_seeded(cfg.scale, cfg.seed);
    let mut rows = Vec::with_capacity(suite.len());
    for item in &suite {
        let g = &item.graph;
        let mut triangles = 0u64;
        let cpu_s = time_host(cfg.repeats, || {
            triangles = count_forward(g).expect("suite graphs are valid");
        });

        let c2050 = gpu_run(
            g,
            Backend::Gpu(GpuOptions::new(DeviceConfig::tesla_c2050())),
        )
        .expect("c2050 pipeline");
        assert_eq!(c2050.triangles, triangles, "{}: c2050 disagrees", item.name);

        let quad = gpu_run(g, Backend::multi_gpu_c2050(4)).expect("4x c2050");
        assert_eq!(
            quad.triangles, triangles,
            "{}: 4xc2050 disagrees",
            item.name
        );

        let gtx = gpu_run(g, Backend::gpu_gtx980()).expect("gtx980 pipeline");
        assert_eq!(gtx.triangles, triangles, "{}: gtx980 disagrees", item.name);

        rows.push(Row {
            name: item.name.clone(),
            nodes: g.num_nodes(),
            edges: g.num_edges(),
            triangles,
            cpu_s,
            c2050_s: c2050.total_s,
            c2050_dagger: c2050.used_cpu_fallback,
            quad_s: quad.total_s,
            quad_dagger: quad.used_cpu_fallback,
            gtx_s: gtx.total_s,
        });
    }
    rows
}

/// Paper-style rendering.
pub fn render(rows: &[Row]) -> Table {
    let mut t = Table::new(
        "Table I: experimental results (times in ms; dagger = CPU-preprocessing fallback)",
        &[
            "graph",
            "nodes",
            "edges",
            "triangles",
            "cpu",
            "c2050",
            "speedup",
            "4xc2050",
            "speedup4",
            "gtx980",
            "speedupG",
        ],
    );
    for r in rows {
        t.push(vec![
            r.name.clone(),
            r.nodes.to_string(),
            r.edges.to_string(),
            r.triangles.to_string(),
            ms(r.cpu_s),
            format!("{}{}", if r.c2050_dagger { "+" } else { "" }, ms(r.c2050_s)),
            ratio(r.c2050_speedup()),
            format!("{}{}", if r.quad_dagger { "+" } else { "" }, ms(r.quad_s)),
            ratio(r.quad_speedup()),
            ms(r.gtx_s),
            ratio(r.gtx_speedup()),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_table1_has_thirteen_consistent_rows() {
        let rows = run(&ExpConfig::smoke());
        assert_eq!(rows.len(), 13);
        for r in &rows {
            assert!(r.cpu_s > 0.0, "{}", r.name);
            assert!(r.c2050_s > 0.0);
            assert!(r.quad_s > 0.0);
            assert!(r.gtx_s > 0.0);
        }
        let table = render(&rows);
        assert_eq!(table.rows.len(), 13);
    }
}
