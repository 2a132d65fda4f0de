//! Figure 1: log–log running time vs. node count on the Kronecker ladder,
//! four series — CPU, Tesla C2050, 4×C2050, GTX 980.
//!
//! Shape criteria: every series roughly linear on the log–log plot (time
//! grows by a constant factor per scale step), the GPU series below the CPU
//! series by an order of magnitude, the 4-GPU series below the 1-GPU series
//! with the gap widening as the triangle count grows.

use tc_core::count::{Backend, GpuOptions};
use tc_core::cpu::count_forward;
use tc_gen::suite::kronecker_ladder;
use tc_simt::DeviceConfig;

use crate::report::{ms, Table};

use super::{gpu_run, time_host, ExpConfig};

/// One ladder point: times for all four series.
#[derive(Clone, Debug)]
pub struct Point {
    pub name: String,
    pub nodes: usize,
    pub edges: usize,
    pub cpu_s: f64,
    pub c2050_s: f64,
    pub quad_s: f64,
    pub gtx_s: f64,
}

/// Run the ladder.
pub fn run(cfg: &ExpConfig) -> Vec<Point> {
    kronecker_ladder(cfg.scale, cfg.seed)
        .iter()
        .map(|item| {
            let g = &item.graph;
            let mut triangles = 0;
            let cpu_s = time_host(cfg.repeats, || {
                triangles = count_forward(g).expect("valid suite graph");
            });
            let c2050 = gpu_run(
                g,
                Backend::Gpu(GpuOptions::new(DeviceConfig::tesla_c2050())),
            )
            .expect("c2050");
            let quad = gpu_run(g, Backend::multi_gpu_c2050(4)).expect("4x c2050");
            let gtx = gpu_run(g, Backend::gpu_gtx980()).expect("gtx980");
            assert_eq!(c2050.triangles, triangles);
            assert_eq!(quad.triangles, triangles);
            assert_eq!(gtx.triangles, triangles);
            Point {
                name: item.name.clone(),
                nodes: g.num_nodes(),
                edges: g.num_edges(),
                cpu_s,
                c2050_s: c2050.total_s,
                quad_s: quad.total_s,
                gtx_s: gtx.total_s,
            }
        })
        .collect()
}

pub fn render(points: &[Point]) -> Table {
    let mut t = Table::new(
        "Figure 1: Kronecker ladder, time [ms] per series (log-log in the paper)",
        &[
            "graph", "nodes", "edges", "cpu", "c2050", "4xc2050", "gtx980",
        ],
    );
    for p in points {
        t.push(vec![
            p.name.clone(),
            p.nodes.to_string(),
            p.edges.to_string(),
            ms(p.cpu_s),
            ms(p.c2050_s),
            ms(p.quad_s),
            ms(p.gtx_s),
        ]);
    }
    t
}

/// A crude ASCII rendering of the log-log plot, for terminal inspection.
type SeriesAccessor = fn(&Point) -> f64;

pub fn ascii_plot(points: &[Point]) -> String {
    let series: [(char, SeriesAccessor); 4] = [
        ('c', |p| p.cpu_s),
        ('t', |p| p.c2050_s),
        ('4', |p| p.quad_s),
        ('g', |p| p.gtx_s),
    ];
    let all: Vec<f64> = points
        .iter()
        .flat_map(|p| series.iter().map(move |(_, f)| f(p)))
        .collect();
    let (lo, hi) = all
        .iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), &x| (lo.min(x), hi.max(x)));
    let cols = 60usize;
    let mut out = String::new();
    out.push_str("time -> (log scale)\n");
    for p in points {
        out.push_str(&format!("{:>14} |", p.name));
        let mut line = vec![' '; cols + 1];
        for (label, f) in &series {
            let x = f(p);
            let frac = ((x / lo).ln() / (hi / lo).ln()).clamp(0.0, 1.0);
            let pos = (frac * cols as f64) as usize;
            line[pos] = *label;
        }
        out.extend(line);
        out.push('\n');
    }
    out.push_str("legend: c=cpu, t=c2050(tesla), 4=4xc2050, g=gtx980\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_ladder_runs_and_grows() {
        let points = run(&ExpConfig::smoke());
        assert_eq!(points.len(), 6);
        // Node counts double along the ladder.
        for w in points.windows(2) {
            assert!(w[1].nodes > w[0].nodes);
        }
        let table = render(&points);
        assert_eq!(table.rows.len(), 6);
        let plot = ascii_plot(&points);
        assert!(plot.lines().count() >= 7);
    }
}
