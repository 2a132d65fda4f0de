//! §III-E: the Amdahl analysis of the multi-GPU setup.
//!
//! For every suite graph: preprocessing fraction `f` of the single-GPU run,
//! the predicted 4-GPU ceiling `1 / (f + (1−f)/4)`, and the observed 4-GPU
//! speedup. Shape criteria: fractions spread over a wide band (paper:
//! 0.08–0.76), observed speedups below but tracking the ceiling, largest on
//! the triangle-dense Kronecker graphs.

use tc_core::count::{Backend, GpuOptions};
use tc_gen::suite::full_suite_seeded;
use tc_simt::DeviceConfig;

use crate::report::{ratio, Table};

use super::{gpu_run, ExpConfig};

/// One graph's Amdahl row.
#[derive(Clone, Debug)]
pub struct Row {
    pub name: String,
    pub preprocess_fraction: f64,
    pub predicted_max_speedup: f64,
    pub observed_speedup: f64,
    pub single_s: f64,
    pub quad_s: f64,
}

/// Run 1-GPU and 4-GPU on every graph.
pub fn run(cfg: &ExpConfig) -> Vec<Row> {
    let opts = GpuOptions::new(DeviceConfig::tesla_c2050().with_unlimited_memory());
    full_suite_seeded(cfg.scale, cfg.seed)
        .iter()
        .map(|item| {
            let multi = |devices| Backend::MultiGpu {
                options: opts.clone(),
                devices,
            };
            let one = gpu_run(&item.graph, multi(1)).expect("1 gpu");
            let four = gpu_run(&item.graph, multi(4)).expect("4 gpus");
            assert_eq!(one.triangles, four.triangles, "{}", item.name);
            let f = one.preprocess_fraction();
            Row {
                name: item.name.clone(),
                preprocess_fraction: f,
                predicted_max_speedup: 1.0 / (f + (1.0 - f) / 4.0),
                observed_speedup: one.total_s / four.total_s,
                single_s: one.total_s,
                quad_s: four.total_s,
            }
        })
        .collect()
}

pub fn render(rows: &[Row]) -> Table {
    let mut t = Table::new(
        "Section III-E: Amdahl analysis of the 4-GPU setup (Tesla C2050)",
        &[
            "graph",
            "preproc fraction",
            "amdahl ceiling",
            "observed speedup",
            "1gpu [ms]",
            "4gpu [ms]",
        ],
    );
    for r in rows {
        t.push(vec![
            r.name.clone(),
            format!("{:.2}", r.preprocess_fraction),
            ratio(r.predicted_max_speedup),
            ratio(r.observed_speedup),
            format!("{:.3}", r.single_s * 1e3),
            format!("{:.3}", r.quad_s * 1e3),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_amdahl_is_consistent() {
        let rows = run(&ExpConfig::smoke());
        assert_eq!(rows.len(), 13);
        for r in &rows {
            assert!((0.0..=1.0).contains(&r.preprocess_fraction), "{}", r.name);
            assert!((1.0..=4.0).contains(&r.predicted_max_speedup));
            // Observed speedup cannot exceed 4 devices' worth by much; it can
            // be < 1 when broadcast overhead dominates tiny graphs.
            assert!(
                r.observed_speedup <= 4.2,
                "{}: {}",
                r.name,
                r.observed_speedup
            );
        }
    }
}
