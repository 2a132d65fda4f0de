//! Table II: counting-kernel profile on the GTX 980 — texture-cache hit
//! rate and achieved DRAM bandwidth per graph.
//!
//! Shape criteria: hit rates in the paper's 60–85 % band, the regular/low-
//! locality synthetic graphs at the bottom of the range, bandwidth a
//! substantial fraction of the card's 224 GB/s peak but well below it
//! ("about half", §IV).
//!
//! The columns come from the profiler subsystem — the counting kernel's
//! `count/count-kernel` span delta — the same path `tcount --profile` and
//! `repro profile` report, mirroring how the paper's numbers came from
//! nvprof rather than in-kernel instrumentation.

use tc_core::count::Backend;
use tc_gen::suite::full_suite_seeded;

use crate::report::{pct, Table};

use super::{gpu_run, ExpConfig};

/// One row of Table II.
#[derive(Clone, Debug)]
pub struct Row {
    pub name: String,
    pub tex_hit_rate: f64,
    pub bandwidth_gbs: f64,
    pub dram_bytes: u64,
    pub kernel_ms: f64,
}

/// Profile the counting kernel on every suite graph (GTX 980 preset).
pub fn run(cfg: &ExpConfig) -> Vec<Row> {
    let suite = full_suite_seeded(cfg.scale, cfg.seed);
    suite
        .iter()
        .map(|item| {
            let report = gpu_run(&item.graph, Backend::gpu_gtx980()).expect("gtx980 pipeline");
            let span = report
                .profile
                .span(super::profile::KERNEL_SPAN)
                .expect("pipeline records the counting-kernel span");
            Row {
                name: item.name.clone(),
                tex_hit_rate: span.counters.tex.hit_rate(),
                bandwidth_gbs: span.achieved_bandwidth_gbs(),
                dram_bytes: span.counters.dram_bytes(),
                kernel_ms: span.duration_s() * 1e3,
            }
        })
        .collect()
}

pub fn render(rows: &[Row]) -> Table {
    let mut t = Table::new(
        "Table II: profiling results on GTX 980",
        &["graph", "cache hit rate", "bandwidth [GB/s]", "kernel [ms]"],
    );
    for r in rows {
        t.push(vec![
            r.name.clone(),
            pct(r.tex_hit_rate),
            format!("{:.2}", r.bandwidth_gbs),
            format!("{:.3}", r.kernel_ms),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_table2_reports_plausible_rates() {
        let rows = run(&ExpConfig::smoke());
        assert_eq!(rows.len(), 13);
        for r in &rows {
            assert!(
                (0.0..=1.0).contains(&r.tex_hit_rate),
                "{}: {}",
                r.name,
                r.tex_hit_rate
            );
            assert!(r.bandwidth_gbs >= 0.0);
            assert!(r.kernel_ms > 0.0);
        }
    }
}
