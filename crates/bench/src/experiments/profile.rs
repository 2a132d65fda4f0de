//! `repro profile` — the nvprof view of the pipeline, reproducing Table
//! II's profiler columns from the simulator's hardware counters.
//!
//! For every suite graph, the counting kernel's span
//! (`count/count-kernel`) supplies the texture-cache hit rate and DRAM
//! throughput nvprof measured (Table II), plus the counters the paper
//! discusses qualitatively: divergence serialization (§III-D7), issue
//! stalls, and achieved occupancy. The per-phase breakdown of one
//! representative graph shows the eight §III-B preprocessing steps
//! individually.

use tc_core::count::Backend;
use tc_gen::suite::full_suite_seeded;
use tc_simt::profiler::ProfileReport;

use crate::report::{pct, Table};

use super::{gpu_run, ExpConfig};

/// One profiled run.
#[derive(Clone, Debug)]
pub struct Row {
    pub name: String,
    pub profile: ProfileReport,
}

/// Path of the counting kernel's span in the pipeline's phase tree.
pub const KERNEL_SPAN: &str = "count/count-kernel";

/// Profile the full pipeline on every suite graph (GTX 980 preset).
pub fn run(cfg: &ExpConfig) -> Vec<Row> {
    let suite = full_suite_seeded(cfg.scale, cfg.seed);
    suite
        .iter()
        .map(|item| {
            let report = gpu_run(&item.graph, Backend::gpu_gtx980()).expect("gtx980 pipeline");
            Row {
                name: item.name.clone(),
                profile: report.profile,
            }
        })
        .collect()
}

/// Per-graph counting-kernel counters (the Table II columns plus the
/// §III-D diagnostics).
pub fn render(rows: &[Row]) -> Table {
    let mut t = Table::new(
        "Profile: counting-kernel counters on GTX 980 (cf. Table II)",
        &[
            "graph",
            "tex hit",
            "L2 hit",
            "BW [GB/s]",
            "DRAM [MB]",
            "serialized",
            "stall [cyc]",
            "occupancy",
            "kernel [ms]",
        ],
    );
    for r in rows {
        let span = r
            .profile
            .span(KERNEL_SPAN)
            .expect("pipeline records the counting-kernel span");
        let c = &span.counters;
        t.push(vec![
            r.name.clone(),
            pct(c.tex.hit_rate()),
            pct(c.l2.hit_rate()),
            format!("{:.2}", span.achieved_bandwidth_gbs()),
            format!("{:.2}", c.dram_bytes() as f64 / 1e6),
            c.serialized_groups.to_string(),
            format!("{:.0}", c.issue_stall_cycles),
            pct(c.occupancy()),
            format!("{:.3}", span.duration_s() * 1e3),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_profile_covers_the_suite_and_kernel_span() {
        let rows = run(&ExpConfig::smoke());
        assert_eq!(rows.len(), 13);
        for r in &rows {
            let span = r.profile.span(KERNEL_SPAN).expect("kernel span");
            assert!(span.duration_s() > 0.0, "{}", r.name);
            assert!((0.0..=1.0).contains(&span.counters.tex.hit_rate()));
            // The pipeline's phase totals must cover the whole run.
            assert!(r.profile.total_s > 0.0);
        }
        let table = render(&rows);
        assert_eq!(table.rows.len(), 13);
    }
}
