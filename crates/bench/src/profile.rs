//! Rendering of profiled device runs: the nvprof-style per-phase hardware
//! counter table behind `tcount --profile` and `repro profile`, and the
//! conversion of each device's [`RunTrace`] into the [`RequestTrace`] that
//! `tcount --trace` serializes with [`tc_telemetry::chrome_trace_json`].
//!
//! Columns mirror the nvprof metrics the paper quotes: time, DRAM traffic
//! and achieved bandwidth (Table II's throughput column), texture and L2
//! hit rates (Table II's hit-rate column), divergence serialization and
//! issue stalls (§III-D7), and achieved occupancy.

use tc_core::gpu::pipeline::RunTrace;
use tc_simt::profiler::{op_bounds_ns, ProfileReport};
use tc_telemetry::{RequestTrace, TraceSpan};

use crate::report::{pct, Table};

/// One [`RequestTrace`] per device run of `backend` (a canonical token):
/// trace thread `i` is device `i`, named after it. Its spans are the
/// profiler spans, named by their last path component, and one level
/// below the deepest of them every leaf op of the device log. Endpoints
/// are the log's [`op_bounds_ns`], so every child lies inside its parent.
pub fn request_traces(backend: &str, runs: &[RunTrace]) -> Vec<RequestTrace> {
    runs.iter()
        .enumerate()
        .map(|(id, run)| {
            let at = op_bounds_ns(&run.log);
            let span = |name: &str, first: usize, end: usize, depth: usize| {
                TraceSpan::new(name, at[first], at[end] - at[first], depth)
            };
            let leaf_depth = run.spans.iter().map(|s| s.depth + 1).max().unwrap_or(0);
            let phases = run.spans.iter().map(|s| {
                let label = s.path.rsplit('/').next().unwrap_or(&s.path);
                span(label, s.first_op, s.end_op, s.depth)
            });
            let ops = run
                .log
                .iter()
                .enumerate()
                .map(|(i, op)| span(&op.label, i, i + 1, leaf_depth));
            RequestTrace {
                id: id as u64,
                name: run.device_name.clone(),
                backend: backend.to_string(),
                spans: phases.chain(ops).collect(),
            }
        })
        .collect()
}

/// Milliseconds with three significant fractional digits.
fn ms(seconds: f64) -> String {
    format!("{:.3}", seconds * 1e3)
}

/// Megabytes (decimal) with two digits.
fn mb(bytes: u64) -> String {
    format!("{:.2}", bytes as f64 / 1e6)
}

/// Render every recorded phase of a profile as one table row, nested
/// phases indented under their parents, with a whole-run totals row last.
pub fn phase_table(profile: &ProfileReport) -> Table {
    let mut t = Table::new(
        format!(
            "Profile: {} ({} device{}, peak {:.0} GB/s)",
            profile.device,
            profile.devices,
            if profile.devices == 1 { "" } else { "s" },
            profile.peak_bandwidth_gbs
        ),
        &[
            "phase",
            "time [ms]",
            "launches",
            "DRAM [MB]",
            "BW [GB/s]",
            "tex hit",
            "L2 hit",
            "serialized",
            "stall [cyc]",
            "occupancy",
        ],
    );
    // Spans are recorded in completion order; present them as a tree —
    // depth-first, siblings by start time. Sorting the whole list by raw
    // start time would interleave unrelated phases in merged multi-device
    // reports, where each device's clock starts at zero.
    let spans = &profile.spans;
    let mut order: Vec<usize> = Vec::with_capacity(spans.len());
    let mut stack: Vec<usize> = {
        let mut tops: Vec<usize> = (0..spans.len()).filter(|&i| spans[i].depth == 0).collect();
        tops.sort_by(|&a, &b| {
            spans[b]
                .start_s
                .total_cmp(&spans[a].start_s)
                .then(spans[b].path.cmp(&spans[a].path))
        });
        tops
    };
    while let Some(i) = stack.pop() {
        order.push(i);
        let prefix = format!("{}/", spans[i].path);
        let mut children: Vec<usize> = (0..spans.len())
            .filter(|&c| spans[c].depth == spans[i].depth + 1 && spans[c].path.starts_with(&prefix))
            .collect();
        children.sort_by(|&a, &b| {
            spans[b]
                .start_s
                .total_cmp(&spans[a].start_s)
                .then(spans[b].path.cmp(&spans[a].path))
        });
        stack.extend(children);
    }
    for i in order {
        let s = &profile.spans[i];
        let label = s.path.rsplit('/').next().unwrap_or(&s.path);
        let c = &s.counters;
        t.push(vec![
            format!("{}{}", "  ".repeat(s.depth), label),
            ms(s.duration_s()),
            c.kernel_launches.to_string(),
            mb(c.dram_bytes()),
            format!("{:.2}", s.achieved_bandwidth_gbs()),
            pct(c.tex.hit_rate()),
            pct(c.l2.hit_rate()),
            c.serialized_groups.to_string(),
            format!("{:.0}", c.issue_stall_cycles),
            pct(c.occupancy()),
        ]);
    }
    let c = &profile.totals;
    let total_bw = if profile.total_s > 0.0 {
        c.dram_bytes() as f64 / profile.total_s / 1e9
    } else {
        0.0
    };
    t.push(vec![
        "total".into(),
        ms(profile.total_s),
        c.kernel_launches.to_string(),
        mb(c.dram_bytes()),
        format!("{total_bw:.2}"),
        pct(c.tex.hit_rate()),
        pct(c.l2.hit_rate()),
        c.serialized_groups.to_string(),
        format!("{:.0}", c.issue_stall_cycles),
        pct(c.occupancy()),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_core::count::{Backend, CountRequest, GpuOptions};
    use tc_graph::EdgeArray;
    use tc_simt::DeviceConfig;

    fn profiled_diamond() -> ProfileReport {
        let g = EdgeArray::from_undirected_pairs([(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]);
        let opts = GpuOptions::new(DeviceConfig::gtx_980().with_unlimited_memory());
        let counted = CountRequest::new(Backend::Gpu(opts)).run(&g).unwrap();
        counted.gpu.unwrap().profile
    }

    #[test]
    fn phase_table_covers_the_paper_pipeline() {
        let table = phase_table(&profiled_diamond());
        let rendered = table.render();
        // The eight §III-B steps, each its own row.
        for step in [
            "1-copy-edges",
            "2-count-vertices",
            "3-sort-edges",
            "4-node-array",
            "5-mark-backward",
            "6-remove-backward",
            "7-unzip",
            "8-node-array",
        ] {
            assert!(rendered.contains(step), "missing phase {step}:\n{rendered}");
        }
        assert!(rendered.contains("count-kernel"));
        assert!(rendered.contains("total"));
    }

    #[test]
    fn nested_phases_are_indented_under_parents() {
        let table = phase_table(&profiled_diamond());
        let preprocess_row = table
            .rows
            .iter()
            .position(|r| r[0] == "preprocess")
            .unwrap();
        let step1_row = table
            .rows
            .iter()
            .position(|r| r[0].trim_start() == "1-copy-edges")
            .unwrap();
        assert!(step1_row > preprocess_row);
        assert!(table.rows[step1_row][0].starts_with("  "));
    }

    #[test]
    fn totals_row_is_last_and_nonzero() {
        let table = phase_table(&profiled_diamond());
        let last = table.rows.last().unwrap();
        assert_eq!(last[0], "total");
        assert!(last[1].parse::<f64>().unwrap() > 0.0);
        assert!(last[3].parse::<f64>().unwrap() > 0.0);
    }
}
