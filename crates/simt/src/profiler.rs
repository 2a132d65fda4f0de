//! nvprof-style profiling: hardware counters, hierarchical phase spans,
//! and machine-readable profile reports.
//!
//! The paper's evidence is profiler output — Table II explains the GTX 980
//! speedups via texture-cache hit rate and DRAM throughput measured with
//! nvprof, and each §III-D ablation is justified by a counter delta. This
//! module gives the simulated [`crate::Device`] the same vocabulary:
//!
//! * [`Counters`] — monotone running totals of every modeled hardware
//!   event (DRAM bytes read/written, 32 B transactions, cache hits,
//!   divergence serialization, issue stalls, occupancy, PCIe traffic);
//! * [`Span`] — one named phase (`"preprocess/3-sort-edges"`) with a real
//!   start timestamp and the **counter delta** captured between its
//!   `push_phase`/`pop_phase` boundaries;
//! * [`ProfileReport`] — the per-run aggregate: totals plus every span,
//!   with derived metrics (achieved-vs-peak bandwidth, hit rates) and a
//!   hand-rolled JSON serialization (no external dependencies) through
//!   the crate's one JSON string escaper and number formatter, which the
//!   sanitizer and verifier reports share;
//! * [`op_bounds_ns`] / [`relative_spans`] — the op log and spans on an
//!   integer-nanosecond timeline, the input of every Chrome trace.
//!
//! Everything here is deterministic: two identical runs produce
//! byte-identical reports.

use crate::cache::CacheStats;
use crate::device::TimedOp;
use crate::executor::KernelStats;

/// Monotone hardware-counter totals. The device keeps one running
/// instance; spans capture snapshot deltas of it.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Counters {
    /// Device-side launches: cycle-simulated kernels *and* analytic
    /// primitive passes (each Thrust-style pass is one launch).
    pub kernel_launches: u64,
    /// Seconds the device spent in launches (kernels + primitive passes),
    /// excluding PCIe transfers and context creation.
    pub kernel_time_s: f64,
    /// Slowest-SM cycle counts, summed over launches.
    pub sm_cycles: f64,
    /// Lane steps (≈ dynamic instructions) across simulated kernels.
    pub lane_steps: u64,
    /// Warp scheduling events across simulated kernels.
    pub warp_steps: u64,
    /// Warp steps whose lanes diverged into >1 effect group.
    pub divergent_steps: u64,
    /// Extra issue slots forced by divergence (Σ groups−1 over divergent
    /// steps) — the "divergence-serialized lanes" counter.
    pub serialized_groups: u64,
    /// Cycles the issue pipelines sat idle waiting on latency.
    pub issue_stall_cycles: f64,
    /// 32 B line transactions (simulated kernels count coalesced lines;
    /// analytic passes count `bytes / line_bytes` per direction).
    pub transactions: u64,
    /// Bytes fetched from DRAM (cache misses + streaming reads).
    pub dram_read_bytes: u64,
    /// Bytes stored to DRAM (write-through stores + streaming writes).
    pub dram_write_bytes: u64,
    /// Texture (read-only) cache probes/hits — Table II's hit-rate column.
    pub tex: CacheStats,
    /// L2 slice probes/hits.
    pub l2: CacheStats,
    /// Host-to-device PCIe bytes.
    pub htod_bytes: u64,
    /// Device-to-host PCIe bytes.
    pub dtoh_bytes: u64,
    /// Kernel-time-weighted occupancy accumulator; divide by
    /// `kernel_time_s` (see [`Counters::occupancy`]).
    pub occupancy_weight: f64,
}

impl Counters {
    /// Total DRAM traffic.
    #[inline]
    pub fn dram_bytes(&self) -> u64 {
        self.dram_read_bytes + self.dram_write_bytes
    }

    /// Kernel-time-weighted achieved occupancy (0 if no kernel ran).
    pub fn occupancy(&self) -> f64 {
        if self.kernel_time_s > 0.0 {
            self.occupancy_weight / self.kernel_time_s
        } else {
            0.0
        }
    }

    /// Fold a simulated kernel launch into the totals.
    pub(crate) fn absorb_kernel(&mut self, stats: &KernelStats) {
        self.kernel_launches += 1;
        self.kernel_time_s += stats.time_s;
        self.sm_cycles += stats.sm_cycles;
        self.lane_steps += stats.lane_steps;
        self.warp_steps += stats.warp_steps;
        self.divergent_steps += stats.divergent_steps;
        self.serialized_groups += stats.serialized_groups;
        self.issue_stall_cycles += stats.issue_stall_cycles;
        self.transactions += stats.transactions;
        self.dram_read_bytes += stats.dram_read_bytes;
        self.dram_write_bytes += stats.dram_write_bytes;
        self.tex.merge(stats.tex);
        self.l2.merge(stats.l2);
        self.occupancy_weight += stats.occupancy * stats.time_s;
    }

    /// Fold an analytic streaming pass (Thrust-style primitive) into the
    /// totals: the pass reads `read_bytes` and writes `write_bytes`
    /// straight through DRAM in `line_bytes` transactions, with no cache
    /// reuse.
    pub(crate) fn absorb_stream_pass(
        &mut self,
        seconds: f64,
        read_bytes: u64,
        write_bytes: u64,
        line_bytes: u32,
    ) {
        self.kernel_launches += 1;
        self.kernel_time_s += seconds;
        self.transactions +=
            read_bytes.div_ceil(line_bytes as u64) + write_bytes.div_ceil(line_bytes as u64);
        self.dram_read_bytes += read_bytes;
        self.dram_write_bytes += write_bytes;
    }

    /// Component-wise sum (for multi-device and phase merging).
    pub fn add(&mut self, other: &Counters) {
        self.kernel_launches += other.kernel_launches;
        self.kernel_time_s += other.kernel_time_s;
        self.sm_cycles += other.sm_cycles;
        self.lane_steps += other.lane_steps;
        self.warp_steps += other.warp_steps;
        self.divergent_steps += other.divergent_steps;
        self.serialized_groups += other.serialized_groups;
        self.issue_stall_cycles += other.issue_stall_cycles;
        self.transactions += other.transactions;
        self.dram_read_bytes += other.dram_read_bytes;
        self.dram_write_bytes += other.dram_write_bytes;
        self.tex.merge(other.tex);
        self.l2.merge(other.l2);
        self.htod_bytes += other.htod_bytes;
        self.dtoh_bytes += other.dtoh_bytes;
        self.occupancy_weight += other.occupancy_weight;
    }

    /// Counter delta `self − earlier` (both must come from the same
    /// monotone sequence, `earlier` first).
    pub fn delta(&self, earlier: &Counters) -> Counters {
        Counters {
            kernel_launches: self.kernel_launches - earlier.kernel_launches,
            kernel_time_s: self.kernel_time_s - earlier.kernel_time_s,
            sm_cycles: self.sm_cycles - earlier.sm_cycles,
            lane_steps: self.lane_steps - earlier.lane_steps,
            warp_steps: self.warp_steps - earlier.warp_steps,
            divergent_steps: self.divergent_steps - earlier.divergent_steps,
            serialized_groups: self.serialized_groups - earlier.serialized_groups,
            issue_stall_cycles: self.issue_stall_cycles - earlier.issue_stall_cycles,
            transactions: self.transactions - earlier.transactions,
            dram_read_bytes: self.dram_read_bytes - earlier.dram_read_bytes,
            dram_write_bytes: self.dram_write_bytes - earlier.dram_write_bytes,
            tex: CacheStats {
                accesses: self.tex.accesses - earlier.tex.accesses,
                hits: self.tex.hits - earlier.tex.hits,
            },
            l2: CacheStats {
                accesses: self.l2.accesses - earlier.l2.accesses,
                hits: self.l2.hits - earlier.l2.hits,
            },
            htod_bytes: self.htod_bytes - earlier.htod_bytes,
            dtoh_bytes: self.dtoh_bytes - earlier.dtoh_bytes,
            occupancy_weight: self.occupancy_weight - earlier.occupancy_weight,
        }
    }
}

/// One closed profiling phase: a named span of device time with the
/// counter activity that happened inside it.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Full phase path, `'/'`-separated (`"preprocess/3-sort-edges"`).
    pub path: String,
    /// Nesting depth (0 = top-level span).
    pub depth: usize,
    /// Device-clock start of the span, seconds.
    pub start_s: f64,
    /// Device-clock end of the span, seconds.
    pub end_s: f64,
    /// Index into the device time log of the first charged op inside the
    /// span (with [`Span::end_op`], the span's op range).
    pub first_op: usize,
    /// One past the last charged op inside the span.
    pub end_op: usize,
    /// Counter delta captured between the span's boundaries.
    pub counters: Counters,
}

impl Span {
    #[inline]
    pub fn duration_s(&self) -> f64 {
        self.end_s - self.start_s
    }

    /// Achieved DRAM bandwidth over the span, GB/s.
    pub fn achieved_bandwidth_gbs(&self) -> f64 {
        let d = self.duration_s();
        if d > 0.0 {
            self.counters.dram_bytes() as f64 / d / 1e9
        } else {
            0.0
        }
    }
}

/// An open span on the device's phase stack.
#[derive(Clone, Debug)]
pub(crate) struct OpenSpan {
    pub(crate) path: String,
    pub(crate) depth: usize,
    pub(crate) start_s: f64,
    pub(crate) first_op: usize,
    pub(crate) snapshot: Counters,
}

/// A profiler span re-expressed on a clock-base-free timeline: integer
/// nanoseconds relative to a caller-chosen origin, computed purely from
/// the per-op modeled durations (each schedule-independent) summed in log
/// order. Two sessions that run the same ops produce identical `RelSpan`s
/// even when their device clocks started from different bases — the
/// property the serving layer's byte-identical request traces rely on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RelSpan {
    /// Full phase path (`"count/count-kernel"`).
    pub path: String,
    /// Nesting depth relative to the exported window (0 = outermost).
    pub depth: usize,
    /// Modeled start, nanoseconds from the window origin.
    pub start_ns: u64,
    /// Modeled duration, nanoseconds.
    pub dur_ns: u64,
}

/// The op boundaries of a time log in integer nanoseconds: entry `i` is
/// the modeled seconds of `log[..i]`, summed in log order and rounded
/// once. Rounding the prefix sums (rather than each duration) keeps
/// nesting containment exact after quantization: a span over ops
/// `a..b` is `[bounds[a], bounds[b]]`, inside any span over an enclosing
/// range.
pub fn op_bounds_ns(log: &[TimedOp]) -> Vec<u64> {
    let mut bounds = Vec::with_capacity(log.len() + 1);
    let mut acc = 0.0f64;
    bounds.push(0);
    for op in log {
        acc += op.seconds;
        bounds.push((acc * 1e9).round() as u64);
    }
    bounds
}

/// Re-express the spans closed at or after `span_mark` relative to the op
/// at `log_mark`: span boundaries become the [`op_bounds_ns`] of the log
/// from `log_mark`. Spans whose op range starts before `log_mark` are
/// skipped — they belong to an earlier window.
pub fn relative_spans(
    spans: &[Span],
    log: &[TimedOp],
    span_mark: usize,
    log_mark: usize,
) -> Vec<RelSpan> {
    let bounds = op_bounds_ns(&log[log_mark.min(log.len())..]);
    let base_depth = spans[span_mark.min(spans.len())..]
        .iter()
        .map(|s| s.depth)
        .min()
        .unwrap_or(0);
    spans[span_mark.min(spans.len())..]
        .iter()
        .filter(|s| s.first_op >= log_mark && s.end_op <= log.len())
        .map(|s| {
            let start_ns = bounds[s.first_op - log_mark];
            let end_ns = bounds[s.end_op - log_mark];
            RelSpan {
                path: s.path.clone(),
                depth: s.depth - base_depth.min(s.depth),
                start_ns,
                dur_ns: end_ns - start_ns,
            }
        })
        .collect()
}

/// Aggregated profile of one device run: totals plus every closed span,
/// in completion order, with the device identity needed to derive
/// achieved-vs-peak figures.
#[derive(Clone, Debug, PartialEq)]
pub struct ProfileReport {
    /// Device preset name (e.g. `"GTX 980"`).
    pub device: String,
    /// Peak DRAM bandwidth of the preset, GB/s.
    pub peak_bandwidth_gbs: f64,
    /// Devices merged into this report (1 for a single-device run).
    pub devices: usize,
    /// Total device-clock seconds covered.
    pub total_s: f64,
    /// Whole-run counter totals.
    pub totals: Counters,
    /// Closed spans, in completion order (children before parents).
    pub spans: Vec<Span>,
}

impl ProfileReport {
    /// Find a span by exact path (first match in completion order).
    pub fn span(&self, path: &str) -> Option<&Span> {
        self.spans.iter().find(|s| s.path == path)
    }

    /// Merge per-device reports of the same pipeline into one: counters
    /// sum, durations take the max (devices run concurrently), spans are
    /// grouped by path.
    pub fn merged(reports: &[ProfileReport]) -> ProfileReport {
        let mut out = ProfileReport {
            device: reports
                .first()
                .map(|r| r.device.clone())
                .unwrap_or_default(),
            peak_bandwidth_gbs: reports.iter().map(|r| r.peak_bandwidth_gbs).sum(),
            devices: reports.iter().map(|r| r.devices).sum(),
            total_s: reports.iter().map(|r| r.total_s).fold(0.0, f64::max),
            totals: Counters::default(),
            spans: Vec::new(),
        };
        for r in reports {
            out.totals.add(&r.totals);
            for s in &r.spans {
                if let Some(existing) = out.spans.iter_mut().find(|e| e.path == s.path) {
                    existing.counters.add(&s.counters);
                    existing.start_s = existing.start_s.min(s.start_s);
                    existing.end_s = existing.end_s.max(s.end_s);
                } else {
                    out.spans.push(s.clone());
                }
            }
        }
        out
    }

    /// Serialize to JSON (hand-rolled, no serde; deterministic key order
    /// and number formatting).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024 + 512 * self.spans.len());
        out.push_str("{\n");
        out.push_str(&format!("  \"device\": {},\n", json_string(&self.device)));
        out.push_str(&format!(
            "  \"peak_bandwidth_gbs\": {},\n",
            json_f64(self.peak_bandwidth_gbs)
        ));
        out.push_str(&format!("  \"devices\": {},\n", self.devices));
        out.push_str(&format!("  \"total_s\": {},\n", json_f64(self.total_s)));
        out.push_str("  \"totals\": ");
        push_counters_json(&mut out, &self.totals, "  ");
        out.push_str(",\n  \"phases\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            out.push_str("    {\n");
            out.push_str(&format!("      \"path\": {},\n", json_string(&s.path)));
            out.push_str(&format!("      \"depth\": {},\n", s.depth));
            out.push_str(&format!("      \"start_s\": {},\n", json_f64(s.start_s)));
            out.push_str(&format!(
                "      \"duration_s\": {},\n",
                json_f64(s.duration_s())
            ));
            out.push_str(&format!(
                "      \"achieved_bandwidth_gbs\": {},\n",
                json_f64(s.achieved_bandwidth_gbs())
            ));
            out.push_str("      \"counters\": ");
            push_counters_json(&mut out, &s.counters, "      ");
            out.push_str("\n    }");
            if i + 1 != self.spans.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  ]\n}\n");
        out
    }
}

fn push_counters_json(out: &mut String, c: &Counters, indent: &str) {
    let fields: Vec<(&str, String)> = vec![
        ("kernel_launches", c.kernel_launches.to_string()),
        ("kernel_time_s", json_f64(c.kernel_time_s)),
        ("sm_cycles", json_f64(c.sm_cycles)),
        ("lane_steps", c.lane_steps.to_string()),
        ("warp_steps", c.warp_steps.to_string()),
        ("divergent_steps", c.divergent_steps.to_string()),
        ("serialized_groups", c.serialized_groups.to_string()),
        ("issue_stall_cycles", json_f64(c.issue_stall_cycles)),
        ("transactions", c.transactions.to_string()),
        ("dram_read_bytes", c.dram_read_bytes.to_string()),
        ("dram_write_bytes", c.dram_write_bytes.to_string()),
        ("dram_bytes", c.dram_bytes().to_string()),
        ("tex_accesses", c.tex.accesses.to_string()),
        ("tex_hits", c.tex.hits.to_string()),
        ("tex_hit_rate", json_f64(c.tex.hit_rate())),
        ("l2_accesses", c.l2.accesses.to_string()),
        ("l2_hits", c.l2.hits.to_string()),
        ("l2_hit_rate", json_f64(c.l2.hit_rate())),
        ("htod_bytes", c.htod_bytes.to_string()),
        ("dtoh_bytes", c.dtoh_bytes.to_string()),
        ("occupancy", json_f64(c.occupancy())),
    ];
    out.push_str("{\n");
    for (i, (k, v)) in fields.iter().enumerate() {
        out.push_str(indent);
        out.push_str(&format!("  \"{k}\": {v}"));
        if i + 1 != fields.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str(indent);
    out.push('}');
}

/// A JSON number: the shortest string that round-trips `x`. JSON has no
/// NaN or infinity, so non-finite values render as `0`. Shared by every
/// report serializer in this crate.
pub(crate) fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

/// A JSON string literal: `"`, `\\`, `\n`, `\r` and `\t` escape by name,
/// every other control character as `\u00XX`, and everything else —
/// non-ASCII included — passes through. Shared by every report serializer
/// in this crate.
pub(crate) fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_strings_escape_every_control_character() {
        assert_eq!(json_string(r#"say "hi""#), r#""say \"hi\"""#);
        assert_eq!(json_string(r"a\b"), r#""a\\b""#);
        assert_eq!(json_string("a\nb\rc\td"), r#""a\nb\rc\td""#);
        assert_eq!(json_string("\u{0}\u{1}\u{1f}"), r#""\u0000\u0001\u001f""#);
        assert_eq!(json_string("GTX 980 — ü ✓"), "\"GTX 980 — ü ✓\"");
    }

    #[test]
    fn json_numbers_round_trip_and_clamp_non_finite() {
        assert_eq!(json_f64(0.1), "0.1");
        assert_eq!(json_f64(1e-9), "0.000000001");
        assert_eq!(json_f64(3.0), "3");
        assert_eq!(json_f64(-2.5), "-2.5");
        let third = 1.0 / 3.0;
        assert_eq!(json_f64(third).parse::<f64>().unwrap(), third);
        assert_eq!(json_f64(f64::NAN), "0");
        assert_eq!(json_f64(f64::INFINITY), "0");
        assert_eq!(json_f64(f64::NEG_INFINITY), "0");
    }

    fn sample_counters(scale: u64) -> Counters {
        Counters {
            kernel_launches: scale,
            kernel_time_s: scale as f64 * 0.5,
            sm_cycles: scale as f64 * 100.0,
            lane_steps: scale * 10,
            warp_steps: scale * 3,
            divergent_steps: scale,
            serialized_groups: scale,
            issue_stall_cycles: scale as f64,
            transactions: scale * 4,
            dram_read_bytes: scale * 128,
            dram_write_bytes: scale * 64,
            tex: CacheStats {
                accesses: scale * 8,
                hits: scale * 6,
            },
            l2: CacheStats {
                accesses: scale * 2,
                hits: scale,
            },
            htod_bytes: scale * 1000,
            dtoh_bytes: scale * 10,
            occupancy_weight: scale as f64 * 0.25,
        }
    }

    #[test]
    fn delta_inverts_add() {
        let a = sample_counters(3);
        let mut b = a;
        b.add(&sample_counters(2));
        assert_eq!(b.delta(&a), sample_counters(2));
    }

    #[test]
    fn occupancy_is_time_weighted() {
        let c = sample_counters(4);
        assert!((c.occupancy() - 0.5).abs() < 1e-12);
        assert_eq!(Counters::default().occupancy(), 0.0);
    }

    #[test]
    fn stream_pass_attribution_counts_lines() {
        let mut c = Counters::default();
        c.absorb_stream_pass(0.001, 100, 64, 32);
        assert_eq!(c.kernel_launches, 1);
        assert_eq!(c.transactions, 4 + 2);
        assert_eq!(c.dram_read_bytes, 100);
        assert_eq!(c.dram_write_bytes, 64);
        assert_eq!(c.dram_bytes(), 164);
    }

    #[test]
    fn report_json_is_balanced_and_escaped() {
        let report = ProfileReport {
            device: "Test \"G\"PU".into(),
            peak_bandwidth_gbs: 224.0,
            devices: 1,
            total_s: 0.5,
            totals: sample_counters(5),
            spans: vec![Span {
                path: "phase/with\nnewline".into(),
                depth: 1,
                start_s: 0.0,
                end_s: 0.25,
                first_op: 0,
                end_op: 0,
                counters: sample_counters(2),
            }],
        };
        let json = report.to_json();
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(json.contains("\\\"G\\\"PU"));
        assert!(json.contains("\\n"));
        assert!(json.contains("\"tex_hit_rate\": 0.75"));
    }

    #[test]
    fn relative_spans_are_clock_base_free() {
        use crate::config::DeviceConfig;
        use crate::device::Device;

        // Two devices run the same phased ops, but the second has already
        // charged unrelated work (a different clock base). The relative
        // spans of the common window must be identical.
        let run = |dev: &mut Device| {
            let span_mark = dev.spans().len();
            let log_mark = dev.time_log().len();
            dev.push_phase("outer");
            let buf = dev.htod_copy(&[1u32, 2, 3, 4]).unwrap();
            dev.push_phase("inner");
            let _ = dev.dtoh(&buf);
            dev.pop_phase();
            dev.pop_phase();
            relative_spans(dev.spans(), dev.time_log(), span_mark, log_mark)
        };
        let mut cold = Device::new(DeviceConfig::gtx_980());
        cold.preinit_context();
        cold.reset_clock();
        let a = run(&mut cold);

        let mut warm = Device::new(DeviceConfig::gtx_980());
        warm.preinit_context();
        warm.reset_clock();
        let junk = warm.htod_copy(&[9u32; 1024]).unwrap();
        let _ = warm.dtoh(&junk);
        let b = run(&mut warm);

        assert_eq!(a, b);
        assert_eq!(a.len(), 2);
        // Completion order: inner closes first, outer last.
        assert_eq!(a[0].path, "outer/inner");
        assert_eq!(a[1].path, "outer");
        assert_eq!(a[1].start_ns, 0);
        assert!(a[0].start_ns > 0, "inner starts after the htod copy");
        // Quantized nesting stays contained.
        assert!(a[0].start_ns + a[0].dur_ns <= a[1].start_ns + a[1].dur_ns);
        assert_eq!(a[0].depth, 1);
        assert_eq!(a[1].depth, 0);
    }

    #[test]
    fn merged_reports_sum_counters_and_max_durations() {
        let mk = |total: f64| ProfileReport {
            device: "C2050".into(),
            peak_bandwidth_gbs: 144.0,
            devices: 1,
            total_s: total,
            totals: sample_counters(1),
            spans: vec![Span {
                path: "count/kernel".into(),
                depth: 0,
                start_s: 0.0,
                end_s: total,
                first_op: 0,
                end_op: 0,
                counters: sample_counters(1),
            }],
        };
        let m = ProfileReport::merged(&[mk(1.0), mk(2.0)]);
        assert_eq!(m.devices, 2);
        assert_eq!(m.total_s, 2.0);
        assert_eq!(m.totals, {
            let mut c = sample_counters(1);
            c.add(&sample_counters(1));
            c
        });
        assert_eq!(m.spans.len(), 1);
        assert_eq!(m.spans[0].end_s, 2.0);
        assert_eq!(m.spans[0].counters.dram_read_bytes, 256);
    }
}
