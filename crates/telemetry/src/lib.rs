//! # tc-telemetry — deterministic serving telemetry
//!
//! The kernel layer already has an nvprof-style profiler
//! (`tc_simt::profiler`) and a compute-sanitizer analog; this crate is the
//! third observability layer: *serving* telemetry for the batched engine.
//! It provides
//!
//! * a **[`MetricsRegistry`]** of counters, gauges, and modeled-time
//!   histograms with fixed log-spaced buckets, every series keyed by
//!   `(name, sorted labels)` and classified as **deterministic** or
//!   **advisory**;
//! * **snapshot export** as hand-rolled canonical JSON
//!   ([`MetricsSnapshot::to_json`]) and Prometheus text exposition
//!   ([`MetricsSnapshot::to_prometheus`]);
//! * a **request trace model** ([`RequestTrace`], [`TraceSpan`]) with
//!   integer-nanosecond modeled timestamps and a Chrome Trace Event
//!   serializer ([`chrome_trace_json`]) that interleaves engine stage
//!   spans with kernel profiler spans on one timeline per request;
//! * the **[`Stage`]** vocabulary shared by traces, metrics, and error
//!   attribution.
//!
//! ## Determinism rules
//!
//! The *deterministic* view must be byte-identical across runs and worker
//! counts for the same job stream. The registry enforces the mechanics —
//! keyed/sorted iteration, integer arithmetic — and callers must uphold
//! the semantics:
//!
//! 1. Only record **modeled** quantities (simulated device time, planned
//!    cache decisions, modeled-time timeouts) in deterministic series.
//!    Host wall clocks, queue depths, and anything schedule-dependent
//!    goes in the **advisory** class.
//! 2. Counter increments and histogram observations are order-independent
//!    by construction (u64 addition is associative and commutative);
//!    durations are quantized to integer nanoseconds *before* entering
//!    the registry, so no float summation order can leak through.
//! 3. Deterministic gauges may only be set from values that are
//!    themselves deterministic (e.g. a planned cache-hit ratio).
//!
//! Snapshots render the two classes in clearly separated sections; the
//! advisory section can be omitted (CI mode) so artifact diffs compare
//! only modeled quantities.

#![forbid(unsafe_code)]

pub mod registry;
pub mod trace;

pub use registry::{
    Determinism, HistogramSnapshot, MetricFamily, MetricKind, MetricValue, MetricsRegistry,
    MetricsSnapshot, SeriesSnapshot, BUCKET_BOUNDS_NS,
};
pub use trace::{chrome_trace_json, RequestTrace, TraceSpan};

use std::fmt;

/// The stages a request moves through in the serving engine, from front
/// door to result assembly. Shared vocabulary for trace span names,
/// per-stage metrics, and error attribution ("which stage did this job
/// die in").
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Stage {
    /// Queue admission (blocking push or shed decision).
    Admission,
    /// Waiting in the bounded job queue for a worker.
    QueueWait,
    /// Prepared-session cache lookup (planned hit/miss).
    CacheLookup,
    /// A cache miss bringing up its session's own device (context
    /// creation and the §IV stopwatch reset); the token keeps its
    /// historical name.
    DeviceLease,
    /// Host-to-device copy + the eight preprocessing steps (§III-B).
    Prepare,
    /// The counting kernel phases (§III-C).
    Count,
    /// Result assembly / partial-count merge.
    Merge,
    /// Cluster only: host-side orientation, edge partitioning, and shard
    /// uploads across the node × device grid.
    ShardPartition,
    /// Cluster only: per-shard kernel dispatch and local reductions.
    ShardCount,
    /// Cluster only: shipping per-shard partials over the modeled
    /// interconnect and summing them in node-index order.
    InternodeMerge,
}

impl Stage {
    /// Stable lowercase token used in span names, metric labels, and
    /// error messages.
    pub fn as_str(&self) -> &'static str {
        match self {
            Stage::Admission => "admission",
            Stage::QueueWait => "queue-wait",
            Stage::CacheLookup => "cache-lookup",
            Stage::DeviceLease => "device-lease",
            Stage::Prepare => "prepare",
            Stage::Count => "count",
            Stage::Merge => "merge",
            Stage::ShardPartition => "shard-partition",
            Stage::ShardCount => "shard-count",
            Stage::InternodeMerge => "internode-merge",
        }
    }

    /// Every stage, in request order. The three cluster stages come last:
    /// a single-device request never emits them, a cluster request emits
    /// them instead of `prepare`/`count`/`merge`.
    pub fn all() -> [Stage; 10] {
        [
            Stage::Admission,
            Stage::QueueWait,
            Stage::CacheLookup,
            Stage::DeviceLease,
            Stage::Prepare,
            Stage::Count,
            Stage::Merge,
            Stage::ShardPartition,
            Stage::ShardCount,
            Stage::InternodeMerge,
        ]
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A JSON string literal: `"`, `\\`, `\n`, `\r` and `\t` escape by name,
/// every other control character as `\u00XX`, and everything else —
/// non-ASCII included — passes through. The one escaper of the serving
/// layers (the engine report, the bench artifact, metrics and traces);
/// `tc-simt` keeps the only other copy.
pub fn json_string(s: &str) -> String {
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

/// A JSON number: the shortest string that round-trips `x`. JSON has no
/// NaN or infinity, so non-finite values render as `0`.
pub fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

/// Integer nanoseconds rendered as microseconds with exactly three
/// decimals — the Chrome trace `ts`/`dur` format — without any float
/// round-trip (`1234` → `"1.234"`).
pub(crate) fn ns_as_us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

/// Quantize modeled seconds to integer nanoseconds. Each caller feeds a
/// deterministic f64 (a schedule-independent modeled duration), so the
/// rounding — and everything downstream of it — is deterministic too.
pub fn seconds_to_ns(s: f64) -> u64 {
    if s.is_finite() && s > 0.0 {
        (s * 1e9).round() as u64
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_tokens_are_stable_and_ordered() {
        let all = Stage::all();
        assert_eq!(all.len(), 10);
        assert_eq!(all[0].as_str(), "admission");
        assert_eq!(all[6].as_str(), "merge");
        assert_eq!(all[7].as_str(), "shard-partition");
        assert_eq!(all[8].as_str(), "shard-count");
        assert_eq!(all[9].as_str(), "internode-merge");
        assert_eq!(Stage::Prepare.to_string(), "prepare");
        // Request order is the enum order.
        for pair in all.windows(2) {
            assert!(pair[0] < pair[1]);
        }
    }

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

    #[test]
    fn ns_formatting_is_exact() {
        assert_eq!(ns_as_us(0), "0.000");
        assert_eq!(ns_as_us(1), "0.001");
        assert_eq!(ns_as_us(1234), "1.234");
        assert_eq!(ns_as_us(1_000_000), "1000.000");
    }

    #[test]
    fn seconds_quantization_clamps_garbage() {
        assert_eq!(seconds_to_ns(1e-9), 1);
        assert_eq!(seconds_to_ns(0.5), 500_000_000);
        assert_eq!(seconds_to_ns(-1.0), 0);
        assert_eq!(seconds_to_ns(f64::NAN), 0);
        assert_eq!(seconds_to_ns(f64::INFINITY), 0);
    }
}
