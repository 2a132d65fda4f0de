//! The repository's benchmark: four workloads measured end to end on the
//! host clock and the modeled device clock, plus a traced run that
//! attributes the time to layers. Every layer is measured from outside,
//! by timing calls into the public API; see `README.md` beside this crate.

#![forbid(unsafe_code)]

pub mod run;
pub mod stats;
pub mod tracer;
pub mod workload;

use std::fmt::Write as _;

use run::Run;
use tracer::Tracer;
use workload::Workload;

/// Set-up repeats at least this many times, and for at least
/// [`SETUP_MIN_S`] host seconds; `setup_s` is the median repetition.
pub const SETUP_REPS: usize = 5;
pub const SETUP_MIN_S: f64 = 1.0;

/// The traced run's side files: the host spans as a Chrome trace and the
/// per-layer self times.
pub fn trace_files(workload: Workload, seed: u64, run: &Run, tracer: &Tracer) -> (String, String) {
    let mut layers = format!(
        "{{\n  \"workload\": \"{}\",\n  \"seed\": {seed},\n  \"untraced_host_s\": {},\n  \
         \"tracing_overhead_s\": {},\n  \"instrumentation_s\": {},\n  \"span_coverage\": {},\n  \
         \"self_s\": {{",
        workload.name(),
        run.untraced_host_s,
        run.tracing_overhead_s,
        run.instrumentation_s,
        run.span_coverage
    );
    for (i, (layer, s)) in tracer.self_seconds_by_layer().iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(layers, "{sep}\n    \"{layer}\": {s}");
    }
    layers.push_str("\n  },\n  \"op_modeled_ms\": [");
    for (i, (label, ms)) in run.op_modeled_ms.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(layers, "{sep}\n    [\"{label}\", {ms}]");
    }
    layers.push_str("\n  ],\n  \"per_layer\": {");
    for (i, m) in run.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            layers,
            "{sep}\n    \"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    layers.push_str("\n  }\n}\n");
    (tracer.chrome_json(workload.name()), layers)
}
