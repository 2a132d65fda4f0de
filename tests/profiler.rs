//! Integration tests of the profiler subsystem: counter conservation,
//! span nesting invariants, machine-readable output validity, and
//! byte-identical determinism.

use triangles::bench::profile::request_traces;
use triangles::core::count::{Backend, CountRequest, GpuOptions};
use triangles::core::gpu::pipeline::RunTrace;
use triangles::gen::{erdos_renyi, Seed};
use triangles::simt::{Counters, DeviceConfig};
use triangles::telemetry::{chrome_trace_json, RequestTrace, TraceSpan};

fn profiled_run() -> RunTrace {
    let g = erdos_renyi::gnm(200, 1_200, Seed(11));
    let opts = GpuOptions::new(DeviceConfig::gtx_980().with_unlimited_memory());
    let counted = CountRequest::new(Backend::Gpu(opts)).run(&g).unwrap();
    let mut traces = counted.gpu.expect("GPU runs report").traces;
    assert_eq!(traces.len(), 1);
    traces.remove(0)
}

/// Fields of `Counters` as comparable scalar tuples (name, value, exact?)
/// so equality failures name the field instead of dumping two structs.
/// Integer-backed fields must match exactly; float fields are the same
/// addends summed in a different association (span deltas vs running
/// totals), so they get an ulp-level relative tolerance.
fn counter_fields(c: &Counters) -> Vec<(&'static str, f64, bool)> {
    vec![
        ("kernel_launches", c.kernel_launches as f64, true),
        ("kernel_time_s", c.kernel_time_s, false),
        ("sm_cycles", c.sm_cycles, false),
        ("lane_steps", c.lane_steps as f64, true),
        ("warp_steps", c.warp_steps as f64, true),
        ("divergent_steps", c.divergent_steps as f64, true),
        ("serialized_groups", c.serialized_groups as f64, true),
        ("issue_stall_cycles", c.issue_stall_cycles, false),
        ("transactions", c.transactions as f64, true),
        ("dram_read_bytes", c.dram_read_bytes as f64, true),
        ("dram_write_bytes", c.dram_write_bytes as f64, true),
        ("tex_accesses", c.tex.accesses as f64, true),
        ("tex_hits", c.tex.hits as f64, true),
        ("l2_accesses", c.l2.accesses as f64, true),
        ("l2_hits", c.l2.hits as f64, true),
        ("htod_bytes", c.htod_bytes as f64, true),
        ("dtoh_bytes", c.dtoh_bytes as f64, true),
        ("occupancy_weight", c.occupancy_weight, false),
    ]
}

fn assert_counters_eq(a: &Counters, b: &Counters, what: &str) {
    for ((name, x, exact), (_, y, _)) in counter_fields(a).iter().zip(counter_fields(b).iter()) {
        if *exact {
            assert_eq!(x, y, "{what}: field {name} differs ({x} vs {y})");
        } else {
            let scale = x.abs().max(y.abs()).max(f64::MIN_POSITIVE);
            assert!(
                (x - y).abs() <= 1e-12 * scale,
                "{what}: field {name} differs ({x} vs {y})"
            );
        }
    }
}

fn sum_counters<'a>(spans: impl Iterator<Item = &'a triangles::simt::Span>) -> Counters {
    let mut total = Counters::default();
    for s in spans {
        total.add(&s.counters);
    }
    total
}

#[test]
fn top_level_phase_deltas_sum_to_device_totals() {
    let profile = profiled_run().profile;
    let tops = sum_counters(profile.spans.iter().filter(|s| s.depth == 0));
    assert_counters_eq(&tops, &profile.totals, "top-level spans vs totals");
    assert!(profile.totals.kernel_launches > 0);
    assert!(profile.totals.dram_bytes() > 0);
}

#[test]
fn child_phase_deltas_sum_to_their_parent() {
    let profile = profiled_run().profile;
    for parent in profile
        .spans
        .iter()
        .filter(|s| s.path == "preprocess" || s.path == "count")
    {
        let prefix = format!("{}/", parent.path);
        let kids = sum_counters(
            profile
                .spans
                .iter()
                .filter(|s| s.depth == parent.depth + 1 && s.path.starts_with(&prefix)),
        );
        assert_counters_eq(
            &kids,
            &parent.counters,
            &format!("children of {}", parent.path),
        );
    }
}

#[test]
fn nested_spans_never_leave_their_parent_bounds() {
    let trace = profiled_run();
    for child in trace.spans.iter().filter(|s| s.depth > 0) {
        let (parent_path, _) = child.path.rsplit_once('/').unwrap();
        let parent = trace
            .spans
            .iter()
            .find(|p| p.path == parent_path && p.start_s <= child.start_s)
            .unwrap_or_else(|| panic!("no parent span for {}", child.path));
        assert!(
            parent.start_s <= child.start_s && child.end_s <= parent.end_s,
            "{} [{}, {}] escapes parent {} [{}, {}]",
            child.path,
            child.start_s,
            child.end_s,
            parent.path,
            parent.start_s,
            parent.end_s
        );
        assert!(
            child.start_s <= child.end_s,
            "{} runs backwards",
            child.path
        );
    }
    // Leaf ops stay inside the run.
    let total = trace.profile.total_s;
    for op in &trace.log {
        assert!(op.start_s >= 0.0 && op.start_s + op.seconds <= total + 1e-12);
    }
}

#[test]
fn profile_and_trace_json_are_structurally_valid() {
    let trace = profiled_run();
    let profile_json = trace.profile.to_json();
    json::parse(&profile_json).unwrap_or_else(|e| panic!("profile JSON invalid: {e}"));
    // The report names every pipeline phase.
    for step in [
        "preprocess/3-sort-edges",
        "count/count-kernel",
        "count/reduce",
    ] {
        assert!(
            profile_json.contains(&format!("\"{step}\"")),
            "missing {step}"
        );
    }

    let trace_json = chrome_trace_json(&request_traces("gtx980", std::slice::from_ref(&trace)));
    json::parse(&trace_json).unwrap_or_else(|e| panic!("trace JSON invalid: {e}"));
    assert!(trace_json.contains("\"CountTriangles\""));
    assert!(trace_json.contains("\"preprocess\""));
}

#[test]
fn profiler_output_is_byte_identical_across_runs() {
    let a = profiled_run();
    let b = profiled_run();
    assert_eq!(a.profile.to_json(), b.profile.to_json());

    let chrome = |t: RunTrace| chrome_trace_json(&request_traces("gtx980", &[t]));
    assert_eq!(chrome(a), chrome(b), "traces must be byte-identical");
}

/// The profiled `4xc2050` request as the trace `tcount --trace` writes.
fn multi_gpu_chrome_trace() -> (Vec<RunTrace>, Vec<RequestTrace>, String) {
    let g = erdos_renyi::gnm(200, 1_200, Seed(13));
    let backend: Backend = "4xc2050".parse().unwrap();
    let token = backend.to_string();
    let runs = CountRequest::new(backend)
        .run(&g)
        .unwrap()
        .gpu
        .unwrap()
        .traces;
    let requests = request_traces(&token, &runs);
    let json = chrome_trace_json(&requests);
    (runs, requests, json)
}

#[test]
fn multi_gpu_chrome_trace_nests_every_device_run() {
    let (runs, requests, json) = multi_gpu_chrome_trace();
    json::parse(&json).unwrap_or_else(|e| panic!("trace JSON invalid: {e}"));
    assert_eq!(requests.len(), 4);
    assert_eq!(json.matches("\"thread_name\"").count(), 4);
    for (i, (run, req)) in runs.iter().zip(&requests).enumerate() {
        assert_eq!(req.id, i as u64);
        assert!(json.contains(&format!("\"req {i}: gpu{i} (Tesla C2050) [4xc2050]\"")));
        // Every profiler span, then every leaf op, in recorded order.
        assert_eq!(req.spans.len(), run.spans.len() + run.log.len());
        let (phases, ops) = req.spans.split_at(run.spans.len());
        for (span, phase) in run.spans.iter().zip(phases) {
            assert_eq!(phase.name, span.path.rsplit('/').next().unwrap());
            assert_eq!(phase.depth, span.depth);
        }
        let leaf_depth = run.spans.iter().map(|s| s.depth + 1).max().unwrap();
        for (op, leaf) in run.log.iter().zip(ops) {
            assert_eq!(leaf.name, op.label);
            assert_eq!(leaf.depth, leaf_depth);
        }
        // Exact containment: a phase lies inside its parent phase, a leaf
        // op inside every phase whose op range covers it.
        let inside = |child: &TraceSpan, parent: &TraceSpan| {
            parent.start_ns <= child.start_ns && child.end_ns() <= parent.end_ns()
        };
        for (span, phase) in run.spans.iter().zip(phases) {
            if let Some((parent_path, _)) = span.path.rsplit_once('/') {
                let parent = run
                    .spans
                    .iter()
                    .position(|p| {
                        p.path == parent_path
                            && p.first_op <= span.first_op
                            && span.end_op <= p.end_op
                    })
                    .unwrap_or_else(|| panic!("no parent span for {}", span.path));
                assert!(
                    inside(phase, &phases[parent]),
                    "{} escapes {parent_path}",
                    span.path
                );
            }
        }
        for (k, leaf) in ops.iter().enumerate() {
            for (span, phase) in run.spans.iter().zip(phases) {
                if span.first_op <= k && k < span.end_op {
                    assert!(
                        inside(leaf, phase),
                        "op {} escapes {}",
                        leaf.name,
                        span.path
                    );
                }
            }
        }
    }
    assert!(json.contains("\"broadcast\""));
    assert!(json.contains("\"count-kernel\""));
    let (_, _, again) = multi_gpu_chrome_trace();
    assert_eq!(json, again, "trace must be byte-identical across runs");
}

#[test]
fn merged_multi_gpu_profile_conserves_counters() {
    let g = erdos_renyi::gnm(200, 1_200, Seed(12));
    let opts = GpuOptions::new(DeviceConfig::tesla_c2050().with_unlimited_memory());
    let backend = Backend::MultiGpu {
        options: opts,
        devices: 4,
    };
    let report = CountRequest::new(backend).run(&g).unwrap().gpu.unwrap();
    let traces = &report.traces;
    assert_eq!(traces.len(), 4);
    let merged = &report.profile;
    assert_eq!(merged.devices, 4);
    let summed = traces.iter().fold(Counters::default(), |mut acc, t| {
        acc.add(&t.profile.totals);
        acc
    });
    assert_counters_eq(&summed, &merged.totals, "merged multi-GPU totals");
    // Every device counted: each per-device profile has a kernel span.
    for t in traces {
        let span = t.profile.span("count/count-kernel").unwrap();
        assert!(span.counters.kernel_launches >= 1, "{}", t.device_name);
    }
    json::parse(&merged.to_json()).unwrap_or_else(|e| panic!("merged JSON invalid: {e}"));
}

/// A minimal recursive-descent JSON parser used only to validate output
/// structure (the crate deliberately has no serde dependency).
mod json {
    pub fn parse(s: &str) -> Result<(), String> {
        let bytes = s.as_bytes();
        let mut pos = 0;
        skip_ws(bytes, &mut pos);
        value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(())
    }

    fn skip_ws(b: &[u8], pos: &mut usize) {
        while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        }
    }

    fn value(b: &[u8], pos: &mut usize) -> Result<(), String> {
        match b.get(*pos) {
            Some(b'{') => object(b, pos),
            Some(b'[') => array(b, pos),
            Some(b'"') => string(b, pos),
            Some(b't') => literal(b, pos, b"true"),
            Some(b'f') => literal(b, pos, b"false"),
            Some(b'n') => literal(b, pos, b"null"),
            Some(c) if c.is_ascii_digit() || *c == b'-' => number(b, pos),
            other => Err(format!("unexpected {other:?} at byte {pos}")),
        }
    }

    fn object(b: &[u8], pos: &mut usize) -> Result<(), String> {
        *pos += 1; // {
        skip_ws(b, pos);
        if b.get(*pos) == Some(&b'}') {
            *pos += 1;
            return Ok(());
        }
        loop {
            skip_ws(b, pos);
            string(b, pos)?;
            skip_ws(b, pos);
            if b.get(*pos) != Some(&b':') {
                return Err(format!("expected ':' at byte {pos}"));
            }
            *pos += 1;
            skip_ws(b, pos);
            value(b, pos)?;
            skip_ws(b, pos);
            match b.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b'}') => {
                    *pos += 1;
                    return Ok(());
                }
                other => return Err(format!("expected ',' or '}}', got {other:?} at {pos}")),
            }
        }
    }

    fn array(b: &[u8], pos: &mut usize) -> Result<(), String> {
        *pos += 1; // [
        skip_ws(b, pos);
        if b.get(*pos) == Some(&b']') {
            *pos += 1;
            return Ok(());
        }
        loop {
            skip_ws(b, pos);
            value(b, pos)?;
            skip_ws(b, pos);
            match b.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b']') => {
                    *pos += 1;
                    return Ok(());
                }
                other => return Err(format!("expected ',' or ']', got {other:?} at {pos}")),
            }
        }
    }

    fn string(b: &[u8], pos: &mut usize) -> Result<(), String> {
        if b.get(*pos) != Some(&b'"') {
            return Err(format!("expected '\"' at byte {pos}"));
        }
        *pos += 1;
        while let Some(&c) = b.get(*pos) {
            match c {
                b'"' => {
                    *pos += 1;
                    return Ok(());
                }
                b'\\' => *pos += 2,
                _ => *pos += 1,
            }
        }
        Err("unterminated string".into())
    }

    fn number(b: &[u8], pos: &mut usize) -> Result<(), String> {
        let start = *pos;
        if b.get(*pos) == Some(&b'-') {
            *pos += 1;
        }
        while let Some(&c) = b.get(*pos) {
            if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-') {
                *pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&b[start..*pos]).unwrap();
        text.parse::<f64>()
            .map_err(|_| format!("bad number {text:?} at {start}"))?;
        Ok(())
    }

    fn literal(b: &[u8], pos: &mut usize, word: &[u8]) -> Result<(), String> {
        if b.len() >= *pos + word.len() && &b[*pos..*pos + word.len()] == word {
            *pos += word.len();
            Ok(())
        } else {
            Err(format!("bad literal at byte {pos}"))
        }
    }
}
