//! `repro bench` — the machine-readable perf trajectory artifact.
//!
//! Runs every suite graph against a fixed backend matrix (CPU forward,
//! the paper's GTX 980 pipeline, the workload-balanced scheduler, the
//! balanced scheduler with the hash-intersection heavy bin, and a 2×2
//! sharded cluster on the balanced schedule) and
//! emits one `BENCH_<n>.json` at the repo root per PR so modeled and
//! host-wall times can be tracked across the project's history. Modeled
//! milliseconds are deterministic (the simulator is exact); host wall
//! milliseconds are whatever this machine did today, so they live in an
//! explicit per-entry `advisory` section — rendered as `null` in CI mode
//! so the artifact bytes are host-independent.
//!
//! [`check_regressions`] diffs two artifacts' deterministic
//! `(graph, backend, modeled_ms)` matrices — the bench-regression gate
//! `scripts/bench_check.sh` and `repro bench --check` run.

use std::str::FromStr;
use std::time::Instant;

use tc_core::{Backend, CountRequest};
use tc_gen::suite::full_suite_seeded;
use tc_telemetry::{json_f64, json_string};

use crate::report::Table;

use super::ExpConfig;

/// The bench artifact's schema/sequence number: `BENCH_6.json` belongs to
/// the PR that added the sharded cluster engine to the backend matrix.
pub const BENCH_SEQ: u32 = 6;

/// Backend tokens benched per graph (parsed through the canonical
/// [`Backend`] grammar, so the JSON records exactly the tokens a user
/// would pass to `tcount`).
pub const BACKENDS: [&str; 5] = [
    "forward",
    "gtx980",
    "gtx980/balanced",
    "gtx980/balanced+hash",
    "cluster:2x2/gtx980/balanced",
];

/// One graph × backend measurement.
#[derive(Clone, Debug)]
pub struct Entry {
    pub graph: String,
    pub backend: String,
    pub triangles: u64,
    /// Simulated device milliseconds (`None` for CPU backends, whose
    /// `seconds` are host time).
    pub modeled_ms: Option<f64>,
    /// Wall milliseconds the whole count took on this host. Serialized
    /// under the entry's `advisory` section (or dropped in CI mode) —
    /// never part of the deterministic artifact surface.
    pub host_wall_ms: f64,
}

/// Run the backend matrix over the suite.
pub fn run(cfg: &ExpConfig) -> Vec<Entry> {
    let mut entries = Vec::new();
    for item in full_suite_seeded(cfg.scale, cfg.seed) {
        for token in BACKENDS {
            let backend = Backend::from_str(token).expect("bench backend token");
            let modeled = !matches!(backend, Backend::CpuForward);
            let req = CountRequest::new(backend).graph_name(item.name.clone());
            let t0 = Instant::now();
            let tc = req
                .run(&item.graph)
                .unwrap_or_else(|e| panic!("{} on {token}: {e}", item.name));
            let host_wall_ms = t0.elapsed().as_secs_f64() * 1e3;
            entries.push(Entry {
                graph: item.name.clone(),
                backend: token.to_string(),
                triangles: tc.triangles,
                modeled_ms: modeled.then_some(tc.seconds * 1e3),
                host_wall_ms,
            });
        }
    }
    entries
}

/// Serialize the artifact (stable field order, newline-terminated). With
/// `include_advisory = false` (CI mode, `TC_TELEMETRY_CI=1`) every
/// entry's `advisory` section renders as `null`, making the whole
/// artifact deterministic: same suite + same simulator → same bytes.
pub fn to_json_with_advisory(entries: &[Entry], cfg: &ExpConfig, include_advisory: bool) -> String {
    let mut out = String::with_capacity(256 + 160 * entries.len());
    out.push_str("{\n");
    out.push_str(&format!("  \"bench\": {BENCH_SEQ},\n"));
    out.push_str(&format!(
        "  \"scale\": {},\n",
        json_string(&format!("{:?}", cfg.scale).to_lowercase())
    ));
    out.push_str(&format!("  \"seed\": {},\n", cfg.seed.0));
    out.push_str("  \"entries\": [\n");
    for (i, e) in entries.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"graph\": {},\n", json_string(&e.graph)));
        out.push_str(&format!(
            "      \"backend\": {},\n",
            json_string(&e.backend)
        ));
        out.push_str(&format!("      \"triangles\": {},\n", e.triangles));
        out.push_str(&format!(
            "      \"modeled_ms\": {},\n",
            e.modeled_ms.map_or("null".into(), json_f64)
        ));
        if include_advisory {
            out.push_str(&format!(
                "      \"advisory\": {{\"host_wall_ms\": {}}}\n",
                json_f64(e.host_wall_ms)
            ));
        } else {
            out.push_str("      \"advisory\": null\n");
        }
        out.push_str(if i + 1 == entries.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Serialize with the advisory section included (the non-CI default).
pub fn to_json(entries: &[Entry], cfg: &ExpConfig) -> String {
    to_json_with_advisory(entries, cfg, true)
}

/// Pull the deterministic `(graph, backend, modeled_ms)` matrix out of a
/// bench artifact. Scan-based on the serializer's stable field order (one
/// field per line), without a JSON parser — `scripts/ci.sh` separately
/// runs a real parser over the emitted file.
pub fn extract_modeled(json: &str) -> Vec<(String, String, Option<f64>)> {
    fn field_value<'a>(line: &'a str, key: &str) -> Option<&'a str> {
        let rest = line.trim().strip_prefix(&format!("\"{key}\": "))?;
        Some(rest.trim_end_matches(','))
    }
    fn unquote(v: &str) -> String {
        v.trim_matches('"').to_string()
    }
    let mut out = Vec::new();
    let mut graph: Option<String> = None;
    let mut backend: Option<String> = None;
    for line in json.lines() {
        if let Some(v) = field_value(line, "graph") {
            graph = Some(unquote(v));
        } else if let Some(v) = field_value(line, "backend") {
            backend = Some(unquote(v));
        } else if let Some(v) = field_value(line, "modeled_ms") {
            let ms = (v != "null").then(|| v.parse::<f64>().unwrap_or(f64::NAN));
            if let (Some(g), Some(b)) = (graph.take(), backend.take()) {
                out.push((g, b, ms));
            }
        }
    }
    out
}

/// Compare a freshly generated artifact against a prior one: every
/// `(graph, backend)` pair present in both must not have regressed its
/// `modeled_ms` by more than `rel_tol` (relative). Returns the per-pair
/// comparison lines on success, or the list of regressions (plus any
/// pairs that vanished) on failure. CPU entries (no modeled time) and
/// pairs new in the fresh artifact are skipped — the gate protects
/// modeled performance, not matrix shape.
pub fn check_regressions(
    new_json: &str,
    old_json: &str,
    rel_tol: f64,
) -> Result<Vec<String>, Vec<String>> {
    let new = extract_modeled(new_json);
    let old = extract_modeled(old_json);
    let mut lines = Vec::new();
    let mut failures = Vec::new();
    for (graph, backend, old_ms) in &old {
        let Some(old_ms) = old_ms else { continue };
        let fresh = new
            .iter()
            .find(|(g, b, _)| g == graph && b == backend)
            .and_then(|(_, _, ms)| *ms);
        match fresh {
            None => failures.push(format!(
                "{graph} x {backend}: present in prior artifact but missing now"
            )),
            Some(new_ms) if !new_ms.is_finite() => {
                failures.push(format!("{graph} x {backend}: modeled_ms is not a number"))
            }
            Some(new_ms) => {
                let rel = (new_ms - old_ms) / old_ms;
                let verdict = if rel > rel_tol { "REGRESSED" } else { "ok" };
                let line = format!(
                    "{graph} x {backend}: {old_ms:.6} -> {new_ms:.6} ms ({:+.2}%) {verdict}",
                    rel * 100.0
                );
                if rel > rel_tol {
                    failures.push(line);
                } else {
                    lines.push(line);
                }
            }
        }
    }
    if failures.is_empty() {
        Ok(lines)
    } else {
        Err(failures)
    }
}

/// Human-readable view of the same matrix.
pub fn render(entries: &[Entry]) -> Table {
    let mut t = Table::new(
        "Bench matrix (modeled GPU ms are deterministic; wall ms are this host)",
        &["graph", "backend", "triangles", "modeled [ms]", "wall [ms]"],
    );
    for e in entries {
        t.push(vec![
            e.graph.clone(),
            e.backend.clone(),
            e.triangles.to_string(),
            e.modeled_ms.map_or("-".into(), |ms| format!("{ms:.4}")),
            format!("{:.1}", e.host_wall_ms),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_bench_matrix_is_consistent_and_serializes() {
        let cfg = ExpConfig::smoke();
        let entries = run(&cfg);
        assert_eq!(entries.len(), 13 * BACKENDS.len());
        // Every backend agrees on every graph's count.
        for chunk in entries.chunks(BACKENDS.len()) {
            for e in chunk {
                assert_eq!(e.triangles, chunk[0].triangles, "{} {}", e.graph, e.backend);
                assert!(e.host_wall_ms >= 0.0);
            }
            assert!(
                chunk[0].modeled_ms.is_none(),
                "cpu entry has no modeled time"
            );
            for e in &chunk[1..] {
                assert!(e.modeled_ms.is_some(), "{} {}", e.graph, e.backend);
            }
        }
        let json = to_json(&entries, &cfg);
        assert!(json.starts_with("{\n  \"bench\": 6,\n"));
        assert!(json.ends_with("]\n}\n"));
        assert_eq!(json.matches("\"graph\":").count(), entries.len());
        assert_eq!(
            json.matches("\"advisory\": {\"host_wall_ms\": ").count(),
            entries.len()
        );
        // Balanced JSON braces (cheap well-formedness check; ci.sh runs a
        // real parser over the emitted file).
        assert_eq!(json.matches('{').count(), json.matches('}').count());

        // CI mode nulls every advisory section; nothing host-measured
        // survives in the bytes.
        let ci = to_json_with_advisory(&entries, &cfg, false);
        assert_eq!(ci.matches("\"advisory\": null").count(), entries.len());
        assert!(!ci.contains("host_wall_ms"));

        // The extractor reads back exactly the deterministic matrix.
        let matrix = extract_modeled(&json);
        assert_eq!(matrix.len(), entries.len());
        assert_eq!(matrix, extract_modeled(&ci));
        for ((g, b, ms), e) in matrix.iter().zip(&entries) {
            assert_eq!(g, &e.graph);
            assert_eq!(b, &e.backend);
            assert_eq!(ms.is_some(), e.modeled_ms.is_some());
        }
    }

    fn artifact(rows: &[(&str, &str, Option<f64>)]) -> String {
        let entries: Vec<Entry> = rows
            .iter()
            .map(|(g, b, ms)| Entry {
                graph: g.to_string(),
                backend: b.to_string(),
                triangles: 1,
                modeled_ms: *ms,
                host_wall_ms: 9.9,
            })
            .collect();
        to_json(&entries, &ExpConfig::smoke())
    }

    #[test]
    fn regression_gate_passes_within_tolerance_and_fails_beyond() {
        let old = artifact(&[
            ("g1", "gtx980", Some(10.0)),
            ("g1", "forward", None),
            ("g2", "gtx980", Some(5.0)),
        ]);
        // Improvement and sub-tolerance noise pass; CPU rows are skipped.
        let new_ok = artifact(&[
            ("g1", "gtx980", Some(9.0)),
            ("g1", "forward", None),
            ("g2", "gtx980", Some(5.2)),
        ]);
        let lines = check_regressions(&new_ok, &old, 0.05).expect("within tolerance");
        assert_eq!(lines.len(), 2);
        assert!(lines.iter().all(|l| l.ends_with("ok")));

        // A 10% slowdown on one cell fails, and names the cell.
        let new_bad = artifact(&[
            ("g1", "gtx980", Some(11.0)),
            ("g1", "forward", None),
            ("g2", "gtx980", Some(5.0)),
        ]);
        let failures = check_regressions(&new_bad, &old, 0.05).expect_err("regressed");
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("g1 x gtx980"));
        assert!(failures[0].contains("REGRESSED"));

        // A vanished pair fails too.
        let new_missing = artifact(&[("g1", "gtx980", Some(10.0))]);
        let failures = check_regressions(&new_missing, &old, 0.05).expect_err("missing pair");
        assert!(failures[0].contains("missing now"));
    }
}
