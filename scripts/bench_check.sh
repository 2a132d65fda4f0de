#!/usr/bin/env bash
# Bench-regression gate: compare two BENCH_*.json artifacts and fail if
# any graph x backend cell's deterministic modeled_ms regressed beyond
# the threshold.
#
# Usage: scripts/bench_check.sh NEW_BENCH_JSON OLD_BENCH_JSON [REL_TOL]
#
#   NEW_BENCH_JSON  freshly generated artifact (bench >= 5 schema)
#   OLD_BENCH_JSON  prior artifact to compare against (bench >= 5 schema)
#   REL_TOL         relative tolerance, default 0.05 (5%)
#
# Only modeled milliseconds are compared: they are simulator-exact and
# deterministic, so any drift is a real perf change, not measurement
# noise. CPU rows (modeled_ms null) and cells new in NEW are skipped;
# cells present in OLD but missing from NEW fail the gate.
set -euo pipefail

if [ "$#" -lt 2 ] || [ "$#" -gt 3 ]; then
    echo "usage: scripts/bench_check.sh NEW_BENCH_JSON OLD_BENCH_JSON [REL_TOL]" >&2
    exit 2
fi

NEW="$1" OLD="$2" TOL="${3:-0.05}" python3 - <<'PY'
import json, os, sys

new_path, old_path, tol = os.environ["NEW"], os.environ["OLD"], float(os.environ["TOL"])

def load_matrix(path):
    with open(path) as f:
        doc = json.load(f)
    assert doc.get("bench", 0) >= 3 and doc["entries"], f"{path}: not a bench artifact"
    return {(e["graph"], e["backend"]): e["modeled_ms"] for e in doc["entries"]}

new, old = load_matrix(new_path), load_matrix(old_path)
failures = []
for (graph, backend), old_ms in sorted(old.items()):
    if old_ms is None:
        continue  # CPU row: host-measured, not gated
    if (graph, backend) not in new:
        failures.append(f"{graph} x {backend}: present in {old_path} but missing from {new_path}")
        continue
    new_ms = new[(graph, backend)]
    if new_ms is None:
        failures.append(f"{graph} x {backend}: modeled_ms vanished (now null)")
        continue
    rel = (new_ms - old_ms) / old_ms
    verdict = "REGRESSED" if rel > tol else "ok"
    line = f"{graph} x {backend}: {old_ms:.6f} -> {new_ms:.6f} ms ({rel:+.2%}) {verdict}"
    print(line)
    if rel > tol:
        failures.append(line)

if failures:
    print(f"\nbench-check FAILED: {len(failures)} cell(s) beyond {tol:.1%} vs {old_path}", file=sys.stderr)
    for line in failures:
        print(f"  {line}", file=sys.stderr)
    sys.exit(1)
print(f"bench-check OK: no modeled_ms regression beyond {tol:.1%} vs {old_path}")
PY
