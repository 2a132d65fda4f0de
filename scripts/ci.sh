#!/usr/bin/env bash
# Pre-PR gate: formatting, lints, release build, full test suite.
# Usage: scripts/ci.sh   (run from anywhere inside the repo)
set -euo pipefail

cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy"
cargo clippy --workspace --all-targets -- -D warnings \
    -W clippy::needless_pass_by_value -W clippy::redundant_clone

echo "==> workspace determinism lint"
# The modeled layers must stay bit-deterministic: same input, same modeled
# numbers, same serialized bytes. Two classes of nondeterminism are banned
# there outright:
#   * host time sources (Instant::now / SystemTime) — modeled seconds come
#     from the simulator's clock, never the wall;
#   * hash-order collections (HashMap / HashSet) — their iteration order
#     is randomized per process and anything they feed (reports, JSON,
#     bin plans) would drift run to run; use BTreeMap/BTreeSet/Vec.
# Allowlisted by construction (outside the path set below): advisory
# telemetry that is *documented* host-measured — the engine's queue-wait
# metric and CPU-backend wall timings (crates/engine, crates/core/count.rs
# CPU path) and the bench harness's advisory host_wall_ms. Test modules
# are exempt too: the awk pass goes quiet at the first #[cfg(test)].
DET_PATHS="crates/simt/src crates/graph/src crates/gen/src \
           crates/core/src/gpu crates/core/src/cpu"
# shellcheck disable=SC2086
find $DET_PATHS -name '*.rs' -print0 | xargs -0 awk '
    FNR == 1 { intest = 0 }
    /#\[cfg\(test\)\]/ { intest = 1 }
    intest { next }
    /Instant::now|SystemTime/ {
        printf "%s:%d: host time source in a deterministic module\n", FILENAME, FNR
        bad = 1
    }
    /HashMap|HashSet/ {
        printf "%s:%d: hash-order collection in a deterministic module (use BTreeMap/BTreeSet/Vec)\n", FILENAME, FNR
        bad = 1
    }
    END { exit bad }
'
echo "deterministic modules are clock-free and hash-order-free"

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test"
cargo test --workspace --release -q

echo "==> modeled-perf golden snapshot"
# The simulator is deterministic: kernel cycle counts and cache counters
# must match tests/golden/modeled_perf.txt exactly (TC_BLESS=1 regenerates).
cargo test --release -q --test modeled_perf_golden

echo "==> balanced scheduler smoke"
./target/release/repro balance --scale smoke > /dev/null

echo "==> cluster sharding smoke"
# A sharded 2x2 cluster run must agree with the single device (the
# integration suite holds this byte-for-byte across the whole matrix;
# this is the CLI-path canary).
./target/release/tcount suite:dblp --backend cluster:2x2/gtx980/balanced > /dev/null

echo "==> bench artifact is valid JSON"
./target/release/repro bench --scale smoke --out /tmp/tc_bench_smoke.json > /dev/null
python3 - <<'PY'
import json
with open("/tmp/tc_bench_smoke.json") as f:
    doc = json.load(f)
assert doc["bench"] == 6 and doc["entries"]
for e in doc["entries"]:
    assert {"graph", "backend", "triangles", "modeled_ms", "advisory"} <= e.keys(), e
    assert "host_wall_ms" not in e, "host_wall_ms must live under advisory"
    adv = e["advisory"]
    assert adv is None or set(adv.keys()) == {"host_wall_ms"}, e
# The committed prior artifacts still parse (including the old flat schema).
for path, seq in [("BENCH_3.json", 3), ("BENCH_4.json", 4), ("BENCH_5.json", 5)]:
    with open(path) as f:
        doc = json.load(f)
    assert doc["bench"] == seq and doc["entries"], path
print("bench artifacts OK")
PY

echo "==> bench-regression gate (committed artifacts)"
# Modeled milliseconds are simulator-exact: any drift beyond tolerance in
# the committed perf trajectory is a real regression.
scripts/bench_check.sh BENCH_6.json BENCH_5.json > /dev/null

echo "==> telemetry determinism gate"
# The engine's metrics snapshot and unified request trace must be
# byte-identical across worker counts for the same jobfile (CI mode nulls
# the advisory host-measured section).
cat > /tmp/tc_telemetry_jobs.txt <<'JOBS'
graph=watts-strogatz backend=gtx980 repeat=3
graph=kronecker-6 backend=gtx980/balanced repeat=2
graph=watts-strogatz backend=forward
JOBS
for w in 1 2 4; do
    TC_TELEMETRY_CI=1 ./target/release/tcount batch /tmp/tc_telemetry_jobs.txt \
        --workers "$w" --metrics "/tmp/tc_metrics_w$w.json" \
        --prom "/tmp/tc_metrics_w$w.prom" --trace "/tmp/tc_trace_w$w.json" > /dev/null
done
cmp /tmp/tc_metrics_w1.json /tmp/tc_metrics_w2.json
cmp /tmp/tc_metrics_w1.json /tmp/tc_metrics_w4.json
cmp /tmp/tc_trace_w1.json /tmp/tc_trace_w2.json
cmp /tmp/tc_trace_w1.json /tmp/tc_trace_w4.json
python3 -c "import json; json.load(open('/tmp/tc_metrics_w1.json')); json.load(open('/tmp/tc_trace_w1.json'))"
echo "telemetry artifacts byte-identical across workers 1/2/4"

echo "==> prometheus exposition lint"
# Series must be sorted with no duplicates, every series preceded by its
# family's HELP/TYPE header, and histogram buckets cumulative.
python3 - <<'PY'
seen, families, cur = set(), [], None
for line in open("/tmp/tc_metrics_w1.prom"):
    line = line.rstrip("\n")
    if not line:
        continue
    if line.startswith("# HELP "):
        cur = line.split()[2]
        assert cur not in families, f"duplicate family {cur}"
        families.append(cur)
        continue
    if line.startswith("# TYPE "):
        assert line.split()[2] == cur, f"TYPE out of order: {line}"
        continue
    series = line.rsplit(" ", 1)[0]
    assert series not in seen, f"duplicate series {series}"
    seen.add(series)
    name = series.split("{")[0]
    base = name
    for suffix in ("_bucket", "_sum", "_count"):
        if name.endswith(suffix):
            base = name[: -len(suffix)]
    assert base == cur, f"series {series} outside its family block ({cur})"
assert families == sorted(families), "families not sorted"
print(f"prometheus exposition OK ({len(families)} families, {len(seen)} series)")
PY

echo "==> cargo doc (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "==> doctests"
# Example-bearing API docs are executable; keep them honest.
cargo test --workspace --release -q --doc

echo "==> sanitized smoke gate"
# Two representative suite graphs (a clique-union co-paper analog and a
# Kronecker rung) must run sanitizer-clean: tcount exits nonzero on any
# memcheck/initcheck/racecheck finding.
./target/release/tcount suite:dblp --backend gtx980/sanitize > /dev/null
./target/release/tcount suite:kronecker-8 --backend c2050/balanced --sanitize > /dev/null
# Hash-strategy + reorder token path end to end. At smoke scale the tuner
# degrades balanced+hash to the plain balanced plan (graceful degradation);
# the sanitizer integration test covers an actually-engaged hash bin.
./target/release/tcount suite:citeseer --backend gtx980/balanced+hash/reorder/sanitize > /dev/null
# Check mode on statically proven launches: memcheck and initcheck stream
# through the executor and no access log is kept (racecheck is skipped).
./target/release/tcount suite:kronecker-8 --backend gtx980/balanced/sanitize/verify > /dev/null

echo "==> sanitizer seeded-bug self-test"
# The gate above proves the sanitizer stays quiet on clean runs; this one
# proves it actually fires — an OOB read, an uninitialized read, and a
# write-write race must each be detected.
./target/release/tcount sanitize-selftest > /dev/null

echo "==> static verifier gate"
# Every kernel launch in a full balanced+hash run must carry an access
# contract that proves in-bounds and race-free against the live
# allocation map; tcount exits nonzero on any verifier finding (including
# a Paranoid trace-containment mismatch — a dishonest contract).
./target/release/tcount suite:dblp --backend gtx980/balanced+hash/verify > /dev/null
./target/release/tcount suite:citeseer --backend gtx980/balanced+hash/reorder/sanitize:paranoid/verify > /dev/null

echo "==> verifier seeded-lie self-test"
# Mirror image of the gate above: kernels whose contracts *lie* (footprint
# too narrow, false disjointness claim, understated shared budget,
# out-of-bounds footprint) must each be caught.
./target/release/tcount verify-selftest > /dev/null

echo "==> benchmark self-test"
# The benchmark is a package of its own, outside the workspace, so the
# workspace test run above does not reach it.
cargo test --release -q --manifest-path examples/benchmark/Cargo.toml

echo "==> ci OK"
