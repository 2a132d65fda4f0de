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
#   * process-global mutable state (thread_local!, static mut, static
#     atomics) — per-warp and per-SM state must come through the executor,
#     or results would depend on which host thread ran what before.
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
    /thread_local!|static[ \t]+mut[ \t]|static[ \t]+[A-Za-z_0-9]+[ \t]*:[ \t]*[A-Za-z_0-9:]*Atomic/ {
        printf "%s:%d: process-global mutable state in a deterministic module (pass it through the executor)\n", FILENAME, FNR
        bad = 1
    }
    END { exit bad }
'
echo "deterministic modules are clock-free, hash-order-free and global-free"

echo "==> duplicate JSON helper lint"
# Each serializing layer has exactly one JSON string escaper and one
# non-finite-safe number formatter: crates/simt/src/profiler.rs for the
# simulator's reports, crates/telemetry/src/lib.rs for everything above
# it (a shared crate would add a dependency edge to the benchmark's
# pinned crate graph). A copy anywhere else can drift from the escaping
# and non-finite rules the two homes pin in their unit tests. Flagged,
# outside test modules:
#   * a JSON helper by name (fn json_string / json_str / json_f64 / ...);
#   * an escaper by shape: the \u00XX control-character escape;
#   * a number formatter by shape: is_finite() with a format!("{x}")
#     within the next three lines.
JSON_HOMES="crates/simt/src/profiler.rs crates/telemetry/src/lib.rs"
find crates/*/src src -name '*.rs' -print0 | xargs -0 awk -v homes="$JSON_HOMES" '
    BEGIN { n = split(homes, h, " "); for (i = 1; i <= n; i++) home[h[i]] = 1 }
    FNR == 1 { intest = 0; finite = -10 }
    /#\[cfg\(test\)\]/ { intest = 1 }
    intest || (FILENAME in home) { next }
    /fn[ \t]+[a-z_]*json_(string|str|escape|f64|num)[a-z_]*[ \t]*[(<]/ {
        printf "%s:%d: JSON helper defined outside its layer home\n", FILENAME, FNR
        bad = 1
    }
    /\\\\u\{:04x\}/ {
        printf "%s:%d: JSON string escaper outside its layer home\n", FILENAME, FNR
        bad = 1
    }
    /is_finite\(\)/ { finite = FNR }
    /format!\("\{[a-z_]*\}"/ && FNR - finite <= 3 {
        printf "%s:%d: non-finite number formatter outside its layer home\n", FILENAME, FNR
        bad = 1
    }
    END { exit bad }
'
echo "one JSON escaper and one number formatter per layer"

echo "==> one session type lint"
# Every device of every GPU topology is a PreparedGraph: the single
# device, each multi-GPU replica and each cluster shard is created,
# brought up and counted in crates/core/src/gpu/prepared.rs, and lives
# exactly as long as its session. A device made or a launch dispatched
# anywhere else in crates/core/src/gpu is a second session type in the
# making. Flagged outside test modules: Device::new(, bring_up( and
# dispatch_bins( outside prepared.rs, except dispatch_bins' own
# definition in schedule.rs.
find crates/core/src/gpu -name '*.rs' -print0 | xargs -0 awk '
    FNR == 1 { intest = 0; n = split(FILENAME, parts, "/"); base = parts[n] }
    /#\[cfg\(test\)\]/ { intest = 1 }
    intest || base == "prepared.rs" { next }
    base == "schedule.rs" && /fn dispatch_bins\(/ { next }
    /Device::new\(|bring_up\(|dispatch_bins\(/ {
        printf "%s:%d: device created, brought up or dispatched outside gpu/prepared.rs\n", FILENAME, FNR
        bad = 1
    }
    END { exit bad }
'
# The engine makes no device of its own: its sessions are prepared by
# PreparedGraph::prepare and PreparedCluster::prepare, so a device made in
# crates/engine/src would outlive or be shared across sessions.
find crates/engine/src -name '*.rs' -print0 | xargs -0 awk '
    FNR == 1 { intest = 0 }
    /#\[cfg\(test\)\]/ { intest = 1 }
    intest { next }
    /Device::new\(/ {
        printf "%s:%d: device created in the engine instead of by its session\n", FILENAME, FNR
        bad = 1
    }
    END { exit bad }
'
echo "every GPU device is a PreparedGraph"

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test"
cargo test --workspace --release -q

echo "==> simulator hot-path models under --release"
# The benchmark measures the release build, where integer overflow wraps
# instead of panicking. The cache's u32 LRU tick (renumbered before it
# wraps) and the first-touch set's u32 generation (reset when it wraps)
# are tested across their rollover here, in that build, beside the
# executor that uses both.
cargo test --release -q -p tc-simt --lib -- cache:: coalesce:: executor::

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

echo "==> multi-GPU and split smoke"
# Multi-GPU stripes and split subproblems count through the same bin
# dispatch as the single device; these are their CLI-path canaries:
# sanitizer- and verifier-clean striped hash bins, a verified split, and
# a per-device Chrome trace that must parse.
./target/release/tcount suite:kronecker-8 --backend 2xc2050/balanced+hash/sanitize/verify > /dev/null
./target/release/tcount suite:dblp --backend gtx980/split:3/balanced/verify > /dev/null
# The trace is written twice and must come out byte-identical, and no two
# events on one device thread may partially overlap (every child lies
# inside its parent after nanosecond quantization).
for i in 1 2; do
    ./target/release/tcount suite:dblp --backend 4xc2050 --trace "/tmp/tc_multi_trace$i.json" > /dev/null
done
cmp /tmp/tc_multi_trace1.json /tmp/tc_multi_trace2.json
python3 - <<'PY'
import collections, json
threads = collections.defaultdict(list)
for e in json.load(open("/tmp/tc_multi_trace1.json")):
    if e["ph"] == "X":
        start = round(e["ts"] * 1000)
        threads[e["tid"]].append((start, start + round(e["dur"] * 1000), e["name"]))
assert sorted(threads) == [0, 1, 2, 3], sorted(threads)
for tid, events in threads.items():
    events.sort(key=lambda ev: (ev[0], -ev[1]))
    open_events = []
    for start, end, name in events:
        while open_events and open_events[-1][1] <= start:
            open_events.pop()
        if open_events:
            assert end <= open_events[-1][1], f"tid {tid}: {name} overlaps {open_events[-1][2]}"
        open_events.append((start, end, name))
print(f"multi-GPU trace OK ({sum(map(len, threads.values()))} events, 4 threads)")
PY
# Every GPU topology reports through one `GpuReport`: each prints the
# `gpu:` line, and its profile merges one report per device (split: per
# subproblem run, 7 for three parts).
for spec in gtx980/balanced:1 2xc2050/balanced+hash:2 gtx980/split:3/balanced:7 \
    cluster:2x2/gtx980/balanced:4; do
    backend="${spec%:*}"
    devices="${spec##*:}"
    ./target/release/tcount suite:dblp --backend "$backend" --profile /tmp/tc_topology_profile.json \
        > /tmp/tc_topology_stdout.txt
    grep -q "^  gpu: kernel" /tmp/tc_topology_stdout.txt \
        || { echo "$backend: no gpu: line"; exit 1; }
    python3 -c "import json, sys; d = json.load(open('/tmp/tc_topology_profile.json'))['devices']; \
sys.exit(0 if d == $devices else f'$backend: {d} profiled devices, want $devices')"
done
echo "topology reports OK"

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
# The committed prior artifact still parses.
for path, seq in [("BENCH_5.json", 5)]:
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
# the advisory host-measured section), and so must the batch report but
# for the CPU row's host-measured seconds.
cat > /tmp/tc_telemetry_jobs.txt <<'JOBS'
graph=watts-strogatz backend=gtx980 repeat=3
graph=kronecker-6 backend=gtx980/balanced repeat=2
graph=watts-strogatz backend=forward
JOBS
for w in 1 2 4; do
    TC_TELEMETRY_CI=1 ./target/release/tcount batch /tmp/tc_telemetry_jobs.txt \
        --workers "$w" --json "/tmp/tc_report_w$w.json" --metrics "/tmp/tc_metrics_w$w.json" \
        --prom "/tmp/tc_metrics_w$w.prom" --trace "/tmp/tc_trace_w$w.json" > /dev/null
done
cmp /tmp/tc_metrics_w1.json /tmp/tc_metrics_w2.json
cmp /tmp/tc_metrics_w1.json /tmp/tc_metrics_w4.json
cmp /tmp/tc_trace_w1.json /tmp/tc_trace_w2.json
cmp /tmp/tc_trace_w1.json /tmp/tc_trace_w4.json
python3 - <<'PY'
import json, re
json.load(open("/tmp/tc_metrics_w1.json"))
json.load(open("/tmp/tc_trace_w1.json"))
def report(w):
    text = open(f"/tmp/tc_report_w{w}.json").read()
    json.loads(text)
    # The forward job is timed on the host: mask its two timings.
    return [
        re.sub(r'"(seconds|count_s)": [^,\n]+', r'"\1": host', job)
        if '"backend": "forward"' in job else job
        for job in text.split("\n    }")
    ]
for w in (2, 4):
    assert report(w) == report(1), f"batch report depends on --workers {w}"
PY
echo "telemetry artifacts and batch report byte-identical across workers 1/2/4"

echo "==> launch replay smoke"
# Cache hits count through a resident session whose devices replay the
# kernel launches they already simulated (same kernel, launch config and
# arena bytes). A replay must report exactly what simulating would have:
# every repeat's triangles and count_s equal its first occurrence's, and
# the replay counter shows the memo was actually used.
cat > /tmp/tc_replay_jobs.txt <<'JOBS'
graph=kronecker-10 backend=gtx980 repeat=4
graph=kronecker-10 backend=gtx980/balanced+hash repeat=4
graph=kronecker-10 backend=cluster:2x2/gtx980/balanced repeat=4
JOBS
./target/release/tcount batch /tmp/tc_replay_jobs.txt \
    --json /tmp/tc_replay_report.json --metrics /tmp/tc_replay_metrics.json > /dev/null
python3 - <<'PY'
import json
jobs = json.load(open("/tmp/tc_replay_report.json"))["jobs"]
first = {}
for job in jobs:
    assert job["status"] == "ok", job
    seen = first.setdefault(job["backend"], job)
    for key in ("triangles", "count_s"):
        assert job[key] == seen[key], (job, seen)
assert len(first) == 3 and len(jobs) == 12, jobs
families = json.load(open("/tmp/tc_replay_metrics.json"))["deterministic"]
replays = [f for f in families if f["name"] == "engine_launch_replays_total"]
assert replays, "no engine_launch_replays_total family"
total = sum(s["value"] for s in replays[0]["series"])
assert total > 0, "repeated counts replayed no launch"
print(f"replay smoke OK ({total} launches replayed)")
PY

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
./target/release/tcount suite:kronecker-8 --backend c2050/balanced/sanitize > /dev/null
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
