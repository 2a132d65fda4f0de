#!/usr/bin/env python3
"""Compare two sets of benchmark runs against the bounds in BENCHMARK.json.

usage: compare.py RUNS_A RUNS_B [--bench PATH]

RUNS_A (the parent) and RUNS_B (the change) are JSON-lines files written by
the benchmark's `--out FILE` option; only untraced lines (`"trace": 0`)
count. For each (workload, end-to-end metric) the script prints both sides'
median and quartiles and a verdict:

  ok          B's median is no worse than A's by more than the bound;
  regressed   it is worse by more than the bound;
  unresolved  A's own spread (quartile distance over median) is wider than
              the bound, and not every B run reads better than every A run.

It exits 1 on any `regressed` row, on a metric missing from either side,
and on any rise in the share of failed operations (failed / attempted).
Python 3 standard library only.
"""

import json
import statistics
import sys
from pathlib import Path


def load_runs(path):
    """{workload: {"values": {metric: [v...]}, "failed": n, "attempted": n}}"""
    runs = {}
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            row = json.loads(line)
            if row.get("trace", 0):
                continue
            side = runs.setdefault(
                row["workload"], {"values": {}, "failed": 0, "attempted": 0}
            )
            result = row["result"]
            side["failed"] += result["failed"]
            side["attempted"] += result["attempted"]
            for name, metric in result["metrics"].items():
                side["values"].setdefault(name, []).append(metric["value"])
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a, b, better, bound):
    """Return (verdict, how much worse B's median is as a share of A's,
    A's spread)."""
    q1a, meda, q3a = quartiles(a)
    _, medb, _ = quartiles(b)
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (medb - meda) / meda if meda else (0.0 if medb == meda else float("inf"))
    spread = (q3a - q1a) / meda if meda else 0.0
    if better == "lower":
        all_better = max(b) < min(a)
    else:
        all_better = min(b) > max(a)
    if spread > bound and not all_better:
        return "unresolved", worse, spread
    if worse > bound:
        return "regressed", worse, spread
    return "ok", worse, spread


def fmt(values):
    q1, med, q3 = quartiles(values)
    return f"{med:.6g} [{q1:.6g}, {q3:.6g}]"


def main(argv):
    args = [a for a in argv[1:]]
    bench = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
    if "--bench" in args:
        i = args.index("--bench")
        bench = Path(args[i + 1])
        del args[i : i + 2]
    if len(args) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    spec = json.loads(bench.read_text())
    runs_a, runs_b = load_runs(args[0]), load_runs(args[1])

    bad = False
    print(f"{'workload':16} {'metric':12} {'unit':5} {'A median [q1, q3]':34} "
          f"{'B median [q1, q3]':34} {'worse':>8} {'spread':>7} {'bound':>6}  verdict")
    for w in spec["workloads"]:
        name = w["name"]
        if name not in runs_a or name not in runs_b:
            print(f"{name:16} (no runs on {'A' if name not in runs_a else 'B'})")
            continue
        a, b = runs_a[name], runs_b[name]
        for m in spec["end_to_end"]:
            va, vb = a["values"].get(m["name"]), b["values"].get(m["name"])
            if not va or not vb:
                print(f"{name:16} {m['name']:12} missing")
                bad = True
                continue
            v, worse, spread = verdict(va, vb, m["better"], m["bound"])
            bad |= v == "regressed"
            print(f"{name:16} {m['name']:12} {m['unit']:5} {fmt(va):34} {fmt(vb):34} "
                  f"{worse * 100:+7.2f}% {spread * 100:6.2f}% {m['bound'] * 100:5.1f}%  {v}")
        frac_a = a["failed"] / max(a["attempted"], 1)
        frac_b = b["failed"] / max(b["attempted"], 1)
        if frac_b > frac_a:
            print(f"{name:16} failed ops rose: {frac_a:.4g} -> {frac_b:.4g}")
            bad = True
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
