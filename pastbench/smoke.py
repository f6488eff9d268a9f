#!/usr/bin/env python3
"""Smoke test of the PAST simulator benchmark at tiny sizes.

    python3 pastbench/smoke.py        (from the root of a checkout)

For every workload it runs the end-to-end mode and the traced mode
through run.py and asserts that:
  - every end-to-end metric of the report appears with a unit and a
    sample count, and the result line carries every metric
    BENCHMARK.json names, with the same unit;
  - every correctness check passes and no outcome was wrong;
  - the traced run prints every per-layer metric BENCHMARK.json names,
    and its span file parses and holds spans, GC children and the
    three phase-boundary snapshots;
  - two fixed-step runs of one seed print the same outcome digest.
Exits non-zero on the first failure.
"""

import json
import os
import re
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(BENCH_DIR, "run.py")
SPANS = os.path.join(BENCH_DIR, "_work", "spans")
WORKLOADS = ["lookup_zipf", "turnover_log", "churn"]
REPORT_METRICS = [
    "setup_s", "ops_per_s",
    "lookup_p50_us", "lookup_p99_us", "insert_p50_us", "insert_p99_us",
    "reclaim_p50_us", "reclaim_p99_us",
    "sim_s_per_host_s", "msgs_per_s", "heap_peak_mb", "op_fail_ratio",
]
SEED = 7


def run(workload, trace, *extra):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace), "--size", "tiny", *extra]
    p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
    if p.returncode != 0:
        sys.stdout.write(p.stdout)
        raise SystemExit("FAIL %s: exit code %d" % (" ".join(cmd[1:]), p.returncode))
    return p.stdout


def check(ok, msg):
    if not ok:
        raise SystemExit("FAIL " + msg)


def result_of(out):
    return json.loads(out.strip().splitlines()[-1])


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for w in WORKLOADS:
        out = run(w, 0)
        res = result_of(out)
        check(res["correct"] and res["failed"] == 0, "%s: checks failed\n%s" % (w, out))
        check("[FAIL]" not in out, "%s: a correctness check failed" % w)
        for name in REPORT_METRICS:
            check(re.search(r"^  %s +\S+ \S+ +samples=\d+$" % re.escape(name), out, re.M),
                  "%s: report misses %s with unit and sample count" % (w, name))
        check(set(res["metrics"]) == set(e2e), "%s: result metrics %s" % (w, sorted(res["metrics"])))
        for name, m in res["metrics"].items():
            check(m["unit"] == e2e[name], "%s: %s unit %s" % (w, name, m["unit"]))
            check(m["value"] > 0, "%s: %s is %s" % (w, name, m["value"]))

        out = run(w, 1)
        res = result_of(out)
        check(res["correct"], "%s: traced run checks failed\n%s" % (w, out))
        check(set(res["metrics"]) == set(layers), "%s: per-layer metrics %s" % (w, sorted(res["metrics"])))
        for name, m in res["metrics"].items():
            check(m["unit"] == layers[name], "%s: %s unit %s" % (w, name, m["unit"]))
        with open(os.path.join(SPANS, "spans-%s-%d.json" % (w, SEED))) as f:
            spans = json.load(f)
        check(len(spans["spans"]) > 0 and spans["spans_total"] >= len(spans["spans"]), "%s: no spans" % w)
        check(len(spans["gc"]) > 0, "%s: no GC children" % w)
        check([s["phase"] for s in spans["snapshots"]] == ["setup", "timed", "post"],
              "%s: phase snapshots %s" % (w, [s["phase"] for s in spans["snapshots"]]))
        check(set(spans["per_layer"]) == set(layers), "%s: span file per-layer metrics" % w)

        digests = set()
        for _ in range(2):
            out = run(w, 0, "--steps", "300")
            digests.add(re.search(r"digest ([0-9a-f]+)", out).group(1))
        check(len(digests) == 1, "%s: digests differ across runs of one seed: %s" % (w, digests))
        print("ok %s" % w, flush=True)
    print("smoke test passed")


if __name__ == "__main__":
    main()
