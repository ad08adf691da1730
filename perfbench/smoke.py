#!/usr/bin/env python3
"""Smoke test for the benchmark: every workload at a tiny size, traced and not.

    python3 perfbench/smoke.py

Run from the root of a refnet checkout.  Fails (exit 1) when a run exits
nonzero, reports an incorrect output, or prints a metric set that differs
from BENCHMARK.json: a missing metric, an extra one, or another unit.
This guards the metric names that later comparisons key on against
silent renames.
"""

import json
import subprocess
import sys


def expected(spec, key):
    return {m["name"]: m["unit"] for m in spec[key]}


def check(spec, workload, trace):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", "1", "--seconds", "1",
        "--trace", str(trace), "--size", "tiny",
    ]
    run = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = run.stdout.strip().splitlines()
    problems = []
    if run.returncode != 0:
        problems.append("exit %d" % run.returncode)
    if not lines:
        return problems + ["no output"]
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return problems + ["last line is not JSON: %r" % lines[-1][:200]]
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append("result keys %s" % sorted(result))
    if result.get("correct") is not True:
        problems.append("correct is %r" % result.get("correct"))
    want = expected(spec, "per_layer" if trace else "end_to_end")
    got = {name: m.get("unit") for name, m in result.get("metrics", {}).items()}
    for name in sorted(set(want) - set(got)):
        problems.append("missing metric %s" % name)
    for name in sorted(set(got) - set(want)):
        problems.append("metric %s is not in BENCHMARK.json" % name)
    for name in sorted(set(want) & set(got)):
        if want[name] != got[name]:
            problems.append("metric %s printed in %s, declared in %s" % (name, got[name], want[name]))
    return problems


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    failed = False
    for w in spec["workloads"]:
        for trace in (0, 1):
            problems = check(spec, w["name"], trace)
            status = "ok" if not problems else "FAIL: " + "; ".join(problems)
            print("%-20s trace=%d %s" % (w["name"], trace, status), flush=True)
            failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
