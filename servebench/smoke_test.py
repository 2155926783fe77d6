#!/usr/bin/env python3
"""The benchmark's own tests: every workload in both modes, smoke size.

    python3 servebench/smoke_test.py

Runs `run.py --smoke` (a 3,000-vertex graph, a few seconds each) and checks
the output contract against BENCHMARK.json: the last stdout line is one JSON
object with exactly correct / attempted / failed / metrics, the run is
correct, and the metrics are exactly the end_to_end (--trace 0) or
per_layer (--trace 1) names with their units. It also runs one workload
twice on a seed, to check that the exact counts repeat. Exits 1 on the
first failure.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--workload",
         workload, "--seed", str(seed), "--seconds", "2", "--trace",
         str(trace)], cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            before = len(failures)
            code, lines = run(workload, 7, trace)
            what = "%s --trace %d" % (workload, trace)
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                failures.append("%s: last line is not JSON" % what)
                print("FAIL", what, flush=True)
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                failures.append("%s: keys %s" % (what, sorted(result)))
            if code != 0 or not result.get("correct") or result.get("failed"):
                failures.append("%s: exit %d, %s" % (what, code, lines[-2:]))
            got = {k: v.get("unit") for k, v in result["metrics"].items()}
            if got != want[trace]:
                failures.append("%s: metrics differ from BENCHMARK.json: %s"
                                % (what, sorted(set(got) ^ set(want[trace]))))
            print("FAIL" if len(failures) > before else "ok  ", what,
                  flush=True)
    # Same seed again: the canary compares the exact counts with the run
    # above and fails the run if they differ.
    code, lines = run("mutate_full", 7, 1)
    if code != 0 or "inputs differ" in "\n".join(lines):
        failures.append("mutate_full repeat: counts differ")
    for f in failures:
        print("FAIL", f)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
