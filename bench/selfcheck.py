"""Self-check of the benchmark; run from the root of a checkout:

    python3 bench/selfcheck.py

1. Two traced runs of each workload at one seed report exactly equal counts
   (every per-layer metric whose unit is not seconds or a ratio).
2. In each traced run the layers' self times add up to the traced pass's wall
   time, up to the time the harness loop spends outside the op and check
   spans, which must stay within the measured tracing overhead or 1% of the
   pass, whichever is larger.
3. Every workload runs clean (no failed op) on the hold-out seed.
Exits 0 when all hold, 1 otherwise.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHECK_SEED = 0
# Not used while the benchmark was written; later claims must hold here too.
HOLDOUT_SEED = 20121022
WORKLOADS = ("ratio_roundtrip", "cut_bracket", "cone_analyze", "cone_queries")


def run(workload, seed, trace):
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError("%s exited %d: %s" % (" ".join(argv), proc.returncode, proc.stderr))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    problems = []
    for workload in WORKLOADS:
        first, second = run(workload, CHECK_SEED, 1), run(workload, CHECK_SEED, 1)
        for name, metric in first["metrics"].items():
            if metric["unit"] in ("s", "ratio"):
                continue
            if metric["value"] != second["metrics"][name]["value"]:
                problems.append("%s: %s differs between runs: %r vs %r" % (
                    workload, name, metric["value"], second["metrics"][name]["value"]))
        for result in (first, second):
            m = {name: metric["value"] for name, metric in result["metrics"].items()}
            wall, gap = m["trace.wall_s"], m["trace.wall_s"] - m["trace.self_sum_s"]
            allowed = max(m["trace.overhead_frac"], 0.01) * wall
            print("%s traced: wall %.4f s, self times %.4f s, overhead %.2f%%" % (
                workload, wall, m["trace.self_sum_s"], 100 * m["trace.overhead_frac"]))
            if not 0.0 <= gap <= allowed:
                problems.append("%s: self times miss the wall time by %.4f s (allowed %.4f s)"
                                % (workload, gap, allowed))
        holdout = run(workload, HOLDOUT_SEED, 0)
        print("%s hold-out seed %d: %d of %d ops failed" % (
            workload, HOLDOUT_SEED, holdout["failed"], holdout["attempted"]))
        if holdout["failed"] or not holdout["correct"]:
            problems.append("%s: ops failed on the hold-out seed" % workload)
    for problem in problems:
        print("PROBLEM " + problem)
    print("selfcheck %s" % ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
