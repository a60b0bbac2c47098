"""Benchmark of eudoxus: four closed-loop workloads, end to end or traced.

    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload runs in fresh worker processes
(worker.py), one at a time.  With --trace 0 the workload is set up
SETUP_SAMPLES times (setup_s is the median) and the last worker then times
whole passes over the op list for at least S seconds; the end-to-end metrics
are printed.  With --trace 1 one worker alternates untraced and traced passes
and the per-layer metrics are printed.  Every metric is printed on a `METRIC`
line with its unit; the last line of output is one JSON object.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_SAMPLES = 3
TIME_LIMIT_S = 170.0
WORKLOADS = ("ratio_roundtrip", "cut_bracket", "cone_analyze", "cone_queries")


def worker(workload, seed, seconds, trace, setup_only, deadline):
    argv = [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed),
            repr(seconds), "1" if trace else "0", "1" if setup_only else "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=max(deadline - time.monotonic(), 1.0))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("worker for %s exited with %d:\n%s" % (
            workload, proc.returncode, proc.stderr[-2000:]))
    return json.loads(lines[-1])


def run_workload(workload, seed, seconds, trace, deadline):
    setups = []
    if not trace:
        setups = [worker(workload, seed, seconds, trace, True, deadline)
                  for _ in range(SETUP_SAMPLES - 1)]
    result = worker(workload, seed, seconds, trace, False, deadline)
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in result["metrics"].items()}
    notes = dict(result["notes"])
    if not trace:
        setups.append(result)
        metrics["setup_s"] = {"value": statistics.median(s["setup_s"] for s in setups),
                              "unit": "s"}
        notes["setup_samples_s"] = [s["setup_s"] for s in setups]
        notes["setup_samples_unscaled_s"] = [s["setup_unscaled_s"] for s in setups]
    attempted, failed = result["attempted"], result["failed"]
    print("ENV %s" % json.dumps(result["environment"], sort_keys=True))
    print("RUN %s seed=%d trace=%d %s" % (workload, seed, trace,
                                         json.dumps(notes, sort_keys=True)))
    for label in sorted(set(failed)):
        print("FAILED %s x%d" % (label, failed.count(label)))
    print("METRIC %s fail_frac %r 1" % (workload, len(failed) / attempted))
    for name in sorted(metrics):
        print("METRIC %s %s %r %s" % (workload, name, metrics[name]["value"],
                                      metrics[name]["unit"]))
    return {"correct": not failed, "attempted": attempted, "failed": len(failed),
            "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isdir(os.path.join(ROOT, "src", "eudoxus")):
        sys.stderr.write("error: run from a checkout of eudoxus (src/eudoxus not found)\n")
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + TIME_LIMIT_S * len(names)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace, deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {"%s.%s" % (w, m): v for w, r in results.items()
                        for m, v in r["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
