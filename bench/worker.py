"""One workload in one fresh process: set up, then time passes over the op list.

Started by run.py as
    python3 bench/worker.py WORKLOAD SEED SECONDS TRACE SETUP_ONLY
It pins BLAS to one thread and limits its own address space before numpy is
imported, and prints one JSON object as its last line of output.
"""

import os
import resource
import sys
import time

SETUP_START = time.perf_counter()

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

# An input that asks for more address space raises MemoryError and counts as
# a failed op, instead of exhausting the machine's memory.
ADDRESS_SPACE_LIMIT = 3 << 30
resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_LIMIT, ADDRESS_SPACE_LIMIT))

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import json  # noqa: E402
import statistics  # noqa: E402
from fractions import Fraction  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

# The shared host's speed drifts by up to 2x over seconds to minutes, for
# every process alike, and interpreted Python slows down more than dense
# LAPACK work.  Each run therefore times a reference kernel that does the kind
# of work its workload spends most time in (no eudoxus code) every
# REFERENCE_EVERY_S between ops, and scales each op's latency to a host on
# which the kernel takes its nominal time (about its time on the idle host
# the benchmark was written on), using the median of the last
# REFERENCE_WINDOW samples.  The unscaled values are printed too.
REFERENCE_EVERY_S = 0.1
REFERENCE_WINDOW = 5
SETUP_REFERENCES = 15
_TALL = np.random.default_rng(0).standard_normal((600, 30))


def _fractions_and_small_numpy():
    total = Fraction(0)
    for i in range(1, 300):
        total += Fraction(i, i + 1)
    a = np.arange(64.0).reshape(8, 8)
    a = a + a.T
    for _ in range(100):
        np.linalg.eigh(a)
        np.linalg.norm(a @ a)


def _dense_svd():
    np.linalg.svd(_TALL, full_matrices=True)


# workload -> (reference kernel, nominal time in seconds); cone_analyze spends
# most of its time in full SVDs of tall matrices, the others in the interpreter
REFERENCES = {"ratio_roundtrip": (_fractions_and_small_numpy, 0.004),
              "cut_bracket": (_fractions_and_small_numpy, 0.004),
              "cone_analyze": (_dense_svd, 0.0125),
              "cone_queries": (_fractions_and_small_numpy, 0.004)}


class HostSpeed:
    """Reference-kernel samples taken while a workload runs."""

    def __init__(self, workload):
        self.kernel, self.nominal = REFERENCES[workload]
        self.samples = []
        self.due = 0.0

    def sample(self):
        t0 = time.perf_counter()
        self.kernel()
        self.samples.append(time.perf_counter() - t0)
        self.due = time.perf_counter() + REFERENCE_EVERY_S

    def sample_if_due(self):
        if time.perf_counter() >= self.due:
            self.sample()

    def scale(self):
        """Factor that converts a time measured now to the nominal host."""
        return self.nominal / statistics.median(self.samples[-REFERENCE_WINDOW:])


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": "%s %s" % (blas.get("name"), blas.get("version")),
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "nproc": len(os.sched_getaffinity(0)),
            "rlimit_as_bytes": ADDRESS_SPACE_LIMIT}


def run_pass(ops, tracer=None, host=None):
    """Each op once, in order: returns per-op latencies and failed labels.
    With `host`, also the factor that scales each latency to the nominal host."""
    latencies, factors, failed = [], [], []
    for label, run, check in ops:
        if host:
            host.sample_if_due()
        if tracer:
            tracer.begin("bench.op")
            tracer.active = True
        t0 = time.perf_counter()
        try:
            out, ok = run(), True
        except Exception:  # an op that raises, MemoryError included, fails
            out, ok = None, False
        latencies.append(time.perf_counter() - t0)
        if host:
            host.sample_if_due()  # so an op longer than the cadence has a sample after it
            factors.append(host.scale())
        if tracer:
            tracer.active = False
            tracer.end()
            tracer.begin("bench.check")
        if ok:
            try:
                ok = bool(check(out))
            except Exception:
                ok = False
        if tracer:
            tracer.end()
        if not ok:
            failed.append(label)
    return latencies, factors, failed


def summarise(passes):
    """Per op-list entry the median latency over passes; metrics over those."""
    medians = sorted(statistics.median(column) for column in zip(*passes))
    n = len(medians)
    tail_rank = max(n - 11, 0)  # ten entries lie beyond it
    return {"ops_per_s": n / sum(medians),
            "op_p50_ms": statistics.median(medians) * 1e3,
            "op_tail_ms": medians[tail_rank] * 1e3}, tail_rank


def end_to_end(ops, seconds, host):
    """Whole passes until `seconds` have elapsed."""
    passes, scaled_passes, walls, failed = [], [], [], []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        latencies, factors, bad = run_pass(ops, host=host)
        walls.append(time.perf_counter() - t0)
        passes.append(latencies)
        scaled_passes.append([t * f for t, f in zip(latencies, factors)])
        failed += bad
    scaled, tail_rank = summarise(scaled_passes)
    units = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms"}
    metrics = {name: (value, units[name]) for name, value in scaled.items()}
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    n = len(ops)
    notes = {"passes": len(passes), "op_entries": n,
             "tail_percentile": round(100.0 * tail_rank / max(n - 1, 1), 2),
             "samples_beyond_tail": n - 1 - tail_rank, "pass_walls_s": walls,
             "reference_samples": len(host.samples),
             "reference_median_s": statistics.median(host.samples),
             "unscaled": summarise(passes)[0]}
    return metrics, len(passes) * n, failed, notes


def layer_metrics(names, tracer, self_s):
    calls, _, queries = tracer.aggregate()
    brackets = calls.get("exact_rational.stern_brocot_bracket", 0)
    in_brackets = queries.get("exact_rational.stern_brocot_bracket", 0)
    out = {}
    for name in names:
        base, _, kind = name.rpartition(".")
        if kind == "calls":
            out[name] = (calls.get(base, 0), "count")
        elif kind == "self_s":
            out[name] = (self_s.get(base, 0.0), "s")
        elif kind == "bytes":
            out[name] = (tracer.bytes.get(base, 0), "bytes")
        elif name == "exact_rational.queries_per_bracket":
            out[name] = (in_brackets / brackets if brackets else 0.0, "queries/bracket")
        elif name in tracer.counts:
            out[name] = (tracer.counts[name], "count")
    return out


def traced(ops, seconds, names, spans_path):
    """Pairs of an untraced and a traced pass, in alternating order, until
    `seconds` have elapsed.  Counts, spans and the self-time sum come from
    the first traced pass; per-layer self times and the overhead are medians
    over the pairs."""
    walls = {False: [], True: []}
    self_runs, failed = [], []
    first = None  # the first traced pass, the only one whose spans are kept

    def one_pass(trace):
        nonlocal first
        tracer = tracing.Tracer() if trace else None
        undo = tracing.install(tracer) if trace else []
        try:
            t0 = time.perf_counter()
            failed.extend(run_pass(ops, tracer)[2])
            walls[trace].append(time.perf_counter() - t0)
        finally:
            tracing.uninstall(undo)
        if trace:
            self_runs.append(tracer.aggregate()[1])
            first = first or tracer

    start = time.perf_counter()
    while not self_runs or time.perf_counter() - start < seconds:
        traced_first = len(self_runs) % 2 == 1
        one_pass(traced_first)
        one_pass(not traced_first)
    self_s = {k: statistics.median(run.get(k, 0.0) for run in self_runs)
              for k in set().union(*self_runs)}
    metrics = layer_metrics(names, first, self_s)
    metrics["trace.wall_s"] = (walls[True][0], "s")
    metrics["trace.self_sum_s"] = (sum(self_runs[0].values()), "s")
    metrics["trace.overhead_frac"] = (
        statistics.median(walls[True]) / statistics.median(walls[False]) - 1.0, "ratio")
    with open(spans_path, "w") as fh:
        fh.write("name\tstart_s\tend_s\tparent\toracle_queries\n")
        for span in first.spans:
            fh.write("%s\t%.9f\t%.9f\t%d\t%d\n" % tuple(span))
    notes = {"pairs": len(self_runs), "untraced_walls_s": walls[False],
             "traced_walls_s": walls[True], "spans_file": spans_path,
             "spans_first_pass": len(first.spans)}
    return metrics, 2 * len(self_runs) * len(ops), failed, notes


def main(argv):
    workload, seed, seconds, trace, setup_only = argv
    seed, seconds, trace = int(seed), float(seconds), trace == "1"
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    ops = workloads.build(workload, seed, out_dir)
    setup_s = time.perf_counter() - SETUP_START
    host = HostSpeed(workload)
    for _ in range(SETUP_REFERENCES):
        host.sample()
    result = {"setup_s": setup_s * host.scale(), "setup_unscaled_s": setup_s,
              "environment": environment()}
    if setup_only == "0":
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        if trace:
            names = [m["name"] for m in spec["per_layer"]]
            spans = os.path.join(out_dir, "spans-%s-%d.tsv" % (workload, seed))
            metrics, attempted, failed, notes = traced(ops, seconds, names, spans)
        else:
            metrics, attempted, failed, notes = end_to_end(ops, seconds, host)
        result.update(metrics=metrics, attempted=attempted, failed=failed, notes=notes)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
