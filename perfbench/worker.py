"""Benchmark worker: one fresh interpreter that sets up a workload and runs it.

    python perfbench/worker.py --workload W --seed N --seconds S --trace 0|1
                               --scratch DIR [--setup-only]

Set-up (imports, geometry construction, warm-up) ends with a `READY` line on
stdout; the parent times the interval from spawning this process to that
line. Then the worker runs whole passes of the workload in a closed loop, one
op at a time, checks every op outside the timed region, and prints one JSON
line with the latencies, failures and peak memory. With `--trace 1` it runs
half the time untraced and half traced, and adds the per-layer summary,
divided by the number of traced passes so that it describes one pass.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import resource
import sys
import time
import traceback

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracing import Tracer, install  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def run_phase(workload, seconds, tracer=None):
    """Run whole passes until the timed wall time is nearest `seconds`.

    A pass is always completed; another starts while the elapsed time plus
    half a mean pass is short of `seconds`. Returns the per-op latencies, the
    failure reasons, the number of passes and the timed wall time.
    """
    latencies, failures = [], []
    passes, elapsed = 0, 0.0
    while True:
        for item in workload.pass_items(passes):
            start = time.perf_counter()
            try:
                if tracer is None:
                    output = workload.run(item)
                else:
                    output = tracer.run_op(len(latencies), workload.run, item)
                reason = None
            except Exception:  # an op that raises is a failed op; keep going
                output, reason = None, traceback.format_exc(limit=3)
            latency = time.perf_counter() - start
            latencies.append(latency)
            elapsed += latency
            if reason is None:
                try:
                    reason = workload.check(item, output)
                except Exception:  # a check that cannot run fails its op
                    reason = traceback.format_exc(limit=3)
            if reason is not None:
                failures.append(reason)
        passes += 1
        if elapsed + 0.5 * elapsed / passes >= seconds:
            return latencies, failures, passes, elapsed


def blas_threads():
    """Thread count of each loaded OpenBLAS, read through its C API."""
    names = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
             "openblas_get_num_threads")
    out = {}
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh
                if "openblas" in line.lower() and ".so" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for name in names:
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[os.path.basename(path)] = fn()
                break
    return out


def environment():
    import importlib.metadata

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nearfield_workers": os.environ.get("NEARFIELD_WORKERS", "unset"),
    }


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

    workload = WORKLOADS[args.workload](root, args.seed, args.scratch)
    workload.warm_up()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    phases = []
    seconds = args.seconds / 2 if args.trace else args.seconds
    phases.append(run_phase(workload, seconds))
    tracer = None
    if args.trace:
        tracer = Tracer()
        install(tracer)
        if hasattr(workload, "trace_spans"):
            def merge(path):
                with open(path) as fh:
                    child = json.load(fh)
                tracer.add_child_spans(child["spans"], child["counts"],
                                       child["workers"],
                                       parent=tracer.current_span())
            workload.trace_spans = merge
        phases.append(run_phase(workload, seconds, tracer))
    peak_kb = getattr(workload, "peak_child_rss_kb", None) or \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {
        "phases": [{"traced": i == 1, "latencies": lat, "passes": passes,
                    "elapsed_s": elapsed}
                   for i, (lat, _, passes, elapsed) in enumerate(phases)],
        "peak_rss_kb": peak_kb,
    }
    if tracer is not None:
        passes = phases[1][2]
        result["layers_per_pass"] = {
            name: {key: value / passes for key, value in entry.items()}
            for name, entry in tracer.summary().items()}
        result["counts_per_pass"] = {k: v / passes for k, v in tracer.counts.items()}
        result["beam_workers"] = tracer.workers
        result["spans_file"] = os.path.join(args.scratch, "spans.json")
        tracer.dump(result["spans_file"])

    result["attempted"] = sum(len(phase[0]) for phase in phases)
    result["failures"] = [reason for phase in phases for reason in phase[1]]
    result["failures"] += workload.final_checks()  # after the trace is taken
    result["work_counts"] = workload.work_counts()
    result["environment"] = environment()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
