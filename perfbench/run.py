"""The nearfield benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a checkout. Workloads, metrics and bounds are listed in
BENCHMARK.json; perfbench/NOTES.md explains them. The last line of stdout is
one JSON object {"correct", "attempted", "failed", "metrics"}: the end-to-end
metrics with `--trace 0`, the per-layer metrics with `--trace 1`. The line
before it holds the environment block and the details behind the metrics.
Everything a run writes goes to .perfbench_out/ in the checkout.

`--smoke` runs every workload for one pass in both modes and validates each
result against the metric names and units in BENCHMARK.json.

This parent process only orchestrates and uses the standard library; the
work happens in child interpreters (perfbench/worker.py), so set-up time and
peak memory are those of a fresh process.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time

from tracing import COUNT_NAMES, TRACED

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
#: Set-ups per untraced run; `setup_s` is their median.
SETUP_RUNS = 5
#: Fresh-interpreter imports per module in a traced run; the median is kept.
IMPORT_RUNS = 5
IMPORT_MODULES = ("cli", "numerics", "geometry")
#: Wall-clock budget for a whole run, all child processes included.
RUN_BUDGET_S = 170.0
#: Samples that must lie beyond the latency reported as `op_tail_s`.
TAIL_SAMPLES = 10


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


def check_layout():
    """Refuse to run outside a nearfield checkout."""
    for rel in ("BENCHMARK.json", "src/nearfield/cli.py", "configs", "goldens"):
        if not os.path.exists(os.path.join(ROOT, rel)):
            raise BenchError(f"{rel} not found under {ROOT}; run from a "
                             "nearfield checkout")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def child_env():
    env = dict(os.environ)
    env.pop("NEARFIELD_WORKERS", None)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


class Deadline:
    def __init__(self, seconds):
        self.end = time.monotonic() + seconds

    def left(self):
        left = self.end - time.monotonic()
        if left <= 0:
            raise BenchError("run exceeded its time budget")
        return left


def spawn_worker(args, scratch, deadline, setup_only):
    """Start a worker; return (set-up seconds, its JSON result or None)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", scratch]
    if setup_only:
        cmd.append("--setup-only")
    with open(os.path.join(scratch, "worker.stderr"), "w") as err:
        start = time.perf_counter()
        # A session of its own, so that killing it also ends the CLI
        # processes a cli_figures worker may have running.
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), text=True,
                                stdout=subprocess.PIPE, stderr=err,
                                start_new_session=True)
        watchdog = threading.Timer(deadline.left(), _kill_group, (proc,))
        watchdog.start()
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - start
            out, _ = proc.communicate()
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                _kill_group(proc)
                proc.wait()
    if ready.strip() != "READY" or proc.returncode != 0:
        with open(os.path.join(scratch, "worker.stderr")) as fh:
            tail = fh.read()[-2000:]
        raise BenchError(f"worker failed (exit {proc.returncode}):\n{tail}")
    return setup_s, (None if setup_only else json.loads(out.strip().splitlines()[-1]))


def _kill_group(proc):
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def import_seconds(module, deadline):
    """In-interpreter time of `import nearfield.<module>` in a fresh process."""
    code = ("import time; t = time.perf_counter(); import nearfield.%s; "
            "print(time.perf_counter() - t)" % module)
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(),
                         capture_output=True, text=True, check=True,
                         timeout=deadline.left())
    return float(out.stdout)


def tail_latency(latencies):
    """Latency at the highest percentile with TAIL_SAMPLES samples beyond it
    (nearest rank), with that percentile and the count beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    beyond = min(TAIL_SAMPLES, n - 1)
    return ordered[n - 1 - beyond], 100.0 * (n - beyond) / n, beyond


def git_commit():
    """HEAD of the checkout's own git repository, or "unknown"."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run(args, spec):
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        raise BenchError(f"unknown workload {args.workload!r}")
    deadline = Deadline(RUN_BUDGET_S)
    scratch = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    os.makedirs(scratch, exist_ok=True)

    setups = []
    if not args.trace:
        for _ in range(SETUP_RUNS - 1):
            setups.append(spawn_worker(args, scratch, deadline, True)[0])
    setup_s, result = spawn_worker(args, scratch, deadline, False)
    setups.append(setup_s)

    main_phase = result["phases"][0]
    latencies = main_phase["latencies"]
    tail, tail_pct, beyond = tail_latency(latencies)
    attempted = result["attempted"]
    failed = len(result["failures"])
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(latencies) / main_phase["elapsed_s"],
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": tail,
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
        "success_ratio": (attempted - failed) / attempted,
    }
    details = {
        "samples": len(latencies),
        "passes": main_phase["passes"],
        "timed_s": main_phase["elapsed_s"],
        "op_tail_percentile": tail_pct,
        "op_tail_samples_beyond": beyond,
        "error_ratio": failed / attempted,
        "setup_runs_s": setups,
        "failures": result["failures"][:5],
    }
    metric_specs = spec["end_to_end"]
    if args.trace:
        values = layer_values(result, deadline)
        details["spans_file"] = os.path.relpath(result["spans_file"], ROOT)
        metric_specs = spec["per_layer"]
    metrics = {}
    for m in metric_specs:
        if m["name"] not in values:
            raise BenchError(f"metric {m['name']} is not measured")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}

    environment = dict(result["environment"], nproc=os.cpu_count(),
                       affinity=len(os.sched_getaffinity(0)),
                       git_commit=git_commit(), seed=args.seed,
                       workload=args.workload, seconds=args.seconds,
                       work_counts_per_pass=result["work_counts"])
    info = {"environment": environment, "details": details}
    final = {"correct": failed == 0, "attempted": attempted, "failed": failed,
             "metrics": metrics}
    with open(os.path.join(scratch, "result.json"), "w") as fh:
        json.dump(dict(info, result=final, phases=result["phases"]), fh)
    print(json.dumps(info))
    print(json.dumps(final))


def layer_values(result, deadline):
    """Per-layer metrics of a traced run, per traced pass, plus
    fresh-interpreter import times."""
    values = {f"{name}.{key}": 0 for name in TRACED
              for key in ("calls", "busy_s", "self_s")}
    values.update({name: 0 for name in COUNT_NAMES})
    for name, entry in result["layers_per_pass"].items():
        values[f"{name}.calls"] = _whole(entry["calls"])
        values[f"{name}.busy_s"] = entry["busy_s"]
        values[f"{name}.self_s"] = entry["self_s"]
    imports = {m: [] for m in IMPORT_MODULES}
    for _ in range(IMPORT_RUNS):
        for module in IMPORT_MODULES:
            imports[module].append(import_seconds(module, deadline))
    for module, times in imports.items():
        values[f"import.{module}_s"] = statistics.median(times)
    for name, value in result["counts_per_pass"].items():
        values[name] = _whole(value)
    work = result["work_counts"]
    values["depth_mux.rank_rejected"] = work.get("depth_mux.rank_rejected", 0)
    values["beam.workers"] = result["beam_workers"]
    untraced, traced = result["phases"]
    values["trace.untraced_ops_per_s"] = len(untraced["latencies"]) / untraced["elapsed_s"]
    values["trace.traced_ops_per_s"] = len(traced["latencies"]) / traced["elapsed_s"]
    values["trace.overhead_ratio"] = (values["trace.untraced_ops_per_s"]
                                      / values["trace.traced_ops_per_s"])
    return values


def _whole(value):
    """A count per pass: an int when it is whole, as it is for whole passes."""
    return int(value) if value == int(value) else value


def validate_result(lines, metric_specs):
    """Check the info line and the final result line of one run."""
    problems = []
    info, final = (json.loads(line) for line in lines[-2:])
    if set(final) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(final)}")
    if final.get("correct") is not True:
        problems.append(f"not correct: {info['details'].get('failures')}")
    if not (isinstance(final["attempted"], int) and final["attempted"] >= 1
            and isinstance(final["failed"], int)):
        problems.append("attempted/failed")
    expected = {m["name"]: m["unit"] for m in metric_specs}
    got = {k: v.get("unit") for k, v in final["metrics"].items()}
    if got != expected:
        problems.append(f"metrics differ: {sorted(set(got) ^ set(expected))}")
    for name, entry in final["metrics"].items():
        if not isinstance(entry.get("value"), (int, float)):
            problems.append(f"{name} value {entry.get('value')!r}")
    env = info["environment"]
    for key in ("nproc", "python", "numpy", "scipy", "blas", "blas_threads",
                "nearfield_workers", "git_commit", "seed", "work_counts_per_pass"):
        if key not in env:
            problems.append(f"environment lacks {key}")
    return problems


def smoke(spec):
    """Run every workload for one pass in both modes and validate the output."""
    problems = []
    for workload in spec["workloads"]:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload",
                   workload["name"], "--seed", "1", "--seconds", "0",
                   "--trace", str(trace)]
            start = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=RUN_BUDGET_S + 10)
            label = f"{workload['name']} trace={trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            found = validate_result(proc.stdout.strip().splitlines(),
                                    spec["per_layer" if trace else "end_to_end"])
            problems += [f"{label}: {p}" for p in found]
            print(f"{label}: {'ok' if not found else 'FAIL'} "
                  f"({time.perf_counter() - start:.1f} s)", flush=True)
    for p in problems:
        print(f"problem: {p}")
    print("smoke: " + ("ok" if not problems else f"{len(problems)} problems"))
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    try:
        spec = check_layout()
        if args.smoke:
            return smoke(spec)
        if not args.workload:
            parser.error("--workload is required")
        run(args, spec)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
