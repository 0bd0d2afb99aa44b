"""In-memory span tracing around the public functions of `nearfield`.

Each traced function is replaced, at every name a caller looks it up by,
with a wrapper that records a span (id, parent id, name, start, end, op).
Spans stay in memory and are written out once, when the run ends. A few
wrappers also record work counts computed from their arguments, and the row
function of `beam.beam_pattern_map` records the threads that run it.

Run as a script, this module is a traced stand-in for
`python -m nearfield.cli`:

    python perfbench/tracing.py --spans out.json -- <subcommand> --config ...

It installs the wrappers, runs `nearfield.cli.main` and writes the spans and
counts to the given file.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

#: CLI runners that the shipped configs call (`run_beam_depth` has no config).
CLI_RUNNERS = (
    "regions", "gain_sweep", "beam_width", "heatmap", "g_of_x", "depth_plan",
    "zf_sinr", "los_capacity", "mode_patterns", "capacity_vs_bandwidth",
    "capacity_vs_frequency", "dof",
)

#: Traced functions as "<module>.<attribute>[.<attribute>]" under `nearfield`.
TRACED = (
    ("config.load_config",)
    + tuple(f"cli.run_{name}" for name in CLI_RUNNERS)
    + (
        "cli.CsvSeries.write",
        "field.element_field_integrals",
        "field.fresnel_channel_vector",
        "beam.array_gain_exact",
        "beam.beam_pattern_map",
        "depth_mux.build_mu_channel",
        "depth_mux.zf_precoder",
        "depth_mux.matched_filter_precoder",
        "depth_mux.evaluate_sinr",
        "mimo_los.capacity_waterfilling",
        "mimo_los.mode_analysis",
        "mimo_los.capacity_frequency_sweep",
        "numerics.hermitian_eig",
        "numerics.solve_scalar_root",
        "numerics.fresnel_cs",
    )
)


def _map_counts(a):
    points = len(a["x_grid"]) * len(a["z_grid"])
    return {"beam.map_points": points,
            "beam.element_map_points": a["geom"].num_elements * points}


#: Work counts computed from the bound arguments of a traced call.
COUNTERS = {
    "field.element_field_integrals": lambda a: {
        "field.element_points": a["geom"].num_elements},
    "beam.beam_pattern_map": _map_counts,
    "depth_mux.build_mu_channel": lambda a: {
        "depth_mux.users": len(a["users"])},
}


#: Every count a counter can record.
COUNT_NAMES = ("field.element_points", "beam.map_points",
               "beam.element_map_points", "depth_mux.users")


class Tracer:
    """Collects spans and counts in memory."""

    def __init__(self):
        self.spans = []  # (id, parent, name, start, end, op)
        self.counts = defaultdict(int)
        self.workers = 0  # most threads that ran one beam_pattern_map's rows
        self.row_threads = set()
        self.op = None
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs):
        counter = COUNTERS.get(name)
        if counter is not None:
            bound = inspect.signature(fn).bind(*args, **kwargs)
            for key, value in counter(bound.arguments).items():
                self.counts[key] += value
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        if name == "beam.beam_pattern_map":
            self.row_threads = set()
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, parent, name, start, end, self.op))
            if name == "beam.beam_pattern_map":
                self.workers = max(self.workers, len(self.row_threads))

    def count_row_threads(self, fn):
        """Wrap the row function of `beam_pattern_map` to note its threads."""
        @functools.wraps(fn)
        def row(*args, **kwargs):
            self.row_threads.add(threading.get_ident())
            return fn(*args, **kwargs)
        return row

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)
        return traced

    def current_span(self):
        stack = self._stack()
        return stack[-1] if stack else 0

    def run_op(self, op, fn, *args):
        """Run one benchmark op under a root span named "op"."""
        self.op = op
        return self.call("op", fn, args, {})

    def add_child_spans(self, spans, counts, workers, parent):
        """Merge the spans, counts and `beam.workers` of a traced child
        process under span `parent`, as part of the current op.

        `time.perf_counter` reads CLOCK_MONOTONIC, which child processes share,
        so their start and end times are comparable with ours.
        """
        remap = {0: parent}
        for span in spans:
            remap[span[0]] = next(self._ids)
        for span_id, child_parent, name, start, end, _ in spans:
            self.spans.append((remap[span_id], remap[child_parent], name,
                               start, end, self.op))
        for key, value in counts.items():
            self.counts[key] += value
        self.workers = max(self.workers, workers)

    def summary(self):
        """Per traced name: calls, busy seconds, and self seconds (busy time
        minus the time covered by direct child spans)."""
        child_time = defaultdict(float)
        for _, parent, _, start, end, _ in self.spans:
            if parent:
                child_time[parent] += end - start
        out = {}
        for span_id, _, name, start, end, _ in self.spans:
            entry = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["busy_s"] += end - start
            entry["self_s"] += end - start - child_time[span_id]
        return out

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "parent", "name", "start", "end", "op"],
                       "spans": self.spans, "counts": dict(self.counts),
                       "workers": self.workers}, fh)


def install(tracer):
    """Wrap every traced function that is loaded, at every lookup site.

    Names imported with `from .x import f` are separate module attributes,
    and `cli.RUNNERS` holds the runners themselves, so every attribute of a
    loaded `nearfield` module (and every `RUNNERS` value) that is the
    original function object is replaced by the one wrapper.
    `beam._pattern_row` is looked up at call time inside `beam_pattern_map`,
    so replacing the module attribute reaches its thread pool.
    """
    modules = {name: mod for name, mod in list(sys.modules.items())
               if name == "nearfield" or name.startswith("nearfield.")}
    for qualname in TRACED:
        mod_name, *attrs = qualname.split(".")
        owner = modules.get(f"nearfield.{mod_name}")
        if owner is None:
            continue
        for attr in attrs[:-1]:
            owner = getattr(owner, attr)
        original = getattr(owner, attrs[-1])
        wrapper = tracer.wrap(qualname, original)
        setattr(owner, attrs[-1], wrapper)
        for mod in modules.values():
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
            runners = vars(mod).get("RUNNERS")
            if isinstance(runners, dict):
                for key, value in runners.items():
                    if value is original:
                        runners[key] = wrapper
    beam = modules.get("nearfield.beam")
    if beam is not None:
        beam._pattern_row = tracer.count_row_threads(beam._pattern_row)


def main(argv):
    if len(argv) < 3 or argv[0] != "--spans" or argv[2] != "--":
        print("usage: tracing.py --spans FILE -- <nearfield cli arguments>",
              file=sys.stderr)
        return 2
    import nearfield.cli

    tracer = Tracer()
    install(tracer)
    try:
        return nearfield.cli.main(argv[3:])
    finally:
        tracer.dump(argv[1])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
