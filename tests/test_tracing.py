"""Every name that `perfbench/tracing.py` wraps resolves in `nearfield`,
and every work counter reads the arguments it names.

A traced benchmark run looks each `TRACED` name up with `getattr` once the
CLI is imported, and each `COUNTERS` entry reads its function's arguments
by name, so renaming or deleting one of those functions or arguments
breaks every traced run. These tests break first.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from nearfield import build_upa
# the CLI imports the library modules inside its runners, so each traced
# module is imported here by name
import nearfield.beam  # noqa: F401
import nearfield.cli  # noqa: F401
import nearfield.depth_mux  # noqa: F401
import nearfield.field  # noqa: F401
import nearfield.mimo_los  # noqa: F401

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def traced_names():
    # `install` also wraps the row function of `beam_pattern_map`
    return load_tracing().TRACED + ("beam._pattern_row",)


@pytest.mark.parametrize("qualname", traced_names())
def test_traced_name_resolves(qualname):
    module, *attrs = qualname.split(".")
    owner = sys.modules[f"nearfield.{module}"]
    for attr in attrs:
        owner = getattr(owner, attr)
    assert callable(owner)


GEOM = build_upa(2, 2, 0.025, 0.1)

#: counted name -> (positional arguments of a tiny real call, the counts it
#: records)
COUNTED_CALLS = {
    "field.element_field_integrals": (
        (GEOM, 1.0), {"field.element_points": 4}),
    "beam.beam_pattern_map": (
        (GEOM, (0.0, 0.0, 1.0), [-0.1, 0.1], [0.5, 2.0]),
        {"beam.map_points": 4, "beam.element_map_points": 16}),
    "depth_mux.build_mu_channel": (
        (GEOM, [(0.0, 0.0, 1.0), (0.0, 0.0, 3.0)]), {"depth_mux.users": 2}),
}


def test_every_counter_has_a_call():
    tracing = load_tracing()
    assert set(tracing.COUNTERS) == set(COUNTED_CALLS)
    assert {name for counts in (c for _, c in COUNTED_CALLS.values())
            for name in counts} == set(tracing.COUNT_NAMES)


@pytest.mark.parametrize("qualname", sorted(COUNTED_CALLS))
def test_counter_reads_its_arguments(qualname):
    # the counter binds the call's arguments to the function's signature,
    # and reads them by name
    tracer = load_tracing().Tracer()
    module, attr = qualname.split(".")
    args, counts = COUNTED_CALLS[qualname]
    tracer.call(qualname, getattr(sys.modules[f"nearfield.{module}"], attr),
                args, {})
    assert dict(tracer.counts) == counts
