"""Every name that `perfbench/tracing.py` wraps resolves in `nearfield`.

A traced benchmark run looks each `TRACED` name up with `getattr` once the
CLI is imported, so renaming or deleting one of those functions breaks
every traced run. These tests break first.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import nearfield.cli  # noqa: F401  (loads every module the CLI runs)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def traced_names():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    # `install` also wraps the row function of `beam_pattern_map`
    return tracing.TRACED + ("beam._pattern_row",)


@pytest.mark.parametrize("qualname", traced_names())
def test_traced_name_resolves(qualname):
    module, *attrs = qualname.split(".")
    owner = sys.modules[f"nearfield.{module}"]
    for attr in attrs:
        owner = getattr(owner, attr)
    assert callable(owner)
