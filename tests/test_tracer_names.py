"""Every name the benchmark's tracer patches still exists.

`perfbench/tracer.py` wraps names in the byrne modules to split a replay's
time and call counts by layer, and skips a name it cannot find, so a rename
would silently empty those metrics instead of failing the run.
"""

from __future__ import annotations

import importlib
import importlib.util

import pytest
from conftest import REPO


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", REPO / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = _tracer_module()

# The matcher's entry points, counted per call where each layer imports them.
COUNTED = [
    ("patterns", "unify"),
    ("patterns", "parse_keyed"),
    ("emotions", "match_all"),
    ("emotions", "unify"),
    ("textgen", "match_all"),
    ("behaviors", "match_all"),
    ("behaviors", "unify"),
]
PATCHED = [("pipeline", name) for name in TRACER.SPANNED] + COUNTED


@pytest.mark.parametrize("module, name", PATCHED, ids=[f"{m}.{n}" for m, n in PATCHED])
def test_the_tracer_wraps_a_name_that_exists(module, name):
    mod = importlib.import_module(f"byrne.{module}")
    original = getattr(mod, name)
    with TRACER.Tracer().installed():
        assert getattr(mod, name) is not original
    assert getattr(mod, name) is original
