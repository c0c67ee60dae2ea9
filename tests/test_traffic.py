"""The tracing core of `tools/traffic.py` on a small run."""

import importlib.util
from pathlib import Path

from cobcalc import actions

ROOT = Path(__file__).resolve().parents[1]


def _traffic():
    spec = importlib.util.spec_from_file_location(
        "traffic", ROOT / "tools" / "traffic.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_small_minors_run_enters_the_walk_and_no_division():
    traffic = _traffic()
    never, partial = traffic.unused(traffic.trace(
        [lambda: actions.minors_suite(2, 1)]))
    names = {f.qualname for f in never}
    assert "GradedSeries.exact_divide" in names
    assert "laplace_step" not in names
    # no leaf fails, so minors_suite's early return is never run
    left = {f.qualname for f, _lines in partial}
    assert "minors_suite" in left
