"""The tracing core of `tools/traffic.py` on a small run, and the guard
that `src/cobcalc` holds only what a benchmark job runs or has a reason
listed here to hold."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

from cobcalc import actions

ROOT = Path(__file__).resolve().parents[1]

# Every function that no benchmark job enters, by file and qualified name,
# with the reason it stays in the library.  An error path names the
# negative control that reaches it.
TRACER = "a name perfbench's tracer wraps or reads"
PROTOCOL = "a protocol method"
VERIFY_ALL = "a suite that verify all runs and no job does"
TEXT = "the text output, which no job asks for: every query job reads JSON"
ERROR = "an error path, reached by "
UNENTERED = {
    "actions.py bareiss_det": TRACER,
    "quotient.py FormalP.divide_by_formal_p": TRACER,
    "series.py GradedSeries.terms": TRACER,
    "series.py GradedSeries.exact_divide": TRACER,
    "cli.py _nonnegative":
        ERROR + "tests/test_cli.py::test_bad_args_name_the_problem",
    "series.py FalsificationError.__init__":
        ERROR + ("tests/test_operations.py"
                 "::test_st_refuses_a_gamma_of_another_weight"),
    "series.py NotDivisible.__init__":
        ERROR + "tests/test_series.py::test_exact_divide_integral_flag",
    "verify.py _falsified":
        ERROR + ("tests/test_operations.py"
                 "::test_diagram_reports_a_non_integral_sq_lift"),
    "verify.py _outside":
        ERROR + ("tests/test_operations.py"
                 "::test_multphi_pairs_past_bweight_are_outside"),
    "cli.py _SuiteNames.__iter__": PROTOCOL,
    "fgl.py LazardElement.__repr__": PROTOCOL,
    "series.py VariableTable.__hash__": PROTOCOL,
    "series.py VariableTable.__repr__": PROTOCOL,
    "series.py GradedSeries.__repr__": PROTOCOL,
    "verify.py _suite_case": VERIFY_ALL,
    "verify.py verify_minors": VERIFY_ALL,
    "verify.py verify_thmg": VERIFY_ALL,
    "verify.py verify_xy": VERIFY_ALL,
    "verify.py verify_xy.<locals>.check": VERIFY_ALL,
    "cli.py _cmd_class.<locals>.text": TEXT,
    "series.py GradedSeries.render": TEXT,
    "series.py GradedSeries._coeff_str": TEXT,
}

# a fresh process: no context or descriptor cached by an earlier test
# spares a job the functions that build it
_UNENTERED_BY_JOBS = """
import importlib.util, json, sys
from pathlib import Path
spec = importlib.util.spec_from_file_location("traffic", sys.argv[1])
traffic = importlib.util.module_from_spec(spec)
spec.loader.exec_module(traffic)
never, _partial = traffic.unused(traffic.trace(traffic._jobs()))
print(json.dumps(["%s %s" % (Path(f.path).name, f.qualname) for f in never]))
"""


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


def test_every_function_no_job_enters_has_a_listed_reason():
    """A function that only tests reach cannot come back to src/cobcalc
    unnoticed: the functions no job enters are exactly UNENTERED."""
    out = subprocess.run(
        [sys.executable, "-c", _UNENTERED_BY_JOBS,
         str(ROOT / "tools" / "traffic.py")],
        check=True, capture_output=True, text=True, cwd=ROOT).stdout
    assert sorted(json.loads(out)) == sorted(UNENTERED)
    for reason in UNENTERED.values():
        if reason.startswith(ERROR):
            path, name = reason[len(ERROR):].split("::")
            assert "\ndef %s(" % name in (ROOT / path).read_text(), reason
        else:
            assert reason in (TRACER, PROTOCOL, VERIFY_ALL, TEXT), reason
