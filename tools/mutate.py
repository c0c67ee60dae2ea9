"""Run the mutants of `tools/mutants.py` and print a kill matrix.

    python tools/mutate.py               # every mutant
    python tools/mutate.py reversion     # mutants whose name contains this

Copies `src` and `tests` to a temporary directory, checks that the named
tests pass there unmutated, then applies one mutant at a time and runs only
the tests that mutant names, one pytest process at a time.  A mutant is
killed when one of its tests fails, or when its run outlasts ten times the
unmutated run (at least 60 s), which prints `timeout`: a mutant may make a
loop endless.  Exits 1 if a mutant not marked equivalent survives, or if a
test fails on the unmutated copy.  Not part of tier-1: it runs the slow
oracle tests once per mutant.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

from mutants import MUTANTS  # noqa: E402


def run_tests(workdir, tests, limit=None):
    """(outcome, seconds) for one pytest run of tests inside workdir; the
    outcome is "pass", "fail", or "timeout" when the run is stopped after
    limit seconds."""
    # no cached bytecode: a mutated file and its restored original may
    # share size and mtime
    env = dict(os.environ, PYTHONPATH=str(workdir / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p",
             "no:cacheprovider", *tests], cwd=workdir, env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=limit)
    except subprocess.TimeoutExpired:
        return "timeout", time.perf_counter() - start
    if proc.returncode not in (0, 1):
        raise SystemExit("pytest exited %d on %s" % (proc.returncode, tests))
    return ("pass" if proc.returncode == 0 else "fail",
            time.perf_counter() - start)


def main(argv):
    chosen = [m for m in MUTANTS if not argv or any(a in m.name for a in argv)]
    with tempfile.TemporaryDirectory(prefix="cobcalc-mutate-") as tmp:
        work = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, work / part,
                            ignore=shutil.ignore_patterns("__pycache__"))
        baseline = sorted({t for m in chosen for t in m.tests})
        outcome, secs = run_tests(work, baseline)
        print("baseline: %s (%.1f s)" % (outcome, secs), flush=True)
        if outcome != "pass":
            return 1
        limit = max(60.0, 10 * secs)
        survivors = 0
        print("%-56s %-9s %7s  %s" % ("mutant", "result", "seconds", "tests"),
              flush=True)
        for m in chosen:
            path = work / m.path
            original = path.read_text()
            if original.count(m.anchor) != 1:
                raise SystemExit("anchor of %r does not occur exactly once "
                                 "in %s" % (m.name, m.path))
            path.write_text(original.replace(m.anchor, m.replacement))
            try:
                outcome, secs = run_tests(work, m.tests, limit)
            finally:
                path.write_text(original)
            if outcome != "pass":
                result = "killed" if outcome == "fail" else outcome
            elif m.equivalent:
                result = "equivalent"
            else:
                result, survivors = "SURVIVED", survivors + 1
            print("%-56s %-9s %7.1f  %s" % (m.name[:56], result, secs,
                                            " ".join(m.tests)), flush=True)
        return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
