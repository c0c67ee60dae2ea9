"""Which functions and lines of `src/cobcalc` the benchmark's jobs run.

    python tools/traffic.py

Runs, in one process, every seed-7 job of the phi-grid, invariants and
minors workloads and every query of the cli-cold catalogue through
`cobcalc.cli.main` (the lists are read from `perfbench/workloads.py`),
traced with `sys.settrace` inside `src/cobcalc` only.  Prints each function
that no job enters, then, for the functions some job enters, the lines that
no job runs.  A function here is a named `def`; the lines of the lambdas
and comprehensions inside it count as its own.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import os
import sys
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "cobcalc"
SEED = 7

Function = namedtuple("Function", "path line qualname lines")


def _named(code):
    return code.co_flags & inspect.CO_OPTIMIZED and code.co_name[0] != "<"


def _own_lines(code):
    """The lines of code and of the anonymous code nested in it."""
    lines = {line for _s, _e, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if inspect.iscode(const) and not _named(const):
            lines |= _own_lines(const)
    return lines


def functions():
    """Every named function under src/cobcalc, with the lines it can run
    (its def or first decorator line left out)."""
    out = []

    def walk(code, path):
        for const in code.co_consts:
            if not inspect.iscode(const):
                continue
            if _named(const):
                first = const.co_firstlineno
                out.append(Function(path, first, const.co_qualname,
                                    _own_lines(const) - {first}))
            walk(const, path)
    for path in sorted(SRC.glob("*.py")):
        walk(compile(path.read_text(), str(path), "exec"), str(path))
    return out


def trace(thunks):
    """(entered, ran) over the calls of thunks: the (path, first line) of
    every function entered and the (path, line) of every line run, both
    inside src/cobcalc."""
    entered, ran, inside = set(), set(), {}
    src = str(SRC) + os.sep

    def local(frame, event, _arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def call(frame, _event, _arg):
        code = frame.f_code
        name = code.co_filename
        if name not in inside:
            inside[name] = os.path.realpath(name).startswith(src)
        if not inside[name]:
            return None
        entered.add((name, code.co_firstlineno))
        return local
    previous = sys.gettrace()
    sys.settrace(call)
    try:
        for thunk in thunks:
            thunk()
    finally:
        sys.settrace(previous)
    real = {name: os.path.realpath(name) for name in inside}
    return ({(real[p], n) for p, n in entered},
            {(real[p], n) for p, n in ran})


def unused(traffic):
    """(functions never entered, [(function, lines not run)] for the
    entered ones that left a line unrun)."""
    entered, ran = traffic
    never, partial = [], []
    for f in functions():
        if (f.path, f.line) not in entered:
            never.append(f)
            continue
        left = sorted(n for n in f.lines if (f.path, n) not in ran)
        if left:
            partial.append((f, left))
    return never, partial


def _spans(lines):
    """'3, 5-7' for [3, 5, 6, 7]."""
    spans, start = [], lines[0]
    for prev, line in zip(lines, lines[1:] + [None]):
        if line != prev + 1:
            spans.append(str(start) if start == prev else
                         "%d-%d" % (start, prev))
            start = line
    return ", ".join(spans)


def _jobs():
    """The seed-7 in-process jobs and the cli-cold catalogue, as thunks."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads
    from cobcalc import cli

    def query(q):
        def run():
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                try:
                    cli.main(workloads.query_argv(q))
                except SystemExit:
                    pass
        return run
    thunks = [thunk for w in ("phi-grid", "invariants", "minors")
              for _label, thunk in workloads.jobs(w, SEED)]
    return thunks + [query(q) for q in workloads.cli_catalogue()]


def main():
    never, partial = unused(trace(_jobs()))
    total = len(functions())
    print("functions no job enters (%d of %d):" % (len(never), total))
    for f in never:
        print("  %s:%d %s" % (Path(f.path).name, f.line, f.qualname))
    print("lines no job runs in the functions entered (%d functions):"
          % len(partial))
    for f, left in partial:
        print("  %s:%d %s: %s" % (Path(f.path).name, f.line, f.qualname,
                                  _spans(left)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
