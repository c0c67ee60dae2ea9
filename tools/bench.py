"""Compare two revisions on the benchmark of `BENCHMARK.json`.

    python3 tools/bench.py --base HEAD~1 --head HEAD --label NAME \\
        --workload invariants --seeds 61 62 63 --seconds 10

Exports each revision with `git archive` into a temporary directory, then
runs `python3 perfbench/run.py --workload W --seed S --seconds N` from both
exports as subprocesses, one at a time: one pair per seed, and the side
that runs first alternates from pair to pair.  Writes `BENCH_<label>.json`
at the repository root with, per workload and end-to-end metric: the
median and the quartiles of each side, the relative change of the
medians, the pairs the head won, the bound of `BENCHMARK.json` and whether
the change stays inside it.  The benchmark itself is run unchanged.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def quartiles(values):
    """(first quartile, median, third quartile) of one side's runs."""
    values = sorted(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def _worse_by(base, head, better):
    """How much worse head is than base, relative to base (negative when
    head is better)."""
    if base == 0:
        return 0.0 if head == base else float("inf")
    change = (head - base) / abs(base)
    return change if better == "lower" else -change


def summarize(pairs, spec):
    """The comparison of one workload from its result lines.

    pairs is a list of (base line, head line), each the decoded last line
    of `perfbench/run.py`; spec is `BENCHMARK.json`.  For each end-to-end
    metric: both sides' quartiles, the change of the medians, the pairs
    the head won (strictly better), the bound and whether the head's
    median stays within it; also whether every run was correct.
    """
    metrics = {}
    for entry in spec["end_to_end"]:
        name, better = entry["name"], entry["better"]
        base = [b["metrics"][name]["value"] for b, _h in pairs]
        head = [h["metrics"][name]["value"] for _b, h in pairs]
        bq1, bmed, bq3 = quartiles(base)
        hq1, hmed, hq3 = quartiles(head)
        won = sum(_worse_by(b, h, better) < 0 for b, h in zip(base, head))
        worse_by = _worse_by(bmed, hmed, better)
        metrics[name] = {
            "unit": entry["unit"], "better": better,
            "base": {"median": bmed, "q1": bq1, "q3": bq3, "runs": base},
            "head": {"median": hmed, "q1": hq1, "q3": hq3, "runs": head},
            "change": _worse_by(bmed, hmed, "lower"),
            "pairs_won": won, "pairs": len(pairs),
            "bound": entry["bound"],
            "within_bound": worse_by <= entry["bound"],
            # better in the median by more than the base's spread
            "gain_beyond_base_iqr": (worse_by < 0
                                     and abs(hmed - bmed) > bq3 - bq1),
        }
    return {"all_correct": all(b["correct"] and h["correct"]
                               for b, h in pairs),
            "metrics": metrics}


def export(rev, dest):
    """Write the tree of rev into dest; return its full commit id."""
    commit = subprocess.run(["git", "rev-parse", "--verify", rev + "^{commit}"],
                            cwd=ROOT, capture_output=True, text=True,
                            check=True).stdout.strip()
    tar = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT,
                         capture_output=True, check=True).stdout
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")
    return commit


def run_once(tree, workload, seed, seconds):
    """The result line of one benchmark run from an exported tree."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit("perfbench/run.py exited %d in %s"
                         % (proc.returncode, tree))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True)
    parser.add_argument("--head", required=True)
    parser.add_argument("--label", required=True)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    with tempfile.TemporaryDirectory(prefix="cobcalc-bench-") as tmp:
        trees = {side: Path(tmp) / side for side in ("base", "head")}
        revisions = {side: export(getattr(args, side), trees[side])
                     for side in trees}
        workloads = {}
        for workload in args.workload:
            pairs = []
            for i, seed in enumerate(args.seeds):
                order = ("base", "head") if i % 2 == 0 else ("head", "base")
                line = {side: run_once(trees[side], workload, seed,
                                       args.seconds) for side in order}
                pairs.append((line["base"], line["head"]))
                print("%s seed %d: solve_s %.4f -> %.4f" % (
                    workload, seed, line["base"]["metrics"]["solve_s"]["value"],
                    line["head"]["metrics"]["solve_s"]["value"]), flush=True)
            workloads[workload] = summarize(pairs, spec)
    doc = {"label": args.label, "base": revisions["base"],
           "head": revisions["head"], "seeds": args.seeds,
           "seconds": args.seconds, "python": platform.python_version(),
           "cpu_count": os.cpu_count(),
           "bytecode_written": not (sys.dont_write_bytecode
                                    or os.environ.get(
                                        "PYTHONDONTWRITEBYTECODE")),
           "workloads": workloads}
    out = ROOT / ("BENCH_%s.json" % args.label)
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print("wrote %s" % out.name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
