"""Checks of the benchmark itself (not part of the cobcalc test suite).

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import common  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, str(common.SRC))


def test_benchmark_json_names_every_metric():
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == tracer.layer_metrics()
    metrics, _attempted, _failed, _info = run.end_to_end(
        [{"solve_s": 1.0, "solve_raw_s": 1.0, "setup_s": 0.1,
          "setup_raw_s": 0.1, "query_p50_s": 0.5, "query_tail_s": 0.9,
          "peak_rss_mb": 30.0, "attempted": 4, "failed": 0, "queries": 4,
          "tail_percentile": 100.0, "mismatches": [], "reference_s": 0.04}],
        ([0.1], [0.1]))
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == [(name, unit) for name, (_v, unit) in metrics.items()]


def test_altered_record_is_reported_as_failure():
    record = workloads.load_record()
    query = "eta --U P1 --p 2"
    expected = record["cli-cold"][query]
    assert run._query(query, expected, False, 0)[1] is None
    altered = dict(expected, sha256="0" * 64)
    assert run._query(query, altered, False, 0)[1]["job"] == query

    worker.setup("phi-grid")
    job = dict(workloads.jobs("phi-grid", 7))["emb@2"]
    outcome = job()
    expected = record["phi-grid"]["emb@2"]
    assert workloads.failures("phi-grid", expected, outcome) == 0
    wrong = dict(expected, cases=expected["cases"] + 1)
    assert workloads.failures("phi-grid", wrong, outcome) == wrong["cases"]
    wrong = {"cases": expected["cases"],
             "summary": {"pass": expected["cases"] - 2, "fail": 2}}
    assert workloads.failures("phi-grid", wrong, outcome) == 1
    assert workloads.failures("phi-grid", expected, wrong) == 2
    assert workloads.failures("phi-grid", expected, {"error": "boom"}) \
        == expected["cases"]
    suite = dict(record["minors"]["minors_suite"], verdict=False)
    assert workloads.failures("minors", suite,
                              record["minors"]["minors_suite"]) == 1


def test_stream_follows_seed_and_is_recorded():
    record = workloads.load_record()["cli-cold"]
    assert workloads.cli_stream(5) == workloads.cli_stream(5)
    assert workloads.cli_stream(5) != workloads.cli_stream(6)
    assert set(workloads.cli_catalogue()) == set(record)
    for seed in range(50):
        assert len(workloads.cli_stream(seed)) == len(workloads.CLI_SLOTS)


_COUNT_SNIPPET = """
import json, sys
sys.path[:0] = [%r, %r]
import tracer
t = tracer.install(tracer.Tracer())
from cobcalc import actions, operations
operations.run_verifier("sop", p=2, seed=3)
actions.prop_xy_series(2)
print(json.dumps({k: v for k, v in t.summary().items()
                  if not k.endswith("_s")}))
"""


def _traced_counts(hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    out = subprocess.run(
        [sys.executable, "-c",
         _COUNT_SNIPPET % (str(common.BENCH_DIR), str(common.SRC))],
        capture_output=True, text=True, env=env, check=True).stdout
    return json.loads(out)


def test_exact_counters_repeat():
    first, second = _traced_counts(1), _traced_counts(2)
    assert first == second
    assert first["series.mul.calls"] > 0
    assert first["count.mul.pairs"] >= first["count.mul.out"] > 0
    assert first["operations.phi.calls"] > 0


_SCALE_SNIPPET = """
import json, sys
from fractions import Fraction
sys.path[:0] = [%r, %r]
import tracer
t = tracer.Tracer()
from cobcalc import fgl
s = fgl.base_context(4, 4).log_t
tracer.install(t)
s * s
3 * s
s * Fraction(1, 2)
s.scale(5)
print(json.dumps([len(s.terms), t.summary()]))
"""


def test_scalar_products_are_not_series_products():
    out = subprocess.run(
        [sys.executable, "-c",
         _SCALE_SNIPPET % (str(common.BENCH_DIR), str(common.SRC))],
        capture_output=True, text=True, check=True).stdout
    terms, summary = json.loads(out)
    assert summary["series.mul.calls"] == 1
    assert summary["series.scale.calls"] == 3
    assert summary["count.mul.pairs"] == terms * terms


def test_tracer_self_and_inclusive_times():
    t = tracer.Tracer()

    def leaf():
        return 1

    traced_leaf = t.wrap("leaf", leaf)

    def outer(depth):
        if depth:
            return traced_outer(depth - 1) + traced_leaf()
        return traced_leaf()

    traced_outer = t.wrap("outer", outer)
    traced_outer(2)
    agg = t.aggregates()
    assert agg["outer"]["calls"] == 3 and agg["leaf"]["calls"] == 3
    total = t.end[0] - t.start[0]
    assert agg["outer"]["incl_s"] == pytest.approx(total)
    assert agg["outer"]["self_s"] + agg["leaf"]["self_s"] \
        == pytest.approx(total)


def test_tail_percentile():
    assert common.tail([3.0, 1.0, 2.0]) == (100.0, 3.0)
    values = [float(i) for i in range(1, 41)]
    assert common.tail(values) == (75.0, 30.0)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(common.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(common.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "minors",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=""))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
