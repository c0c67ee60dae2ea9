"""The summary of `tools/bench.py` on fixed, fake result lines (no timing)."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _bench():
    spec = importlib.util.spec_from_file_location(
        "bench", ROOT / "tools" / "bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPEC = {"end_to_end": [
    {"name": "solve_s", "unit": "s", "better": "lower", "bound": 0.2},
    {"name": "pass_ratio", "unit": "ratio", "better": "higher",
     "bound": 0.001}]}


def line(solve_s, pass_ratio=1.0, correct=True):
    return {"correct": correct, "attempted": 1, "failed": 0,
            "metrics": {"solve_s": {"value": solve_s, "unit": "s"},
                        "pass_ratio": {"value": pass_ratio,
                                       "unit": "ratio"}}}


def test_quartiles():
    bench = _bench()
    assert bench.quartiles([3.0]) == (3.0, 3.0, 3.0)
    assert bench.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0, 4.0)


def test_summary_of_a_clear_gain():
    bench = _bench()
    base = [0.60, 0.58, 0.62, 0.59, 0.61]
    head = [0.50, 0.49, 0.52, 0.60, 0.51]
    out = bench.summarize([(line(b), line(h)) for b, h in zip(base, head)],
                          SPEC)
    assert out["all_correct"]
    solve = out["metrics"]["solve_s"]
    assert solve["base"] == {"median": 0.60, "q1": 0.59, "q3": 0.61,
                             "runs": base}
    assert solve["head"]["median"] == 0.51
    assert solve["change"] == pytest.approx(-0.15)
    # the fourth pair, 0.59 -> 0.60, is lost
    assert solve["pairs_won"] == 4 and solve["pairs"] == 5
    assert solve["bound"] == 0.2 and solve["within_bound"]
    assert solve["gain_beyond_base_iqr"]
    ratio = out["metrics"]["pass_ratio"]
    assert ratio["change"] == 0 and ratio["pairs_won"] == 0
    assert ratio["within_bound"] and not ratio["gain_beyond_base_iqr"]


def test_summary_of_a_regression_and_a_failed_run():
    bench = _bench()
    pairs = [(line(1.0), line(1.3)), (line(1.1), line(1.4, 0.5, False)),
             (line(0.9), line(1.2))]
    out = bench.summarize(pairs, SPEC)
    assert not out["all_correct"]
    solve = out["metrics"]["solve_s"]
    assert solve["change"] == pytest.approx(0.3)
    assert solve["pairs_won"] == 0 and not solve["within_bound"]
    assert not solve["gain_beyond_base_iqr"]
    ratio = out["metrics"]["pass_ratio"]
    assert ratio["head"]["median"] == 1.0 and ratio["within_bound"]


def test_a_higher_is_better_metric_is_worse_when_it_drops():
    out = _bench().summarize([(line(1.0, 1.0), line(1.0, 0.9))], SPEC)
    ratio, solve = out["metrics"]["pass_ratio"], out["metrics"]["solve_s"]
    assert ratio["change"] == pytest.approx(-0.1)
    assert not ratio["within_bound"] and ratio["pairs_won"] == 0
    assert solve["within_bound"] and solve["pairs_won"] == 0


def test_summary_is_json_and_names_every_end_to_end_metric():
    bench = _bench()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [entry["name"] for entry in spec["end_to_end"]]
    fake = {"correct": True,
            "metrics": {n: {"value": 1.0, "unit": "x"} for n in names}}
    out = bench.summarize([(fake, fake)], spec)
    assert sorted(out["metrics"]) == sorted(names)
    json.dumps(out)


def test_committed_bench_files_follow_the_schema():
    for path in sorted(ROOT.glob("BENCH_*.json")):
        doc = json.loads(path.read_text())
        assert path.name == "BENCH_%s.json" % doc["label"]
        for key in ("base", "head", "seeds", "seconds", "python",
                    "cpu_count", "bytecode_written"):
            assert key in doc, (path.name, key)
        for workload, summary in doc["workloads"].items():
            assert summary["all_correct"], (path.name, workload)
            for name, m in summary["metrics"].items():
                assert m["pairs"] == len(doc["seeds"]), (path.name, name)
                for side in ("base", "head"):
                    s = m[side]
                    assert s["q1"] <= s["median"] <= s["q3"], (path.name,
                                                               name)
