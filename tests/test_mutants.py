"""The mutant list of `tools/mutate.py` stays applicable to the code."""

import importlib.util
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# a digest fails on any changed output byte, so its kill says nothing about
# whether a verdict check works
DIGESTS = ("test_verify_all_json_is_pinned", "test_op_json_output_is_pinned")


def _tool(name):
    spec = importlib.util.spec_from_file_location(
        name, ROOT / "tools" / ("%s.py" % name))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _mutants():
    return _tool("mutants").MUTANTS


def test_each_mutant_anchor_occurs_once_and_names_existing_tests():
    mutants = _mutants()
    assert len({m.name for m in mutants}) == len(mutants)
    for m in mutants:
        assert m.path.startswith("src/"), m.name
        assert (ROOT / m.path).read_text().count(m.anchor) == 1, m.name
        assert m.replacement != m.anchor, m.name
        assert m.tests, m.name
        for test in m.tests:
            path, _, name = test.partition("::")
            assert path.startswith("tests/"), test
            assert not name or "\ndef %s(" % name in (
                ROOT / path).read_text(), test


def test_no_mutant_is_killed_by_a_digest():
    for m in _mutants():
        for test in m.tests:
            path, _, name = test.partition("::")
            assert name not in DIGESTS, (m.name, test)
            # a whole file runs every test in it, digests included
            assert name or not any("\ndef %s(" % d in (ROOT / path).read_text()
                                   for d in DIGESTS), (m.name, test)


def test_a_run_past_its_limit_is_stopped_as_a_timeout(tmp_path):
    (tmp_path / "test_sleep.py").write_text(
        "import time\n\n\ndef test_sleep():\n    time.sleep(60)\n")
    start = time.perf_counter()
    outcome, secs = _tool("mutate").run_tests(tmp_path, ["test_sleep.py"],
                                              limit=1)
    assert outcome == "timeout" and 1 <= secs < 10
    assert time.perf_counter() - start < 10
