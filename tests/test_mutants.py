"""The mutant list of `tools/mutate.py` stays applicable to the code."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _mutants():
    spec = importlib.util.spec_from_file_location(
        "mutants", ROOT / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.MUTANTS


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
