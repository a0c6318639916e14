"""The mutation gate's table (.github/scripts/mutants.py) still fits the code.

The gate itself runs outside tier-1; this only checks, in milliseconds, that
each mutant still names code that exists, so a table that no longer applies
fails here rather than in the gate alone.
"""

import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).parents[1]
_spec = importlib.util.spec_from_file_location(
    "irboost_mutants", ROOT / ".github" / "scripts" / "mutants.py"
)
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_entry_applies_once(mutant):
    assert (ROOT / mutant.file).read_text().count(mutant.old) == 1
    assert mutant.new != mutant.old
    assert mutant.tests
    for test in mutant.tests:
        assert (ROOT / test.split("::")[0]).is_file(), test
