"""The mutation gate's table (.github/scripts/mutants.py) still fits the code.

The gate itself runs outside tier-1; this only checks, in milliseconds, that
each mutant still names code that exists and tests that exist, so a table
that no longer applies fails here rather than in the gate alone, where a
selection that names no test stops pytest with exit 4.
"""

import ast
import importlib.util
import pathlib
import re

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
        _resolve(test)


def test_names_are_unique():
    names = [m.name for m in mutants.MUTANTS]
    assert len(set(names)) == len(names)


def _resolve(node_id):
    """Fail unless pytest node id ``node_id`` names a file, and in it the
    classes and the function its parts name, nested in that order; a
    parametrized test's ``[param]`` id is not checked."""
    path, *parts = re.sub(r"\[.*\]$", "", node_id).split("::")
    assert (ROOT / path).is_file(), node_id
    body = ast.parse((ROOT / path).read_text()).body
    for part in parts:
        defs = {
            node.name: node
            for node in body
            if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        }
        assert part in defs, node_id
        body = defs[part].body
