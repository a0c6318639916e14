"""Mutation gate: each known way to break the code must fail a named test.

    python .github/scripts/mutants.py

Each entry of MUTANTS names a file, an exact string in it, the string that
replaces it and a pytest selection.  For each mutant the script copies the
checkout it sits in to a temporary directory, makes that one replacement
there and runs the selection against the copy: the mutant is killed if the
selection fails, and survived if it passes.  The unmutated copy must pass
every selection first, so a kill is the mutant's and not a broken test's.
The checkout itself is never written.  Exits 0 when every mutant is
killed, 1 otherwise.

tests/test_mutants.py checks in tier-1 that each ``old`` string occurs
exactly once in its file, so an entry cannot rot silently when code moves.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[2]
STREAM = "src/irboost/stream.py"
CLASSICAL = "src/irboost/classical.py"
QUANTUM = "src/irboost/quantum.py"
CLI = "src/irboost/cli.py"


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant(
        "group-runs-past-a-starved-arm",
        STREAM,
        "            except ArmStarvation:\n                break\n",
        "            except ArmStarvation:\n                continue\n",
        ("tests/test_stream.py::TestArmCalls::test_point_stops_a_flag_at_its_first_starved_arm",),
    ),
    Mutant(
        "full-run-one-group",
        STREAM,
        "_EACH_ARM = tuple((index,) for index in range(len(_ARMS)))",
        "_EACH_ARM = (tuple(range(len(_ARMS))),)",
        ("tests/test_stream.py::TestArmCalls::test_run_with_a_starved_arm",),
    ),
    Mutant(
        "boost-arms-reversed",
        STREAM,
        "_BOOST_ARMS = (3, 4)",
        "_BOOST_ARMS = (4, 3)",
        ("tests/test_stream.py::TestArmCalls::test_point_stops_a_flag_at_its_first_starved_arm",),
    ),
    Mutant(
        "substream-skips-no-block",
        STREAM,
        "start = 4 * (index + 1)",
        "start = 4 * index",
        ("tests/test_stream.py::TestArmKeying::test_substream_i_is_pcg64_from_words_4i_plus_4",),
    ),
    Mutant(
        "pool-mixing-step-dropped",
        STREAM,
        "in enumerate(_MIX_STEPS):",
        "in enumerate(_MIX_STEPS[:3]):",
        ("tests/test_stream.py::TestArmKeying::test_seed_words_are_numpys",),
    ),
    Mutant(
        "sweep-seeds-second-child",
        STREAM,
        "root = np.random.SeedSequence(seed, spawn_key=(0,))",
        "root = np.random.SeedSequence(seed, spawn_key=(1,))",
        ("tests/test_sweep.py::TestSweepMonteCarlo::test_points_run_with_their_documented_seeds",),
    ),
    Mutant(
        "quantum-boost-sign",
        QUANTUM,
        "return (cos_alpha - cos_phi) / (1.0 + cos_phi)",
        "return (cos_phi - cos_alpha) / (1.0 + cos_phi)",
        ("tests/test_quantum.py::TestBoostQuantum",),
    ),
    Mutant(
        "classical-boost-sum",
        CLASSICAL,
        "return (q_r - q_n) * (1.0 - p) / (q_r * p + q_n * (1.0 - p))",
        "return (q_r + q_n) * (1.0 - p) / (q_r * p + q_n * (1.0 - p))",
        ("tests/test_classical.py::TestBoostClassical::test_route_equivalence",),
    ),
    Mutant(
        "quantum-accardi-sign",
        QUANTUM,
        "return 0.5 * (1.0 + cos_phi_minus_alpha / cos_alpha)",
        "return 0.5 * (1.0 - cos_phi_minus_alpha / cos_alpha)",
        ("tests/test_quantum.py::TestAccardiQuantum::test_witness_above_one",),
    ),
    Mutant(
        "classical-accardi-flag-at-margin",
        CLASSICAL,
        "return abs(q_r - q_n) > margin",
        "return abs(q_r - q_n) >= margin",
        ("tests/test_classical.py::TestFlags::test_accardi_needs_the_rates_apart_by_more_than_the_margin",),
    ),
    Mutant(
        "classical-boost-flag-at-margin",
        CLASSICAL,
        "return (p > margin) &",
        "return (p >= margin) &",
        ("tests/test_classical.py::TestFlags::test_boost_needs_the_prior_above_the_margin",),
    ),
    Mutant(
        "quantum-accardi-flag-at-margin",
        QUANTUM,
        "return abs(cos_alpha) > margin",
        "return abs(cos_alpha) >= margin",
        ("tests/test_quantum.py::TestFlags::test_accardi_needs_cos_alpha_beyond_the_margin",),
    ),
    Mutant(
        "quantum-boost-flag-at-margin",
        QUANTUM,
        "return (1.0 + cos_phi) / 2.0 > margin",
        "return (1.0 + cos_phi) / 2.0 >= margin",
        ("tests/test_quantum.py::TestFlags::test_boost_needs_the_prior_above_the_margin",),
    ),
    Mutant(
        "malformed-input-exits-1",
        CLI,
        'print(f"irboost: error: {exc}", file=sys.stderr)\n        return 2',
        'print(f"irboost: error: {exc}", file=sys.stderr)\n        return 1',
        ("tests/test_cli.py::TestEstimateCommand::test_malformed_exits_2",),
    ),
    Mutant(
        "io-error-exits-2",
        CLI,
        'print(f"irboost: i/o error: {exc}", file=sys.stderr)\n        return 3',
        'print(f"irboost: i/o error: {exc}", file=sys.stderr)\n        return 2',
        ("tests/test_cli.py::TestOutFileRewrite::test_failed_write_is_cut_where_it_stopped",),
    ),
    Mutant(
        "help-width-one-column-wide",
        CLI,
        "width=shutil.get_terminal_size().columns - 2",
        "width=shutil.get_terminal_size().columns - 1",
        ("tests/test_cli.py::TestHelpText::test_stock_rendering",),
    ),
)

# caches and benchmark output (.bench_out alone can hold tens of MB), which
# no selection reads
_SKIP = shutil.ignore_patterns(
    ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".bench_*"
)


def _copy_tree(dest: Path, mutant: Mutant | None) -> None:
    shutil.copytree(ROOT, dest, ignore=_SKIP)
    if mutant is not None:
        path = dest / mutant.file
        text = path.read_text()
        if text.count(mutant.old) != 1:
            raise SystemExit(f"{mutant.name}: its old string is not once in {mutant.file}")
        path.write_text(text.replace(mutant.old, mutant.new))


def _passes(tree: Path, tests) -> bool:
    """Whether the selection passes against the sources under ``tree``."""
    # no bytecode: a mutant the same size as the original, written within
    # the second, must not run the original's cached bytecode
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    if proc.returncode not in (0, 1):  # 1: tests failed; others: no run
        raise SystemExit(f"pytest exited {proc.returncode} on {tests}:\n{proc.stdout}{proc.stderr}")
    return proc.returncode == 0


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="irboost-mutants-") as tmp:
        clean = Path(tmp) / "clean"
        _copy_tree(clean, None)
        if not _passes(clean, [t for m in MUTANTS for t in m.tests]):
            print("the unmutated tree fails the selections; no mutant was run")
            return 1
        survived = 0
        for i, mutant in enumerate(MUTANTS):
            tree = Path(tmp) / f"mutant-{i}"
            _copy_tree(tree, mutant)
            alive = _passes(tree, mutant.tests)
            shutil.rmtree(tree)
            survived += alive
            print(f"{'SURVIVED' if alive else 'killed'}  {mutant.name}", flush=True)
    print(f"{len(MUTANTS) - survived} of {len(MUTANTS)} mutants killed")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
