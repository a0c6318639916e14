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
exactly once in its file, that each selection names a test that exists and
that no two mutants share a name, so an entry cannot rot silently when code
or tests move.
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
SWEEP = "src/irboost/sweep.py"
PROBCORE = "src/irboost/probcore.py"


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
        "_EACH_ARM = tuple((index,) for index in range(len(_ALL_ARMS)))",
        "_EACH_ARM = (tuple(range(len(_ALL_ARMS))),)",
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
        "draws-budget-inclusive",
        STREAM,
        "    while draws > budget:\n",
        "    while draws >= budget:\n",
        ("tests/test_stream_kernel.py::TestSmallBudgetLaw::test_arm",),
    ),
    Mutant(
        "int-rule-admits-non-integers",
        STREAM,
        "value = low - 1  # not an integer",
        "value = low  # not an integer",
        ("tests/test_stream.py::TestNPerArmRule::test_sim_config_rejects",),
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
        "seed-chunks-overlap",
        STREAM,
        "range(0, seeds.size, _SEED_CHUNK)",
        "range(0, seeds.size, _SEED_CHUNK - 1)",
        ("tests/test_stream.py::TestArmKeying::test_seed_words_are_numpys",),
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
        "classical-accardi-complement",
        CLASSICAL,
        "return params.p\n",
        "return 1.0 - params.p\n",
        ("tests/test_classical.py::TestAccardiClassical::test_equals_prior",),
    ),
    Mutant(
        "quantum-posterior-sign",
        QUANTUM,
        "(1.0 + math.cos(params.alpha))",
        "(1.0 - math.cos(params.alpha))",
        ("tests/test_quantum.py::TestPosteriorQuantum::test_term_equals_relevance",),
    ),
    Mutant(
        "quantum-rate-given-n-sign",
        QUANTUM,
        "(1.0 - ca) / 2.0",
        "(1.0 + ca) / 2.0",
        ("tests/test_quantum.py::TestQuantumRates::test_aligned_states",),
    ),
    Mutant(
        "flags-both-read-off-a",
        SWEEP,
        "return not math.isnan(self.delta)",
        "return not math.isnan(self.a)",
        ("tests/test_sweep.py::TestFlagsReadOffValues::test_eval_point",),
    ),
    Mutant(
        "flags-accardi-read-off-delta",
        SWEEP,
        "return not math.isnan(self.a)",
        "return not math.isnan(self.delta)",
        ("tests/test_sweep.py::TestFlagsReadOffValues::test_eval_point",),
    ),
    Mutant(
        "summary-region-open-at-zero",
        SWEEP,
        "if 0.0 <= pt.a <= 1.0)",
        "if 0.0 < pt.a <= 1.0)",
        ("tests/test_sweep.py::TestSummary::test_a_at_a_bound_of_the_classical_region_is_inside_it",),
    ),
    Mutant(
        "summary-region-open-at-one",
        SWEEP,
        "if 0.0 <= pt.a <= 1.0)",
        "if 0.0 <= pt.a < 1.0)",
        ("tests/test_sweep.py::TestSummary::test_a_at_a_bound_of_the_classical_region_is_inside_it",),
    ),
    Mutant(
        "count-file-n_r-equal-to-n-exceeds-it",
        SWEEP,
        "if n_r > n:",
        "if n_r >= n:",
        ("tests/test_sweep.py::TestEstimateFromFile::test_every_document_relevant",),
    ),
    Mutant(
        "count-file-float-max-out-of-range",
        SWEEP,
        "if n > sys.float_info.max:",
        "if n >= sys.float_info.max:",
        ("tests/test_sweep.py::TestEstimateFromFile::test_n_at_the_float_max_is_in_range",),
    ),
    Mutant(
        "count-file-read-error-names-no-path",
        SWEEP,
        "raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None",
        "raise OSError(exc.errno, exc.strerror) from None",
        ("tests/test_cli_fuzz.py::test_missing_and_directory_paths_exit_3",),
    ),
    Mutant(
        "count-file-one-read",
        SWEEP,
        "while chunk := os.read(fd, 65536):",
        "if chunk := os.read(fd, 65536):",
        ("tests/test_sweep.py::TestEstimateFromFile::test_read_runs_to_the_end_of_a_long_file",),
    ),
    Mutant(
        "count-file-reads-decoded-apart",
        SWEEP,
        'text = b"".join(chunks).decode("utf-8")',
        'text = "".join(chunk.decode("utf-8") for chunk in chunks)',
        ("tests/test_sweep.py::TestEstimateFromFile::test_read_runs_to_the_end_of_a_long_file",),
    ),
    Mutant(
        "accardi-from-counts-keeps-numpy-floats",
        PROBCORE,
        "float(a),  # a float on NumPy integer counts too",
        "a,  # a float on NumPy integer counts too",
        ("tests/test_probcore.py::TestAccardiFromCounts::test_numpy_integer_counts_give_floats",),
    ),
    Mutant(
        "accardi-from-counts-error-terms-reordered",
        PROBCORE,
        "d_dx * se_x,\n        d_dr * se_r,\n        d_dn * se_n,",
        "d_dn * se_n,\n        d_dr * se_r,\n        d_dx * se_x,",
        ("tests/test_probcore.py::TestAccardiFromCounts::test_matches_the_composed_route",),
    ),
    Mutant(
        "accardi-undefined-message-drops-the-rate",
        PROBCORE,
        'f"P(X|R) = P(X|~R) = {rates.p_x_given_r} within tolerance"',
        '"P(X|R) = P(X|~R) within tolerance"',
        ("tests/test_probcore.py::TestAccardiFromCounts::test_tied_rates_message_names_the_rate",),
    ),
    Mutant(
        "arm-counts-admits-infinite-success",
        PROBCORE,
        "-math.inf < k < math.inf)",
        "-math.inf < k <= math.inf)",
        ("tests/test_probcore.py::TestArmCounts::test_rejects_non_finite",),
    ),
    Mutant(
        "arm-counts-empty-total-is-negative",
        PROBCORE,
        "if n < 0 or k < 0:",
        "if n <= 0 or k < 0:",
        ("tests/test_probcore.py::TestArmCounts::test_message_for_success_above_total",),
    ),
    Mutant(
        "usage-error-exits-1",
        CLI,
        "    args = _parse(sys.argv[1:] if argv is None else list(argv))\n",
        "    try:\n"
        "        args = _parse(sys.argv[1:] if argv is None else list(argv))\n"
        "    except SystemExit as exc:\n"
        "        return 1 if exc.code == 2 else exc.code\n",
        ("tests/test_cli.py::TestEstimateCommand::test_takes_no_seed",),
    ),
    Mutant(
        "malformed-input-exits-1",
        CLI,
        'return _report(2, f"irboost: error: {exc}")',
        'return _report(1, f"irboost: error: {exc}")',
        ("tests/test_cli.py::TestEstimateCommand::test_malformed_exits_2",),
    ),
    Mutant(
        "io-error-exits-2",
        CLI,
        'return _report(3, f"irboost: i/o error: {exc}")',
        'return _report(2, f"irboost: i/o error: {exc}")',
        ("tests/test_cli.py::TestOutFileRewrite::test_failed_write_is_cut_where_it_stopped",),
    ),
    Mutant(
        "closed-stdout-unchecked",
        CLI,
        '    elif sys.stdout is None:  # started with stdout closed: nowhere to write\n'
        '        raise OSError("stdout is closed")\n',
        "",
        ("tests/test_cli.py::TestStdioStates::test_closed_stdout_exits_3",),
    ),
    Mutant(
        "closed-stderr-line-to-stdout",
        CLI,
        "    if sys.stderr is None:  # closed at start: print would write to stdout\n"
        "        return code\n",
        "",
        ("tests/test_cli.py::TestStdioStates::test_closed_stderr_keeps_stdout",),
    ),
    Mutant(
        "unwritable-stderr-left-in-place",
        CLI,
        "    except OSError:\n        _to_devnull(sys.stderr)\n",
        "    except OSError:\n        pass\n",
        ("tests/test_cli.py::TestUnwritableStderr::test_keeps_the_exit_code",),
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
