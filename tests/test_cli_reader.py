"""``cli._read`` against argparse under generated argument vectors.

``cli._parse`` reads an argv of one shape (a subcommand, its positionals,
then whole long options each with one value) straight from the argument
tables, and leaves any other argv to ``build_parser()``.  Wherever the
reader returns a Namespace, argparse must accept the same argv and give the
same values; and ``main`` must give the same exit code, stdout and stderr as
with argparse alone.  The argvs mix subcommand names, every flag, flag
abbreviations, "=" forms, "--", "-h", empty and "-"-leading tokens, and
values that float() and int() read in their own ways, in any order.
"""

import contextlib
import io
import os
import pathlib
import shutil
import tempfile
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from irboost import cli

DATA = pathlib.Path(__file__).parent / "data" / "cli"
READER = settings(max_examples=500, deadline=None, derandomize=True)

COMMANDS = list(cli._COMMANDS)
FLAGS = [name for name in cli._ARGUMENTS if name.startswith("--")]
# values each argument takes, so that many argvs get past argparse
GOOD = {
    "positional": ["0.5", "0.8", "0.2", "counts.txt", "sweep.csv"],
    "--model": ["classical", "quantum"],
    "--params": ["1.0,0.5", "0.5,0.8,0.2"],
    "--n-points": ["3"],
    "--mode": ["analytic", "montecarlo"],
    "--n-per-arm": ["50"],
    "--exclusion-margin": ["0.01"],
    "--seed": ["3"],
    "--out": ["out.txt"],
    "--format": ["csv", "json"],
}
VALUES = st.sampled_from(
    ["0.5", "0.8", "0.2", "1", "3", "0", "nan", "inf", " 7", "1_0", "١", "",
     "-1", "-0.5", "-h", "--", "-", "x", "classical", "quantum", "urn", "analytic",
     "montecarlo", "csv", "json", "xml", "1.0,0.5", "counts.txt", "sweep.csv", "out.txt"]
)
ANY_FLAG = st.one_of(
    st.sampled_from(FLAGS),
    st.sampled_from(FLAGS).map(lambda flag: flag[:5]),  # an abbreviation
    st.tuples(st.sampled_from(FLAGS), VALUES).map("=".join),
    st.sampled_from(["--", "-h", "--help", "-x"]),
)
TOKENS = st.one_of(st.sampled_from(COMMANDS), ANY_FLAG, VALUES)


def _value(name):
    """A token for ``name``, two times in three one of its good values."""
    good = st.sampled_from(GOOD[name])
    return st.one_of(good, good, VALUES)


def _option(flags):
    return st.sampled_from(flags).flatmap(
        lambda flag: st.tuples(st.just(flag), _value(flag)).map(list)
    )


def _shaped(command):
    """argvs of the shape the reader takes, from tokens that it may not;
    each required option comes first, so that some get past argparse."""
    names = cli._COMMANDS[command][1]
    own = [name for name in names if name.startswith("-")]
    arity = len(names) - len(own)
    required = [_option([name]) for name in own if cli._ARGUMENTS[name].get("required")]
    options = st.one_of(_option(own), _option(own), st.tuples(ANY_FLAG, VALUES).map(list))
    return st.tuples(
        st.lists(_value("positional"), min_size=arity, max_size=arity),
        st.tuples(*required).map(list),
        st.lists(options, max_size=4),
    ).map(lambda parts: [command, *parts[0], *sum(parts[1] + parts[2], [])])


SHAPED = st.sampled_from(COMMANDS).flatmap(_shaped)
ARGV = st.one_of(SHAPED, SHAPED.flatmap(st.permutations), st.lists(TOKENS, max_size=8))


def _values(namespace):
    return repr(sorted(vars(namespace).items()))  # nan != nan, but reprs match


def _outcome(call, argv):
    """(exit code, stdout, stderr) of ``call(argv)``, run in a fresh directory
    that holds a count file and a sweep CSV."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for name in ("counts.txt", "sweep.csv"):
            shutil.copy(DATA / name, tmp)
        os.chdir(tmp)  # any --out lands here
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = call(argv)
                except SystemExit as exc:
                    code = exc.code
        finally:
            os.chdir(cwd)
    return code, out.getvalue(), err.getvalue()


def _full(argv):
    return cli.build_parser().parse_args(argv)


@READER
@given(argv=ARGV)
@example(argv=["classical", "0.5", "0.8", "0.2", "--out", "-h"])
@example(argv=["classical", "0.5", "0.8", "0.2", "--format", "xml"])
@example(argv=["sweep", "--n-points", "3"])
@example(argv=["quantum", "nan", " 7", "--n-per-arm", "1_0", "--seed", "١"])
@example(argv=["sweep", "--model", "urn", "--model", "quantum", "--n-points", "3"])
def test_reader_is_argparse(argv):
    # a sweep of argparse's default 10,000 points would make each example
    # slow; both routes read the default from the same table
    with mock.patch.dict(cli._ARGUMENTS["--n-points"], default=3):
        read = cli._read(argv)
        if read is not None:
            try:
                with contextlib.redirect_stderr(io.StringIO()):
                    full = _full(argv)
            except SystemExit:
                raise AssertionError(f"argparse rejects {argv}, which was read") from None
            assert _values(read) == _values(full)
        with mock.patch.object(cli, "_parse", _full):
            expected = _outcome(cli.main, argv)
        assert _outcome(cli.main, argv) == expected
