"""Exit-code contract of ``irboost.cli.main`` under generated input.

Whatever the argument vector, count file or CSV file, the CLI exits 0
(success), 2 (malformed input) or 3 (I/O failure), and no exception
escapes it: a traceback on stderr is always a bug.  Argument values are
drawn from pools of valid, out-of-range and unparsable tokens; sizes that
set the amount of work (--n-points) stay small.  Every output path lies
in a per-example temporary directory.
"""

import contextlib
import io
import os
import tempfile

from hypothesis import example, given, settings
from hypothesis import strategies as st

from irboost.cli import main
from irboost.sweep import CSV_HEADER

FUZZ = settings(max_examples=120, deadline=None, derandomize=True)

NUMBERS = st.sampled_from(
    ["0", "1", "0.5", "0.25", "-0", "-0.1", "1.5", "3.14159", "1e-300", "1e309",
     "-1e309", "nan", "inf", "-inf", "", "x", "0x1p-3", "1,2", "١"]
)
INTS = st.sampled_from(["0", "1", "2", "7", "-1", "-5", "1e3", "x", "", "18446744073709551616"])
BIG_INTS = st.sampled_from(["1", "10", "100", "10000", "1000000000000", "999999999999999", str(10**30)])
SEEDS = st.sampled_from(["0", "3", "-1", "18446744073709551615", "18446744073709551616", str(2**70), "s"])
PARAMS = st.lists(NUMBERS, min_size=0, max_size=4).map(",".join)


def _flag(name, values):
    return st.tuples(st.just(name), values).map(list)


POINT_FLAGS = st.one_of(
    _flag("--mode", st.sampled_from(["analytic", "montecarlo", "exact"])),
    _flag("--n-per-arm", st.one_of(INTS, BIG_INTS)),
    _flag("--seed", SEEDS),
    _flag("--format", st.sampled_from(["csv", "json", "xml"])),
)
SWEEP_FLAGS = st.one_of(
    POINT_FLAGS,
    _flag("--model", st.sampled_from(["classical", "quantum", "urn"])),
    _flag("--n-points", INTS),
    _flag("--exclusion-margin", NUMBERS),
)
SIMULATE_FLAGS = st.one_of(
    _flag("--model", st.sampled_from(["classical", "quantum", "urn"])),
    _flag("--params", PARAMS),
    _flag("--n-per-arm", st.one_of(INTS, BIG_INTS)),
    _flag("--seed", SEEDS),
)
OUT = st.sampled_from([None, "out.txt", "missing/out.txt", "."])


def _command(name, positional, flags):
    return st.tuples(
        st.just([name]), positional, st.lists(flags, max_size=5).map(lambda fs: sum(fs, []))
    ).map(lambda parts: sum(parts, []))


ARGV = st.one_of(
    _command("classical", st.lists(NUMBERS, min_size=0, max_size=4), POINT_FLAGS),
    _command("quantum", st.lists(NUMBERS, min_size=0, max_size=3), POINT_FLAGS),
    _command("sweep", st.just([]), SWEEP_FLAGS),
    _command("simulate", st.just([]), SIMULATE_FLAGS),
    st.lists(st.sampled_from(["estimate", "gnuplot", "frobnicate", "--help", "-h", "--seed"]), max_size=3),
)

COUNT_TOKENS = st.sampled_from(
    ["0", "1", "5", "10", "100", "-3", "2.5", "x", "#", "# comment", "1" + "0" * 400, "١٠"]
)
SEPARATORS = st.sampled_from([" ", "\n", "\t", "\n# note\n"])
COUNT_FILES = st.one_of(
    st.lists(st.tuples(COUNT_TOKENS, SEPARATORS).map("".join), max_size=7).map(lambda ts: "".join(ts).encode()),
    st.text(max_size=60).map(str.encode),
    st.binary(max_size=60),
)

CSV_FIELDS = st.sampled_from(
    ["classical", "quantum", "0.5", "0.2", "1", "0", "2", "-1", "nan", "inf", "", "true", "false", "x", '"', "a,b"]
)
CSV_ROWS = st.lists(st.lists(CSV_FIELDS, min_size=0, max_size=9), max_size=4)
# eight-field rows near what export_csv writes: known and unknown models,
# empty or stray parameter columns, flags other than true/false
CSV_SHAPED_ROWS = st.lists(
    st.tuples(
        st.sampled_from(["classical", "quantum", "empirical", "bogus", ""]),
        st.lists(st.sampled_from(["0.5", "0.2", "1", ""]), min_size=3, max_size=3),
        st.lists(st.sampled_from(["0.5", "-1", "2", ""]), min_size=2, max_size=2),
        st.lists(st.sampled_from(["true", "false", "yes", "True", ""]), min_size=2, max_size=2),
    ).map(lambda t: [t[0], *t[1], *t[2], *t[3]]),
    max_size=4,
)
CSV_FILES = st.one_of(
    st.tuples(st.booleans(), st.one_of(CSV_ROWS, CSV_SHAPED_ROWS)).map(
        lambda t: "\n".join(",".join(r) for r in ([CSV_HEADER] if t[0] else []) + t[1]).encode()
    ),
    st.text(max_size=80).map(str.encode),
    st.binary(max_size=80),
)


def run_main(argv, out=None):
    """(exit code, stderr) of one in-process CLI call; any exception that
    escapes main fails the test with its traceback."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        argv = [a.replace("{tmp}", tmp) for a in argv]
        if out is not None:
            argv += ["--out", os.path.join(tmp, out)]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse usage errors and --help
                code = exc.code
    return code, err.getvalue()


def check(code, stderr):
    assert code in (0, 2, 3), (code, stderr)
    assert "Traceback" not in stderr, stderr


def run_on_file(command, content, extra):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input")
        with open(path, "wb") as fh:
            fh.write(content)
        return run_main([command, path, *extra])


@FUZZ
@given(argv=ARGV, out=OUT)
@example(argv=["simulate", "--model", "classical", "--params", "0.5,0.5,0.5", "--n-per-arm", str(10**30)], out=None)
@example(argv=["sweep", "--model", "quantum", "--mode", "montecarlo", "--n-points", "7",
               "--n-per-arm", "1000000000000"], out="out.txt")
def test_argv_exit_codes(argv, out):
    check(*run_main(argv, out))


@FUZZ
@given(content=COUNT_FILES, extra=st.sampled_from([[], ["--format", "json"]]))
@example(content=b"10 4 2 1 3", extra=["--format", "json"])
@example(content=("1" + "0" * 400 + " 1 0 0 0").encode(), extra=[])
def test_count_file_exit_codes(content, extra):
    check(*run_on_file("estimate", content, extra))


@FUZZ
@given(content=CSV_FILES)
@example(content=(",".join(CSV_HEADER) + "\n" + "x" * 140_000 + ",1,1,1,1,1,true,true\n").encode())
@example(content=(",".join(CSV_HEADER) + "\nclassical,0.5,0.5,0.2,0.5,0.6,true,true\n").encode())
@example(content=(",".join(CSV_HEADER) + "\nbogus,0.5,0.5,0.5,1,2,yes,true\n").encode())
@example(content=(",".join(CSV_HEADER) + "\nquantum,1,0.5,0.5,1,2,true,true\n").encode())
def test_csv_file_exit_codes(content):
    check(*run_on_file("gnuplot", content, []))


@FUZZ
@given(rows=CSV_SHAPED_ROWS)
@example(rows=[["classical", "0.5", "0.5", "0.2", "", "2", "true", "true"]])
@example(rows=[["quantum", "1", "0.5", "", "0.5", "2", "false", "true"]])
def test_csv_rows_export_csv_could_write_are_read(rows):
    def writable(model, p1, p2, p3, a, delta, a_ok, b_ok):
        n = {"classical": 3, "empirical": 3, "quantum": 2}.get(model)
        params_ok = n is not None and all((p1, p2, p3)[:n]) and not any((p1, p2, p3)[n:])
        # a value is written exactly when its flag is true
        values_ok = (bool(a), bool(delta)) == (a_ok == "true", b_ok == "true")
        return params_ok and {a_ok, b_ok} <= {"true", "false"} and values_ok

    content = "\n".join(",".join(r) for r in [CSV_HEADER, *rows]).encode()
    code, stderr = run_on_file("gnuplot", content, [])
    assert code == (0 if all(writable(*r) for r in rows) else 2), stderr


def test_missing_and_directory_paths_exit_3():
    # one error line that names the path; a directory opens, and its read
    # is what fails
    with tempfile.TemporaryDirectory() as tmp:
        missing = os.path.join(tmp, "no-such-file")
        for command in ("estimate", "gnuplot"):
            for path, reason in ((missing, "No such file or directory"), (tmp, "Is a directory")):
                code, stderr = run_main([command, path])
                assert code == 3, stderr
                assert stderr.count("\n") == 1, stderr
                assert stderr.endswith(f"{reason}: {path!r}\n"), stderr
                assert "Traceback" not in stderr, stderr
