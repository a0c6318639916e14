import argparse
import hashlib
import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

from irboost import cli
from irboost.cli import main
from irboost.stream import _SEED_CHUNK, SimResult
from irboost.sweep import CSV_HEADER

DATA = pathlib.Path(__file__).parent / "data" / "cli"


def run_cli(*args, check=True):
    proc = subprocess.run(
        [sys.executable, "-m", "irboost", *args],
        capture_output=True,
        text=True,
    )
    if check:
        assert proc.returncode == 0, proc.stderr
    return proc


class TestPointCommands:
    def test_classical_csv(self):
        proc = run_cli("classical", "0.5", "0.8", "0.2")
        lines = proc.stdout.splitlines()
        assert lines[0].startswith("model,param1")
        fields = lines[1].split(",")
        assert fields[0] == "classical"
        assert float(fields[4]) == pytest.approx(0.5, abs=1e-12)
        assert float(fields[5]) == pytest.approx(0.6, abs=1e-12)

    def test_quantum_json(self):
        proc = run_cli(
            "quantum", "1.0471975511965976", "0.7853981633974483", "--format", "json"
        )
        doc = json.loads(proc.stdout)
        pt = doc["points"][0]
        assert pt["a"] == pytest.approx(1.183013, abs=1e-6)
        assert pt["delta"] == pytest.approx(0.138071, abs=1e-6)

    def test_montecarlo_mode(self):
        proc = run_cli(
            "classical", "0.5", "0.8", "0.2",
            "--mode", "montecarlo", "--n-per-arm", "2000", "--seed", "5",
            "--format", "json",
        )
        pt = json.loads(proc.stdout)["points"][0]
        assert abs(pt["a"] - 0.5) < 0.2

    def test_bad_parameter_exits_2(self):
        proc = run_cli("classical", "1.5", "0.8", "0.2", check=False)
        assert proc.returncode == 2


class TestSweepCommand:
    def test_csv_shape(self, tmp_path):
        out = tmp_path / "sweep.csv"
        run_cli(
            "sweep", "--model", "classical", "--n-points", "50",
            "--seed", "3", "--out", str(out),
        )
        lines = out.read_text().splitlines()
        assert len(lines) == 51

    def test_json_has_summary(self):
        proc = run_cli(
            "sweep", "--model", "quantum", "--n-points", "200",
            "--seed", "3", "--format", "json",
        )
        doc = json.loads(proc.stdout)
        assert len(doc["points"]) == 200
        assert doc["summary"]["fraction_a_above_1"] > 0

    def test_byte_identical_reruns(self, tmp_path):
        args = ["sweep", "--model", "quantum", "--n-points", "300", "--seed", "11"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(*args, "--out", str(out1))
        run_cli(*args, "--out", str(out2))
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("model", ["classical", "quantum"])
    @pytest.mark.parametrize("mode", ["analytic", "montecarlo"])
    def test_unallocatable_sweep_exits_2(self, mode, model, tmp_path, capsys):
        # 10**16 points need 142-213 PiB, beyond any address space, so the
        # parameter matrix fails to allocate without allocating anything
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--model", model, "--mode", mode,
                "--n-points", str(10**16), "--out", str(out)]
        assert main(argv) == 2
        stdout, err = capsys.readouterr()
        assert stdout == ""
        assert err.startswith("irboost: error: ") and err.count("\n") == 1, err
        assert not out.exists()


class TestSimulateCommand:
    def test_json_output(self):
        proc = run_cli(
            "simulate", "--model", "quantum", "--params", "1.0,0.5",
            "--n-per-arm", "500", "--seed", "9",
        )
        doc = json.loads(proc.stdout)
        assert doc["config"]["model"]["kind"] == "quantum"
        assert doc["arms"]["direct_term"]["n_total"] == 500

    def test_byte_identical_reruns(self):
        args = [
            "simulate", "--model", "classical", "--params", "0.4,0.7,0.2",
            "--n-per-arm", "1000", "--seed", "21",
        ]
        assert run_cli(*args).stdout == run_cli(*args).stdout

    def test_wrong_param_count_exits_2(self):
        proc = run_cli(
            "simulate", "--model", "quantum", "--params", "1.0,0.5,0.3",
            check=False,
        )
        assert proc.returncode == 2

    def test_render_failure_leaves_out_file(self, tmp_path, monkeypatch, capsys):
        # the result is rendered before --out opens, so a failure while
        # rendering leaves the old file whole rather than empty
        def no_memory(self):
            raise MemoryError("render failed")

        out = tmp_path / "out.json"
        out.write_bytes(b"previous\n")
        monkeypatch.setattr(SimResult, "to_json_dict", no_memory)
        argv = ["simulate", "--model", "quantum", "--params", "1.0,0.5",
                "--n-per-arm", "50", "--seed", "3", "--out", str(out)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "irboost: error: render failed\n"
        assert out.read_bytes() == b"previous\n"


class TestEstimateCommand:
    def test_hand_computed_counts(self, tmp_path):
        path = tmp_path / "counts.txt"
        path.write_text("1000 500 400 100 500\n")
        proc = run_cli("estimate", str(path), "--format", "json")
        doc = json.loads(proc.stdout)
        assert doc["points"][0]["a"] == pytest.approx(0.5, abs=1e-12)
        assert doc["points"][0]["delta"] == pytest.approx(0.6, abs=1e-12)
        assert doc["estimates"]["accardi"]["std_error"] > 0

    def test_malformed_exits_2(self, tmp_path):
        path = tmp_path / "bad.txt"
        inconsistent = "1000 500 600 100 500\n"
        beyond_float = " ".join(str(k * 10**400) for k in (4, 2, 1, 1, 2)) + "\n"
        underscore = "1_00 40 30 12 42\n"  # int() would read 100
        for text in (inconsistent, beyond_float, underscore):
            path.write_text(text)
            proc = run_cli("estimate", str(path), check=False)
            assert proc.returncode == 2
            # one error line, no traceback
            assert proc.stderr.startswith("irboost: error:")
            assert proc.stderr.count("\n") == 1

    def test_boost_undefined_at_eps_denom(self, tmp_path):
        # p = 1/10^9 = EPS_DENOM, where `irboost classical` flags Delta too
        path = tmp_path / "counts.txt"
        path.write_text("1000000000 1 1 500000000 500000001\n")
        row = run_cli("estimate", str(path)).stdout.splitlines()[1]
        assert row == (
            "empirical,1.0000000000000001e-09,1,0.50000000050000004,"
            "9.9999986169576602e-10,,true,false"
        )
        closed = run_cli("classical", "1e-09", "1", "0.5000000005").stdout
        assert closed.splitlines()[1].endswith(",true,false")
        doc = json.loads(run_cli("estimate", str(path), "--format", "json").stdout)
        assert doc["points"][0]["boost_defined"] is False
        assert doc["estimates"]["boost"] is None

    def test_missing_file_exits_3(self):
        proc = run_cli("estimate", "/no/such/file", check=False)
        assert proc.returncode == 3

    def test_takes_no_seed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["estimate", str(DATA / "counts.txt"), "--seed", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


class TestClosedOutputPipe:
    # stdout into a pipe whose reader is gone: exit 3 with one i/o error
    # line, whether stdout is buffered or not, and whether the output fits
    # the write buffer (the failure comes at the flush) or goes out in one
    # write far larger than the pipe (an unbuffered short write drops the
    # rest of it unseen)
    BIG = ["sweep", "--model", "classical", "--n-points", "20000"]

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize(
        "argv, n_read",
        [
            (["classical", "0.5", "0.8", "0.2"], 0),
            (["sweep", "--model", "quantum", "--n-points", "3", "--format", "json"], 0),
            (BIG + ["--format", "json"], 100),
            (BIG, 100),
        ],
        ids=["point", "small-json", "big-json", "big-csv"],
    )
    def test_exits_3(self, argv, n_read, unbuffered):
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        proc = subprocess.Popen(
            [sys.executable, "-m", "irboost", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        proc.stdout.read(n_read)
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 3, err
        assert err.startswith("irboost: i/o error:") and err.count("\n") == 1, err


class TestGnuplotCommand:
    def test_two_column_output(self, tmp_path):
        csv_path = tmp_path / "sweep.csv"
        run_cli(
            "sweep", "--model", "quantum", "--n-points", "40",
            "--seed", "7", "--out", str(csv_path),
        )
        proc = run_cli("gnuplot", str(csv_path))
        lines = proc.stdout.splitlines()
        assert lines[0] == "# a delta"
        for line in lines[1:]:
            assert len(line.split()) == 2

    @pytest.mark.parametrize(
        "row",
        [
            "bogus,0.5,0.5,0.5,1,2,true,true",  # unknown model
            "classical,0.5,0.5,0.2,1,2,yes,true",  # flag not true/false
            "quantum,1,0.5,0.5,1,2,true,true",  # quantum has no param3
            "classical,0.5,0.5,0.2,,2,true,true",  # empty value under a true flag
            "classical,0.5,0.5,0.2,0.5,2,true,false",  # value under a false flag
            "quantum,1,0.5,,nan,inf,true,true",  # values that are not finite
            "empirical,0.5,0.5,0.2,0.5,-inf,true,true",
            '"classical",0.5,0.5,0.2,0.5,0.6,true,true',  # a quoted field
            "classical,0.5,0.5,0.2,0.5,0.6,true,true\r",  # a "\r\n" end
            # spellings float() takes but no writer emits
            "classical, 0.5,0.8,0.2,0.5,10,true,true",  # a space
            "classical,0.5,0.8,0.2,0.5,10\t,true,true",  # a tab
            "classical,0.5,0.8,0.2,0.5,1_0,true,true",  # an underscore
            "quantum,\uff11.\uff10,0.7,,0.5,2,true,true",  # full-width digits
        ],
    )
    def test_rejects_rows_export_csv_never_writes(self, row, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text(",".join(CSV_HEADER) + "\n" + row + "\n")
        assert main(["gnuplot", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("irboost: error: bad CSV row:")
        assert err.count("\n") == 1


# expected bytes made by the CLI before its output path was rewritten; the
# analytic quantum sweep (np.cos) is left out because its digits may change
# with the NumPy build.  The Monte Carlo bytes hold on the NumPy release they
# were written on (2.4.6): NEP 19 lets Generator.binomial and
# negative_binomial streams change between releases (README)
_MC = ["--mode", "montecarlo"]
_MC_SWEEP = ["sweep", *_MC, "--n-points", "20", "--n-per-arm", "30", "--seed", "3"]
PINNED = [
    ("classical.csv", ["classical", "0.5", "0.8", "0.2"]),
    ("classical.json", ["classical", "0.5", "0.8", "0.2", "--format", "json"]),
    ("classical-flagged.csv", ["classical", "0.5", "0.5000001", "0.5"]),  # empty a, false flag
    ("quantum.csv", ["quantum", "1.0472", "0.7854"]),  # empty param3
    ("quantum.json", ["quantum", "1.0472", "0.7854", "--format", "json"]),
    ("sweep.csv", ["sweep", "--model", "classical", "--n-points", "5", "--seed", "1"]),
    (
        "sweep.json",
        ["sweep", "--model", "classical", "--n-points", "5", "--seed", "1", "--format", "json"],
    ),
    ("estimate.csv", ["estimate", str(DATA / "counts.txt")]),
    ("estimate.json", ["estimate", str(DATA / "counts.txt"), "--format", "json"]),
    ("gnuplot.txt", ["gnuplot", str(DATA / "sweep.csv")]),
    ("gnuplot-estimate.txt", ["gnuplot", str(DATA / "estimate.csv")]),
    (
        "simulate-classical.json",
        ["simulate", "--model", "classical", "--params", "0.4,0.7,0.3", "--n-per-arm", "500",
         "--seed", "7"],
    ),
    (
        "simulate-quantum-starved.json",  # the relevance arm starves
        ["simulate", "--model", "quantum", "--params", "3.1414,1.0", "--n-per-arm", "3",
         "--seed", "11"],
    ),
    (
        "mc-classical-starving.csv",  # P(R) in the margin, relevance arm starved
        ["classical", "2e-7", "0.75", "0.25", *_MC, "--n-per-arm", "500", "--seed", "31"],
    ),
    (
        "mc-quantum.json",
        ["quantum", "1.0", "0.5", *_MC, "--n-per-arm", "500", "--seed", "3", "--format", "json"],
    ),
    (
        "mc-classical-starving-non-relevant.csv",  # P(~R) = 0: A reads NaN, Delta prints
        ["classical", "1", "0.6", "0.4", *_MC, "--n-per-arm", "500", "--seed", "3"],
    ),
    (
        "mc-quantum-starving-two-arms.json",  # the ~R and expansion arms starve
        ["quantum", "0", "3.1414", *_MC, "--n-per-arm", "500", "--seed", "3", "--format", "json"],
    ),
    # at margin 0.3 many points have one flag false and run only the arms
    # the other flag reads
    ("mc-sweep-classical.csv", [*_MC_SWEEP, "--model", "classical"]),
    (
        "mc-sweep-classical-margin.json",
        [*_MC_SWEEP, "--model", "classical", "--exclusion-margin", "0.3", "--format", "json"],
    ),
    (
        "mc-sweep-quantum-margin.csv",
        [*_MC_SWEEP, "--model", "quantum", "--exclusion-margin", "0.3"],
    ),
    ("mc-sweep-quantum.json", [*_MC_SWEEP, "--model", "quantum", "--format", "json"]),
]


class TestPinnedOutput:
    @pytest.mark.parametrize("name,argv", PINNED, ids=[name for name, _ in PINNED])
    def test_stdout_and_out_file(self, name, argv, tmp_path, capsys):
        expected = (DATA / name).read_bytes()
        assert main(argv) == 0
        assert capsys.readouterr().out.encode() == expected
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == 0
        assert out.read_bytes() == expected

    def test_sweep_past_one_seed_hash_chunk(self, capsys):
        # the point seeds are hashed in two chunks; pinned by digest, not as
        # a file
        argv = ["sweep", "--model", "quantum", *_MC, "--n-points", "1100", "--n-per-arm", "20",
                "--seed", "7"]
        assert _SEED_CHUNK < 1100
        assert main(argv) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == "b256b6a680beafe885d9df779cc2224508dbcdb4523e6a00326b18045e1121bb"

    def test_sweep_with_starving_points(self, capsys):
        # at n_per_arm 5 some points starve an arm and skip the rest of
        # that flag's arms; pinned by digest, not as a file
        argv = ["sweep", "--model", "quantum", *_MC, "--n-points", "3000", "--n-per-arm", "5",
                "--seed", "11"]
        assert main(argv) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == "78d7ff8a4dc4e8945d4e32a09930352da76c89b4afaa4fb15956f51eb4ccfdfc"

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--model", "classical", "--n-points", "0"],
            ["gnuplot", str(DATA / "counts.txt")],
        ],
    )
    def test_failure_leaves_out_file(self, argv, tmp_path):
        out = tmp_path / "out"
        out.write_bytes(b"previous\n")
        assert main([*argv, "--out", str(out)]) == 2
        assert out.read_bytes() == b"previous\n"


class TestOutFileRewrite:
    """--out rewrites a file from byte 0 and cuts it where the writing
    stopped, instead of truncating it to zero when it opens."""

    POINT = ["classical", "0.5", "0.8", "0.2"]

    def test_shorter_output_leaves_no_old_tail(self, tmp_path, capsys):
        out = tmp_path / "out.csv"
        sweep_50 = ["sweep", "--model", "classical", "--n-points", "50"]
        assert main([*sweep_50, "--out", str(out)]) == 0
        assert main([*self.POINT, "--out", str(out)]) == 0
        assert main(self.POINT) == 0
        assert out.read_bytes() == capsys.readouterr().out.encode()

    @pytest.mark.skipif(os.name != "posix", reason="POSIX file modes")
    def test_new_file_mode_follows_umask(self, tmp_path):
        out = tmp_path / "new.csv"
        old = os.umask(0o022)
        try:
            assert main([*self.POINT, "--out", str(out)]) == 0
        finally:
            os.umask(old)
        assert out.stat().st_mode & 0o777 == 0o644

    @pytest.mark.skipif(not os.path.exists("/dev/null"), reason="no /dev/null")
    def test_null_device(self):
        assert main([*self.POINT, "--out", "/dev/null"]) == 0

    def test_failed_write_is_cut_where_it_stopped(self, tmp_path, monkeypatch, capsys):
        def one_row_then_fail(points, stream):
            stream.write("classical,partial\n")
            raise OSError("disk gone")

        out = tmp_path / "out.csv"
        out.write_bytes(b"an older, longer file\n" * 100)
        monkeypatch.setattr(cli, "write_csv", one_row_then_fail)
        assert main([*self.POINT, "--out", str(out)]) == 3
        assert capsys.readouterr().err == "irboost: i/o error: disk gone\n"
        assert out.read_bytes() == b"classical,partial\n"


class TestJsonKeyOrder:
    """The JSON key order is part of the interface; the writers take it
    from the dataclasses' field order, so a reordered field must fail here."""

    ESTIMATE = ["estimate", "std_error", "n"]
    TALLY = ["n_total", "n_success", "draws_consumed"]
    SUMMARY = [
        "n_points", "n_defined", "fraction_a_below_0", "fraction_a_above_1",
        "max_delta", "max_delta_classical_region", "max_delta_violation",
    ]
    POINT = ["model", "params", "a", "delta", "accardi_defined", "boost_defined"]
    PARAMS = {"classical": ["p", "q_r", "q_n"], "quantum": ["phi", "alpha"]}

    @pytest.mark.parametrize(
        "model,params", [("classical", "0.4,0.7,0.3"), ("quantum", "1.0,0.5")]
    )
    def test_simulate(self, model, params):
        doc = json.loads(run_cli(
            "simulate", "--model", model, "--params", params,
            "--n-per-arm", "200", "--seed", "3",
        ).stdout)
        assert list(doc) == ["config", "arms", "baseline_relevance", "derived"]
        assert list(doc["config"]) == ["model", "n_per_arm", "seed"]
        assert list(doc["config"]["model"]) == ["kind", "params"]
        assert list(doc["config"]["model"]["params"]) == self.PARAMS[model]
        assert list(doc["arms"]) == [
            "cond_on_relevant", "cond_on_non_relevant", "direct_term",
            "expand_then_relevance",
        ]
        for tally in [*doc["arms"].values(), doc["baseline_relevance"]]:
            assert list(tally) == self.TALLY
        assert list(doc["derived"]) == ["rates", "accardi", "boost"]
        assert list(doc["derived"]["rates"]) == ["p_x_given_r", "p_x_given_n", "p_x"]
        assert list(doc["derived"]["accardi"]) == self.ESTIMATE
        assert list(doc["derived"]["boost"]) == self.ESTIMATE

    @pytest.mark.parametrize("model", ["classical", "quantum"])
    def test_sweep(self, model):
        doc = json.loads(run_cli(
            "sweep", "--model", model, "--n-points", "3", "--seed", "3",
            "--format", "json",
        ).stdout)
        assert list(doc) == ["points", "summary"]
        for pt in doc["points"]:
            assert list(pt) == self.POINT
            assert list(pt["params"]) == self.PARAMS[model]
        assert list(doc["summary"]) == self.SUMMARY

    def test_estimate(self, tmp_path):
        path = tmp_path / "counts.txt"
        path.write_text("1000 500 400 100 500\n")
        doc = json.loads(run_cli("estimate", str(path), "--format", "json").stdout)
        assert list(doc) == ["points", "summary", "estimates"]
        assert list(doc["points"][0]) == self.POINT
        assert list(doc["points"][0]["params"]) == self.PARAMS["classical"]
        assert list(doc["summary"]) == self.SUMMARY
        assert list(doc["estimates"]) == ["accardi", "boost"]
        assert list(doc["estimates"]["accardi"]) == self.ESTIMATE
        assert list(doc["estimates"]["boost"]) == self.ESTIMATE


# argvs that main reads through one subcommand's parser, or falls back on the
# full build_parser() for; each must come out as from the full parser alone
PARSE_BATTERY = [
    [],
    ["-h"],
    ["--help", "classical"],
    ["bogus", "0.5"],
    ["Classical", "0.5", "0.8", "0.2"],
    *(
        [name, "-h"]
        for name in ("classical", "quantum", "sweep", "simulate", "estimate", "gnuplot")
    ),
    ["classical", "--", "0.5", "0.8", "0.2"],
    ["classical", "0.5", "0.8", "0.2", "--mod", "analytic", "--n-per", "5"],
    ["classical", "0.5", "0.8", "0.2", "--format=json"],
    ["classical", "-1e-3", "0.8", "0.2"],
    ["quantum", "-0.5", "0.7"],
    ["quantum", "1.0", "0.7", "--seed", "-3"],
    ["sweep", "--model", "quantum", "--n-points", "5", "--n-points", "3"],
    ["sweep", "--model", "classical", "--n-points", "3", "--out"],
    ["classical", "0.5", "0.8", "0.2", "--bogus"],
    ["classical", "0.5", "0.8", "0.2", "extra"],
    ["classical", "0.5", "0.8", "0.2", "-x"],
    ["-x", "classical", "0.5", "0.8", "0.2"],
    ["classical", "0.5", "0.8"],
    ["simulate", "--model", "quantum", "--params", "-0.5,0.7"],
    ["estimate", "counts.txt", "--seed", "1"],
    # flags that one subcommand takes and another must reject
    ["gnuplot", "sweep.csv", "--format", "json"],
    ["gnuplot", "sweep.csv", "--seed", "1"],
    ["simulate", "--model", "quantum", "--params", "1.0,0.5", "--format", "csv"],
    ["simulate", "--model", "quantum", "--params", "1.0,0.5", "--mode", "analytic"],
    ["estimate", "counts.txt", "--mode", "montecarlo"],
]


# one argv that parses through each subcommand's parser alone
NAMED_ARGVS = [
    ["classical", "0.5", "0.8", "0.2"],
    ["quantum", "1.0", "0.7", "--format", "json"],
    ["sweep", "--model", "quantum", "--n-points", "3", "--seed", "1"],
    ["simulate", "--model", "quantum", "--params", "1.0,0.5", "--n-per-arm", "100"],
    ["estimate", str(DATA / "counts.txt")],
    ["gnuplot", str(DATA / "sweep.csv")],
]


class _FullTreeBuilt(Exception):
    pass


class TestParseRoutes:
    """main builds only the subcommand its argv names, and falls back on the
    full parser otherwise; either way the result is the full parser's."""

    @staticmethod
    def _outcome(argv, capsys):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        return (code, *capsys.readouterr())

    @pytest.mark.parametrize(
        "argv", PARSE_BATTERY, ids=lambda argv: " ".join(argv) or "no-args"
    )
    def test_same_as_full_parser(self, argv, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        outcome = self._outcome(argv, capsys)
        try:
            expected = cli.build_parser().parse_args(argv)
        except SystemExit:
            expected = None
        capsys.readouterr()
        if expected is not None:
            assert cli._parse(argv) == expected
        monkeypatch.setattr(cli, "_parse", lambda a: cli.build_parser().parse_args(a))
        assert self._outcome(argv, capsys) == outcome

    @pytest.mark.parametrize("argv", NAMED_ARGVS, ids=lambda argv: argv[0])
    def test_named_subcommand_never_builds_the_full_tree(self, argv, monkeypatch):
        monkeypatch.setattr(cli, "build_parser", self._full_tree)
        assert main(argv) == 0

    def test_unknown_option_falls_back_on_the_full_tree(self, monkeypatch):
        monkeypatch.setattr(cli, "build_parser", self._full_tree)
        with pytest.raises(_FullTreeBuilt):
            main(["classical", "0.5", "0.8", "0.2", "--bogus"])

    @staticmethod
    def _full_tree():
        raise _FullTreeBuilt


def _stock_parser():
    """The full parser from the same tables, with argparse's default
    formatter, which reads the terminal width itself."""
    parser = argparse.ArgumentParser(
        prog="irboost", description=cli.build_parser().description
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, arguments) in cli._COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        for argument in arguments:
            command.add_argument(argument.split()[0], **cli._ARGUMENTS[argument])
    return parser


def _exit(parse, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    return (exc.value.code, *capsys.readouterr())


class TestHelpText:
    """Help, usage and error text are argparse's stock rendering: each parser
    build reads the terminal width once, as argparse's formatter would."""

    @pytest.mark.parametrize("columns", ["40", "80", "200"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["-h"],
            *([name, "-h"] for name in cli._COMMANDS),
            [],
            ["classical", "0.5", "0.8", "0.2", "--bogus"],
        ],
        ids=lambda argv: " ".join(argv) or "no-args",
    )
    def test_stock_rendering(self, argv, columns, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", columns)
        expected = _exit(_stock_parser().parse_args, argv, capsys)
        assert _exit(main, argv, capsys) == expected


class TestTerminalSizeLookups:
    """One terminal-size lookup per parser build, and a build per call: the
    parser is not kept between calls."""

    @pytest.fixture
    def lookups(self, monkeypatch):
        calls = []
        lookup = shutil.get_terminal_size

        def counted(*args, **kwargs):
            calls.append(args)
            return lookup(*args, **kwargs)

        monkeypatch.setattr(shutil, "get_terminal_size", counted)
        return calls

    @pytest.mark.parametrize("argv", NAMED_ARGVS, ids=lambda argv: argv[0])
    def test_one_per_subcommand_parse(self, argv, lookups):
        for n in (1, 2):
            cli._parse(argv)
            assert len(lookups) == n

    def test_one_per_full_parser(self, lookups):
        for n in (1, 2):
            cli.build_parser()
            assert len(lookups) == n


def _arguments(parser):
    """Each action of ``parser`` in order, as argparse was told it."""
    return [
        {
            "option_strings": action.option_strings,
            "dest": action.dest,
            "default": action.default,
            "type": getattr(action.type, "__name__", None),
            "choices": None if action.choices is None else list(action.choices),
            "required": action.required,
            "help": action.help,
        }
        for action in parser._actions
    ]


def _argument_surface(parser):
    """The top level's arguments, then each subcommand's help line and
    arguments in the order the top-level help lists them."""
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {
        "irboost": _arguments(parser),
        "commands": [
            {"name": line.dest, "help": line.help, "arguments": _arguments(sub.choices[line.dest])}
            for line in sub._choices_actions
        ],
    }


def test_argument_surface():
    # argparse's formatted help differs across Python releases; what each
    # subcommand was told about its arguments does not
    surface = json.loads(json.dumps(_argument_surface(cli.build_parser())))
    assert surface == json.loads((DATA / "arguments.json").read_text())
