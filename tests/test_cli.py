import json
import subprocess
import sys

import pytest


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
        for text in (inconsistent, beyond_float):
            path.write_text(text)
            proc = run_cli("estimate", str(path), check=False)
            assert proc.returncode == 2
            # one error line, no traceback
            assert proc.stderr.startswith("irboost: error:")
            assert proc.stderr.count("\n") == 1

    def test_missing_file_exits_3(self):
        proc = run_cli("estimate", "/no/such/file", check=False)
        assert proc.returncode == 3


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
