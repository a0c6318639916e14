"""The benchmark log check (.github/scripts/check_bench.py) on crafted last
lines: it passes a clean record and fails every other one."""

import importlib.util
import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).parents[1]
SCRIPT = ROOT / ".github" / "scripts" / "check_bench.py"
_spec = importlib.util.spec_from_file_location("irboost_check_bench", SCRIPT)
check_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_bench)


def record(correct=True, failed=0, arms=4.9975):
    metrics = {"stream.arms_per_point": {"value": arms, "unit": "count"}}
    return json.dumps({"correct": correct, "failed": failed, "metrics": metrics})


def run(tmp_path, last_line, *options):
    log = tmp_path / "bench.log"
    log.write_text(f"warm-up chatter\n{last_line}\n")
    return check_bench.main([str(log), *options])


@pytest.mark.parametrize("options", [(), ("--arms-per-point", "4.9975")])
def test_clean_record_passes(tmp_path, options):
    assert run(tmp_path, record(), *options) is None


@pytest.mark.parametrize(
    "line, message",
    [
        (record(correct=False), "run not clean: correct is False, failed is 0"),
        (record(failed=1), "run not clean: correct is True, failed is 1"),
        (record(arms=4.995), "stream.arms_per_point is 4.995, expected 4.9975: "),
        ("Traceback (most recent call last):", "the log's last line is not a JSON record"),
    ],
)
def test_unclean_record_fails(tmp_path, line, message):
    assert run(tmp_path, line, "--arms-per-point", "4.9975").startswith(message)


def test_arms_unchecked_without_the_option(tmp_path):
    assert run(tmp_path, record(arms=4.995)) is None


def test_empty_log_fails(tmp_path):
    log = tmp_path / "bench.log"
    log.write_text("")
    assert check_bench.main([str(log)]).startswith("the log's last line is not")


def test_failure_exits_1_with_its_message(tmp_path):
    log = tmp_path / "bench.log"
    log.write_text(record(failed=2) + "\n")
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), str(log)], capture_output=True, text=True
    )
    assert proc.returncode == 1
    assert proc.stderr == "run not clean: correct is True, failed is 2\n"
