"""Exit 1 unless a bench/run.py log ends in a clean run record.

    python .github/scripts/check_bench.py LOG [--arms-per-point V]

The log's last line is the run's JSON record.  The check fails unless its
``correct`` is true and its ``failed`` count is 0.  With --arms-per-point it
also fails unless the traced metric ``stream.arms_per_point`` is exactly V:
each Monte Carlo point must call stream.simulate_arm once per arm it runs.
"""

import argparse
import json
import sys
from pathlib import Path


def check(last_line: str, arms_per_point=None):
    """None when the record passes, else the message to exit with."""
    try:
        record = json.loads(last_line)
    except ValueError as exc:
        return f"the log's last line is not a JSON record: {exc}"
    if record["correct"] is not True or record["failed"] != 0:
        return f"run not clean: correct is {record['correct']}, failed is {record['failed']}"
    if arms_per_point is not None:
        v = record["metrics"]["stream.arms_per_point"]["value"]
        if v != arms_per_point:
            return (
                f"stream.arms_per_point is {v}, expected {arms_per_point}: each Monte "
                "Carlo point must call stream.simulate_arm once per arm it runs"
            )
    return None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("log", type=Path)
    parser.add_argument("--arms-per-point", type=float)
    args = parser.parse_args(argv)
    lines = args.log.read_text().splitlines()
    return check(lines[-1] if lines else "", args.arms_per_point)


if __name__ == "__main__":
    sys.exit(main())
