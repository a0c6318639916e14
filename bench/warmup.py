"""Set-up work of one benchmark workload, run in a fresh interpreter.

    python3 bench/warmup.py WORKLOAD WORKDIR

Imports irboost from the checkout's src/, builds the CLI parser and calls
each of the workload's timed operations once on a small input.  bench/run.py
times this whole process as ``setup_s``.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import irboost.cli  # noqa: E402

irboost.cli.build_parser()

from workloads import WORKLOADS  # noqa: E402

WORKLOADS[sys.argv[1]](0, Path(sys.argv[2])).warm_up()
