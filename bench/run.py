"""irboost benchmark: one workload per run, end to end or traced.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

Run from the root of a source checkout; irboost is imported from ./src.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

--trace 0  times whole rounds of the workload's operations for S seconds,
           with no wrappers installed, and reports the end-to-end metrics.
           ``setup_s`` is the median wall time of SETUP_RUNS fresh
           interpreters (bench/warmup.py), run one at a time.
--trace 1  a separate process that runs the same rounds untraced and then
           traced, reports the per-layer metrics and the tracing overhead,
           and writes every span to .bench_out/.  To measure every layer it
           also runs one traced round of each other workload; those rounds
           are not counted in ``attempted``/``failed``.

``--workload all`` runs every workload both ways, each in its own process,
and prints their reports one after another.

See bench/README.md for the workloads, the inputs and the metric map.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("analytic-sweep", "scalar-points", "montecarlo")
SETUP_RUNS = 9
MAX_TRACE_ROUNDS = 5  # spans of one scalar-points round number ~26k


def parse_args(argv):
    parser = argparse.ArgumentParser(description="irboost benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_irboost():
    """Import irboost from this checkout's src/, never from elsewhere."""
    if not (SRC / "irboost" / "__init__.py").is_file():
        sys.exit(f"bench: no irboost sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import irboost

    if Path(irboost.__file__).resolve().parent != SRC / "irboost":
        sys.exit(f"bench: imported irboost from {irboost.__file__}, not from {SRC}")


def run_rounds(workload, seconds, max_rounds=None):
    """Whole rounds until ``seconds`` have passed (at least one).

    Successive rounds run pinned to successive CPUs of this process's
    affinity set.  On a shared machine one vCPU can run at half speed for
    seconds to minutes while another runs at full speed; visiting each CPU
    lets every operation's fastest time come from an undisturbed one.
    """
    cpus = sorted(os.sched_getaffinity(0))
    rounds = []
    start = perf_counter()
    try:
        while not rounds or perf_counter() - start < seconds:
            if rounds:
                rounds[-1].outputs.clear()  # only the last round's outputs are checked
            os.sched_setaffinity(0, {cpus[len(rounds) % len(cpus)]})
            rounds.append(workload.run_round())
            if max_rounds is not None and len(rounds) >= max_rounds:
                break
    finally:
        os.sched_setaffinity(0, cpus)
    return rounds


def setup_seconds(name, work) -> float:
    """Median wall time of fresh interpreters that import irboost, build the
    CLI parser and warm up each timed operation once."""
    times = []
    for _ in range(SETUP_RUNS):
        t0 = perf_counter()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "warmup.py"), name, str(work)],
            capture_output=True, text=True, timeout=120,
        )
        times.append(perf_counter() - t0)
        if proc.returncode != 0:
            sys.exit(f"bench: warm-up child failed:\n{proc.stderr}")
    return statistics.median(times)


def timed_run(args, work):
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed, work / args.workload)
    wl.prepare()
    setup_s = setup_seconds(args.workload, work / "setup")
    wl.warm_up()
    rounds = run_rounds(wl, args.seconds)
    peak = wl.peak_bytes_per_item()
    problems = wl.check(rounds)
    metrics = {role: (value, "1/s") for role, value in wl.rates(rounds).items()}
    metrics["peak_bytes_per_item"] = (peak, "B")
    metrics["setup_s"] = (setup_s, "s")
    labels = dict(wl.labels, setup_s="fresh interpreter: import, parser, one warm-up call of each operation")
    return rounds, problems, metrics, labels


def traced_run(args, work):
    from tracing import Tracer
    from workloads import WORKLOADS, Spans

    wls = {name: cls(args.seed, work / name) for name, cls in WORKLOADS.items()}
    for wl in wls.values():
        wl.prepare()
        wl.warm_up()
    target = wls[args.workload]
    untraced = run_rounds(target, args.seconds / 2, MAX_TRACE_ROUNDS)
    tracer = Tracer()
    tracer.install()
    traced = {}
    try:
        tracer.tag = target.name
        traced[target.name] = run_rounds(target, args.seconds / 2, MAX_TRACE_ROUNDS)
        for wl in wls.values():
            if wl is not target:
                tracer.tag = wl.name
                traced[wl.name] = [wl.run_round()]
    finally:
        tracer.restore()

    problems = target.check(untraced + traced[target.name])
    for wl in wls.values():
        if wl is not target:
            problems += wl.check(traced[wl.name])
    spans = Spans(tracer.spans, tracer.self_times())
    metrics = {}
    for wl in wls.values():
        metrics.update(wl.layer_metrics(spans, traced[wl.name]))
    overhead = target.fastest_round_s(traced[target.name]) / target.fastest_round_s(untraced) - 1.0
    metrics["trace.overhead_pct"] = (overhead * 100.0, "%")

    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    tracer.write(out / f"spans-{stem}.jsonl")
    (out / f"layers-{stem}.json").write_text(
        json.dumps({k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, indent=2) + "\n"
    )
    labels = {"trace.overhead_pct": f"traced vs untraced {args.workload} round, fastest times"}
    return untraced + traced[target.name], problems, metrics, labels


def run_all(args) -> int:
    """Every workload, end to end and then traced, one process at a time."""
    rc = 0
    for name in WORKLOAD_NAMES:
        for trace in ("0", "1"):
            argv = ["--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", trace]
            rc |= subprocess.run([sys.executable, __file__, *argv]).returncode
    return rc


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    import_irboost()
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        run = traced_run if args.trace else timed_run
        rounds, problems, metrics, labels = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run is still using it

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    print(f"{args.workload} seed {args.seed} trace {args.trace}: {len(rounds)} rounds, "
          f"{attempted} operations attempted, {failed} failed")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:16.6g} {unit:8s} {labels.get(name, '')}")
    for p in problems:
        print(f"bench: check failed: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
