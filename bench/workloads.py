"""The benchmark's three workloads.

Each workload makes its inputs from a seed, runs rounds of the same
operations through irboost's public functions, checks the outputs against
``reference`` or against properties the method must have, and turns its
rounds into metrics.  Every workload fills the same three rate roles
(``main_per_s``, ``second_per_s``, ``third_per_s``) and one memory figure
with its own operations; README.md maps each role to its operation.

irboost functions are looked up on their module at every call, so the
wrappers ``tracing.Tracer`` installs see the same calls the timed runs make.
"""

from __future__ import annotations

import csv
import hashlib
import importlib
import io
import itertools
import json
import math
import random
import statistics
import tracemalloc
from pathlib import Path
from time import perf_counter

import numpy as np

import reference as ref

CLI = importlib.import_module("irboost.cli")
SWEEP = importlib.import_module("irboost.sweep")
STREAM = importlib.import_module("irboost.stream")
from irboost import ArmKind, ClassicalParams, QuantumParams  # noqa: E402

ROLES = ("main_per_s", "second_per_s", "third_per_s")
MODELS = ("classical", "quantum")

# Standard errors allowed between a Monte Carlo rate and its closed form.
# Bernstein's inequality bounds the chance of a larger deviation of one arm
# by 2 exp(-Z^2 / 2) = 4.6e-11.
Z = 7.0


class Round:
    """Timings and outcomes of one round of operations.

    Every round runs the same operations, each under its own ``kind``
    (operation and input), so a kind's times can be compared across rounds.
    """

    def __init__(self):
        self.samples: dict = {}  # (role, kind) -> (items, seconds)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []  # failures that are not known faults
        self.digests: list[str] = []
        self.outputs: dict = {}

    def timed(self, role, kind, items, fn, *args, **kwargs):
        t0 = perf_counter()
        out = fn(*args, **kwargs)
        self.samples[role, kind] = (items, perf_counter() - t0)
        return out

    def cli(self, role, kind, items, argv) -> None:
        rc = self.timed(role, kind, items, CLI.main, argv)
        self.attempted += 1
        if rc != 0:
            self.failed += 1
            self.problems.append(f"irboost {' '.join(argv)} exited {rc}")

    def digest(self, data) -> None:
        if isinstance(data, Path):
            data = data.read_bytes()
        self.digests.append(hashlib.sha256(data).hexdigest())


class Workload:
    name = ""
    labels: dict = {}  # role -> what the role measures in this workload

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        work.mkdir(parents=True, exist_ok=True)

    def prepare(self) -> None:
        """Make the inputs the rounds need (not timed)."""

    def warm_up(self) -> None:
        """One small call of each timed operation."""
        raise NotImplementedError

    def run_round(self) -> Round:
        raise NotImplementedError

    def check(self, rounds: list[Round]) -> list[str]:
        problems = [p for r in rounds for p in r.problems]
        if any(r.digests != rounds[0].digests for r in rounds):
            problems.append("the same inputs gave different outputs in two rounds")
        return problems + self.check_outputs(rounds[-1])

    def check_outputs(self, last: Round) -> list[str]:
        raise NotImplementedError

    def peak_bytes_per_item(self) -> float:
        raise NotImplementedError

    def layer_metrics(self, spans: "Spans", rounds: list[Round]) -> dict:
        raise NotImplementedError

    def fastest_round_s(self, rounds: list[Round]) -> float:
        """Sum over the round's operations of each one's fastest time."""
        return sum(min(r.samples[key][1] for r in rounds) for key in rounds[0].samples)

    def rates(self, rounds: list[Round]) -> dict:
        """Items of one round over the sum of each operation's fastest time
        across rounds.  On a shared machine, neighbours slow the same
        operation by 20-100% for seconds to minutes at a time, which moves a
        median between runs; the fastest time of each operation moves less,
        and it still moves with every change to the program."""
        items = dict.fromkeys(ROLES, 0)
        seconds = dict.fromkeys(ROLES, 0.0)
        for role, kind in rounds[0].samples:
            items[role] += rounds[0].samples[role, kind][0]
            seconds[role] += min(r.samples[role, kind][1] for r in rounds)
        return {role: items[role] / seconds[role] for role in ROLES}


# ---------------------------------------------------------------------------
# analytic-sweep
# ---------------------------------------------------------------------------


class AnalyticSweep(Workload):
    """Analytic sweeps through ``irboost sweep --out``: both models in CSV,
    the quantum model in JSON, then ``irboost gnuplot`` on the quantum CSV.

    Each of these takes 1-2 s, so a round holds only four of them, to give
    each operation several rounds in a run.  The classical JSON and gnuplot
    outputs are written once, untimed, for the checks."""

    name = "analytic-sweep"
    labels = {
        "main_per_s": "irboost sweep --format csv, both models, points/s",
        "second_per_s": "irboost sweep --format json, quantum, points/s",
        "third_per_s": "irboost gnuplot, quantum CSV rows read/s",
        "peak_bytes_per_item": "tracemalloc peak of one CSV sweep, B/point",
    }
    N_POINTS = 100_000
    # Wider than the 1e-6 default so that every sweep flags a few hundred
    # points and the flag checks have something to check.
    MARGIN = 1e-3

    def __init__(self, seed, work):
        super().__init__(seed, work)
        rnd = random.Random(seed)
        self.seeds = {m: rnd.randrange(2**32) for m in MODELS}

    def path(self, model, ext) -> Path:
        return self.work / f"{model}.{ext}"

    def sweep_argv(self, model, fmt, n_points):
        return [
            "sweep", "--model", model, "--n-points", str(n_points),
            "--seed", str(self.seeds[model]),
            "--exclusion-margin", repr(self.MARGIN),
            "--format", fmt, "--out", str(self.path(model, fmt)),
        ]

    def gnuplot_argv(self, model):
        return ["gnuplot", str(self.path(model, "csv")), "--out", str(self.path(model, "dat"))]

    def warm_up(self):
        for fmt in ("csv", "json"):
            for model in MODELS:
                CLI.main(self.sweep_argv(model, fmt, 1000))
        for model in MODELS:
            CLI.main(self.gnuplot_argv(model))

    def run_round(self):
        r = Round()
        for model in MODELS:
            r.cli("main_per_s", f"csv-{model}", self.N_POINTS, self.sweep_argv(model, "csv", self.N_POINTS))
            r.digest(self.path(model, "csv"))
        r.cli("second_per_s", "json-quantum", self.N_POINTS, self.sweep_argv("quantum", "json", self.N_POINTS))
        r.digest(self.path("quantum", "json"))
        r.cli("third_per_s", "gnuplot-quantum", self.N_POINTS, self.gnuplot_argv("quantum"))
        r.digest(self.path("quantum", "dat"))
        return r

    def check_outputs(self, last):
        problems = []
        for argv in (self.sweep_argv("classical", "json", self.N_POINTS), self.gnuplot_argv("classical")):
            if CLI.main(argv) != 0:
                problems.append(f"irboost {' '.join(argv)} failed")
        for model in MODELS:
            problems += [f"{model} sweep: {p}" for p in self._check_model(model)]
        return problems

    def _check_model(self, model):
        with open(self.path(model, "csv"), newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        with open(self.path(model, "json"), encoding="utf-8") as fh:
            payload = json.load(fh)
        cols = list(zip(*rows))
        n_params = 3 if model == "classical" else 2
        params = [np.array(cols[1 + i], dtype=float) for i in range(n_params)]
        a, delta = (np.array([float(v) if v else np.nan for v in c]) for c in cols[4:6])
        a_ok, d_ok = (np.array(c) == "true" for c in cols[6:8])

        problems = []
        if len(rows) != self.N_POINTS:
            problems.append(f"{len(rows)} CSV rows, expected {self.N_POINTS}")

        # CSV and JSON hold the same points
        pts = payload["points"]
        keys = ("p", "q_r", "q_n") if model == "classical" else ("phi", "alpha")
        j_params = [np.array([pt["params"][k] for pt in pts]) for k in keys]
        j_vals = [np.array([np.nan if pt[k] is None else pt[k] for pt in pts]) for k in ("a", "delta")]
        j_flags = [np.array([pt[k] for pt in pts]) for k in ("accardi_defined", "boost_defined")]
        same = len(pts) == len(rows) and all(
            np.array_equal(x, y, equal_nan=True)
            for x, y in zip(params + [a, delta] + [a_ok, d_ok], j_params + j_vals + j_flags)
        )
        if not same:
            problems.append("CSV and JSON outputs hold different points")
        summary = payload.get("summary", {})
        if summary.get("n_points") != len(rows) or summary.get("n_defined") != int(np.sum(a_ok & d_ok)):
            problems.append(f"JSON summary counts disagree with the points: {summary}")

        # flags are false exactly within the exclusion margin
        if model == "classical":
            rates = ref.classical_rates(*params)
            a_dist, d_dist = np.abs(ref.accardi_denominator(rates)), rates.p_r
        else:
            rates = ref.quantum_rates(*params)
            a_dist, d_dist = np.abs(ref.accardi_denominator(rates)), rates.p_r
        m = self.MARGIN
        for name, flag, dist in (("accardi", a_ok, a_dist), ("boost", d_ok, d_dist)):
            clear = np.abs(dist - m) > 1e-12  # rounding decides a point on the edge
            bad = clear & (flag != (dist > m))
            if bad.any():
                problems.append(f"{int(bad.sum())} {name} flags disagree with the margin {m}")
            if np.isfinite(np.where(flag, np.nan, a if name == "accardi" else delta)).any():
                problems.append(f"a value is written where the {name} flag is false")

        # values match the definitions where they are flagged defined
        a_ref, d_ref = ref.accardi(rates), ref.boost(rates)
        for name, flag, got, want, denom in (
            ("a", a_ok, a, a_ref, ref.accardi_denominator(rates)),
            ("delta", d_ok, delta, d_ref, rates.p_r),
        ):
            err = np.abs(got[flag] - want[flag]) - ref.tolerance(want[flag], denom[flag])
            if not (err <= 0).all():
                problems.append(f"{int((err > 0).sum())} {name} values differ from the definitions")

        defined = a[a_ok]
        if model == "classical" and not ((defined >= 0) & (defined <= 1)).all():
            problems.append("classical A outside [0, 1]")
        if model == "quantum" and not ((defined > 1).any() and (defined < 0).any()):
            problems.append("quantum sweep has no A > 1 or no A < 0")

        # gnuplot rows are the CSV rows with both flags true
        lines = self.path(model, "dat").read_text(encoding="utf-8").splitlines()
        want_lines = ["# a delta"] + [f"{r[4]} {r[5]}" for r in rows if r[6] == r[7] == "true"]
        if lines != want_lines:
            problems.append("gnuplot rows differ from the CSV rows with both flags true")
        return problems

    def peak_bytes_per_item(self):
        tracemalloc.start()
        try:
            CLI.main(self.sweep_argv("classical", "csv", self.N_POINTS))
            return tracemalloc.get_traced_memory()[1] / self.N_POINTS
        finally:
            tracemalloc.stop()

    def layer_peaks(self) -> "tuple[int, int]":
        """tracemalloc peak of ``sweep`` and the extra peak of rendering its
        points as CSV text, for one classical sweep."""
        config = SWEEP.SweepConfig(
            model="classical", n_points=self.N_POINTS,
            seed=self.seeds["classical"], exclusion_margin=self.MARGIN,
        )
        tracemalloc.start()
        try:
            points, _ = SWEEP.sweep(config)
            sweep_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            buf = io.StringIO()
            SWEEP.write_csv(points, buf)
            buf.getvalue()
            return sweep_peak, tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()

    def layer_metrics(self, spans, rounds):
        s = spans.tagged(self.name)
        n = len(rounds)
        sweep_peak, render_peak = self.layer_peaks()
        csv_bytes = sum(self.path(m, "csv").stat().st_size for m in MODELS)
        return {
            "cli.self_s": (s.self_total("cli.main") / n, "s"),
            "sweep.sample_params_s": (s.total("sweep.sample_params") / n, "s"),
            "sweep.sweep_self_s": (s.self_total("sweep.sweep") / n, "s"),
            "sweep.summarize_s": (s.total("sweep.summarize") / n, "s"),
            "sweep.write_csv_s": (s.total("sweep.write_csv") / n, "s"),
            "sweep.points_to_json_dict_s": (s.total("sweep.points_to_json_dict") / n, "s"),
            "cli.json_dumps_s": (s.total("cli.json_dumps") / n, "s"),
            "sweep.read_csv_s": (s.total("sweep.read_csv") / n, "s"),
            "sweep.write_gnuplot_s": (s.total("sweep.write_gnuplot") / n, "s"),
            "sweep.csv_bytes_per_point": (csv_bytes / (len(MODELS) * self.N_POINTS), "B/point"),
            "sweep.sweep_peak_bytes": (sweep_peak, "B"),
            "sweep.render_peak_bytes": (render_peak, "B"),
        }


# ---------------------------------------------------------------------------
# scalar-points
# ---------------------------------------------------------------------------

# Known faults, on fixed inputs, counted as failed operations.
# (a) eval_point ignores exclusion_margin in analytic mode: these points lie
#     within the default 1e-6 margin of a singular manifold, which a sweep
#     flags accardi_defined=false, but eval_point reports true.
FAULT_MARGIN_POINTS = (
    ClassicalParams(0.5, 0.5000001, 0.5),
    QuantumParams(1.0, math.pi / 2 + 5e-7),
)
# (b) counts above float range make `irboost estimate` raise OverflowError
#     instead of returning exit code 0 or 2.
FAULT_HUGE_COUNTS = (4 * 10**400, 2 * 10**400, 10**400, 10**400, 2 * 10**400)

# Seeded scalar points keep this far from every singular manifold, so no
# seed lands one inside the margin of fault (a).
SCALAR_CLEARANCE = 1e-4


def _classical_point(rnd: random.Random) -> ClassicalParams:
    while True:
        p, q_r, q_n = rnd.random(), rnd.random(), rnd.random()
        p_x = q_r * p + q_n * (1 - p)
        if min(p, abs(q_r - q_n), p_x) > SCALAR_CLEARANCE:
            return ClassicalParams(p, q_r, q_n)


def _quantum_point(rnd: random.Random) -> QuantumParams:
    while True:
        phi, alpha = rnd.random() * math.pi, rnd.random() * math.pi
        if min(abs(math.cos(alpha)), (1 + math.cos(phi)) / 2) > SCALAR_CLEARANCE:
            return QuantumParams(phi, alpha)


def _counts(rnd: random.Random) -> tuple:
    # N <= 20000 keeps a nonzero |q_r - q_n| >= 1/(N_R (N - N_R)) far above
    # the program's 1e-9 singularity guard, so only an exact tie is singular.
    n = rnd.randint(100, 20_000)
    n_r = rnd.randint(1, n - 1)
    return (n, n_r, rnd.randint(0, n_r), rnd.randint(0, n - n_r), rnd.randint(0, n))


class ScalarPoints(Workload):
    """Single-point library calls: analytic ``eval_point`` on both models,
    ``estimate_from_file`` on count files, and single-point CLI calls."""

    name = "scalar-points"
    labels = {
        "main_per_s": "eval_point (analytic), calls/s",
        "second_per_s": "estimate_from_file, files/s",
        "third_per_s": "irboost classical|quantum P..., CLI calls/s",
        "peak_bytes_per_item": "tracemalloc peak of one eval_point batch, B/call",
    }
    N_EVAL = 4000  # per model
    N_FILES = 400
    N_CLI = 50  # per model

    def prepare(self):
        rnd = random.Random(self.seed)
        self.points = [_classical_point(rnd) for _ in range(self.N_EVAL)]
        self.points += [_quantum_point(rnd) for _ in range(self.N_EVAL)]
        self.counts = [_counts(rnd) for _ in range(self.N_FILES)]
        self.files = []
        for i, (n, n_r, n_xr, n_xn, n_x) in enumerate(self.counts):
            path = self.work / f"counts-{i}.txt"
            path.write_text(f"# N N_R\n{n} {n_r}\n# N_XR N_XN N_X\n{n_xr} {n_xn} {n_x}\n")
            self.files.append(path)
        out = str(self.work / "point.csv")
        self.cli_argvs = [
            ["classical", repr(c.p), repr(c.q_r), repr(c.q_n), "--out", out]
            for c in (_classical_point(rnd) for _ in range(self.N_CLI))
        ] + [
            ["quantum", repr(q.phi), repr(q.alpha), "--out", out]
            for q in (_quantum_point(rnd) for _ in range(self.N_CLI))
        ]
        self.huge = self.work / "huge-counts.txt"
        self.huge.write_text(" ".join(map(str, FAULT_HUGE_COUNTS)) + "\n")

    def warm_up(self):
        path = self.work / "warm-counts.txt"
        path.write_text("100 40 30 12 42\n")
        SWEEP.eval_point(ClassicalParams(0.3, 0.6, 0.2))
        SWEEP.eval_point(QuantumParams(1.0, 0.7))
        SWEEP.estimate_from_file(path)
        CLI.main(["classical", "0.3", "0.6", "0.2", "--out", str(self.work / "warm.csv")])
        CLI.main(["quantum", "1.0", "0.7", "--out", str(self.work / "warm.csv")])

    def _eval(self, points):
        return [SWEEP.eval_point(p) for p in points]

    def _estimate_all(self):
        return [SWEEP.estimate_from_file(f) for f in self.files]

    def run_round(self):
        r = Round()
        half = len(self.points) // 2
        r.outputs["eval"] = r.timed("main_per_s", "eval-classical", half, self._eval, self.points[:half])
        r.outputs["eval"] += r.timed("main_per_s", "eval-quantum", half, self._eval, self.points[half:])
        r.outputs["estimate"] = r.timed("second_per_s", "estimate", len(self.files), self._estimate_all)
        r.attempted += len(self.points) + len(self.files)
        for i, argv in enumerate(self.cli_argvs):
            r.cli("third_per_s", f"cli-{i}", 1, argv)
        for params in FAULT_MARGIN_POINTS:
            r.attempted += 1
            if SWEEP.eval_point(params).accardi_defined:
                r.failed += 1
        r.attempted += 1
        try:
            ok = CLI.main(["estimate", str(self.huge), "--out", str(self.work / "huge.csv")]) in (0, 2)
        except Exception:  # the fault: any exception is a failed operation
            ok = False
        r.failed += not ok
        return r

    def check_outputs(self, last):
        problems = []
        for model, cls in (("classical", ClassicalParams), ("quantum", QuantumParams)):
            sel = [(p, pt) for p, pt in zip(self.points, last.outputs["eval"]) if isinstance(p, cls)]
            if model == "classical":
                rates = ref.classical_rates(*np.array([(p.p, p.q_r, p.q_n) for p, _ in sel]).T)
            else:
                rates = ref.quantum_rates(*np.array([(p.phi, p.alpha) for p, _ in sel]).T)
            a = np.array([pt.a for _, pt in sel])
            d = np.array([pt.delta for _, pt in sel])
            flags = np.array([pt.accardi_defined and pt.boost_defined for _, pt in sel])
            if not flags.all():
                problems.append(f"eval_point flags a {model} point clear of every margin undefined")
            a_ref, d_ref = ref.accardi(rates), ref.boost(rates)
            bad_a = ~(np.abs(a - a_ref) <= ref.tolerance(a_ref, ref.accardi_denominator(rates)))
            bad_d = ~(np.abs(d - d_ref) <= ref.tolerance(d_ref, rates.p_r))
            if bad_a.any() or bad_d.any():
                problems.append(
                    f"eval_point differs from the definitions on {int(bad_a.sum())} {model} "
                    f"A values and {int(bad_d.sum())} Delta values"
                )
        bad = 0
        for counts, est in zip(self.counts, last.outputs["estimate"]):
            bad += not _estimate_matches(counts, est)
        if bad:
            problems.append(f"{bad} count-file estimates differ from the exact fractions")
        return problems

    def peak_bytes_per_item(self):
        tracemalloc.start()
        try:
            self._eval(self.points)
            return tracemalloc.get_traced_memory()[1] / len(self.points)
        finally:
            tracemalloc.stop()

    def layer_metrics(self, spans, rounds):
        s = spans.tagged(self.name)

        def pair_us(model):
            calls = s.count(f"{model}.accardi_{model}")
            return (s.total(f"{model}.accardi_{model}") + s.total(f"{model}.boost_{model}")) / calls * 1e6

        return {
            "classical.call_us": (pair_us("classical"), "us"),
            "quantum.call_us": (pair_us("quantum"), "us"),
            "sweep.eval_point_self_us": (s.self_mean("sweep.eval_point") * 1e6, "us"),
            "sweep.parse_count_file_us": (s.mean("sweep.parse_count_file") * 1e6, "us"),
            "probcore.accardi_from_counts_us": (s.mean("probcore.accardi_from_counts") * 1e6, "us"),
            "sweep.estimate_self_us": (s.self_mean("sweep.estimate_from_file") * 1e6, "us"),
        }


def _estimate_matches(counts, est) -> bool:
    n, n_r, n_xr, n_xn, n_x = counts
    want = ref.from_counts(*counts)
    pt = est.point
    if (pt.params.p, pt.params.q_r, pt.params.q_n) != (n_r / n, n_xr / n_r, n_xn / (n - n_r)):
        return False
    if pt.accardi_defined != (want.accardi is not None) or pt.boost_defined != (want.boost is not None):
        return False
    if want.accardi is not None:
        a = float(want.accardi)
        if not abs(pt.a - a) <= ref.tolerance(a, float(want.accardi_denominator)):
            return False
    if want.boost is not None:
        d = float(want.boost)
        if not abs(pt.delta - d) <= ref.tolerance(d, 1.0):
            return False
    return True


# ---------------------------------------------------------------------------
# montecarlo
# ---------------------------------------------------------------------------


def bernstein_box(q, n):
    """Interval around success probability q that the rate of n Bernoulli(q)
    trials leaves with probability at most 2 exp(-Z^2/2)."""
    q = np.asarray(q, dtype=float)
    r = Z * np.sqrt(q * (1.0 - q) / n) + Z * Z / (3.0 * n)
    return np.clip(q - r, 0.0, 1.0), np.clip(q + r, 0.0, 1.0)


def corner_range(f, boxes):
    """Least and greatest value of f over a box.  Exact for functions that
    are monotone in each variable on the box, as the ratios and mixtures
    checked here are wherever their denominator keeps its sign."""
    values = np.stack([f(*corner) for corner in itertools.product(*boxes)])
    return values.min(axis=0), values.max(axis=0)


def _accardi_of(x, r, n):
    with np.errstate(divide="ignore", invalid="ignore"):
        return (x - n) / (r - n)


def _boost_of(post, base):
    with np.errstate(divide="ignore", invalid="ignore"):
        return post / base - 1.0


def _gap_of(x, r, n, base):
    return x - (r * base + n * (1.0 - base))


def _within(value, lo, hi):
    slack = 1e-9 * (1.0 + np.abs(value))
    return (value >= lo - slack) & (value <= hi + slack)


class MonteCarlo(Workload):
    """Three uses of the Monte Carlo streams: a small-n sweep of both models
    through the CLI, points whose relevance arm starves, and long simulate
    runs."""

    name = "montecarlo"
    labels = {
        "main_per_s": "irboost sweep --mode montecarlo --n-per-arm 100, points/s",
        "second_per_s": "simulate_classical|quantum at n_per_arm 1e6, accepted docs/s",
        "third_per_s": "eval_point montecarlo on a starving point, points/s",
        "peak_bytes_per_item": "tracemalloc peak of one simulate_quantum call at n 1e6, B/call",
    }
    # Four short sweeps per model rather than one long one: a short
    # operation's fastest time is more often taken free of neighbours.
    SWEEPS = 4  # per model
    SWEEP_POINTS = 50  # per sweep
    SWEEP_N = 100
    SIM_N = 1_000_000
    STARVE_N = 500
    ARMS = 5  # four filtered arms and the relevance baseline

    def __init__(self, seed, work):
        super().__init__(seed, work)
        rnd = random.Random(seed)
        self.sweeps = [(m, i) for m in MODELS for i in range(self.SWEEPS)]
        self.sweep_seeds = {sw: rnd.randrange(2**32) for sw in self.sweeps}
        # Simulate inputs keep every arm's acceptance rate near a fixed
        # value, so the raw draws, and the time, barely depend on the seed.
        p, q_r = rnd.uniform(0.45, 0.55), rnd.uniform(0.6, 0.8)
        phi = math.pi / 2 + rnd.uniform(-0.1, 0.1)
        self.simulations = [
            (ClassicalParams(p, q_r, (0.5 - q_r * p) / (1 - p)), rnd.randrange(2**32)),
            (QuantumParams(phi, phi - math.pi / 3), rnd.randrange(2**32)),
        ]
        # P(R) below 1e-6: the relevance arm starves for certain within its
        # 10^4 n draw budget, and the boost flag is off by the margin.
        self.starving = [
            (QuantumParams(math.pi - rnd.uniform(2e-4, 1.9e-3), rnd.uniform(0.4, 1.2)), rnd.randrange(2**32)),
            (ClassicalParams(rnd.uniform(1e-8, 5e-7), rnd.uniform(0.6, 0.9), rnd.uniform(0.1, 0.4)), rnd.randrange(2**32)),
        ]

    def path(self, sweep) -> Path:
        return self.work / "mc-{}-{}.csv".format(*sweep)

    def sweep_argv(self, sweep, n_points):
        return [
            "sweep", "--model", sweep[0], "--mode", "montecarlo",
            "--n-per-arm", str(self.SWEEP_N), "--n-points", str(n_points),
            "--seed", str(self.sweep_seeds[sweep]), "--out", str(self.path(sweep)),
        ]

    @staticmethod
    def _simulate(params, n, seed):
        if isinstance(params, ClassicalParams):
            return STREAM.simulate_classical(params, n, seed)
        return STREAM.simulate_quantum(params, n, seed)

    def warm_up(self):
        for sweep in self.sweeps:
            CLI.main(self.sweep_argv(sweep, 2))
        for params, seed in self.simulations:
            self._simulate(params, 1000, seed)
        for params, seed in self.starving:
            SWEEP.eval_point(params, mode="montecarlo", n_per_arm=10, seed=seed)

    def run_round(self):
        r = Round()
        for sweep in self.sweeps:
            r.cli("main_per_s", sweep, self.SWEEP_POINTS, self.sweep_argv(sweep, self.SWEEP_POINTS))
            r.digest(self.path(sweep))
        sims = []
        for params, seed in self.simulations:
            kind = type(params).__name__
            sims.append(r.timed("second_per_s", kind, self.ARMS * self.SIM_N, self._simulate, params, self.SIM_N, seed))
            r.digest(sims[-1].to_json().encode())
        starved = []
        for params, seed in self.starving:
            starved.append(
                r.timed("third_per_s", type(params).__name__, 1, SWEEP.eval_point, params,
                        mode="montecarlo", n_per_arm=self.STARVE_N, seed=seed)
            )
            r.digest(repr(starved[-1]).encode())
        r.attempted += len(sims) + len(starved)
        r.outputs.update(simulations=sims, starved=starved)
        return r

    def check_outputs(self, last):
        problems = []
        for sweep in self.sweeps:
            problems += ["montecarlo {} sweep {}: ".format(*sweep) + p for p in self._check_sweep(sweep)]
        for (params, _), res in zip(self.simulations, last.outputs["simulations"]):
            problems += [f"simulate {params}: {p}" for p in self._check_simulation(params, res)]
        for (params, _), pt in zip(self.starving, last.outputs["starved"]):
            if pt.accardi_defined or pt.boost_defined:
                problems.append(f"starving point {params} returned a defined flag")
        return problems

    def _check_sweep(self, sweep):
        model = sweep[0]
        with open(self.path(sweep), newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        cols = list(zip(*rows))
        if model == "classical":
            rates = ref.classical_rates(*(np.array(c, dtype=float) for c in cols[1:4]))
        else:
            rates = ref.quantum_rates(*(np.array(c, dtype=float) for c in cols[1:3]))
        a, delta = (np.array([float(v) if v else np.nan for v in c]) for c in cols[4:6])
        a_ok, d_ok = (np.array(c) == "true" for c in cols[6:8])
        problems = []
        if len(rows) != self.SWEEP_POINTS:
            problems.append(f"{len(rows)} rows, expected {self.SWEEP_POINTS}")
        margin = SWEEP.DEFAULT_EXCLUSION_MARGIN
        if (a_ok & (np.abs(ref.accardi_denominator(rates)) <= margin)).any():
            problems.append("A flagged defined inside the exclusion margin")
        if (d_ok & (rates.p_r <= margin)).any():
            problems.append("Delta flagged defined inside the exclusion margin")

        n = self.SWEEP_N
        x, r, nn = (bernstein_box(q, n) for q in (rates.p_x, rates.p_x_r, rates.p_x_n))
        a_lo, a_hi = corner_range(_accardi_of, (x, r, nn))
        # the ratio is monotone only where its denominator box excludes 0
        a_checked = a_ok & ((r[0] - nn[1] > 0) | (r[1] - nn[0] < 0))
        post, base = bernstein_box(rates.p_r_x, n), bernstein_box(rates.p_r, n)
        d_lo, d_hi = corner_range(_boost_of, (post, base))
        d_checked = d_ok & (base[0] > 0)
        for name, checked, got, lo, hi in (
            ("A", a_checked, a, a_lo, a_hi),
            ("Delta", d_checked, delta, d_lo, d_hi),
        ):
            bad = checked & ~_within(got, lo, hi)
            if bad.any():
                problems.append(f"{int(bad.sum())} {name} estimates lie over {Z:g} standard errors from the closed form")
        return problems

    def _check_simulation(self, params, res):
        if isinstance(params, ClassicalParams):
            rates = ref.classical_rates(params.p, params.q_r, params.q_n)
        else:
            rates = ref.quantum_rates(params.phi, params.alpha)
        n = self.SIM_N
        want = {
            ArmKind.COND_ON_RELEVANT: rates.p_x_r,
            ArmKind.COND_ON_NON_RELEVANT: rates.p_x_n,
            ArmKind.DIRECT_TERM: rates.p_x,
            ArmKind.EXPAND_THEN_RELEVANCE: rates.p_r_x,
            None: rates.p_r,
        }
        problems, observed = [], {}
        for kind, q in want.items():
            tally = res.baseline if kind is None else res.arms[kind]
            label = "baseline" if kind is None else kind.value
            if tally is None:
                problems.append(f"{label} arm starved")
                continue
            lo, hi = bernstein_box(q, n)
            observed[kind] = tally.counts.n_success / n
            if tally.counts.n_total != n or tally.draws_consumed < n:
                problems.append(f"{label} arm tallied {tally.counts.n_total} documents in {tally.draws_consumed} draws")
            elif not lo <= observed[kind] <= hi:
                problems.append(f"{label} arm rate {observed[kind]} is not binomial around {float(q)}")
        if problems:
            return problems
        # the direct term arm against the total-probability mixture of the
        # others: the interference gap sin(phi) sin(alpha) / 2, or 0
        kinds = (ArmKind.DIRECT_TERM, ArmKind.COND_ON_RELEVANT, ArmKind.COND_ON_NON_RELEVANT, None)
        gap = _gap_of(*(observed[k] for k in kinds))
        boxes = [bernstein_box(q, n) for q in (rates.p_x, rates.p_x_r, rates.p_x_n, rates.p_r)]
        lo, hi = corner_range(_gap_of, boxes)
        if not _within(gap, lo, hi):
            problems.append(f"interference gap {gap} outside [{float(lo)}, {float(hi)}]")
        if isinstance(params, QuantumParams) and not lo > 0:
            problems.append("the interference gap is not resolved from 0")
        return problems

    def peak_bytes_per_item(self):
        # A sweep's peak depends on whether a seed draws a point whose arm
        # needs a second chunk; a simulate call's peak does not.
        params, seed = self.simulations[1]
        tracemalloc.start()
        try:
            self._simulate(params, self.SIM_N, seed)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def layer_metrics(self, spans, rounds):
        s = spans.tagged(self.name)
        points = len(rounds) * len(self.sweeps) * self.SWEEP_POINTS

        def arms(n, starved=None):
            return s.select(
                "stream.simulate_arm",
                lambda note: note["n"] == n and (starved is None or note["starved"] == starved),
            )

        ok_arms = arms(self.SWEEP_N, starved=False)
        starved_arms = arms(self.STARVE_N, starved=True)
        sim_arms = arms(self.SIM_N)
        sims = s.select("stream.simulate_classical", lambda note: note["n"] == self.SIM_N)
        sims += s.select("stream.simulate_quantum", lambda note: note["n"] == self.SIM_N)
        return {
            "sweep.mc_point_self_us": (s.self_total("sweep.sweep") / points * 1e6, "us"),
            "stream.arm_us": (s.mean_of(ok_arms) * 1e6, "us"),
            "stream.arms_per_point": (len(arms(self.SWEEP_N)) / points, "count"),
            "stream.starved_arm_s": (s.mean_of(starved_arms), "s"),
            "stream.starved_draws": (statistics.mean(s.notes(starved_arms, "draws")), "count"),
            "stream.arm_draws_per_s": (sum(s.notes(sim_arms, "draws")) / s.total_of(sim_arms), "1/s"),
            "stream.simulate_self_us": (s.self_mean_of(sims) * 1e6, "us"),
        }


WORKLOADS = {w.name: w for w in (AnalyticSweep, ScalarPoints, MonteCarlo)}


# ---------------------------------------------------------------------------
# span queries for the per-layer metrics
# ---------------------------------------------------------------------------


class Spans:
    """Read-only queries over a tracer's spans, restricted to one tag."""

    def __init__(self, records, self_times, indices=None):
        self.records = records
        self.self_times = self_times
        self.indices = range(len(records)) if indices is None else indices

    def tagged(self, tag) -> "Spans":
        return Spans(self.records, self.self_times, [i for i in self.indices if self.records[i][4] == tag])

    def select(self, name, where=None) -> list[int]:
        return [
            i for i in self.indices
            if self.records[i][0] == name and (where is None or where(self.records[i][5]))
        ]

    def count(self, name) -> int:
        return len(self.select(name))

    def total_of(self, idx) -> float:
        return sum(self.records[i][2] - self.records[i][1] for i in idx)

    def mean_of(self, idx) -> float:
        return self.total_of(idx) / len(idx)

    def self_mean_of(self, idx) -> float:
        return sum(self.self_times[i] for i in idx) / len(idx)

    def notes(self, idx, key) -> list:
        return [self.records[i][5][key] for i in idx]

    def total(self, name) -> float:
        return self.total_of(self.select(name))

    def mean(self, name) -> float:
        return self.mean_of(self.select(name))

    def self_total(self, name) -> float:
        return sum(self.self_times[i] for i in self.select(name))

    def self_mean(self, name) -> float:
        return self.self_mean_of(self.select(name))
