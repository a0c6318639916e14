"""Parameter sweeps producing (A, Delta) scatter data, single-point
evaluation, empirical estimation from external count files, and the CSV /
JSON output layer.

Sampling domains are the boxes the parameter classes state: every
parameter iid uniform on [0, bound], so classical (p, q_r, q_n) on
[0, 1]^3 and quantum (phi, alpha) on [0, pi]^2.
Points within ``exclusion_margin`` of a singular manifold (|q_r - q_n|,
|cos alpha|, or P(R) too small) are flagged, not dropped, so a sweep stays
an unbiased uniform sample and summary fractions remain interpretable.  A
``ScatterPoint``'s model is its params' ``name``, and each flag is read
off its value: set exactly where that value is finite.

All parameter sampling happens up front from one seeded generator,
``default_rng(seed)``, and results are deterministic and independent of
evaluation order.  ``irboost.stream`` owns the Monte Carlo point and the
point seeds of a Monte Carlo sweep, and states their contract in its
module docstring.
"""

from __future__ import annotations

import contextlib
import math
import os
import re
import stat
import sys
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from . import classical as cm
from . import quantum as qm
from .classical import ClassicalParams
from .errors import MalformedInput, UndefinedQuantity
from .probcore import (
    EPS_DENOM,
    ArmCounts,
    EstimateWithError,
    ModelParams,
    accardi_from_counts,
    fields_dict,
    with_error,
)
from .quantum import QuantumParams
from .stream import _int_rule, _run_point, _run_points, check_n_per_arm, check_seed

# Unused here, but bench/tracing.py looks both up on this module by name
# (its PATCHES list) and fails to install without them.
from .stream import simulate_classical, simulate_quantum

MODELS = {cls.name: cls for cls in (ClassicalParams, QuantumParams)}
MODES = ("analytic", "montecarlo")

CSV_HEADER = [
    "model",
    "param1",
    "param2",
    "param3",
    "a",
    "delta",
    "accardi_defined",
    "boost_defined",
]

# param1..param3; a quantum point leaves param3 empty
_EMPTY_PARAMS = ("", "", "")
_FLAG_TEXT = {True: "true", False: "false"}  # accardi_defined, boost_defined

DEFAULT_EXCLUSION_MARGIN = 1e-6
DEFAULT_N_PER_ARM = 10_000

# ``n_points`` as a Python int, if it is an integer >= 1
_check_n_points = _int_rule(1, math.inf, "n_points must be >= 1")


@dataclass(frozen=True, slots=True)
class SweepConfig:
    model: str  # "classical" | "quantum"
    n_points: int
    seed: int
    mode: str = "analytic"  # one of MODES
    n_per_arm: int = DEFAULT_N_PER_ARM
    exclusion_margin: float = DEFAULT_EXCLUSION_MARGIN

    def __post_init__(self):
        if not isinstance(self.model, str) or self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r}")
        object.__setattr__(self, "n_points", _check_n_points(self.n_points))
        n_per_arm, seed, _ = _run_args(
            self.mode, self.n_per_arm, self.seed, self.exclusion_margin
        )
        object.__setattr__(self, "n_per_arm", n_per_arm)
        object.__setattr__(self, "seed", seed)


class EmpiricalParams(ClassicalParams):
    """The classical rates a count file estimates, labelled ``empirical``."""

    __slots__ = ()
    name = "empirical"


class ScatterPoint(NamedTuple):
    """One (A, Delta) point; each flag is True exactly where its value is finite."""

    params: ModelParams
    a: float
    delta: float

    @property
    def model(self) -> str:
        return self.params.name

    @property
    def accardi_defined(self) -> bool:
        return math.isfinite(self.a)

    @property
    def boost_defined(self) -> bool:
        return math.isfinite(self.delta)


@dataclass(frozen=True, slots=True)
class SweepSummary:
    """Aggregate view of one sweep.

    ``n_defined`` counts points with both validity flags set; the two
    fractions are taken over accardi-defined points.  The three maxima are
    over points with both flags set ("classical region" means 0 <= a <= 1,
    "violation" means a outside [0, 1]); NaN when the set is empty.
    """

    n_points: int
    n_defined: int
    fraction_a_below_0: float
    fraction_a_above_1: float
    max_delta: float
    max_delta_classical_region: float
    max_delta_violation: float


@dataclass(frozen=True, slots=True)
class CountEstimate:
    """Empirical (A, Delta) from externally supplied counts, with errors."""

    point: ScatterPoint
    accardi: Optional[EstimateWithError]
    boost: Optional[EstimateWithError]


# ---------------------------------------------------------------------------
# sampling and analytic evaluation
# ---------------------------------------------------------------------------

def sample_params(config: SweepConfig) -> np.ndarray:
    """Uniform parameter matrix in the model's box, one row per point."""
    cls = MODELS[config.model]
    rng = np.random.default_rng(config.seed)
    return rng.random((config.n_points, len(cls.__match_args__))) * cls.bound


def _margin(margin: float) -> float:
    """The margin the models' rules take for an exclusion margin: at least
    EPS_DENOM.  ValueError unless the exclusion margin lies in [0, 0.5)."""
    try:
        ok = 0.0 <= margin < 0.5
    except TypeError:  # not a number
        ok = False
    if not ok:
        raise ValueError("exclusion_margin must lie in [0, 0.5)")
    return margin if margin > EPS_DENOM else EPS_DENOM


def _run_args(mode: str, n_per_arm, seed, exclusion_margin: float):
    """(n_per_arm, seed, margin) a run uses, the counts as Python ints; checks
    mode, n_per_arm, the exclusion margin and the seed, in that order."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    n_per_arm = check_n_per_arm(n_per_arm)
    margin = _margin(exclusion_margin)
    return n_per_arm, check_seed(seed), margin


def _analytic_points(
    model: str, mat: np.ndarray, params: "list[ModelParams]", m: float
) -> list[ScatterPoint]:
    # a flag that is false masks its lane, whose division may be 0/0, x/0 or
    # overflow (a subnormal denominator); no lane a flag keeps can do any
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if model == "classical":
            p, q_r, q_n = mat[:, 0], mat[:, 1], mat[:, 2]
            a_ok = cm.accardi_defined(q_r, q_n, m)
            d_ok = cm.boost_defined(p, q_r, q_n, m)
            a = np.where(a_ok, p, np.nan)
            delta = np.where(d_ok, cm.boost_closed_form(p, q_r, q_n), np.nan)
        else:
            phi, alpha = mat[:, 0], mat[:, 1]
            cp, ca = np.cos(phi), np.cos(alpha)
            a_ok, d_ok = qm.accardi_defined(ca, m), qm.boost_defined(cp, m)
            a = np.where(a_ok, qm.accardi_closed_form(ca, np.cos(phi - alpha)), np.nan)
            delta = np.where(d_ok, qm.boost_closed_form(cp, ca), np.nan)
    return [_point(*row) for row in zip(params, a.tolist(), delta.tolist())]


def _point(params: ModelParams, a: float, delta: float) -> ScatterPoint:
    # not ScatterPoint(...): its generated __new__ is one more Python frame
    return tuple.__new__(ScatterPoint, (params, a, delta))


def summarize(points: Sequence[ScatterPoint]) -> SweepSummary:
    # lists of references only: a (a, delta) tuple per point would cost
    # more memory
    a_defined = [pt.a for pt in points if pt.accardi_defined]
    both = [pt for pt in points if pt.accardi_defined and pt.boost_defined]
    n_a = len(a_defined)
    return SweepSummary(
        n_points=len(points),
        n_defined=len(both),
        fraction_a_below_0=sum(a < 0.0 for a in a_defined) / n_a if n_a else math.nan,
        fraction_a_above_1=sum(a > 1.0 for a in a_defined) / n_a if n_a else math.nan,
        max_delta=max((pt.delta for pt in both), default=math.nan),
        max_delta_classical_region=max(
            (pt.delta for pt in both if 0.0 <= pt.a <= 1.0), default=math.nan
        ),
        max_delta_violation=max(
            (pt.delta for pt in both if pt.a < 0.0 or pt.a > 1.0), default=math.nan
        ),
    )


def sweep(config: SweepConfig) -> "tuple[list[ScatterPoint], SweepSummary]":
    """Uniform parameter sweep; deterministic given the config."""
    mat = sample_params(config)
    cls = MODELS[config.model]
    params = [cls(*row) for row in mat.tolist()]
    m = _margin(config.exclusion_margin)
    if config.mode == "analytic":
        points = _analytic_points(config.model, mat, params, m)
    else:
        runs = _run_points(params, config.n_per_arm, config.seed, m)
        points = [_point(pt, *run) for pt, run in zip(params, runs)]
    return points, summarize(points)


def eval_point(
    params: ModelParams,
    mode: str = "analytic",
    n_per_arm: int = DEFAULT_N_PER_ARM,
    seed: int = 0,
    exclusion_margin: float = DEFAULT_EXCLUSION_MARGIN,
) -> ScatterPoint:
    """Evaluate one parameter point, flagged as a sweep flags its points.

    A Monte Carlo point is the point of ``simulate_*(params, n_per_arm,
    seed)`` at ``seed`` itself, not at the point seed a sweep derives from
    its seed: a 1-point Monte Carlo sweep at seed s gives the point of
    ``eval_point`` at ``SeedSequence(s, spawn_key=(0,)).generate_state(1,
    np.uint64)[0]``.
    """
    # both modes check up front, though an analytic point draws nothing and
    # a point flagged on both counts never simulates
    n_per_arm, seed, m = _run_args(mode, n_per_arm, seed, exclusion_margin)
    if mode == "montecarlo":
        return _point(params, *_run_point(params, n_per_arm, seed, m))

    accardi_ok, boost_ok = params.flags(m)
    # looked up at call time, so wrappers on the model modules see each call
    if isinstance(params, ClassicalParams):
        a_fn, d_fn = cm.accardi_classical, cm.boost_classical
    else:
        a_fn, d_fn = qm.accardi_quantum, qm.boost_quantum
    a = a_fn(params) if accardi_ok else math.nan
    return _point(params, a, d_fn(params) if boost_ok else math.nan)


# ---------------------------------------------------------------------------
# external count files
# ---------------------------------------------------------------------------

# five counts and their comments need far less than this
COUNT_FILE_CAP = 1 << 20


def parse_count_file(path) -> "tuple[int, int, int, int, int]":
    """Read the five counts N N_R N_XR N_XN N_X from a plain-text file.

    The file is read whole and decoded as strict UTF-8; a file longer than
    COUNT_FILE_CAP bytes, such as one with no end, is malformed.  A line
    ends at "\\n", "\\r\\n" or "\\r"; a line whose first non-blank
    character is '#' is a comment, but a '#' after a count is a malformed
    token.  The counts are whitespace-separated, on one line or several,
    and each is ASCII digits only.  Raises MalformedInput on decoding,
    parse or consistency failure.
    """
    # raw reads to EOF, or a byte past the cap: for a few lines, a file
    # object cost more than the parse
    fd = os.open(path, os.O_RDONLY)
    try:
        chunks = []
        left = COUNT_FILE_CAP + 1
        # a conditional, not min(), which added ~0.5 µs to a small file
        while left and (chunk := os.read(fd, 65536 if left > 65536 else left)):
            chunks.append(chunk)
            left -= len(chunk)
    except OSError as exc:  # os.read's error names no file: a directory fails here
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
    finally:
        os.close(fd)
    if not left:
        raise MalformedInput(f"count file longer than {COUNT_FILE_CAP} bytes")
    try:
        text = b"".join(chunks).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedInput(str(exc)) from None
    tokens: list[str] = []
    # the line ends of universal newlines; str.splitlines() would also break
    # at "\x0c", "\x85" and the like, and so end a comment early
    for line in text.replace("\r\n", "\n").replace("\r", "\n").split("\n"):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        tokens.extend(stripped.split())
    if len(tokens) != 5:
        raise MalformedInput(
            f"expected 5 counts (N N_R N_XR N_XN N_X), got {len(tokens)} tokens"
        )
    for t in tokens:  # int() would also take a sign, "_" and non-ASCII digits
        if not (t.isascii() and t.isdigit()):
            raise MalformedInput(f"counts must be nonnegative, in ASCII digits: {t!r}")
    try:
        n, n_r, n_xr, n_xn, n_x = (int(t) for t in tokens)
    except ValueError as exc:  # more digits than int() converts
        raise MalformedInput(f"count too long in {path}: {exc}") from None
    if n == 0:
        raise MalformedInput("N must be positive")
    if n_r > n:
        raise MalformedInput(f"N_R={n_r} exceeds N={n}")
    if n_xr > n_r:
        raise MalformedInput(f"N_XR={n_xr} exceeds N_R={n_r}")
    if n_xn > n - n_r:
        raise MalformedInput(f"N_XN={n_xn} exceeds N - N_R={n - n_r}")
    if n_x > n:
        raise MalformedInput(f"N_X={n_x} exceeds N={n}")
    if n_r == 0 or n_r == n:
        raise MalformedInput(
            "both relevance classes must be populated to form conditional rates"
        )
    if n > sys.float_info.max:  # N bounds every other count
        raise MalformedInput("N is beyond float range")
    return n, n_r, n_xr, n_xn, n_x


def estimate_from_file(path) -> CountEstimate:
    """Empirical (A, Delta) with standard errors from a five-count file.

    A comes from the Accardi ratio on the three empirical rates; Delta is
    ``boost_closed_form`` at (p, q_r, q_n) = (N_R/N, N_XR/N_R, N_XN/(N-N_R)),
    as in ``eval_point``, defined where the classical model's rule at
    EPS_DENOM says so.  Undefined quantities are flagged, not fatal.  The
    point's params are an ``EmpiricalParams``.
    """
    n, n_r, n_xr, n_xn, n_x = parse_count_file(path)
    n_nr = n - n_r

    p = n_r / n
    q_r = n_xr / n_r
    q_n = n_xn / n_nr
    params = EmpiricalParams(p, q_r, q_n)

    try:
        acc = accardi_from_counts(
            ArmCounts(n_r, n_xr), ArmCounts(n_nr, n_xn), ArmCounts(n, n_x)
        )
    except UndefinedQuantity:
        acc = None

    bst: Optional[EstimateWithError] = None
    if cm.boost_defined(p, q_r, q_n, EPS_DENOM):
        denom = q_r * p + q_n * (1.0 - p)
        # delta method on independent binomial rates
        se_p = math.sqrt(p * (1.0 - p) / n)
        se_qr = math.sqrt(q_r * (1.0 - q_r) / n_r)
        se_qn = math.sqrt(q_n * (1.0 - q_n) / n_nr)
        d_qr = q_n * (1.0 - p) / denom**2
        d_qn = -q_r * (1.0 - p) / denom**2
        d_p = -q_r * (q_r - q_n) / denom**2
        delta = cm.boost_closed_form(p, q_r, q_n)
        bst = with_error(delta, n, d_qr * se_qr, d_qn * se_qn, d_p * se_p)

    a = math.nan if acc is None else acc.estimate
    point = _point(params, a, math.nan if bst is None else bst.estimate)
    return CountEstimate(point=point, accardi=acc, boost=bst)


# ---------------------------------------------------------------------------
# output layer
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    # 17 significant digits: lossless float round-trip
    return format(x, ".17g") if math.isfinite(x) else ""


def _point_row(pt: ScatterPoint) -> str:
    params = [_fmt(getattr(pt.params, k)) for k in pt.params.__match_args__]
    params += _EMPTY_PARAMS[len(params) :]
    return (
        f"{pt.model},{','.join(params)},{_fmt(pt.a)},{_fmt(pt.delta)},"
        f"{_FLAG_TEXT[pt.accardi_defined]},{_FLAG_TEXT[pt.boost_defined]}\n"
    )


def write_csv(points: Iterable[ScatterPoint], stream) -> None:
    stream.write(",".join(CSV_HEADER) + "\n")
    stream.writelines(map(_point_row, points))


def export_csv(points: Iterable[ScatterPoint], path) -> None:
    """Write scatter points as CSV (header mandatory, 17-digit floats, plain
    lines with no quoting, each ended by "\\n"), over ``path`` in place as
    ``_rewrite`` writes it."""
    with _rewrite(path) as fh:
        write_csv(points, fh)


def _open_in_place(path, flags):
    # open()'s flags for "w" less O_TRUNC: ext4 starts writeback when a file
    # truncated to zero and written again is closed (its auto_da_alloc
    # heuristic), and nothing here needs the file on disk before its time
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


@contextlib.contextmanager
def _rewrite(path):
    """``path`` as a UTF-8 text file with no newline translation, written
    from byte 0 over what it held.  On exit, also when the writing failed, a
    regular file is cut where the writing stopped; a FIFO, the null device
    or a terminal is left as it is."""
    with open(path, "w", encoding="utf-8", newline="", opener=_open_in_place) as fh:
        try:
            yield fh
        finally:
            try:
                fh.flush()
            finally:
                fd = fh.fileno()
                if stat.S_ISREG(os.fstat(fd).st_mode):
                    os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))


def _fields(line: str) -> list[str]:
    """The fields of one line less its "\\n"; a blank line has none."""
    line = line.removesuffix("\n")
    return line.split(",") if line else []


_CSV_MODELS = {  # model column -> (parameter class, number of fields)
    cls.name: (cls, len(cls.__match_args__))
    for cls in (ClassicalParams, QuantumParams, EmpiricalParams)
}
_TEXT_FLAG = {text: flag for flag, text in _FLAG_TEXT.items()}
# a line as writers emit it: printable ASCII but space and "_" (\x5f); float()
# would also take whitespace, "_" and non-ASCII digits in a value
_WRITTEN = re.compile(r"[\x21-\x5e\x60-\x7e]*\n?")


def _decoded_lines(fh):
    """A binary file's lines as strict UTF-8; MalformedInput names the line
    that is not, with the error's offsets within that line."""
    for n, line in enumerate(fh, 1):
        try:
            yield line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MalformedInput(f"line {n}: {exc}") from None


def read_csv(path) -> list[ScatterPoint]:
    """Parse a file written by ``export_csv``, exact value round-trip; a row
    it never writes, such as one with a quoted field, a "\\r\\n" end or a
    space in a number, is MalformedInput."""
    points = []
    with open(path, "rb") as fh:  # its lines end only at b"\n", as written
        lines = _decoded_lines(fh)
        try:
            header = next(map(_fields, lines), None)
            if header != CSV_HEADER:
                raise MalformedInput(f"unexpected CSV header: {header!r}")
            for line in lines:
                row = _fields(line)
                if len(row) != len(CSV_HEADER) or not _WRITTEN.fullmatch(line):
                    raise MalformedInput(f"bad CSV row: {row!r}")
                model, p1, p2, p3, a, delta, a_ok, b_ok = row
                cls, n = _CSV_MODELS.get(model, (None, 0))
                flags = _TEXT_FLAG.get(a_ok), _TEXT_FLAG.get(b_ok)
                # n is 2 or 3, so only param3 can lie past a model's parameters;
                # a value is empty exactly when its flag is false, else finite
                if cls is None or (p3 and n < 3) or flags != (bool(a), bool(delta)):
                    raise MalformedInput(f"bad CSV row: {row!r}")
                values = [float(v) if v else math.nan for v in (a, delta)]
                if flags != tuple(map(math.isfinite, values)):
                    raise MalformedInput(f"bad CSV row: {row!r}")
                # the parameter classes apply float()
                points.append(_point(cls(*(p1, p2, p3)[:n]), *values))
        except MalformedInput:
            raise
        except ValueError as exc:  # from float() or a parameter class
            raise MalformedInput(str(exc)) from None
    return points


def write_gnuplot(points: Iterable[ScatterPoint], stream) -> None:
    """Two-column 'a delta' rows for points with both flags set."""
    stream.write("# a delta\n")
    for pt in points:
        if pt.accardi_defined and pt.boost_defined:
            stream.write(f"{_fmt(pt.a)} {_fmt(pt.delta)}\n")


def points_to_json_dict(
    points: Sequence[ScatterPoint], summary: Optional[SweepSummary] = None
) -> dict:
    """JSON payload mirroring the CSV fields, plus the sweep summary."""

    def _val(x: float):
        return x if math.isfinite(x) else None

    out: dict = {
        "points": [
            {
                "model": pt.model,
                "params": fields_dict(pt.params),
                "a": _val(pt.a),
                "delta": _val(pt.delta),
                "accardi_defined": pt.accardi_defined,
                "boost_defined": pt.boost_defined,
            }
            for pt in points
        ]
    }
    if summary is not None:
        out["summary"] = {k: _val(v) for k, v in fields_dict(summary).items()}
    return out
