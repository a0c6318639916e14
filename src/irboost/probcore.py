"""Core probability types, count-based estimators, and the model-agnostic
invariant/boost formulas shared by the classical and quantum document models.

Everything here is a pure function over immutable values: thread-safe with
no coordination.

Conventions
-----------
* R / ~R  : a document is relevant / non-relevant to the query.
* X       : a document contains the expansion term.
* Accardi invariant A = (P(X) - P(X|~R)) / (P(X|R) - P(X|~R)).
  When the law of total probability holds, A = P(R) and 0 <= A <= 1.
* Precision boost Delta = (P(R|X) - P(R)) / P(R).

Each of A and Delta has one float-level rule, ``accardi_of_rates`` and
``boost_of_rates``; the checked estimators and a Monte Carlo sweep point
all compute it through that rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .errors import AccardiUndefined, BoostUndefined, EmptyArm

# Denominator guard for all "quantity undefined here" checks.  Small enough
# to pass the analytic identities, large enough to dodge catastrophic
# cancellation in double precision.
EPS_DENOM = 1e-9


class Probability(float):
    """A float constrained to [0, 1] at construction time."""

    __slots__ = ()

    def __new__(cls, value) -> "Probability":
        v = float(value)
        if not (0.0 <= v <= 1.0):  # also rejects NaN
            raise ValueError(f"probability must lie in [0, 1], got {value!r}")
        return super().__new__(cls, v)


@dataclass(frozen=True, slots=True)
class RateTriple:
    """The three measured rates feeding the Accardi invariant.

    No joint constraint is imposed: p_x need not equal the total-probability
    mixture of the two conditionals (the quantum model deliberately breaks
    that law).
    """

    p_x_given_r: float
    p_x_given_n: float
    p_x: float

    def __post_init__(self):
        for name in ("p_x_given_r", "p_x_given_n", "p_x"):
            object.__setattr__(self, name, Probability(getattr(self, name)))


@dataclass(frozen=True, slots=True)
class ArmCounts:
    """Raw outcome tally from one measurement arm of a document stream."""

    n_total: int
    n_success: int

    def __post_init__(self):
        n, k = self.n_total, self.n_success
        # one chained test for a valid tally; every comparison with NaN is
        # false, and an int beyond float range compares without converting
        if 0 <= k <= n < math.inf:
            return
        if not (-math.inf < n < math.inf and -math.inf < k < math.inf):
            raise ValueError(f"counts must be finite, got n_total={n}, n_success={k}")
        if n < 0 or k < 0:
            raise ValueError("counts must be nonnegative")
        raise ValueError(f"n_success={k} exceeds n_total={n}")


@dataclass(frozen=True, slots=True)
class EstimateWithError:
    """A point estimate with its (first-order) standard error."""

    estimate: float
    std_error: float
    n: int

    def __post_init__(self):
        if self.std_error < 0:
            raise ValueError("std_error must be nonnegative")


class ModelParams:
    """Base of a model's parameter class, a frozen dataclass of floats.  The
    subclass states its model's rules once: ``name``; its box [0, ``bound``],
    spelled ``bound_text``; ``flags(margin)``, the pair (accardi_defined,
    boost_defined); ``stream_rates()``, P(R), P(X|R), P(X|~R), P(X), P(R|X).
    """

    __slots__ = ()  # or each subclass instance keeps a dict beside its slots

    def __post_init__(self):
        bound = self.bound
        for field in self.__match_args__:  # the dataclass's fields, in order
            v = float(getattr(self, field))
            if not (0.0 <= v <= bound):
                raise ValueError(f"{field} must lie in [0, {self.bound_text}], got {v!r}")
            object.__setattr__(self, field, v)


def fields_dict(value) -> Optional[dict]:
    """A dataclass instance's fields, as its ``__match_args__`` names them,
    in a new dict; None stays None.  Read by name: the records keep their
    fields in slots, so vars() raises TypeError on them.
    """
    if value is None:
        return None
    return {k: getattr(value, k) for k in value.__match_args__}


def accardi_of_rates(p_x_given_r: float, p_x_given_n: float, p_x: float) -> float:
    """Accardi ratio (P(X) - P(X|~R)) / (P(X|R) - P(X|~R)) of three plain
    floats, unchecked; NaN where it is undefined: where
    |P(X|R) - P(X|~R)| <= EPS_DENOM, or where a rate is NaN."""
    denom = p_x_given_r - p_x_given_n
    if abs(denom) > EPS_DENOM:  # False for a NaN denominator
        return (p_x - p_x_given_n) / denom
    return math.nan


def boost_of_rates(p_r_given_x: float, p_r: float) -> float:
    """Relative precision boost (P(R|X) - P(R)) / P(R) of two plain floats,
    unchecked; NaN where it is undefined: where P(R) <= EPS_DENOM, or where
    a rate is NaN."""
    if p_r > EPS_DENOM:  # False for a NaN P(R)
        return (p_r_given_x - p_r) / p_r
    return math.nan


def accardi(rates: RateTriple) -> float:
    """Accardi invariant of a rate triple; an unbounded real.

    Raises AccardiUndefined when the two conditional rates coincide (the
    term does not discriminate relevance): |P(X|R) - P(X|~R)| <= EPS_DENOM,
    the models' rule at zero margin.
    """
    a = accardi_of_rates(rates.p_x_given_r, rates.p_x_given_n, rates.p_x)
    if math.isnan(a):  # a Probability is never NaN
        raise AccardiUndefined(
            f"P(X|R) = P(X|~R) = {rates.p_x_given_r} within tolerance"
        )
    return a


def boost(p_r_given_x: float, p_r: float) -> float:
    """Relative precision boost (P(R|X) - P(R)) / P(R); may be negative.

    Raises BoostUndefined when P(R) <= EPS_DENOM (no relevant documents
    exist, so a relative boost is meaningless), the models' rule at zero
    margin.
    """
    delta = boost_of_rates(Probability(p_r_given_x), Probability(p_r))
    if math.isnan(delta):
        raise BoostUndefined(f"baseline P(R)={p_r} is effectively zero")
    return delta


def total_probability(
    p_x_given_r: float, p_x_given_n: float, p_r: float
) -> Probability:
    """Total-probability mixture P(X|R) P(R) + P(X|~R) (1 - P(R))."""
    qr = Probability(p_x_given_r)
    qn = Probability(p_x_given_n)
    p = Probability(p_r)
    return Probability(_mixture(qr, qn, p))


def _mixture(q_r: float, q_n: float, p: float) -> float:
    """``total_probability`` of three floats already in [0, 1], unchecked."""
    v = q_r * p + q_n * (1.0 - p)
    # rounding can overshoot the closed interval by an ulp
    return min(1.0, max(0.0, v))


def with_error(estimate: float, n: int, *terms: float) -> EstimateWithError:
    """``estimate`` with its first-order (delta-method) standard error.

    Each term is one input's partial derivative times that input's standard
    error; the inputs are independent, so the variance is the sum of the
    squared terms, added in the order given.
    """
    var = 0.0
    for t in terms:  # not sum(): its summation differs across Python versions
        var += t**2
    return EstimateWithError(estimate=estimate, std_error=math.sqrt(var), n=n)


def _rate_and_error(counts: ArmCounts) -> "tuple[float, float]":
    """An arm's rate p = n_success / n_total and its binomial (Wald) error
    sqrt(p (1 - p) / n), as plain floats; EmptyArm on an empty arm."""
    n = counts.n_total
    if n == 0:
        raise EmptyArm("no documents observed in this arm")
    p = counts.n_success / n
    return p, math.sqrt(p * (1.0 - p) / n)


def estimate_rate(counts: ArmCounts) -> EstimateWithError:
    """Empirical success rate of an arm with its binomial (Wald) error.

    std_error = sqrt(p_hat (1 - p_hat) / n); exactly zero on degenerate
    all-success / all-failure tallies.
    """
    return EstimateWithError(*_rate_and_error(counts), n=counts.n_total)


def accardi_from_counts(
    arm_r: ArmCounts, arm_n: ArmCounts, arm_direct: ArmCounts
) -> EstimateWithError:
    """Accardi invariant of three empirical arm tallies.

    The point estimate is exactly ``accardi`` applied to the three empirical
    rates, and raises as it does.  The standard error is first-order (delta
    method) treating the three arms as independent experiments; ``n`` is the
    combined number of tallied documents.
    """
    q_r, se_r = _rate_and_error(arm_r)
    q_n, se_n = _rate_and_error(arm_n)
    p_x, se_x = _rate_and_error(arm_direct)
    a = accardi_of_rates(q_r, q_n, p_x)
    if math.isnan(a):  # the checked route raises its error, for a NaN rate too
        accardi(RateTriple(q_r, q_n, p_x))

    denom = q_r - q_n
    d_dx = 1.0 / denom
    d_dr = -(p_x - q_n) / denom**2
    d_dn = (p_x - q_r) / denom**2
    return with_error(
        float(a),  # a float on NumPy integer counts too, as accardi gives
        arm_r.n_total + arm_n.n_total + arm_direct.n_total,
        d_dx * se_x,
        d_dr * se_r,
        d_dn * se_n,
    )
