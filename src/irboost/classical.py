"""Closed-form urn model: documents are balls drawn from an urn.

Parameters: p = P(R) prior relevance, q_r = P(X|R), q_n = P(X|~R).
Belief revision is Bayesian, so the law of total probability holds and the
Accardi invariant always equals p (hence lies in [0, 1]).

Note on the boost formula: expanding Delta = P(R|X)/P(R) - 1 with the Bayes
posterior gives numerator (q_r - q_n)(1 - p).  A sum (q_r + q_n) sometimes
seen in this place does not follow from the posterior and is not used here;
``boost_classical`` is required to agree with the two-step route
boost(posterior_bayes(params), p) and is tested against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from .errors import AccardiUndefined, BoostUndefined
from .probcore import (
    EPS_DENOM, ModelParams, Probability, _mixture, total_probability
)


@dataclass(frozen=True, slots=True)
class ClassicalParams(ModelParams):
    """Urn-model parameter triple (p, q_r, q_n), each in [0, 1]."""

    name: ClassVar[str] = "classical"  # model name in every output
    bound: ClassVar[float] = 1.0  # the box: every parameter lies in [0, bound]
    bound_text: ClassVar[str] = "1"
    p: float
    q_r: float
    q_n: float

    def flags(self, margin):
        p, q_r, q_n = self.p, self.q_r, self.q_n
        return accardi_defined(q_r, q_n, margin), boost_defined(p, q_r, q_n, margin)

    def stream_rates(self):
        p_r, p_x_r, p_x_n = self.p, self.q_r, self.q_n
        # the fields are checked floats, so not through total_probability,
        # which checks them again
        p_x = _mixture(p_x_r, p_x_n, p_r)
        # rounding can push this rate alone past 1.  Not posterior_bayes: it
        # raises where P(X) <= EPS_DENOM, and a starving expansion arm needs a rate
        p_r_x = min(1.0, p_r * p_x_r / p_x) if p_x > 0.0 else 0.0
        return p_r, p_x_r, p_x_n, p_x, p_r_x


def marginal_term_rate(params: ClassicalParams) -> Probability:
    """P(X) by total probability: q_r p + q_n (1 - p)."""
    return total_probability(params.q_r, params.q_n, params.p)


def posterior_bayes(params: ClassicalParams) -> Probability:
    """Bayes posterior P(R|X) = q_r p / (q_r p + q_n (1 - p)).

    Raises BoostUndefined when the marginal P(X) is effectively zero: the
    term never occurs and conditioning on it is vacuous.
    """
    denom = params.q_r * params.p + params.q_n * (1.0 - params.p)
    if denom <= EPS_DENOM:
        raise BoostUndefined(
            f"marginal P(X)={denom} is effectively zero for {params}"
        )
    return Probability(min(1.0, params.q_r * params.p / denom))


def accardi_defined(q_r, q_n, margin):
    """A is defined where |q_r - q_n| > margin; floats or NumPy arrays."""
    return abs(q_r - q_n) > margin


def boost_defined(p, q_r, q_n, margin):
    """Delta is defined where p > margin and P(X) > EPS_DENOM; floats or arrays."""
    return (p > margin) & (q_r * p + q_n * (1.0 - p) > EPS_DENOM)


def boost_closed_form(p, q_r, q_n):
    """Delta = (q_r - q_n)(1 - p) / (q_r p + q_n (1 - p)), unguarded."""
    return (q_r - q_n) * (1.0 - p) / (q_r * p + q_n * (1.0 - p))


def boost_classical(params: ClassicalParams) -> float:
    """Expected precision boost of expanding with the term:

        Delta = (q_r - q_n)(1 - p) / (q_r p + q_n (1 - p))

    Positive iff q_r > q_n.  Raises BoostUndefined when p ~ 0 (no relevant
    documents; relative boost meaningless) or when P(X) ~ 0.
    """
    if not boost_defined(params.p, params.q_r, params.q_n, EPS_DENOM):
        raise BoostUndefined(f"P(R) or P(X) is effectively zero for {params}")
    return boost_closed_form(params.p, params.q_r, params.q_n)


def accardi_classical(params: ClassicalParams) -> float:
    """Accardi invariant of the urn model: exactly p.

    Raises AccardiUndefined when q_r ~ q_n (non-discriminating term).
    """
    if not accardi_defined(params.q_r, params.q_n, EPS_DENOM):
        raise AccardiUndefined(f"q_r = q_n = {params.q_r} within tolerance")
    return params.p
