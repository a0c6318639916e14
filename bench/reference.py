"""Reference values of the Accardi invariant A and the precision boost Delta,
computed from the definitions in the paper and not from irboost's closed
forms:

    A     = (P(X) - P(X|~R)) / (P(X|R) - P(X|~R))
    Delta = (P(R|X) - P(R)) / P(R)

* quantum: every probability is a Born-rule overlap |<a|b>|^2 of real unit
  vectors in the relevance basis {|R>, |~R>}; P(R|X) is the relevance
  probability after collapse onto |X>.
* classical: P(X) by the law of total probability, P(R|X) by Bayes' rule.
* counts: exact ``fractions.Fraction`` arithmetic on the five counts.

The array functions broadcast over NumPy arrays, so one call checks a whole
sweep.  The benchmark compares irboost's outputs with these values within a
tolerance scaled by the singular denominator of each quantity
(``tolerance``).
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional

import numpy as np

KET_R = np.array([1.0, 0.0])
KET_NOT_R = np.array([0.0, 1.0])

# Tolerance in units of double-precision epsilon: the reference and the
# program each chain a handful of rounded operations before the division.
TOL_ULPS = 64


class Rates(NamedTuple):
    """The measured probabilities both quantities are defined from."""

    p_r: np.ndarray  # P(R)
    p_x_r: np.ndarray  # P(X|R)
    p_x_n: np.ndarray  # P(X|~R)
    p_x: np.ndarray  # P(X), measured directly on the document
    p_r_x: np.ndarray  # P(R|X)


def ket(angle) -> np.ndarray:
    """Real unit vector cos(angle/2)|R> + sin(angle/2)|~R>, shape (..., 2)."""
    angle = np.asarray(angle, dtype=float)
    return np.stack([np.cos(angle / 2.0), np.sin(angle / 2.0)], axis=-1)


def born(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Born-rule probability |<a|b>|^2 of real state vectors."""
    return np.sum(a * b, axis=-1) ** 2


def quantum_rates(phi, alpha) -> Rates:
    query, term = ket(phi), ket(alpha)
    return Rates(
        p_r=born(query, KET_R),
        p_x_r=born(term, KET_R),
        p_x_n=born(term, KET_NOT_R),
        p_x=born(term, query),
        # pre-selecting on X collapses the document onto |X>
        p_r_x=born(KET_R, term),
    )


def classical_rates(p, q_r, q_n) -> Rates:
    p, q_r, q_n = (np.asarray(v, dtype=float) for v in (p, q_r, q_n))
    p_x = q_r * p + q_n * (1.0 - p)
    with np.errstate(divide="ignore", invalid="ignore"):
        p_r_x = q_r * p / p_x
    return Rates(p_r=p, p_x_r=q_r, p_x_n=q_n, p_x=p_x, p_r_x=p_r_x)


def accardi(r: Rates) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        return (r.p_x - r.p_x_n) / accardi_denominator(r)


def accardi_denominator(r: Rates) -> np.ndarray:
    return r.p_x_r - r.p_x_n


def boost(r: Rates) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        return (r.p_r_x - r.p_r) / r.p_r


def interference_gap(r: Rates) -> np.ndarray:
    """Direct P(X) minus its total-probability mixture; 0 when Bayesian."""
    return r.p_x - (r.p_x_r * r.p_r + r.p_x_n * (1.0 - r.p_r))


def tolerance(value, denominator) -> np.ndarray:
    """Absolute tolerance for a quantity computed as a ratio with the given
    singular denominator: TOL_ULPS ulps of (1 + |value|), divided by it."""
    eps = np.finfo(float).eps
    return TOL_ULPS * eps * (1.0 + np.abs(value)) / np.abs(denominator)


class CountReference(NamedTuple):
    """Exact empirical A and Delta of a five-count file (None: undefined)."""

    accardi: Optional[Fraction]
    accardi_denominator: Fraction
    boost: Optional[Fraction]


def from_counts(n: int, n_r: int, n_xr: int, n_xn: int, n_x: int) -> CountReference:
    """A from the three empirical rates and Delta from the Bayes posterior on
    (p, q_r, q_n) = (N_R/N, N_XR/N_R, N_XN/(N - N_R)), all exact."""
    p = Fraction(n_r, n)
    q_r = Fraction(n_xr, n_r)
    q_n = Fraction(n_xn, n - n_r)
    p_x = Fraction(n_x, n)
    denom = q_r - q_n
    a = (p_x - q_n) / denom if denom else None
    p_x_total = q_r * p + q_n * (1 - p)
    delta = (q_r * p / p_x_total - p) / p if p_x_total else None
    return CountReference(a, denom, delta)
