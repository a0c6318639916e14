"""Closed-form spin-1/2 model: documents are two-level quantum systems.

All states are real unit vectors (a rebit) in the basis {|R>, |~R>}:

    query state  |q> = cos(phi/2) |R> + sin(phi/2) |~R>
    term state   |X> = cos(alpha/2) |R> + sin(alpha/2) |~R>

with phi, alpha in [0, pi], which covers every distinct real state up to a
global sign.  Measurement follows the Born rule; after a measurement the
statistics depend only on the outcome eigenstate (collapse), never on the
pre-measurement amplitudes.  That is why ``posterior_quantum`` ignores phi:
pre-selecting on X erases the query-state memory, and the post-selection
relevance probability is |<R|X>|^2 = cos^2(alpha/2).

The law of total probability fails here; the gap is ``interference_term``
= sin(phi) sin(alpha) / 2, and the Accardi invariant

    A = (1 + cos(phi - alpha)/cos(alpha)) / 2

can take any real value.  (An intermediate fraction sometimes quoted for A
does not follow from the defining ratio; the expression above is the one
consistent with it, and is cross-checked against the ratio in tests.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

from .errors import AccardiUndefined, BoostUndefined
from .probcore import EPS_DENOM, ModelParams, Probability, total_probability


@dataclass(frozen=True, slots=True)
class QuantumParams(ModelParams):
    """Query-state angle phi and term-state angle alpha, radians in [0, pi]."""

    name: ClassVar[str] = "quantum"  # model name in every output
    bound: ClassVar[float] = math.pi  # the box: every parameter lies in [0, bound]
    bound_text: ClassVar[str] = "pi"
    phi: float
    alpha: float

    def flags(self, margin):
        cos_phi, cos_alpha = math.cos(self.phi), math.cos(self.alpha)
        return accardi_defined(cos_alpha, margin), boost_defined(cos_phi, margin)

    def stream_rates(self):
        p_r, p_x_r, p_x_n, p_x = _born_rates(self)
        # P(X) is the direct measurement.  Collapse rule (posterior_quantum):
        # the second measurement sees only the eigenstate the first selected,
        # never |q>; after collapsing onto |X>, P(R) = |<R|X>|^2 = P(X|R).
        return p_r, p_x_r, p_x_n, p_x, p_x_r


@dataclass(frozen=True, slots=True)
class QuantumRates:
    """The four Born-rule rates of the spin-1/2 model.

    p_x_given_r + p_x_given_n = 1 always (cos^2 / sin^2 pair), and
    p_x_direct is the *direct* term measurement on |q>, which in general
    differs from the total-probability mixture of the conditionals.
    """

    p_r: Probability
    p_x_given_r: Probability
    p_x_given_n: Probability
    p_x_direct: Probability


def _born_rates(params: QuantumParams) -> "tuple[float, float, float, float]":
    """``quantum_rates``' four rates as plain floats, in field order."""
    cp = math.cos(params.phi)
    ca = math.cos(params.alpha)
    return (
        (1.0 + cp) / 2.0,
        (1.0 + ca) / 2.0,
        (1.0 - ca) / 2.0,
        (1.0 + math.cos(params.phi - params.alpha)) / 2.0,
    )


def quantum_rates(params: QuantumParams) -> QuantumRates:
    """All four measurement rates:

        P(R)     = (1 + cos phi) / 2
        P(X|R)   = (1 + cos alpha) / 2
        P(X|~R)  = (1 - cos alpha) / 2
        P(X) direct = |<X|q>|^2 = (1 + cos(phi - alpha)) / 2

    Each lies in [0, 1] as computed: 1 +- cos rounds to a double in [0, 2],
    and halving it is exact.
    """
    return QuantumRates(*map(Probability, _born_rates(params)))


def posterior_quantum(params: QuantumParams) -> Probability:
    """Relevance probability after pre-selecting on the term:

        P(R|X) = |<R|X>|^2 = (1 + cos alpha) / 2

    Independent of phi: collapsing onto |X> destroys the query state.
    """
    return Probability((1.0 + math.cos(params.alpha)) / 2.0)


def accardi_defined(cos_alpha, margin):
    """A is defined where |cos alpha| > margin; cosines as floats or arrays."""
    return abs(cos_alpha) > margin


def boost_defined(cos_phi, margin):
    """Delta is defined where P(R) = (1 + cos phi) / 2 > margin."""
    return (1.0 + cos_phi) / 2.0 > margin


def accardi_closed_form(cos_alpha, cos_phi_minus_alpha):
    """A = (1 + cos(phi - alpha)/cos(alpha)) / 2, unguarded."""
    return 0.5 * (1.0 + cos_phi_minus_alpha / cos_alpha)


def boost_closed_form(cos_phi, cos_alpha):
    """Delta = (cos alpha - cos phi) / (1 + cos phi), unguarded."""
    return (cos_alpha - cos_phi) / (1.0 + cos_phi)


def boost_quantum(params: QuantumParams) -> float:
    """Precision boost (cos alpha - cos phi) / (1 + cos phi).

    Raises BoostUndefined when phi ~ pi: the query is orthogonal to
    relevance, P(R) = 0, and relative boost is meaningless.
    """
    cp = math.cos(params.phi)
    if not boost_defined(cp, EPS_DENOM):
        raise BoostUndefined(f"P(R)=0 at phi={params.phi}")
    return boost_closed_form(cp, math.cos(params.alpha))


def accardi_quantum(params: QuantumParams) -> float:
    """Accardi invariant (1 + cos(phi - alpha)/cos(alpha)) / 2; any real.

    Raises AccardiUndefined when alpha ~ pi/2, where
    P(X|R) = P(X|~R) = 1/2 and the defining ratio degenerates.
    """
    ca = math.cos(params.alpha)
    if not accardi_defined(ca, EPS_DENOM):
        raise AccardiUndefined(f"cos(alpha)=0 at alpha={params.alpha}")
    return accardi_closed_form(ca, math.cos(params.phi - params.alpha))


def interference_term(params: QuantumParams) -> float:
    """Gap between the direct P(X) and the total-probability mixture:

        P(X)_direct - [P(X|R) P(R) + P(X|~R) (1 - P(R))]
            = sin(phi) sin(alpha) / 2

    Zero exactly when either state is a relevance eigenstate; bounded by
    [-1/2, 1/2] (and nonnegative on the [0, pi]^2 domain).
    """
    return 0.5 * math.sin(params.phi) * math.sin(params.alpha)


def interference_term_by_rates(params: QuantumParams) -> float:
    """The same gap computed from the rates themselves, no trig identity.

    Kept as the independent cross-check route for ``interference_term``.
    """
    r = quantum_rates(params)
    return r.p_x_direct - total_probability(r.p_x_given_r, r.p_x_given_n, r.p_r)
