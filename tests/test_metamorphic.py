"""Metamorphic relations: the models' symmetries, checked with no reference value.

Relabelling relevance swaps R and ~R.  A classical point (p, q_r, q_n)
becomes (1 - p, q_n, q_r); a quantum point (phi, alpha) becomes
(pi - phi, pi - alpha), which swaps the |R> and |~R> amplitudes of both
states.  Either way A' = 1 - A and Delta' = -Delta P(R) / (1 - P(R)).  A
count file relabelled, (N, N - N_R, N_XN, N_XR, N_X), obeys the same two
relations, and one with the term complemented, (N, N_R, N_R - N_XR,
N - N_R - N_XN, N - N_X), gives A' = A.

Each relation holds exactly in real arithmetic.  In floats the error is
bounded by the conditioning of the denominator each side divides by:
|cos alpha| for the quantum A, |q_r - q_n| for A from counts, P(R) and
1 - P(R) for Delta.  The bound is _ULPS machine epsilons scaled by that
conditioning, not a flat tolerance.  Over 200,000 random points per model
and 20,000 random count files, log-spaced toward the ends of each box, the
largest error was 1.22 of those epsilons (the quantum A).
"""

import math
import os
import sys
import tempfile

from hypothesis import example, given, settings
from hypothesis import strategies as st

from irboost import ClassicalParams, QuantumParams, estimate_from_file, eval_point
from irboost.quantum import quantum_rates

EPS = sys.float_info.epsilon
_ULPS = 8
RELATIONS = settings(max_examples=400, deadline=None, derandomize=True)

# each box, its ends and points near them included
_unit = st.one_of(st.sampled_from([0.0, 1e-12, 0.5, 1.0 - 1e-12, 1.0]), st.floats(0.0, 1.0))
_angle = st.one_of(
    st.sampled_from([0.0, 1e-4, math.pi / 2, math.pi - 1e-4, math.pi]),
    st.floats(0.0, math.pi),
)


def _delta_bound(delta, p_r):
    """The bound on Delta' at P(R): both P(R) and 1 - P(R) divide."""
    return _ULPS * EPS * (1.0 + abs(delta)) * (1.0 / p_r + 1.0 / (1.0 - p_r))


def _relabelled_delta(delta, p_r):
    return -delta * p_r / (1.0 - p_r)


class TestRelevanceRelabelling:
    @RELATIONS
    @given(p=_unit, q_r=_unit, q_n=_unit)
    @example(p=0.3, q_r=0.9, q_n=0.1)
    def test_classical(self, p, q_r, q_n):
        pt = eval_point(ClassicalParams(p, q_r, q_n))
        swapped = eval_point(ClassicalParams(1.0 - p, q_n, q_r))
        # A is p itself, and 1 - p is the relabelled prior: exact
        assert swapped.accardi_defined == pt.accardi_defined
        if pt.accardi_defined:
            assert swapped.a == 1.0 - pt.a
        if pt.boost_defined and swapped.boost_defined:
            want = _relabelled_delta(pt.delta, p)
            assert abs(swapped.delta - want) <= _delta_bound(want, p)

    @RELATIONS
    @given(phi=_angle, alpha=_angle)
    @example(phi=1.0, alpha=0.5)
    @example(phi=0.3, alpha=math.pi / 2 - 1e-6)
    def test_quantum(self, phi, alpha):
        params = QuantumParams(phi, alpha)
        pt = eval_point(params)
        swapped = eval_point(QuantumParams(math.pi - phi, math.pi - alpha))
        if pt.accardi_defined and swapped.accardi_defined:
            bound = _ULPS * EPS * (1.0 + abs(pt.a)) / abs(math.cos(alpha))
            assert abs(swapped.a - (1.0 - pt.a)) <= bound
        if pt.boost_defined and swapped.boost_defined:
            p_r = quantum_rates(params).p_r
            want = _relabelled_delta(pt.delta, p_r)
            assert abs(swapped.delta - want) <= _delta_bound(want, p_r)


@st.composite
def _count_files(draw):
    """Five consistent counts (N, N_R, N_XR, N_XN, N_X), both classes populated."""
    n = draw(st.one_of(st.integers(2, 1_000), st.integers(2, 10**18)))
    n_r = draw(st.integers(1, n - 1))
    n_xr = draw(st.integers(0, n_r))
    n_xn = draw(st.integers(0, n - n_r))
    n_x = draw(st.one_of(st.just(n_xr + n_xn), st.integers(0, n)))
    return n, n_r, n_xr, n_xn, n_x


def _estimates(*files):
    """``estimate_from_file`` of each five-count file, in order."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "counts.txt")
        outcomes = []
        for counts in files:
            with open(path, "w", encoding="ascii") as fh:
                fh.write(" ".join(map(str, counts)) + "\n")
            outcomes.append(estimate_from_file(path))
    return outcomes


def _accardi_bound(a, n, n_r, n_xr, n_xn):
    """The bound on A' from counts: the rates' difference divides."""
    return _ULPS * EPS * (1.0 + abs(a)) / abs(n_xr / n_r - n_xn / (n - n_r))


class TestCountFiles:
    @RELATIONS
    @given(counts=_count_files())
    @example(counts=(1000, 500, 400, 100, 500))
    def test_relabelled(self, counts):
        n, n_r, n_xr, n_xn, n_x = counts
        est, swapped = _estimates(counts, (n, n - n_r, n_xn, n_xr, n_x))
        # the relabelled rates are the same two quotients, swapped
        assert swapped.point.accardi_defined == est.point.accardi_defined
        if est.point.accardi_defined:
            a = est.point.a
            assert abs(swapped.point.a - (1.0 - a)) <= _accardi_bound(a, *counts[:4])
        if est.point.boost_defined and swapped.point.boost_defined:
            p_r = n_r / n
            want = _relabelled_delta(est.point.delta, p_r)
            assert abs(swapped.point.delta - want) <= _delta_bound(want, p_r)

    @RELATIONS
    @given(counts=_count_files())
    @example(counts=(1000, 500, 400, 100, 500))
    def test_term_complemented(self, counts):
        n, n_r, n_xr, n_xn, n_x = counts
        est, complemented = _estimates(counts, (n, n_r, n_r - n_xr, n - n_r - n_xn, n - n_x))
        if est.point.accardi_defined and complemented.point.accardi_defined:
            a = est.point.a
            assert abs(complemented.point.a - a) <= _accardi_bound(a, *counts[:4])
