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

The point relations are checked at every entry point that evaluates a
point: ``eval_point``, the analytic sweep and the single-point CLI.  A Monte
Carlo run draws each arm from a substream keyed by its index, so a
relabelled run draws other documents; its relations are checked on the
run's own tallies instead.  Swapping the tallies of the relevant and
non-relevant arms gives A' = 1 - A, and complementing the successes of the
expansion arm and the baseline, which counts ~R where they counted R,
gives Delta' = -Delta P(R) / (1 - P(R)) at the baseline's P(R).
"""

import contextlib
import importlib
import io
import math
import os
import sys
import tempfile
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from irboost import (
    ArmCounts,
    ArmKind,
    ArmTally,
    ClassicalParams,
    QuantumParams,
    SimResult,
    SweepConfig,
    estimate_from_file,
    eval_point,
    simulate_classical,
    simulate_quantum,
    sweep,
)
from irboost.cli import main as cli_main
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


def _relabelled_row(row):
    """A parameter row relabelled: (p, q_r, q_n) or (phi, alpha)."""
    if len(row) == 3:
        p, q_r, q_n = row
        return 1.0 - p, q_n, q_r
    phi, alpha = row
    return math.pi - phi, math.pi - alpha


def _check_relabelled(row, pt, swapped):
    """``swapped`` against ``pt``, the points of the parameter row ``row``
    and of its relabelling, where both have a flag set: A' = 1 - A and
    Delta' at P(R)."""
    if len(row) == 3:
        # A is p itself, and 1 - p is the relabelled prior: exact
        assert swapped.accardi_defined == pt.accardi_defined
        p_r, a_bound = row[0], 0.0
    else:
        p_r = quantum_rates(QuantumParams(*row)).p_r
        a_bound = _ULPS * EPS * (1.0 + abs(pt.a)) / abs(math.cos(row[1]))
    if pt.accardi_defined and swapped.accardi_defined:
        assert abs(swapped.a - (1.0 - pt.a)) <= a_bound
    if pt.boost_defined and swapped.boost_defined:
        want = _relabelled_delta(pt.delta, p_r)
        assert abs(swapped.delta - want) <= _delta_bound(want, p_r)


class TestRelevanceRelabelling:
    @RELATIONS
    @given(p=_unit, q_r=_unit, q_n=_unit)
    @example(p=0.3, q_r=0.9, q_n=0.1)
    def test_classical(self, p, q_r, q_n):
        row = (p, q_r, q_n)
        pt = eval_point(ClassicalParams(*row))
        swapped = eval_point(ClassicalParams(*_relabelled_row(row)))
        _check_relabelled(row, pt, swapped)

    @RELATIONS
    @given(phi=_angle, alpha=_angle)
    @example(phi=1.0, alpha=0.5)
    @example(phi=0.3, alpha=math.pi / 2 - 1e-6)
    def test_quantum(self, phi, alpha):
        row = (phi, alpha)
        pt = eval_point(QuantumParams(*row))
        swapped = eval_point(QuantumParams(*_relabelled_row(row)))
        _check_relabelled(row, pt, swapped)


_ROWS = {
    "classical": st.lists(st.tuples(_unit, _unit, _unit), min_size=1, max_size=20),
    "quantum": st.lists(st.tuples(_angle, _angle), min_size=1, max_size=20),
}


def _swept(model, rows):
    """The analytic sweep's points of the parameter rows ``rows``, in order."""
    module = importlib.import_module("irboost.sweep")  # irboost.sweep is the function
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(module, "sample_params", lambda config: np.array(rows, float))
        points, _ = sweep(SweepConfig(model, len(rows), seed=0))
    return points


class TestAnalyticSweep:
    @pytest.mark.parametrize("model", ["classical", "quantum"])
    @RELATIONS
    @given(data=st.data())
    def test_relabelled(self, model, data):
        rows = data.draw(_ROWS[model])
        points = _swept(model, rows)
        swapped = _swept(model, [_relabelled_row(row) for row in rows])
        assert len(points) == len(swapped) == len(rows)
        for row, pt, sw in zip(rows, points, swapped):
            _check_relabelled(row, pt, sw)


def _cli_point(command, row):
    """The point ``irboost <command>`` prints for the parameters ``row``,
    read back from its 17-digit CSV row."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli_main([command, *map(repr, row)]) == 0
    header, line = out.getvalue().splitlines()
    fields = dict(zip(header.split(","), line.split(",")))
    return SimpleNamespace(
        a=float(fields["a"] or "nan"),
        delta=float(fields["delta"] or "nan"),
        accardi_defined=fields["accardi_defined"] == "true",
        boost_defined=fields["boost_defined"] == "true",
    )


class TestSinglePointCli:
    @RELATIONS
    @given(p=_unit, q_r=_unit, q_n=_unit)
    @example(p=0.3, q_r=0.9, q_n=0.1)
    def test_classical(self, p, q_r, q_n):
        row = (p, q_r, q_n)
        pt = _cli_point("classical", row)
        _check_relabelled(row, pt, _cli_point("classical", _relabelled_row(row)))

    @RELATIONS
    @given(phi=_angle, alpha=_angle)
    @example(phi=1.0, alpha=0.5)
    def test_quantum(self, phi, alpha):
        row = (phi, alpha)
        pt = _cli_point("quantum", row)
        _check_relabelled(row, pt, _cli_point("quantum", _relabelled_row(row)))


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


_RUNS = st.one_of(
    st.tuples(st.just(simulate_classical), st.builds(ClassicalParams, _unit, _unit, _unit)),
    st.tuples(st.just(simulate_quantum), st.builds(QuantumParams, _angle, _angle)),
)
_MC_RELATIONS = settings(max_examples=200, deadline=None, derandomize=True)
_R, _NR, _EXPAND = (
    ArmKind.COND_ON_RELEVANT, ArmKind.COND_ON_NON_RELEVANT, ArmKind.EXPAND_THEN_RELEVANCE
)


def _complemented(tally):
    """The tally with its successes and failures swapped; None stays None."""
    if tally is None:
        return None
    n, k = tally.counts.n_total, tally.counts.n_success
    return ArmTally(ArmCounts(n, n - k), tally.draws_consumed)


def _rate(tally):
    return tally.counts.n_success / tally.counts.n_total


class TestMonteCarloTallies:
    @_MC_RELATIONS
    @given(run=_RUNS, n_per_arm=st.integers(1, 10**6), seed=st.integers(0, 2**64 - 1))
    @example(run=(simulate_classical, ClassicalParams(0.3, 0.9, 0.1)), n_per_arm=1000, seed=1)
    @example(run=(simulate_quantum, QuantumParams(1.0, 0.5)), n_per_arm=1000, seed=1)
    def test_conditional_arms_swapped(self, run, n_per_arm, seed):
        simulate, params = run
        res = simulate(params, n_per_arm, seed)
        arms = res.arms
        swapped = SimResult(res.config, {**arms, _R: arms[_NR], _NR: arms[_R]}, res.baseline)
        est, est_swapped = res.accardi_est, swapped.accardi_est
        # undefined alike: a starved arm, or |q_r - q_n| <= EPS_DENOM
        assert (est is None) == (est_swapped is None)
        if est is not None:
            a = est.estimate
            bound = _ULPS * EPS * (1.0 + abs(a)) / abs(_rate(arms[_R]) - _rate(arms[_NR]))
            assert abs(est_swapped.estimate - (1.0 - a)) <= bound
            # the same squared error terms, summed in another order
            assert math.isclose(est_swapped.std_error, est.std_error, rel_tol=_ULPS * EPS)
            assert est_swapped.n == est.n

    @_MC_RELATIONS
    @given(run=_RUNS, n_per_arm=st.integers(1, 10**6), seed=st.integers(0, 2**64 - 1))
    @example(run=(simulate_classical, ClassicalParams(0.3, 0.9, 0.1)), n_per_arm=1000, seed=1)
    @example(run=(simulate_quantum, QuantumParams(1.0, 0.5)), n_per_arm=1000, seed=1)
    def test_relevance_successes_complemented(self, run, n_per_arm, seed):
        simulate, params = run
        res = simulate(params, n_per_arm, seed)
        arms = {**res.arms, _EXPAND: _complemented(res.arms[_EXPAND])}
        complemented = SimResult(res.config, arms, _complemented(res.baseline))
        est, est_complemented = res.boost_est, complemented.boost_est
        if est is not None and est_complemented is not None:
            p_r = _rate(res.baseline)
            want = _relabelled_delta(est.estimate, p_r)
            assert abs(est_complemented.estimate - want) <= _delta_bound(want, p_r)
