import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irboost import classical as cm
from irboost import (
    EPS_DENOM,
    AccardiUndefined,
    BoostUndefined,
    ClassicalParams,
    RateTriple,
    accardi,
    accardi_classical,
    boost,
    boost_classical,
    eval_point,
    marginal_term_rate,
    posterior_bayes,
    total_probability,
)

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def nondegenerate(p_min=1e-3, sep=1e-3):
    """Parameter triples away from the singular manifolds."""
    return st.tuples(
        st.floats(min_value=p_min, max_value=1.0),
        unit,
        unit,
    ).filter(lambda t: abs(t[1] - t[2]) >= sep and t[1] * t[0] + t[2] * (1 - t[0]) >= 1e-3)


class TestPosteriorBayes:
    def test_hand_arithmetic(self):
        # 0.4 / (0.4 + 0.1)
        assert posterior_bayes(ClassicalParams(0.5, 0.8, 0.2)) == pytest.approx(
            0.8, abs=1e-15
        )

    @given(q_r=st.floats(min_value=0.01, max_value=1.0), q_n=unit)
    def test_certain_relevance(self, q_r, q_n):
        assert posterior_bayes(ClassicalParams(1.0, q_r, q_n)) == 1.0

    def test_term_absent_everywhere(self):
        with pytest.raises(BoostUndefined):
            posterior_bayes(ClassicalParams(0.5, 0.0, 0.0))

    def test_monotone_in_q_r(self):
        posts = [
            posterior_bayes(ClassicalParams(0.3, q_r, 0.4))
            for q_r in np.linspace(0.01, 1.0, 50)
        ]
        assert all(b >= a for a, b in zip(posts, posts[1:]))

    def test_param_validation(self):
        with pytest.raises(ValueError):
            ClassicalParams(1.5, 0.5, 0.5)


class TestBoostClassical:
    def test_positive_case(self):
        assert boost_classical(ClassicalParams(0.5, 0.8, 0.2)) == pytest.approx(
            0.6, abs=1e-12
        )

    def test_negative_case(self):
        assert boost_classical(ClassicalParams(0.5, 0.2, 0.8)) == pytest.approx(
            -0.6, abs=1e-12
        )

    @given(p=st.floats(min_value=0.01, max_value=1.0), q=st.floats(min_value=0.01, max_value=1.0))
    def test_independent_term_is_flat(self, p, q):
        assert boost_classical(ClassicalParams(p, q, q)) == 0.0

    def test_zero_prior_undefined(self):
        with pytest.raises(BoostUndefined):
            boost_classical(ClassicalParams(0.0, 0.5, 0.1))

    def test_undefined_where_marginal_equals_eps_denom(self):
        # P(X) = 0.5 * 2e-9 is EPS_DENOM exactly: undefined, as every guard
        # treats a value equal to its bound
        params = ClassicalParams(0.5, 2e-9, 0.0)
        assert marginal_term_rate(params) == EPS_DENOM
        with pytest.raises(BoostUndefined):
            boost_classical(params)
        with pytest.raises(BoostUndefined):
            boost(posterior_bayes(params), params.p)
        point = eval_point(params, exclusion_margin=0.0)
        assert point.boost_defined is False
        assert math.isnan(point.delta)

    def test_prior_one_already_maximal(self):
        assert boost_classical(ClassicalParams(1.0, 0.7, 0.3)) == 0.0

    @given(nondegenerate())
    @settings(max_examples=500)
    def test_route_equivalence(self, t):
        # closed form must agree with the boost-of-posterior route
        p, q_r, q_n = t
        params = ClassicalParams(p, q_r, q_n)
        direct = boost_classical(params)
        routed = boost(posterior_bayes(params), p)
        assert direct == pytest.approx(routed, abs=1e-12)

    @given(nondegenerate())
    @settings(max_examples=300)
    def test_sign_law(self, t):
        p, q_r, q_n = t
        delta = boost_classical(ClassicalParams(p, q_r, q_n))
        if q_r > q_n:
            assert delta >= 0.0
        else:
            assert delta <= 0.0


class TestAccardiClassical:
    def test_equals_prior(self):
        assert accardi_classical(ClassicalParams(0.3, 0.9, 0.1)) == 0.3

    def test_no_relevant_documents(self):
        assert accardi_classical(ClassicalParams(0.0, 1.0, 0.0)) == 0.0

    def test_nondiscriminating_term(self):
        with pytest.raises(AccardiUndefined):
            accardi_classical(ClassicalParams(0.5, 0.5, 0.5))

    @given(nondegenerate())
    @settings(max_examples=500)
    def test_classical_bound(self, t):
        a = accardi_classical(ClassicalParams(*t))
        assert 0.0 <= a <= 1.0

    @given(nondegenerate())
    @settings(max_examples=500)
    def test_consistent_with_ratio_route(self, t):
        p, q_r, q_n = t
        params = ClassicalParams(p, q_r, q_n)
        p_x = total_probability(q_r, q_n, p)
        routed = accardi(RateTriple(q_r, q_n, p_x))
        assert accardi_classical(params) == pytest.approx(routed, abs=1e-12)


def test_marginal_term_rate_matches_mixture():
    params = ClassicalParams(0.25, 0.9, 0.1)
    assert marginal_term_rate(params) == total_probability(0.9, 0.1, 0.25)


def test_stream_rates_p_x_is_marginal_term_rate():
    # stream_rates skips total_probability's checks; its P(X) must still be
    # that mixture bit for bit, on random points and at the clamp's edges
    # (q_r = q_n = 1 or 0, where the mixture sits on an end of [0, 1])
    rng = np.random.default_rng(20)
    triples = rng.random((2000, 3)).tolist()
    triples += [(p, 1.0, 1.0) for p in [0.0, 1.0, *rng.random(200).tolist()]]
    triples += [(p, 0.0, 0.0) for p in (0.0, 1.0)]
    for p, q_r, q_n in triples:
        params = ClassicalParams(p, q_r, q_n)
        p_x = params.stream_rates()[3]
        assert type(p_x) is float
        assert p_x.hex() == float.hex(marginal_term_rate(params))


class TestFlags:
    """Each flag rule is strict: a value equal to its margin leaves the
    quantity undefined, for a float (eval_point) and an array (a sweep)."""

    def test_accardi_needs_the_rates_apart_by_more_than_the_margin(self):
        params = ClassicalParams(0.5, 0.75, 0.5)  # |q_r - q_n| = 0.25 exactly
        assert params.flags(0.25) == (False, True)
        assert params.flags(0.125) == (True, True)
        assert cm.accardi_defined(np.array([0.75]), np.array([0.5]), 0.25).tolist() == [False]

    def test_boost_needs_the_prior_above_the_margin(self):
        params = ClassicalParams(0.25, 0.75, 0.25)
        assert params.flags(0.25) == (True, False)
        assert params.flags(0.125) == (True, True)
        p, q_r, q_n = (np.array([x]) for x in (0.25, 0.75, 0.25))
        assert cm.boost_defined(p, q_r, q_n, 0.25).tolist() == [False]
