import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from irboost import (
    AccardiUndefined,
    BoostUndefined,
    Probability,
    QuantumParams,
    RateTriple,
    accardi,
    accardi_quantum,
    boost,
    boost_quantum,
    interference_term,
    posterior_quantum,
    quantum_rates,
    total_probability,
)
from irboost.quantum import interference_term_by_rates

angle = st.floats(min_value=0.0, max_value=math.pi, allow_nan=False)

# Angles clear of the alpha = pi/2 and phi = pi singular lines, where the
# 1e-12 route-equivalence tolerance is actually reachable in doubles.
def regular_angles(sep=1e-2):
    return st.tuples(angle, angle).filter(
        lambda t: abs(math.cos(t[1])) >= sep and (1 + math.cos(t[0])) / 2 >= sep
    )


class TestQuantumRates:
    def test_aligned_states(self):
        r = quantum_rates(QuantumParams(0.0, 0.0))
        assert (r.p_r, r.p_x_given_r, r.p_x_given_n, r.p_x_direct) == (1, 1, 0, 1)

    def test_diagonal_states(self):
        r = quantum_rates(QuantumParams(math.pi / 2, math.pi / 2))
        assert r.p_r == pytest.approx(0.5, abs=1e-15)
        assert r.p_x_given_r == pytest.approx(0.5, abs=1e-15)
        assert r.p_x_given_n == pytest.approx(0.5, abs=1e-15)
        # |X> equals |q>, so the direct measurement always succeeds
        assert r.p_x_direct == 1.0

    def test_orthogonal_query(self):
        r = quantum_rates(QuantumParams(math.pi, 0.0))
        assert r.p_r == pytest.approx(0.0, abs=1e-15)
        assert r.p_x_given_r == 1.0
        assert r.p_x_given_n == pytest.approx(0.0, abs=1e-15)
        assert r.p_x_direct == pytest.approx(0.0, abs=1e-15)

    @given(phi=angle, alpha=angle)
    @settings(max_examples=500)
    def test_conditionals_are_complementary(self, phi, alpha):
        r = quantum_rates(QuantumParams(phi, alpha))
        assert r.p_x_given_r + r.p_x_given_n == pytest.approx(1.0, abs=1e-15)

    @given(phi=angle, alpha=angle)
    @example(phi=0.0, alpha=0.0)
    @example(phi=0.0, alpha=math.pi)
    @example(phi=math.pi, alpha=0.0)
    @example(phi=math.pi, alpha=math.pi)
    @settings(max_examples=500)
    def test_stream_rates_are_the_rates_as_floats(self, phi, alpha):
        # the five rates a document stream observes are quantum_rates' four,
        # bit for bit, plus P(R|X) = P(X|R) (the collapse rule)
        params = QuantumParams(phi, alpha)
        r = quantum_rates(params)
        fields = (r.p_r, r.p_x_given_r, r.p_x_given_n, r.p_x_direct)
        assert all(type(f) is Probability for f in fields)
        got = params.stream_rates()
        assert all(type(v) is float for v in got)
        want = (*fields, r.p_x_given_r)
        assert [v.hex() for v in got] == [float.hex(f) for f in want]

    def test_angle_validation(self):
        with pytest.raises(ValueError):
            QuantumParams(-0.1, 1.0)
        with pytest.raises(ValueError):
            QuantumParams(1.0, math.pi + 0.1)


class TestPosteriorQuantum:
    def test_term_equals_relevance(self):
        assert posterior_quantum(QuantumParams(1.0, 0.0)) == 1.0

    def test_term_orthogonal_to_relevance(self):
        assert posterior_quantum(QuantumParams(1.0, math.pi)) == pytest.approx(
            0.0, abs=1e-15
        )

    def test_sixty_degrees(self):
        assert posterior_quantum(QuantumParams(0.3, math.pi / 3)) == pytest.approx(
            0.75, abs=1e-15
        )

    @given(phi1=angle, phi2=angle, alpha=angle)
    def test_independent_of_query_angle(self, phi1, phi2, alpha):
        # pre-selection on X erases the query state
        assert posterior_quantum(QuantumParams(phi1, alpha)) == posterior_quantum(
            QuantumParams(phi2, alpha)
        )


class TestBoostQuantum:
    @given(phi=st.floats(min_value=0.0, max_value=3.0))
    def test_matched_angles_flat(self, phi):
        assert boost_quantum(QuantumParams(phi, phi)) == 0.0

    def test_witness_value(self):
        # (cos(pi/4) - cos(pi/3)) / (1 + cos(pi/3))
        delta = boost_quantum(QuantumParams(math.pi / 3, math.pi / 4))
        assert delta == pytest.approx(0.138071187, abs=1e-9)

    def test_orthogonal_query_undefined(self):
        with pytest.raises(BoostUndefined):
            boost_quantum(QuantumParams(math.pi, 1.0))

    @given(regular_angles())
    @settings(max_examples=500)
    def test_route_equivalence(self, t):
        phi, alpha = t
        params = QuantumParams(phi, alpha)
        direct = boost_quantum(params)
        routed = boost(posterior_quantum(params), quantum_rates(params).p_r)
        assert direct == pytest.approx(routed, abs=1e-12)


class TestAccardiQuantum:
    @given(phi=angle)
    def test_aligned_term_reproduces_classical_value(self, phi):
        a = accardi_quantum(QuantumParams(phi, 0.0))
        assert a == pytest.approx((1 + math.cos(phi)) / 2, abs=1e-15)
        assert 0.0 <= a <= 1.0 + 1e-15

    def test_witness_above_one(self):
        a = accardi_quantum(QuantumParams(math.pi / 3, math.pi / 4))
        assert a == pytest.approx(1.183012701, abs=1e-9)
        assert a > 1.0

    def test_witness_below_zero(self):
        a = accardi_quantum(QuantumParams(3 * math.pi / 4, 3 * math.pi / 4))
        assert a == pytest.approx(0.5 * (1.0 - math.sqrt(2)), abs=1e-12)
        assert a < 0.0

    def test_singular_alpha(self):
        with pytest.raises(AccardiUndefined):
            accardi_quantum(QuantumParams(1.0, math.pi / 2))

    @given(regular_angles())
    @settings(max_examples=500)
    def test_route_equivalence(self, t):
        params = QuantumParams(*t)
        direct = accardi_quantum(params)
        r = quantum_rates(params)
        routed = accardi(RateTriple(r.p_x_given_r, r.p_x_given_n, r.p_x_direct))
        assert direct == pytest.approx(routed, abs=1e-12)


class TestInterference:
    @given(alpha=angle)
    def test_relevance_eigenstate_query(self, alpha):
        assert interference_term(QuantumParams(0.0, alpha)) == pytest.approx(
            0.0, abs=1e-15
        )

    @given(phi=angle)
    def test_relevance_eigenstate_term(self, phi):
        assert interference_term(QuantumParams(phi, 0.0)) == pytest.approx(
            0.0, abs=1e-15
        )

    def test_maximal_gap(self):
        assert interference_term(
            QuantumParams(math.pi / 2, math.pi / 2)
        ) == pytest.approx(0.5, abs=1e-15)

    @given(phi=angle, alpha=angle)
    @settings(max_examples=500)
    def test_closed_form_matches_two_route_difference(self, phi, alpha):
        params = QuantumParams(phi, alpha)
        assert interference_term(params) == pytest.approx(
            interference_term_by_rates(params), abs=1e-12
        )

    @given(phi=angle, alpha=angle)
    @settings(max_examples=500)
    def test_bounded_by_half(self, phi, alpha):
        gap = interference_term(QuantumParams(phi, alpha))
        assert -0.5 <= gap <= 0.5

    @given(phi=st.sampled_from([0.0, math.pi]), alpha=angle)
    @example(phi=math.pi, alpha=1.570808968822021)
    def test_classical_limit_restores_total_probability(self, phi, alpha):
        params = QuantumParams(phi, alpha)
        r = quantum_rates(params)
        mixture = total_probability(r.p_x_given_r, r.p_x_given_n, r.p_r)
        assert float(r.p_x_direct) == pytest.approx(float(mixture), abs=1e-12)
        if abs(math.cos(alpha)) > 1e-6:
            # math.pi falls short of pi by sin(math.pi) ~ 1.2e-16, and A
            # carries that sliver of interference as sin(phi) tan(alpha) / 2
            # (~5e-12 at alpha = 1.5708089...): take it off before the box.
            interference = math.sin(phi) * math.tan(alpha) / 2
            classical = accardi_quantum(params) - interference
            assert 0.0 - 1e-12 <= classical <= 1.0 + 1e-12
