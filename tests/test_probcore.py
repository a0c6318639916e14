import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irboost import (
    AccardiUndefined,
    ArmCounts,
    BoostUndefined,
    EmptyArm,
    Probability,
    RateTriple,
    accardi,
    ClassicalParams,
    accardi_from_counts,
    boost,
    boost_classical,
    estimate_rate,
    posterior_bayes,
    total_probability,
)
from irboost.probcore import EPS_DENOM, accardi_of_rates, boost_of_rates, with_error

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


class TestProbability:
    def test_accepts_bounds(self):
        assert Probability(0.0) == 0.0
        assert Probability(1.0) == 1.0
        assert Probability(0.25) == 0.25

    @pytest.mark.parametrize("bad", [-0.001, 1.001, float("nan"), float("inf")])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError):
            Probability(bad)

    def test_is_a_float(self):
        assert isinstance(Probability(0.5), float)


class TestArmCounts:
    def test_rejects_success_above_total(self):
        with pytest.raises(ValueError):
            ArmCounts(n_total=3, n_success=4)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ArmCounts(n_total=-1, n_success=0)


class TestAccardi:
    def test_unit_denominator(self):
        assert accardi(RateTriple(1.0, 0.0, 0.7)) == pytest.approx(0.7, abs=1e-15)

    def test_hand_arithmetic(self):
        # (0.5 - 0.2) / (0.8 - 0.2)
        assert accardi(RateTriple(0.8, 0.2, 0.5)) == pytest.approx(0.5, abs=1e-15)

    def test_zero_denominator(self):
        with pytest.raises(AccardiUndefined):
            accardi(RateTriple(0.5, 0.5, 0.5))

    def test_undefined_at_eps_denom(self):
        # the models' rule: undefined iff |q_r - q_n| <= margin
        with pytest.raises(AccardiUndefined):
            accardi(RateTriple(EPS_DENOM, 0.0, 0.5))
        above = math.nextafter(EPS_DENOM, 1.0)
        assert accardi(RateTriple(above, 0.0, 0.0)) == 0.0

    # When the law of total probability holds, A recovers P(R).  The
    # tolerance is reachable only away from the q_r = q_n manifold: the
    # float rounding of the mixture is amplified by 1/|q_r - q_n|.
    @given(
        p=unit,
        rates=st.tuples(unit, unit).filter(lambda t: abs(t[0] - t[1]) >= 1e-3),
    )
    @settings(max_examples=500)
    def test_recovers_prior_under_total_probability(self, p, rates):
        q_r, q_n = rates
        p_x = total_probability(q_r, q_n, p)
        assert accardi(RateTriple(q_r, q_n, p_x)) == pytest.approx(p, abs=1e-12)

    @given(r=unit, n=unit, x=unit)
    @settings(max_examples=300)
    def test_float_rule_is_accardi_or_nan(self, r, n, x):
        # bit for bit where accardi is defined, NaN where it raises
        try:
            want = accardi(RateTriple(r, n, x))
        except AccardiUndefined:
            want = math.nan
        assert accardi_of_rates(r, n, x).hex() == want.hex()
        assert math.isnan(accardi_of_rates(math.nan, n, x))
        assert math.isnan(accardi_of_rates(r, n, math.nan))


class TestBoost:
    def test_hand_arithmetic(self):
        assert boost(0.8, 0.5) == pytest.approx(0.6, abs=1e-15)

    @given(p=st.floats(min_value=1e-6, max_value=1.0))
    def test_no_change_is_zero(self, p):
        assert boost(p, p) == 0.0

    def test_zero_prior(self):
        with pytest.raises(BoostUndefined):
            boost(0.3, 0.0)

    def test_can_be_negative(self):
        assert boost(0.2, 0.5) < 0.0

    def test_undefined_at_eps_denom_like_the_classical_model(self):
        # p == EPS_DENOM: the two-step route and the closed form agree
        params = ClassicalParams(EPS_DENOM, 1.0, 0.5)
        with pytest.raises(BoostUndefined):
            boost(posterior_bayes(params), params.p)
        with pytest.raises(BoostUndefined):
            boost_classical(params)
        above = math.nextafter(EPS_DENOM, 1.0)
        assert boost(above, above) == 0.0

    @given(post=unit, prior=st.one_of(unit, st.just(EPS_DENOM)))
    @settings(max_examples=300)
    def test_float_rule_is_boost_or_nan(self, post, prior):
        try:
            want = boost(post, prior)
        except BoostUndefined:
            want = math.nan
        assert boost_of_rates(post, prior).hex() == want.hex()
        assert math.isnan(boost_of_rates(math.nan, prior))
        assert math.isnan(boost_of_rates(post, math.nan))


class TestWithError:
    def test_pythagorean(self):
        est = with_error(0.25, 7, 3.0, 4.0)
        assert (est.estimate, est.std_error, est.n) == (0.25, 5.0, 7)

    def test_no_terms_is_exact(self):
        assert with_error(1.5, 3).std_error == 0.0

    def test_sums_in_the_given_order(self):
        # the squares are 1, e, e with e ~ 2**-53: 1 + e + e and e + e + 1
        # round differently, and each caller's error stays bit-identical
        # to its own left-to-right sum
        t = (1.0, 2.0**-26.5, 2.0**-26.5)
        forward = math.sqrt(t[0] ** 2 + t[1] ** 2 + t[2] ** 2)
        backward = math.sqrt(t[2] ** 2 + t[1] ** 2 + t[0] ** 2)
        assert forward != backward
        assert with_error(0.0, 1, *t).std_error == forward
        assert with_error(0.0, 1, *t[::-1]).std_error == backward


class TestTotalProbability:
    def test_hand_arithmetic(self):
        assert total_probability(0.8, 0.2, 0.5) == pytest.approx(0.5, abs=1e-15)

    @given(q=unit, p=unit)
    def test_independence_collapses(self, q, p):
        assert total_probability(q, q, p) == pytest.approx(q, abs=1e-15)

    @given(p=unit)
    def test_perfect_correlation(self, p):
        assert total_probability(1.0, 0.0, p) == p

    @given(q_r=unit, q_n=unit, p=unit)
    @settings(max_examples=500)
    def test_output_in_unit_interval(self, q_r, q_n, p):
        v = total_probability(q_r, q_n, p)
        assert 0.0 <= v <= 1.0


class TestEstimateRate:
    def test_all_success_degenerate(self):
        est = estimate_rate(ArmCounts(10, 10))
        assert est.estimate == 1.0
        assert est.std_error == 0.0

    def test_all_failure_degenerate(self):
        est = estimate_rate(ArmCounts(10, 0))
        assert est.estimate == 0.0
        assert est.std_error == 0.0

    def test_quarter(self):
        est = estimate_rate(ArmCounts(4, 1))
        assert est.estimate == 0.25
        assert est.n == 4

    def test_wald_error(self):
        est = estimate_rate(ArmCounts(100, 30))
        assert est.std_error == pytest.approx(math.sqrt(0.3 * 0.7 / 100))

    def test_empty_arm(self):
        with pytest.raises(EmptyArm):
            estimate_rate(ArmCounts(0, 0))


class TestAccardiFromCounts:
    def test_matches_point_estimates(self):
        est = accardi_from_counts(
            ArmCounts(1000, 1000), ArmCounts(1000, 0), ArmCounts(1000, 700)
        )
        assert est.estimate == pytest.approx(0.7, abs=1e-15)

    def test_equals_accardi_of_rates_exactly(self):
        arm_r, arm_n, arm_x = ArmCounts(40, 31), ArmCounts(60, 11), ArmCounts(50, 27)
        est = accardi_from_counts(arm_r, arm_n, arm_x)
        rates = RateTriple(31 / 40, 11 / 60, 27 / 50)
        assert est.estimate == accardi(rates)

    def test_identical_rates_undefined(self):
        with pytest.raises(AccardiUndefined):
            accardi_from_counts(
                ArmCounts(10, 5), ArmCounts(10, 5), ArmCounts(10, 5)
            )

    def test_empty_direct_arm(self):
        with pytest.raises(EmptyArm):
            accardi_from_counts(
                ArmCounts(10, 5), ArmCounts(10, 2), ArmCounts(0, 0)
            )

    def test_error_shrinks_with_n(self):
        small = accardi_from_counts(
            ArmCounts(100, 80), ArmCounts(100, 20), ArmCounts(100, 50)
        )
        large = accardi_from_counts(
            ArmCounts(10_000, 8_000), ArmCounts(10_000, 2_000), ArmCounts(10_000, 5_000)
        )
        assert large.std_error < small.std_error
