import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irboost import (
    AccardiUndefined,
    ArmCounts,
    BoostUndefined,
    EmptyArm,
    EstimateWithError,
    Probability,
    QuantumParams,
    RateTriple,
    accardi,
    ClassicalParams,
    accardi_from_counts,
    boost,
    boost_classical,
    estimate_rate,
    posterior_bayes,
    SweepSummary,
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
        with pytest.raises(ValueError, match="^counts must be nonnegative$"):
            ArmCounts(n_total=-1, n_success=0)
        with pytest.raises(ValueError, match="^counts must be nonnegative$"):
            ArmCounts(n_total=5, n_success=-1)

    def test_message_for_success_above_total(self):
        with pytest.raises(ValueError, match="^n_success=4 exceeds n_total=3$"):
            ArmCounts(n_total=3, n_success=4)
        # n_total 0 is a valid count, not a negative one
        with pytest.raises(ValueError, match="^n_success=1 exceeds n_total=0$"):
            ArmCounts(n_total=0, n_success=1)

    @pytest.mark.parametrize(
        "n_total, n_success",
        [
            (math.inf, math.inf),  # its rate was NaN, rejected only by RateTriple
            (math.nan, math.nan),
            (10, math.nan),
            (math.nan, 0),
            (math.inf, 3),
            (-math.inf, 0),
            (10, -math.inf),
            (np.float64("inf"), 1),
            (np.float32("nan"), 1),
            (10, math.inf),  # not reported as exceeding n_total
        ],
    )
    def test_rejects_non_finite(self, n_total, n_success):
        with pytest.raises(ValueError, match="^counts must be finite, got n_total="):
            ArmCounts(n_total, n_success)

    @pytest.mark.parametrize(
        "n_total, n_success",
        [
            (0, 0),
            (10**400, 10**399),  # beyond float range: compared, not converted
            (10**400, 0),
            (np.int64(2**62), np.int64(7)),
            (np.uint64(2**64 - 1), np.uint64(2**64 - 1)),
            (10.0, 4.0),
        ],
    )
    def test_accepts_finite_counts(self, n_total, n_success):
        counts = ArmCounts(n_total, n_success)
        assert (counts.n_total, counts.n_success) == (n_total, n_success)


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

    def test_negative_error_is_refused(self):
        with pytest.raises(ValueError, match="^std_error must be nonnegative$"):
            EstimateWithError(0.0, -1.0, 1)


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


def _composed_accardi_from_counts(arm_r, arm_n, arm_direct):
    """accardi_from_counts through the checked objects: estimate_rate for
    each arm, RateTriple, accardi, then the three delta-method terms in
    their order through with_error."""
    est_r, est_n, est_x = (estimate_rate(c) for c in (arm_r, arm_n, arm_direct))
    a = accardi(RateTriple(est_r.estimate, est_n.estimate, est_x.estimate))
    denom = est_r.estimate - est_n.estimate
    d_dx = 1.0 / denom
    d_dr = -(est_x.estimate - est_n.estimate) / denom**2
    d_dn = (est_x.estimate - est_r.estimate) / denom**2
    return with_error(
        a,
        arm_r.n_total + arm_n.n_total + arm_direct.n_total,
        d_dx * est_x.std_error,
        d_dr * est_r.std_error,
        d_dn * est_n.std_error,
    )


def _from_counts_outcome(fn, arms):
    """The bits of an estimate and its n, or the class and message of the
    error it raised."""
    try:
        est = fn(*arms)
    except ValueError as exc:
        return type(exc), str(exc)
    return est.estimate.hex(), est.std_error.hex(), est.n


def _random_arm_triples(count, seed):
    """Seeded (n_total, n_success) triples with arms of 1 to 10**12
    documents.  One triple in four gives the not-relevant arm the relevant
    arm's rate, scaled by m documents; with one more document on that arm,
    the two rates differ by less than EPS_DENOM once m * n_total is large."""
    rng = np.random.default_rng(seed)
    n = rng.integers(1, 10 ** rng.integers(1, 13, size=(count, 3)), endpoint=True)
    s = rng.integers(0, n, endpoint=True)
    m = rng.integers(1, 10**4, size=count, endpoint=True)
    extra = rng.integers(0, 1, size=count, endpoint=True)
    tied = rng.random(count) < 0.25
    n[tied, 1] = n[tied, 0] * m[tied] + extra[tied]
    s[tied, 1] = s[tied, 0] * m[tied]
    return [tuple(zip(totals, successes)) for totals, successes in zip(n.tolist(), s.tolist())]


class TestAccardiFromCounts:
    def test_matches_the_composed_route(self):
        # estimate, error and n bit for bit, and the same error where A is
        # undefined: equal rates and rates within EPS_DENOM of each other
        # (an infinite count, whose rate was NaN, no longer makes an arm:
        # TestArmCounts.test_rejects_non_finite)
        triples = _random_arm_triples(100_000, 2013)
        triples += [((10, 5), (10, 5), (10, 5))]
        undefined = 0
        for triple in triples:
            arms = [ArmCounts(*arm) for arm in triple]
            got = _from_counts_outcome(accardi_from_counts, arms)
            assert got == _from_counts_outcome(_composed_accardi_from_counts, arms), triple
            undefined += got[0] is AccardiUndefined
        assert undefined > 10_000

    @pytest.mark.parametrize("position", [0, 1, 2], ids=["relevant", "not-relevant", "direct"])
    def test_empty_arm_in_each_position(self, position):
        arms = [ArmCounts(10, 5), ArmCounts(10, 2), ArmCounts(10, 4)]
        arms[position] = ArmCounts(0, 0)
        with pytest.raises(EmptyArm, match="^no documents observed in this arm$"):
            accardi_from_counts(*arms)

    def test_numpy_integer_counts_give_floats(self):
        counts = [(40, 31), (60, 11), (50, 27)]
        want = accardi_from_counts(*(ArmCounts(n, k) for n, k in counts))
        got = accardi_from_counts(*(ArmCounts(np.int64(n), np.int64(k)) for n, k in counts))
        assert type(got.estimate) is float and type(got.std_error) is float
        assert (got.estimate.hex(), got.std_error.hex(), got.n) == (
            want.estimate.hex(), want.std_error.hex(), want.n
        )

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

    def test_tied_rates_message_names_the_rate(self):
        # the message a CLI user reads on a count file with tied rates, from
        # the checked closed form and from counts alike
        want = "^" + re.escape("P(X|R) = P(X|~R) = 0.5 within tolerance") + "$"
        with pytest.raises(AccardiUndefined, match=want):
            accardi(RateTriple(0.5, 0.5, 0.25))
        with pytest.raises(AccardiUndefined, match=want):
            accardi_from_counts(ArmCounts(10, 5), ArmCounts(20, 10), ArmCounts(10, 3))

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


@pytest.mark.parametrize(
    "cls",
    [ClassicalParams, QuantumParams, SweepSummary, EstimateWithError, RateTriple, ArmCounts],
)
def test_match_args_are_the_fields(cls):
    # fields_dict, the CSV writer and reader and the CLI read a class's
    # fields from __match_args__, which leaves out kw_only and init=False
    # fields; such a field would drop out of the CSV and JSON output unnoticed
    assert cls.__match_args__ == tuple(f.name for f in dataclasses.fields(cls))
