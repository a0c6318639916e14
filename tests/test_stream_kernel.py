"""The exact-distribution arm kernel against a per-document reference
process (two uniforms per document) and against theory.

An arm accepts a raw draw with probability p_acc and scores an accepted
document a success with probability q_acc.  Stopping at the n-th
acceptance, successes ~ Binomial(n, q_acc) with mean n q and variance
n q (1 - q), and draws = n + NegBinomial(n, p_acc) with mean n / p and
variance n (1 - p) / p^2; the arm starves iff fewer than n of its
MAX_DRAWS_FACTOR n budget draws are accepted.

Every statistical check over S seeds allows 5 standard errors: a sample
mean within 5 sqrt(var / S) of the truth, a sample variance within
5 sqrt(2 / (S - 1)) relative error (both tallies are close to normal at
the n used), a frequency within 5 sqrt(P (1 - P) / S).  Seeds are fixed,
so each run is deterministic.  At a budget of a few draws, where the
truncation shows, whole laws are checked against their exact values by
chi-square instead (TestSmallBudgetLaw).
"""

import math
from collections import Counter
from fractions import Fraction
from typing import Optional

import numpy as np
import pytest

from irboost import (
    ArmKind,
    ArmStarvation,
    ClassicalParams,
    QuantumParams,
    simulate_arm,
    simulate_classical,
    simulate_quantum,
)
from irboost import stream
from irboost.quantum import quantum_rates
from irboost.stream import MAX_DRAWS_FACTOR, _arm_rates

Z = 5.0


# ---------------------------------------------------------------------------
# reference: the per-document process, two uniforms per document
# ---------------------------------------------------------------------------

_CHUNK = 1 << 15


def _reference_step(model, kind: Optional[ArmKind]):
    """(accepted, success) masks of one chunk of documents from uniforms."""
    if isinstance(model, ClassicalParams):
        p, q_r, q_n = model.p, model.q_r, model.q_n
        if kind is ArmKind.COND_ON_RELEVANT:
            return lambda u0, u1: (u0 < p, u1 < q_r)
        if kind is ArmKind.COND_ON_NON_RELEVANT:
            return lambda u0, u1: (u0 >= p, u1 < q_n)
        if kind is ArmKind.DIRECT_TERM:
            # relevance is drawn but not checked; the term threshold still
            # depends on it, as in the urn
            return lambda u0, u1: (np.ones_like(u0, dtype=bool), u1 < np.where(u0 < p, q_r, q_n))
        if kind is ArmKind.EXPAND_THEN_RELEVANCE:
            return lambda u0, u1: (u1 < np.where(u0 < p, q_r, q_n), u0 < p)
        return lambda u0, u1: (np.ones_like(u0, dtype=bool), u0 < p)

    r = quantum_rates(model)
    p_r, p_x_r, p_x_n, p_x = r.p_r, r.p_x_given_r, r.p_x_given_n, r.p_x_direct
    if kind is ArmKind.COND_ON_RELEVANT:
        return lambda u0, u1: (u0 < p_r, u1 < p_x_r)
    if kind is ArmKind.COND_ON_NON_RELEVANT:
        return lambda u0, u1: (u0 >= p_r, u1 < p_x_n)
    if kind is ArmKind.DIRECT_TERM:
        return lambda u0, u1: (np.ones_like(u0, dtype=bool), u1 < p_x)
    if kind is ArmKind.EXPAND_THEN_RELEVANCE:
        return lambda u0, u1: (u0 < p_x, u1 < p_x_r)
    return lambda u0, u1: (np.ones_like(u0, dtype=bool), u0 < p_r)


def reference_arm(model, kind: Optional[ArmKind], n: int, seed: int):
    """(successes, draws) of an arm simulated document by document, or None
    when n acceptances do not come within MAX_DRAWS_FACTOR n draws."""
    step = _reference_step(model, kind)
    rng = np.random.default_rng(seed)
    max_draws = MAX_DRAWS_FACTOR * n
    accepted = successes = draws = 0
    while accepted < n and draws < max_draws:
        m = min(_CHUNK, max_draws - draws)
        u = rng.random((m, 2))
        acc, suc = step(u[:, 0], u[:, 1])
        cum = np.cumsum(acc)
        if cum[-1] >= n - accepted:
            stop = int(np.searchsorted(cum, n - accepted))  # the n-th accept
            draws += stop + 1
            successes += int(np.count_nonzero((acc & suc)[: stop + 1]))
            accepted = n
        else:
            draws += m
            accepted += int(cum[-1])
            successes += int(np.count_nonzero(acc & suc))
    return (successes, draws) if accepted == n else None


def exact_arm(model, kind: Optional[ArmKind], n: int, seed: int):
    try:
        tally = simulate_arm(model, kind, n, seed)
    except ArmStarvation:
        return None
    assert tally.counts.n_total == n
    return tally.counts.n_success, tally.draws_consumed


# ---------------------------------------------------------------------------
# checks against theory
# ---------------------------------------------------------------------------


def assert_moments(sample, mean, var, label):
    x = np.asarray(sample, dtype=float)
    s = len(x)
    assert abs(x.mean() - mean) <= Z * math.sqrt(var / s), (label, x.mean(), mean)
    if var > 0.0:
        rel = x.var(ddof=1) / var - 1.0
        assert abs(rel) <= Z * math.sqrt(2.0 / (s - 1)), (label, x.var(ddof=1), var)
    else:
        assert x.var() == 0.0, label


def assert_arm_law(tallies, n, p_acc, q_acc, label):
    successes, draws = zip(*tallies)
    assert_moments(successes, n * q_acc, n * q_acc * (1.0 - q_acc), label + " successes")
    assert_moments(draws, n / p_acc, n * (1.0 - p_acc) / p_acc**2, label + " draws")


def binomial_cdf(k: int, trials: int, p: float) -> float:
    log_q = math.log1p(-p)
    return sum(math.comb(trials, i) * p**i * math.exp((trials - i) * log_q) for i in range(k + 1))


CLASSICAL = ClassicalParams(0.25, 0.9, 0.1)
QUANTUM = QuantumParams(1.1, 0.6)


def _arm_law(model):
    """(p_acc, q_acc) of each arm, from the models' own closed forms."""
    if isinstance(model, ClassicalParams):
        p, q_r, q_n = model.p, model.q_r, model.q_n
        p_x = q_r * p + q_n * (1 - p)
        return {
            ArmKind.COND_ON_RELEVANT: (p, q_r),
            ArmKind.COND_ON_NON_RELEVANT: (1 - p, q_n),
            ArmKind.DIRECT_TERM: (1.0, p_x),
            ArmKind.EXPAND_THEN_RELEVANCE: (p_x, q_r * p / p_x),
            None: (1.0, p),
        }
    r = quantum_rates(model)
    return {
        ArmKind.COND_ON_RELEVANT: (r.p_r, r.p_x_given_r),
        ArmKind.COND_ON_NON_RELEVANT: (1 - r.p_r, r.p_x_given_n),
        ArmKind.DIRECT_TERM: (1.0, r.p_x_direct),
        ArmKind.EXPAND_THEN_RELEVANCE: (r.p_x_direct, r.p_x_given_r),
        None: (1.0, r.p_r),
    }


ALL_ARMS = [*ArmKind, None]  # in substream order: the baseline is index 4


class TestArmTable:
    # exact equality: the law checks below allow 5 standard errors, so they
    # cannot see two near-equal arms swapped or a rate one ulp off
    @pytest.mark.parametrize(
        "cls,n_params,scale",
        [(ClassicalParams, 3, 1.0), (QuantumParams, 2, math.pi)],
        ids=["classical", "quantum"],
    )
    def test_rates_are_the_law(self, cls, n_params, scale):
        rows = np.random.default_rng(1305).random((3_000, n_params)) * scale
        for model in (cls(*row) for row in rows.tolist()):
            law = _arm_law(model)
            # the kernel clamps a classical P(X) that rounds past 1
            slack = isinstance(model, ClassicalParams) and law[ArmKind.DIRECT_TERM][1] > 1.0
            for index, kind in enumerate(ALL_ARMS):
                for got, want in zip(_arm_rates(model)[2 * index : 2 * index + 2], law[kind]):
                    assert got == want or (slack and abs(got - want) <= math.ulp(want)), (model, kind)


class TestDistribution:
    @pytest.mark.parametrize("model", [CLASSICAL, QUANTUM], ids=["classical", "quantum"])
    @pytest.mark.parametrize("kind", ALL_ARMS, ids=lambda k: "baseline" if k is None else k.value)
    def test_exact_kernel_matches_theory(self, model, kind):
        n, seeds = 2_000, 2_000
        p_acc, q_acc = _arm_law(model)[kind]
        tallies = [exact_arm(model, kind, n, seed) for seed in range(seeds)]
        assert_arm_law(tallies, n, p_acc, q_acc, f"{model} {kind}")

    @pytest.mark.parametrize("model", [CLASSICAL, QUANTUM], ids=["classical", "quantum"])
    @pytest.mark.parametrize("kind", ALL_ARMS, ids=lambda k: "baseline" if k is None else k.value)
    def test_reference_kernel_matches_theory_and_exact(self, model, kind):
        # the per-document process has the law the exact kernel samples
        n, seeds = 500, 300
        p_acc, q_acc = _arm_law(model)[kind]
        ref = [reference_arm(model, kind, n, seed) for seed in range(seeds)]
        assert_arm_law(ref, n, p_acc, q_acc, f"reference {model} {kind}")
        exact = [exact_arm(model, kind, n, seed) for seed in range(seeds)]
        for col, var in ((0, n * q_acc * (1 - q_acc)), (1, n * (1 - p_acc) / p_acc**2)):
            diff = np.mean([t[col] for t in ref]) - np.mean([t[col] for t in exact])
            assert abs(diff) <= Z * math.sqrt(2 * var / seeds), (kind, col, diff)

    def test_starvation_frequency_at_budget_edge(self):
        # n = 10 with p_acc = 1e-4: K ~ Binomial(1e5, 1e-4) < 10 about
        # 46% of the time
        model, kind, n = ClassicalParams(1e-4, 0.5, 0.5), ArmKind.COND_ON_RELEVANT, 10
        budget = MAX_DRAWS_FACTOR * n
        want = binomial_cdf(n - 1, budget, 1e-4)
        assert 0.4 < want < 0.5
        for arm, seeds in ((exact_arm, 4_000), (reference_arm, 200)):
            tallies = [arm(model, kind, n, seed) for seed in range(seeds)]
            freq = sum(t is None for t in tallies) / seeds
            assert abs(freq - want) <= Z * math.sqrt(want * (1 - want) / seeds), (arm, freq, want)
            assert all(t[1] <= budget for t in tallies if t is not None)


class TestEdgeCases:
    def test_starved_arm_reports_budget(self):
        n = 10
        with pytest.raises(ArmStarvation) as info:
            simulate_arm(ClassicalParams(1e-6, 0.5, 0.5), ArmKind.COND_ON_RELEVANT, n, seed=3)
        exc = info.value
        assert exc.arm == ArmKind.COND_ON_RELEVANT.value
        assert exc.target == n
        assert 0 <= exc.accepted < exc.target
        assert exc.draws == MAX_DRAWS_FACTOR * n

    @pytest.mark.parametrize(
        "model", [ClassicalParams(0.0, 0.5, 0.5), QuantumParams(math.pi, 0.5)], ids=["classical", "quantum"]
    )
    def test_zero_acceptance_starves(self, model):
        for seed in range(20):
            with pytest.raises(ArmStarvation) as info:
                simulate_arm(model, ArmKind.COND_ON_RELEVANT, 10, seed=seed)
            assert info.value.accepted == 0
            assert info.value.draws == MAX_DRAWS_FACTOR * 10

    def test_classical_certain_arms_are_exact(self):
        # p = q_r = 1: every draw is relevant and carries the term
        n = 1_000
        res = simulate_classical(ClassicalParams(1.0, 1.0, 0.3), n, seed=9)
        for tally in (*(res.arms[k] for k in ArmKind if k is not ArmKind.COND_ON_NON_RELEVANT), res.baseline):
            assert (tally.counts.n_success, tally.draws_consumed) == (n, n)
        assert res.arms[ArmKind.COND_ON_NON_RELEVANT] is None

    def test_quantum_certain_arms_are_exact(self):
        # |X> = |q>: the direct term always fires, and p_acc = 1 arms use
        # exactly n draws
        n = 1_000
        res = simulate_quantum(QuantumParams(math.pi / 2, math.pi / 2), n, seed=9)
        direct = res.arms[ArmKind.DIRECT_TERM]
        assert (direct.counts.n_success, direct.draws_consumed) == (n, n)
        assert res.arms[ArmKind.EXPAND_THEN_RELEVANCE].draws_consumed == n
        assert res.baseline.draws_consumed == n

    def test_marginal_rounding_to_one(self):
        # P(X) = 0.9 + 0.1 (1 - 2^-53) rounds to 1.0
        model = ClassicalParams(0.9, 1.0, 1.0 - 2.0**-53)
        assert model.q_n < 1.0 and model.q_r * model.p + model.q_n * (1 - model.p) == 1.0
        n = 1_000
        res = simulate_classical(model, n, seed=4)
        assert res.arms[ArmKind.DIRECT_TERM].counts.n_success == n
        assert res.arms[ArmKind.EXPAND_THEN_RELEVANCE].draws_consumed == n

    def test_seed_words_serve_only_the_request_pcg64_makes(self):
        # PCG64 asks for four uint64 words; any other request would get
        # words that were never hashed for it
        words = np.arange(4, dtype=np.uint64)
        source = stream._Words(words)
        assert source.generate_state(4, np.uint64) is words
        for n_words, dtype in [(4, np.uint32), (3, np.uint64), (8, np.uint64)]:
            with pytest.raises(ValueError, match="^expected a request for 4 uint64 words$"):
                source.generate_state(n_words, dtype)

    def test_huge_n_per_arm_is_a_value_error(self):
        with pytest.raises(ValueError):
            simulate_arm(ClassicalParams(0.5, 0.5, 0.5), None, 10**30, seed=0)

    def test_very_large_n_per_arm(self):
        # one arm at n = 1e12 is a handful of variates, not 1e12 documents
        tally = simulate_arm(ClassicalParams(0.5, 0.7, 0.2), ArmKind.COND_ON_RELEVANT, 10**12, seed=1)
        assert tally.counts.n_total == 10**12
        assert abs(tally.counts.n_success / 10**12 - 0.7) < 1e-5
        assert abs(tally.draws_consumed / 10**12 - 2.0) < 1e-5


# ---------------------------------------------------------------------------
# the exact law at a tiny draw budget
# ---------------------------------------------------------------------------

STARVED = (True, None, None)  # the (starved, draws, successes) of a starved arm
# Laurent and Massart, Ann. Statist. 28 (2000), Lemma 1: a chi-square
# variable with df degrees of freedom exceeds df + 2 sqrt(df x) + 2 x with
# probability at most exp(-x); x = ln 1e6 makes each check's false alarm
# rate at most 1e-6
_LOG_ALARM = math.log(1e6)


def chi2_critical(df: int) -> float:
    return df + 2.0 * math.sqrt(df * _LOG_ALARM) + 2.0 * _LOG_ALARM


def assert_exact_law(observed: Counter, law: "dict[object, Fraction]", label) -> None:
    """Pearson's chi-square of ``observed`` counts against the exact law
    ``law`` (outcome -> probability).  An outcome of probability 0 fails
    outright; the rarest cells are pooled until each expects at least 5."""
    assert sum(law.values()) == 1, label
    assert all(law.get(outcome, 0) > 0 for outcome in observed), (label, observed)
    samples = sum(observed.values())
    cells = sorted((float(p) * samples, observed[outcome]) for outcome, p in law.items() if p)
    pooled = [[0.0, 0]]
    for expected, count in cells:
        if pooled[-1][0] >= 5.0:
            pooled.append([0.0, 0])
        pooled[-1][0] += expected
        pooled[-1][1] += count
    stat = sum((count - expected) ** 2 / expected for expected, count in pooled)
    assert stat <= chi2_critical(len(pooled) - 1), (label, stat, len(pooled) - 1)


def arm_law(n: int, budget: int, p_acc: float, q_acc: float) -> "dict[tuple, Fraction]":
    """The exact law of (starved, draws, successes) of an arm that stops at
    its n-th acceptance or starves at ``budget`` draws: draws d in
    [n, budget] with the negative binomial's P = C(d - 1, n - 1) p^n
    (1 - p)^(d - n), successes ~ Binomial(n, q) apart from them, and
    starvation with P(Binomial(budget, p) < n)."""
    p, q = Fraction(p_acc), Fraction(q_acc)
    law = {
        STARVED: sum(math.comb(budget, k) * p**k * (1 - p) ** (budget - k) for k in range(n))
    }
    for d in range(n, budget + 1):
        p_d = math.comb(d - 1, n - 1) * p**n * (1 - p) ** (d - n)
        for k in range(n + 1):
            law[False, d, k] = p_d * math.comb(n, k) * q**k * (1 - q) ** (n - k)
    return law


class _CappedRng:
    """A generator's variates for _run_arm, with at most ``cap``
    negative binomial draws per arm: a rejection loop that never ends fails
    the test instead of hanging it."""

    def __init__(self, rng: np.random.Generator, cap: int):
        self.binomial = rng.binomial
        self._negative_binomial = rng.negative_binomial
        self.cap = cap
        self.left = cap

    def negative_binomial(self, n, p):
        self.left -= 1
        assert self.left >= 0, "the draws loop never fit the budget"
        return self._negative_binomial(n, p)


def sample_arm(rng: _CappedRng, p_acc: float, q_acc: float, n: int) -> tuple:
    rng.left = rng.cap
    try:
        tally = stream._run_arm(rng, p_acc, q_acc, n, "arm")
    except ArmStarvation:
        return STARVED
    assert tally.counts.n_total == n
    return False, tally.draws_consumed, tally.counts.n_success


def none_pattern_law(starve: "list[Fraction]", groups) -> "dict[tuple, Fraction]":
    """The exact law of which of a run's five tallies are None, given each
    arm's starvation probability: a group stops at its first starved arm,
    so the arms of a group are None from that arm on, and an arm in no
    group is None always."""
    law = {(True,) * len(starve): Fraction(1)}
    for group in groups:
        ends = {}  # the first starved arm of the group -> its probability
        running = Fraction(1)
        for j, index in enumerate(group):
            ends[j] = running * starve[index]
            running *= 1 - starve[index]
        ends[len(group)] = running
        law = {
            tuple(
                (none and index not in group) or (index in group and group.index(index) >= j)
                for index, none in enumerate(pattern)
            ): prob * p_end
            for pattern, prob in law.items()
            for j, p_end in ends.items()
        }
    return law


class TestSmallBudgetLaw:
    """At a draw budget of a few draws, starvation is common and the
    truncation of the draws law is in plain view: the kernel's (starved,
    draws, successes), and which tallies a run's groups leave None, match
    their exact laws, computed in Fractions."""

    # S arms per case; each chi-square check allows a false alarm rate of
    # at most 1e-6.  Per arm, more than 10**5 negative binomial draws fail:
    # the least likely fit, p_acc^n = 1e-3 at factor 1, is redrawn ~10**3
    # times on average
    S = 1_500
    CAP = 10**5

    @pytest.mark.parametrize("factor", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_arm(self, n, factor, monkeypatch):
        monkeypatch.setattr(stream, "MAX_DRAWS_FACTOR", factor)
        for case, p_acc in enumerate((0.1, 0.5, 0.9)):
            q_acc = (0.2, 0.5, 0.9)[(case + n + factor) % 3]
            rng = _CappedRng(np.random.default_rng([n, factor, case]), self.CAP)
            observed = Counter(sample_arm(rng, p_acc, q_acc, n) for _ in range(self.S))
            law = arm_law(n, factor * n, p_acc, q_acc)
            assert_exact_law(observed, law, (n, factor, p_acc, q_acc))

    @pytest.mark.parametrize(
        "model", [ClassicalParams(0.3, 0.6, 0.2), QuantumParams(2.0, 1.0)], ids=["classical", "quantum"]
    )
    def test_tallies_none_pattern(self, model, monkeypatch):
        # a Monte Carlo point's groups at n = 1 and factor 2, a budget of 2
        # draws; the arms of p_acc 1 (2 and 4) never starve on their own
        monkeypatch.setattr(stream, "MAX_DRAWS_FACTOR", 2)
        rates = _arm_rates(model)
        starve = [arm_law(1, 2, rates[2 * i], rates[2 * i + 1])[STARVED] for i in range(5)]
        groups = (stream._ACCARDI_ARMS, stream._BOOST_ARMS)
        observed = Counter(
            tuple(t is None for t in stream._tallies(model, 1, seed, groups))
            for seed in range(self.S)
        )
        assert_exact_law(observed, none_pattern_law(starve, groups), model)

    def test_critical_value_is_conservative(self):
        # chdtri(df, y) is the chi-square quantile with upper tail y
        special = pytest.importorskip("scipy.special")
        for df in range(1, 60):
            assert chi2_critical(df) >= special.chdtri(df, 1e-6)
