import dataclasses
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.random import PCG64
from numpy.random.bit_generator import ISeedSequence

import irboost.stream
from irboost import (
    ArmKind,
    ArmStarvation,
    BoostUndefined,
    ClassicalParams,
    EstimateWithError,
    QuantumParams,
    SimConfig,
    SimResult,
    SweepConfig,
    empirical_boost,
    estimate_rate,
    eval_point,
    simulate_arm,
    simulate_classical,
    simulate_quantum,
    sweep,
    total_probability,
)
from irboost.cli import main as cli_main
from irboost.quantum import quantum_rates
from irboost.stream import (
    _ALL_ARMS,
    _ARM_ROWS,
    _MAX_N_PER_ARM,
    _SEED_CHUNK,
    BASELINE_NAME,
    _arm_rates,
    _arm_rng,
    _run_words,
    _seed_words,
    _simulate,
)

_EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]
# a column longer than one hash chunk, with the edge seeds across the boundary
_CHUNK_CROSSING_SEEDS = [
    (i * 0x9E3779B97F4A7C15) % 2**64 for i in range(_SEED_CHUNK + 5)
]
_CHUNK_CROSSING_SEEDS[_SEED_CHUNK - 2 : _SEED_CHUNK + 3] = _EDGE_SEEDS


class TestDeterminism:
    def test_classical_bit_identical(self):
        params = ClassicalParams(0.4, 0.7, 0.3)
        r1 = simulate_classical(params, 500, seed=123)
        r2 = simulate_classical(params, 500, seed=123)
        assert r1 == r2

    def test_quantum_bit_identical(self):
        params = QuantumParams(1.1, 0.6)
        r1 = simulate_quantum(params, 500, seed=99)
        r2 = simulate_quantum(params, 500, seed=99)
        assert r1 == r2

    def test_different_seed_differs(self):
        params = ClassicalParams(0.4, 0.7, 0.3)
        r1 = simulate_classical(params, 500, seed=1)
        r2 = simulate_classical(params, 500, seed=2)
        assert [r1.arms[k] for k in ArmKind] != [r2.arms[k] for k in ArmKind]

    def test_arm_isolated_equals_arm_in_full_run(self):
        # per-arm substreams: simulating one arm alone, or all arms in any
        # order, gives identical tallies
        params = QuantumParams(0.9, 2.0)
        full = simulate_quantum(params, 300, seed=7)
        for kind in reversed(ArmKind):
            assert simulate_arm(params, kind, 300, seed=7) == full.arms[kind]
        assert simulate_arm(params, None, 300, seed=7) == full.baseline


class TestClassicalStream:
    def test_deterministic_urn(self):
        params = ClassicalParams(1.0, 1.0, 0.3)
        res = simulate_classical(params, 100, seed=5)
        cr = res.arms[ArmKind.COND_ON_RELEVANT]
        dt = res.arms[ArmKind.DIRECT_TERM]
        assert (cr.counts.n_total, cr.counts.n_success) == (100, 100)
        assert (dt.counts.n_total, dt.counts.n_success) == (100, 100)
        # p = 1: the non-relevant arm can never accept
        assert res.arms[ArmKind.COND_ON_NON_RELEVANT] is None

    def test_direct_term_rate_near_mixture(self):
        params = ClassicalParams(0.5, 0.8, 0.2)
        n = 100_000
        res = simulate_classical(params, n, seed=314)
        rate = res.arms[ArmKind.DIRECT_TERM].counts.n_success / n
        assert abs(rate - 0.5) <= 4 * math.sqrt(0.25 / n)

    def test_starvation(self):
        with pytest.raises(ArmStarvation):
            simulate_arm(
                ClassicalParams(0.0, 0.5, 0.5), ArmKind.COND_ON_RELEVANT, 10, seed=1
            )

    def test_acceptance_semantics(self):
        # arms run until n accepted; draws_consumed records the latency cost
        params = ClassicalParams(0.25, 0.9, 0.1)
        res = simulate_classical(params, 2_000, seed=11)
        cr = res.arms[ArmKind.COND_ON_RELEVANT]
        assert cr.counts.n_total == 2_000
        assert cr.draws_consumed >= 2_000
        # roughly 1/p more raw draws than accepted documents
        assert 2_000 / 0.25 * 0.7 < cr.draws_consumed < 2_000 / 0.25 * 1.4

    def test_convergence_all_arms(self):
        params = ClassicalParams(0.6, 0.7, 0.2)
        n = 10_000
        expected = {
            ArmKind.COND_ON_RELEVANT: 0.7,
            ArmKind.COND_ON_NON_RELEVANT: 0.2,
            ArmKind.DIRECT_TERM: total_probability(0.7, 0.2, 0.6),
            ArmKind.EXPAND_THEN_RELEVANCE: 0.7 * 0.6 / total_probability(0.7, 0.2, 0.6),
        }
        failures = 0
        n_seeds = 100
        for seed in range(n_seeds):
            res = simulate_classical(params, n, seed=seed)
            for kind, truth in expected.items():
                est = estimate_rate(res.arms[kind].counts)
                se = max(est.std_error, 1e-12)
                if abs(est.estimate - truth) > 4 * se:
                    failures += 1
        assert failures <= 0.01 * n_seeds * len(expected) + 1


class TestQuantumStream:
    def test_eigenstate_chain(self):
        params = QuantumParams(0.0, 0.0)
        res = simulate_quantum(params, 100, seed=3)
        for kind in (
            ArmKind.COND_ON_RELEVANT,
            ArmKind.DIRECT_TERM,
            ArmKind.EXPAND_THEN_RELEVANCE,
        ):
            tally = res.arms[kind]
            assert (tally.counts.n_total, tally.counts.n_success) == (100, 100)
        assert res.arms[ArmKind.COND_ON_NON_RELEVANT] is None

    def test_diagonal_direct_term_saturates(self):
        # |X> = |q>: every direct draw succeeds
        res = simulate_quantum(QuantumParams(math.pi / 2, math.pi / 2), 10_000, seed=8)
        assert res.arms[ArmKind.DIRECT_TERM].counts.n_success == 10_000

    def test_orthogonal_query_starves_relevance_arm(self):
        with pytest.raises(ArmStarvation):
            simulate_arm(
                QuantumParams(math.pi, 0.5), ArmKind.COND_ON_RELEVANT, 10, seed=1
            )

    def test_empirical_accardi_near_closed_form(self):
        params = QuantumParams(math.pi / 3, math.pi / 4)
        res = simulate_quantum(params, 100_000, seed=2718)
        est = res.accardi_est
        assert abs(est.estimate - 1.1830127018922192) <= 4 * est.std_error

    def test_interference_detectable(self):
        # direct rate deviates from the total-probability mixture by the
        # interference gap, far beyond sampling noise at the maximal point
        params = QuantumParams(math.pi / 2, math.pi / 2)
        n = 10_000
        res = simulate_quantum(params, n, seed=5)
        r = quantum_rates(params)
        mixture = total_probability(r.p_x_given_r, r.p_x_given_n, r.p_r)
        rate = res.arms[ArmKind.DIRECT_TERM].counts.n_success / n
        assert rate - mixture == pytest.approx(0.5, abs=1e-12)

    def test_posterior_ignores_query_angle(self):
        # expansion-arm success probability is set by alpha alone
        n = 50_000
        res1 = simulate_quantum(QuantumParams(0.4, 1.0), n, seed=77)
        res2 = simulate_quantum(QuantumParams(2.6, 1.0), n, seed=78)
        e1 = estimate_rate(res1.arms[ArmKind.EXPAND_THEN_RELEVANCE].counts)
        e2 = estimate_rate(res2.arms[ArmKind.EXPAND_THEN_RELEVANCE].counts)
        se = math.hypot(e1.std_error, e2.std_error)
        assert abs(e1.estimate - e2.estimate) <= 4 * se


class TestEmpiricalBoost:
    def _result(self, params=ClassicalParams(0.5, 0.8, 0.2), n=20_000, seed=0):
        return simulate_classical(params, n, seed)

    def test_matches_hand_arithmetic(self):
        res = self._result()
        baseline = EstimateWithError(0.5, 0.0, 10)
        fake = EstimateWithError(0.8, 0.0, 10)
        exp_rate = estimate_rate(res.arms[ArmKind.EXPAND_THEN_RELEVANCE].counts)
        est = empirical_boost(res, baseline)
        assert est.estimate == pytest.approx((exp_rate.estimate - 0.5) / 0.5)
        assert (fake.estimate - baseline.estimate) / baseline.estimate == pytest.approx(0.6)

    def test_error_is_the_delta_method_sum(self):
        res = self._result()
        base = estimate_rate(res.baseline.counts)
        post = estimate_rate(res.arms[ArmKind.EXPAND_THEN_RELEVANCE].counts)
        b = base.estimate
        var = (post.std_error / b) ** 2 + (post.estimate * base.std_error / b**2) ** 2
        est = empirical_boost(res, base)
        assert (est.estimate, est.std_error, est.n) == (
            (post.estimate - b) / b,
            math.sqrt(var),
            post.n + base.n,
        )
        assert est == res.boost_est

    def test_equal_rates_zero(self):
        res = self._result()
        exp_rate = estimate_rate(res.arms[ArmKind.EXPAND_THEN_RELEVANCE].counts)
        est = empirical_boost(res, exp_rate)
        assert est.estimate == 0.0

    def test_zero_baseline_undefined(self):
        res = self._result()
        with pytest.raises(BoostUndefined):
            empirical_boost(res, EstimateWithError(0.0, 0.0, 10))

    def test_derived_boost_near_closed_form(self):
        res = self._result(n=100_000, seed=412)
        est = res.boost_est
        assert abs(est.estimate - 0.6) <= 4 * est.std_error


class TestDerivedFromTallies:
    # a result keeps only its tallies; the estimates are read from them
    def test_fields_are_the_tallies(self):
        assert [f.name for f in dataclasses.fields(SimResult)] == ["config", "arms", "baseline"]

    @pytest.mark.parametrize(
        "params, starved, has_rates, has_accardi, has_boost",
        [
            # p = 0 starves the relevant arm; P(R) = 0 leaves no boost
            (ClassicalParams(0.0, 0.7, 0.3), ArmKind.COND_ON_RELEVANT, False, False, False),
            # p = 1 starves the non-relevant arm; the boost is 0
            (ClassicalParams(1.0, 0.7, 0.3), ArmKind.COND_ON_NON_RELEVANT, False, False, True),
            # P(X) = 0 starves the expansion arm; the rates tie, so no A
            (ClassicalParams(0.4, 0.0, 0.0), ArmKind.EXPAND_THEN_RELEVANCE, True, False, False),
            (ClassicalParams(0.4, 0.7, 0.3), None, True, True, True),
        ],
    )
    def test_none_where_an_arm_is_missing(
        self, params, starved, has_rates, has_accardi, has_boost
    ):
        res = simulate_classical(params, 200, seed=6)
        assert [k for k in ArmKind if res.arms[k] is None] == ([starved] if starved else [])
        assert res.baseline is not None
        assert (res.rates is not None, res.accardi_est is not None) == (has_rates, has_accardi)
        assert (res.boost_est is not None) == has_boost
        if has_rates:
            arms = (ArmKind.COND_ON_RELEVANT, ArmKind.COND_ON_NON_RELEVANT, ArmKind.DIRECT_TERM)
            want = [estimate_rate(res.arms[k].counts).estimate for k in arms]
            assert list(dataclasses.astuple(res.rates)) == want
        if has_boost:
            assert res.boost_est == empirical_boost(res, estimate_rate(res.baseline.counts))
        else:
            with pytest.raises(BoostUndefined):
                empirical_boost(res, estimate_rate(res.baseline.counts))

    def test_boost_is_empirical_boost_on_the_baseline(self):
        for seed in range(20):
            res = simulate_quantum(QuantumParams(0.1 * seed + 0.2, 1.0), 100, seed)
            assert res.boost_est == empirical_boost(res, estimate_rate(res.baseline.counts))

    def test_missing_baseline_leaves_no_boost(self):
        # the baseline accepts every draw, so it never starves in a run
        res = simulate_quantum(QuantumParams(1.0, 0.5), 100, seed=1)
        bare = SimResult(res.config, res.arms, None)
        assert bare.boost_est is None and bare.accardi_est == res.accardi_est


class TestJsonInterface:
    def test_schema_fields(self):
        res = simulate_classical(ClassicalParams(0.5, 0.8, 0.2), 1_000, seed=4)
        doc = json.loads(res.to_json())
        assert doc["config"]["model"]["kind"] == "classical"
        assert doc["config"]["model"]["params"] == {"p": 0.5, "q_r": 0.8, "q_n": 0.2}
        assert doc["config"]["n_per_arm"] == 1_000
        assert doc["config"]["seed"] == 4
        assert set(doc["arms"]) == {k.value for k in ArmKind}
        for tally in doc["arms"].values():
            assert set(tally) == {"n_total", "n_success", "draws_consumed"}
            assert tally["n_total"] == 1_000
        assert set(doc[BASELINE_NAME]) == {"n_total", "n_success", "draws_consumed"}
        assert set(doc["derived"]) == {"rates", "accardi", "boost"}
        assert set(doc["derived"]["rates"]) == {"p_x_given_r", "p_x_given_n", "p_x"}
        assert set(doc["derived"]["accardi"]) == {"estimate", "std_error", "n"}

    def test_starved_arm_serializes_as_null(self):
        res = simulate_classical(ClassicalParams(1.0, 0.9, 0.5), 50, seed=4)
        doc = json.loads(res.to_json())
        assert doc["arms"][ArmKind.COND_ON_NON_RELEVANT.value] is None
        assert doc["derived"]["rates"] is None

    def test_quantum_params_echoed(self):
        res = simulate_quantum(QuantumParams(1.0, 0.5), 100, seed=0)
        doc = json.loads(res.to_json())
        assert doc["config"]["model"] == {
            "kind": "quantum",
            "params": {"phi": 1.0, "alpha": 0.5},
        }


class TestSeedRule:
    # one rule for every seeded entry point: an integer in [0, 2**64)
    BAD = (2**64, 2**70, -1, 1.5, None)

    @pytest.mark.parametrize("seed", BAD)
    def test_simulate_arm_rejects(self, seed):
        with pytest.raises(ValueError, match="64 unsigned bits"):
            simulate_arm(QuantumParams(1.0, 0.5), None, 10, seed=seed)

    @pytest.mark.parametrize("seed", BAD)
    def test_simulate_quantum_rejects(self, seed):
        with pytest.raises(ValueError, match="64 unsigned bits"):
            simulate_quantum(QuantumParams(1.0, 0.5), 10, seed=seed)

    @pytest.mark.parametrize("seed", BAD)
    def test_montecarlo_eval_point_rejects(self, seed):
        # the second point is flagged on both counts and never simulates
        for params in (QuantumParams(1.0, 0.5), QuantumParams(math.pi, math.pi / 2)):
            with pytest.raises(ValueError, match="64 unsigned bits"):
                eval_point(params, mode="montecarlo", n_per_arm=10, seed=seed)

    @pytest.mark.parametrize("seed", BAD)
    def test_analytic_eval_point_rejects(self, seed):
        # though an analytic point draws nothing
        with pytest.raises(ValueError, match="64 unsigned bits"):
            eval_point(ClassicalParams(0.5, 0.8, 0.2), seed=seed)

    @pytest.mark.parametrize("seed", BAD)
    @pytest.mark.parametrize("mode", ["analytic", "montecarlo"])
    def test_sweep_config_rejects(self, mode, seed):
        # an analytic sweep too: default_rng would take 2**70, and would
        # draw fresh entropy on every call for None
        with pytest.raises(ValueError, match="64 unsigned bits"):
            SweepConfig(model="quantum", mode=mode, n_points=2, n_per_arm=50, seed=seed)

    @pytest.mark.parametrize("mode", ["analytic", "montecarlo"])
    def test_sweep_cli_exits_2(self, capsys, mode):
        argv = ["sweep", "--model", "quantum", "--mode", mode,
                "--n-points", "2", "--n-per-arm", "50", "--seed", str(2**70)]
        assert cli_main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "irboost: error: seed must fit in 64 unsigned bits\n"

    @pytest.mark.parametrize("mode", ["analytic", "montecarlo"])
    def test_point_cli_exits_2(self, capsys, mode):
        argv = ["classical", "0.5", "0.8", "0.2", "--mode", mode, "--seed", "-1"]
        assert cli_main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "irboost: error: seed must fit in 64 unsigned bits\n"

    def test_numpy_and_edge_integers_accepted(self):
        params = ClassicalParams(0.4, 0.7, 0.3)
        assert simulate_classical(params, 50, np.uint64(9)) == simulate_classical(params, 50, 9)
        config = simulate_classical(params, np.int64(50), np.uint64(9)).config
        assert type(config.n_per_arm) is int and type(config.seed) is int
        assert simulate_arm(params, None, 50, np.int32(9)) == simulate_arm(params, None, 50, 9)
        simulate_classical(params, 50, 2**64 - 1)
        simulate_classical(params, 50, 0)
        config = SweepConfig(model="quantum", n_points=2, seed=np.uint64(9))
        assert type(config.seed) is int and config.seed == 9


class TestNPerArmRule:
    # one rule for every Monte Carlo entry point: an integer in
    # [1, (2**63 - 1) // MAX_DRAWS_FACTOR]
    BAD = (1.5, 0, _MAX_N_PER_ARM + 1)
    MESSAGE = "n_per_arm must be an integer in"

    @pytest.mark.parametrize("n", BAD)
    def test_sim_config_rejects(self, n):
        with pytest.raises(ValueError, match=self.MESSAGE):
            SimConfig(QuantumParams(1.0, 0.5), n, seed=0)

    @pytest.mark.parametrize("n", BAD)
    def test_simulate_arm_rejects(self, n):
        with pytest.raises(ValueError, match=self.MESSAGE):
            simulate_arm(QuantumParams(1.0, 0.5), None, n, seed=0)

    @pytest.mark.parametrize("n", BAD)
    def test_simulate_rejects(self, n):
        with pytest.raises(ValueError, match=self.MESSAGE):
            simulate_quantum(QuantumParams(1.0, 0.5), n, seed=0)
        with pytest.raises(ValueError, match=self.MESSAGE):
            simulate_classical(ClassicalParams(0.4, 0.7, 0.3), n, seed=0)

    @pytest.mark.parametrize("mode", ["analytic", "montecarlo"])
    @pytest.mark.parametrize("n", BAD)
    def test_eval_point_rejects(self, n, mode):
        # though an analytic point draws nothing, and the second point is
        # flagged on both counts and never simulates
        for params in (QuantumParams(1.0, 0.5), QuantumParams(math.pi, math.pi / 2)):
            with pytest.raises(ValueError, match=self.MESSAGE):
                eval_point(params, mode=mode, n_per_arm=n, seed=0)

    @pytest.mark.parametrize("mode", ["analytic", "montecarlo"])
    @pytest.mark.parametrize("n", BAD)
    def test_sweep_config_rejects(self, n, mode):
        with pytest.raises(ValueError, match=self.MESSAGE):
            SweepConfig(model="quantum", mode=mode, n_points=2, n_per_arm=n, seed=0)

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--model", "classical", "--n-points", "2", "--n-per-arm", "0"],
            ["classical", "0.5", "0.8", "0.2", "--n-per-arm", "0"],
            ["quantum", "1.0", "0.7", "--n-per-arm", str(10**16)],
            ["quantum", "1.0", "0.7", "--mode", "montecarlo", "--n-per-arm", "0"],
        ],
        ids=["sweep", "classical", "quantum", "montecarlo-quantum"],
    )
    def test_cli_exits_2(self, capsys, argv):
        assert cli_main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"irboost: error: n_per_arm must be an integer in [1, {_MAX_N_PER_ARM}]\n"

    def test_numpy_and_edge_integers_accepted(self):
        params = ClassicalParams(0.4, 0.7, 0.3)
        want = simulate_classical(params, 50, 9)
        got = simulate_classical(params, np.int64(50), 9)
        assert got.arms == want.arms and got.to_json() == want.to_json()
        assert simulate_arm(params, None, np.uint16(50), 9) == want.baseline
        assert eval_point(params, mode="montecarlo", n_per_arm=np.int32(50), seed=9) == (
            eval_point(params, mode="montecarlo", n_per_arm=50, seed=9)
        )
        config = SweepConfig(
            model="classical", mode="montecarlo", n_points=1, n_per_arm=np.int8(1), seed=0
        )
        assert type(config.n_per_arm) is int and config.n_per_arm == 1
        simulate_arm(params, None, _MAX_N_PER_ARM, 9)


class TestArmKeying:
    def test_isolated_arms_match_full_runs_interleaved(self):
        # seeds interleaved and arms in reverse order: an arm called alone
        # hashes its own seed, whatever run or arm came before it
        params = ClassicalParams(0.4, 0.7, 0.3)
        seeds = (3, 2**64 - 1, 3, 0)
        runs = {seed: simulate_classical(params, 200, seed) for seed in seeds}
        for kind in [None, *reversed(ArmKind)]:
            for seed in seeds:
                want = runs[seed].baseline if kind is None else runs[seed].arms[kind]
                assert simulate_arm(params, kind, 200, seed) == want

    @pytest.mark.parametrize("kind", ["direct_term", 0, []])
    def test_bad_kind_rejected(self, kind):
        # a kind's value or index names no arm; an unhashable kind is no
        # arm either, not a TypeError
        with pytest.raises(ValueError, match="kind must be an ArmKind or None"):
            simulate_arm(QuantumParams(1.0, 0.5), kind, 10, 0)

    def test_five_distinct_substreams(self):
        seed = 12345
        words = _run_words(seed)
        states = [_arm_rng(words, i).bit_generator.state["state"] for i in range(5)]
        assert len({(s["state"], s["inc"]) for s in states}) == 5
        firsts = {_arm_rng(words, i).integers(2**63) for i in range(5)}
        assert len(firsts) == 5
        # no arm starts where a plain default_rng(seed) does
        plain = np.random.default_rng(seed).bit_generator.state["state"]
        assert plain not in states

    def test_seed_words_read_only(self):
        with pytest.raises(ValueError):
            _run_words(7)[0] = 0

    @given(seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=20))
    @example(seeds=_EDGE_SEEDS)
    @example(seeds=_CHUNK_CROSSING_SEEDS)
    @settings(max_examples=200, deadline=None)
    def test_seed_words_are_numpys(self, seeds):
        # both hashes give exactly the installed NumPy's words: the one-seed
        # path from NumPy's pool, and the batch path that mixes the pools
        # itself, one chunk of seeds at a time
        batch = list(_seed_words(np.array(seeds, np.uint64)))
        assert len(batch) == len(seeds)
        for seed, row in zip(seeds, batch):
            want = np.random.SeedSequence(seed).generate_state(24, np.uint64)
            for words in (_run_words(seed), row):
                assert words.dtype == np.uint64 and words.shape == (24,)
                assert np.array_equal(words, want), seed
                assert not words.flags.writeable

    @given(seed=st.integers(0, 2**64 - 1))
    @example(seed=0)
    @example(seed=2**64 - 1)
    @settings(max_examples=50)
    def test_substream_i_is_pcg64_from_words_4i_plus_4(self, seed):
        # the documented construction: substream i seeds PCG64 with NumPy's
        # own words 4(i+1) .. 4(i+1)+3
        class Given(ISeedSequence):
            def __init__(self, words):
                self.words = words

            def generate_state(self, n_words, dtype=np.uint32):
                assert (n_words, dtype) == (4, np.uint64)
                return self.words

        words = np.random.SeedSequence(seed).generate_state(24, np.uint64)
        for i in range(5):
            want = PCG64(Given(words[4 * (i + 1) : 4 * (i + 1) + 4])).state
            assert _arm_rng(_run_words(seed), i).bit_generator.state == want

    def test_threads_match_sequential(self):
        # runs on three threads, each handing its own seed words and arm
        # rates to its arms; a short switch interval makes their arms
        # interleave.  One thread runs a Monte Carlo sweep, whose points
        # take their words from its batch hash, while the others run
        # simulate_quantum at 400 seeds of one point and on the sweep's own
        # points, at the point's seed and at the previous point's seed.
        # Each run must use only its own state.  The sweep crosses a hash
        # chunk boundary
        params = QuantumParams(1.1, 0.6)
        n_points, n = _SEED_CHUNK + 40, 30
        config = SweepConfig("quantum", n_points, seed=9, mode="montecarlo", n_per_arm=n)
        root = np.random.SeedSequence(9, spawn_key=(0,))
        point_seeds = root.generate_state(n_points, np.uint64).tolist()
        points, _ = sweep(config)
        jobs = [(params, 300, seed) for seed in range(400)]
        for i, pt in enumerate(points):
            jobs += [(pt.params, n, point_seeds[i]), (pt.params, n, point_seeds[i - 1])]

        def sweep_rows():
            return [tuple(map(repr, pt)) for pt in sweep(config)[0]]

        want_sweep = sweep_rows()
        want = [simulate_quantum(*job) for job in jobs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=3) as pool:
                sweep_job = pool.submit(sweep_rows)
                got = list(pool.map(lambda job: simulate_quantum(*job), jobs, timeout=120))
                got_sweep = sweep_job.result(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert got_sweep == want_sweep
        assert got == want

    def test_threads_alternating_models_match_sequential(self):
        # a classical and a quantum run on the same seed, on two threads:
        # each run's arms must read its own model's rates, never the other
        # run's.  The reference runs each model's seeds in turn, so no two
        # runs in a row share a seed
        models = [
            (simulate_classical, ClassicalParams(0.4, 0.7, 0.3)),
            (simulate_quantum, QuantumParams(1.1, 0.6)),
        ]
        jobs = [(run, params, seed) for seed in range(200) for run, params in models]
        want = {
            (run, params, seed): run(params, 300, seed)
            for run, params in models
            for seed in range(200)
        }
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                got = list(pool.map(lambda job: job[0](job[1], 300, job[2]), jobs, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert got == [want[job] for job in jobs]


class TestArmOrder:
    # one arm order, (*ArmKind, None), gives each arm its substream index
    # and its tally name, and keys SimResult.arms in ArmKind order
    @pytest.mark.parametrize(
        "run, params, starved",
        [
            (simulate_classical, ClassicalParams(0.4, 0.7, 0.3), None),
            # P(R) ~ 0: the relevance arm starves, and keeps its key
            (simulate_quantum, QuantumParams(math.pi - 2e-4, 1.0), ArmKind.COND_ON_RELEVANT),
        ],
        ids=["classical", "quantum-starved"],
    )
    def test_arms_keyed_in_kind_order(self, run, params, starved):
        res = run(params, 3, 11)
        assert list(res.arms) == list(ArmKind)
        assert [k for k, t in res.arms.items() if t is None] == ([starved] if starved else [])

    def test_rows_are_substream_positions_and_json_names(self):
        order = (*ArmKind, None)
        doc = simulate_classical(ClassicalParams(0.4, 0.7, 0.3), 10, 0).to_json_dict()
        assert BASELINE_NAME in doc
        names = [*doc["arms"], BASELINE_NAME]
        assert list(_ARM_ROWS) == list(order)
        for kind, row in _ARM_ROWS.items():
            index = order.index(kind)
            assert row == (index, names[index])


class TestArmCalls:
    # each run calls the module-level stream.simulate_arm once per arm it
    # runs, in substream order, with n_per_arm third and the run's arm rates
    # and seed words fifth: the benchmark's tracer counts those calls, and
    # its stream.arm_us divides by the count.  A full run runs all five
    # arms; a Monte Carlo point runs only the arms its flags read, and each
    # flag's arms only up to the first that starves
    KINDS = list(_ALL_ARMS)

    @staticmethod
    def _recorded(monkeypatch, run):
        """``run()``'s result with simulate_arm recorded, checked against
        the unrecorded result, and the arguments of each call."""
        want = run()
        calls = []
        original = irboost.stream.simulate_arm

        def recorder(*args, **kwargs):
            calls.append((args, kwargs))
            return original(*args, **kwargs)

        monkeypatch.setattr(irboost.stream, "simulate_arm", recorder)
        got = run()
        monkeypatch.undo()
        assert got == want
        return got, calls

    def _point_kinds(self, params, n_per_arm, seed, margin):
        """The arms the Monte Carlo point of (params, n_per_arm, seed) runs
        at ``margin``, in order: the arms of each flag that is set, up to
        the first that starves in the full run of that seed."""
        res = _simulate(params, n_per_arm, seed)
        tallies = {**res.arms, None: res.baseline}
        kinds = []
        for ok, arms in zip(params.flags(margin), (self.KINDS[:3], self.KINDS[3:])):
            for kind in arms if ok else ():
                kinds.append(kind)
                if tallies[kind] is None:
                    break
        return kinds

    def _assert_runs(self, calls, n_per_arm, runs):
        """``calls`` are those of the runs in turn: the ``i``-th run calls
        the arms ``runs[i]``, in that order, all on one seed and with one
        state object, which the run before it does not share."""
        assert [args[1] for args, _ in calls] == [kind for kinds in runs for kind in kinds]
        for args, kwargs in calls:
            assert kwargs == {} and len(args) == 5 and args[2] == n_per_arm
        start, states = 0, []
        for kinds in runs:
            run_calls = [args for args, _ in calls[start : start + len(kinds)]]
            start += len(kinds)
            if run_calls:
                assert len({args[3] for args in run_calls}) == 1
                assert all(args[4] is run_calls[0][4] for args in run_calls)
                states.append(run_calls[0][4])
        # the recorded calls keep every state alive, so no two share an id
        assert all(a is not b for a, b in zip(states, states[1:]))

    def test_one_state_per_run(self, monkeypatch):
        # two runs of one config in a row: each hands its arms a state of
        # its own, and an arm called alone, with four arguments, computes
        # the same state and returns the same tally as inside its run
        params = ClassicalParams(0.4, 0.7, 0.3)
        runs, calls = self._recorded(
            monkeypatch, lambda: [simulate_classical(params, 200, 3) for _ in range(2)]
        )
        self._assert_runs(calls, 200, [self.KINDS] * 2)
        for res, run_calls in zip(runs, (calls[:5], calls[5:])):
            for args, _ in run_calls:
                rates, words = args[4]
                assert rates == _arm_rates(params)
                assert np.array_equal(words, _run_words(3))
                want = res.baseline if args[1] is None else res.arms[args[1]]
                assert simulate_arm(*args[:4]) == want

    @pytest.mark.parametrize(
        "model, margin",
        [(m, 1e-6) for m in ("classical", "quantum")]
        + [(m, 0.3) for m in ("classical", "quantum")],
        ids=["classical", "quantum", "classical-margin-0.3", "quantum-margin-0.3"],
    )
    def test_sweep_point_runs(self, model, margin, monkeypatch):
        config = SweepConfig(
            model=model, mode="montecarlo", n_points=12, n_per_arm=40, seed=5,
            exclusion_margin=margin,
        )
        (points, _), calls = self._recorded(monkeypatch, lambda: sweep(config))
        flags = [pt.params.flags(margin) for pt in points]
        seeds = np.random.SeedSequence(5, spawn_key=(0,)).generate_state(12, np.uint64)
        runs = [self._point_kinds(pt.params, 40, s, margin) for pt, s in zip(points, seeds.tolist())]
        self._assert_runs(calls, 40, runs)
        if margin == 0.3:  # points with one flag false are among them
            assert {(True, False), (False, True)} & set(flags)
        else:
            assert set(flags) == {(True, True)}

    @pytest.mark.parametrize(
        "params, flags",
        [
            (ClassicalParams(2e-7, 0.75, 0.25), (True, False)),  # P(R) in the margin
            (QuantumParams(math.pi - 1e-3, 0.8), (True, False)),
            (ClassicalParams(0.5, 0.6, 0.6 + 1e-7), (False, True)),  # tied q_r, q_n
            (QuantumParams(1.0, math.pi / 2), (False, True)),  # cos(alpha) ~ 0
        ],
    )
    def test_point_with_one_flag_false_runs_the_arms_it_reads(
        self, params, flags, monkeypatch
    ):
        _, calls = self._recorded(
            monkeypatch, lambda: eval_point(params, "montecarlo", 40, 5)
        )
        assert params.flags(1e-6) == flags
        if flags[0]:  # P(R) is tiny in both, so the relevance arm starves
            want = [ArmKind.COND_ON_RELEVANT]
        else:
            want = [ArmKind.EXPAND_THEN_RELEVANCE, None]
        self._assert_runs(calls, 40, [want])

    @pytest.mark.parametrize(
        "params, want",
        [
            # P(~R) = 0: the ~R arm starves, and the direct term arm is skipped
            (ClassicalParams(1.0, 0.6, 0.4), ["R", "~R", "expansion", "baseline"]),
            # P(~R) and P(X) ~ 0: the ~R arm starves, then the expansion arm
            (QuantumParams(0.0, math.pi - 2e-4), ["R", "~R", "expansion"]),
            # P(R) ~ 0 and Delta flagged off: one arm
            (QuantumParams(math.pi - 1e-3, 0.8), ["R"]),
            # q_r, q_n tied and P(X) ~ 0: the baseline is skipped
            (ClassicalParams(0.5, 2e-7, 0.0), ["expansion"]),
        ],
    )
    def test_point_stops_a_flag_at_its_first_starved_arm(self, params, want, monkeypatch):
        names = dict(zip(["R", "~R", "direct", "expansion", "baseline"], self.KINDS))
        want = [names[name] for name in want]
        pt, calls = self._recorded(
            monkeypatch, lambda: eval_point(params, "montecarlo", 40, 5)
        )
        self._assert_runs(calls, 40, [want])
        assert self._point_kinds(params, 40, 5, 1e-6) == want
        # the values are the full run's at the point's flags: a flag cut
        # short reads NaN, as its estimate there is None
        res = _simulate(params, 40, 5)
        estimates = (res.accardi_est, res.boost_est)
        for ok, got, est in zip(params.flags(1e-6), (pt.a, pt.delta), estimates):
            if ok and est is not None:
                assert got == est.estimate
            else:
                assert math.isnan(got)

    def test_run_with_a_starved_arm(self, monkeypatch):
        params = QuantumParams(math.pi - 2e-4, 1.0)
        res, calls = self._recorded(monkeypatch, lambda: simulate_quantum(params, 3, 11))
        assert None in [*res.arms.values(), res.baseline]
        self._assert_runs(calls, 3, [self.KINDS])

    def test_point_flagged_on_both_counts_makes_no_calls(self, monkeypatch):
        params = QuantumParams(math.pi, math.pi / 2)
        pt, calls = self._recorded(
            monkeypatch, lambda: eval_point(params, "montecarlo", 40, 5)
        )
        assert not (pt.accardi_defined or pt.boost_defined)
        assert calls == []
