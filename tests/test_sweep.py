import copy
import dataclasses
import gc
import importlib
import importlib.util
import io
import json
import math
import os
import pathlib
import pickle
import re
import sys
import tempfile
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from irboost import (
    ArmKind,
    ClassicalParams,
    EmpiricalParams,
    MalformedInput,
    QuantumParams,
    SweepConfig,
    estimate_from_file,
    eval_point,
    export_csv,
    read_csv,
    simulate_classical,
    simulate_quantum,
    summarize,
    sweep,
)
from irboost.sweep import (
    COUNT_FILE_CAP,
    CSV_HEADER,
    DEFAULT_EXCLUSION_MARGIN,
    MODES,
    ScatterPoint,
    SweepSummary,
    parse_count_file,
    points_to_json_dict,
    write_csv,
    write_gnuplot,
)
from irboost.stream import _SEED_CHUNK

# parameters in each model's box, its ends and its singular points included
_unit = st.one_of(st.sampled_from([0.0, 1e-12, 0.5, 1.0]), st.floats(0.0, 1.0))
_angle = st.one_of(
    st.sampled_from([0.0, math.pi / 2, math.pi - 2e-4, math.pi]), st.floats(0.0, math.pi)
)


def test_package_name_sweep_is_the_function():
    # irboost/__init__.py binds the function over the submodule of the same
    # name; the module is reached through importlib, as the docs say
    import irboost
    import irboost.sweep as bound

    module = importlib.import_module("irboost.sweep")
    assert bound is irboost.sweep is sweep is module.sweep
    assert isinstance(module, types.ModuleType) and module is sys.modules["irboost.sweep"]


def test_tracer_patch_targets_resolve():
    # the benchmark's tracer (bench/tracing.py) replaces each (module,
    # attribute) of its PATCHES list at install time; a renamed function,
    # or a dropped import it looks up on a module, fails the traced run.
    # Loaded by path and not installed
    path = pathlib.Path(__file__).parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("irboost_bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        (module, attr)
        for module, attr, *_ in tracing.PATCHES
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert tracing.PATCHES and missing == []


class TestSweepAnalytic:
    def test_classical_points_obey_bound(self):
        points, summary = sweep(SweepConfig("classical", 5_000, seed=42))
        assert summary.n_points == 5_000
        for pt in points:
            if pt.accardi_defined:
                assert pt.a == pt.params.p
                assert 0.0 <= pt.a <= 1.0
        assert summary.fraction_a_below_0 == 0.0
        assert summary.fraction_a_above_1 == 0.0

    def test_quantum_violations_present(self):
        for seed in range(5):
            _, summary = sweep(SweepConfig("quantum", 2_000, seed=seed))
            assert summary.fraction_a_above_1 > 0.0
            assert summary.fraction_a_below_0 > 0.0

    def test_matches_scalar_closed_forms(self):
        # every sweep point equals eval_point on its parameters at the same
        # margin, field for field and bit for bit (float.hex: NaN matches NaN)
        def fields(pt):
            return (pt.model, pt.params, pt.a.hex(), pt.delta.hex(),
                    pt.accardi_defined, pt.boost_defined)

        for model in ("classical", "quantum"):
            for margin in (DEFAULT_EXCLUSION_MARGIN, 0.3):
                config = SweepConfig(model, 200, seed=9, exclusion_margin=margin)
                points, _ = sweep(config)
                for pt in points:
                    want = eval_point(pt.params, exclusion_margin=margin)
                    assert fields(pt) == fields(want)
        # inside the default margin of a singular manifold, clear of EPS_DENOM
        for params in (
            ClassicalParams(0.5, 0.5000001, 0.5),
            QuantumParams(1.0, math.pi / 2 + 5e-7),
        ):
            pt = eval_point(params)
            assert pt.accardi_defined is False
            assert math.isnan(pt.a)

    @pytest.mark.parametrize(
        "model,row",
        [
            ("classical", [0.0, 0.0, 0.0]),
            ("quantum", [math.pi, 0.0]),
            ("classical", [0.0, 1e-12, 5e-324]),  # x / subnormal overflows
        ],
    )
    def test_row_on_a_singular_manifold(self, model, row, monkeypatch):
        # uniform sampling all but never draws such a row; its 0/0, x/0 or
        # overflow must stay inside the sweep's np.errstate (RuntimeWarning fails)
        module = importlib.import_module("irboost.sweep")  # irboost.sweep is the function
        monkeypatch.setattr(module, "sample_params", lambda config: np.array([row]))
        (pt,), _ = sweep(SweepConfig(model, 1, seed=0))
        assert pt.boost_defined is False and math.isnan(pt.delta)

    def test_deterministic(self):
        a = sweep(SweepConfig("quantum", 300, seed=5))
        b = sweep(SweepConfig("quantum", 300, seed=5))
        assert a == b

    def test_exclusion_margin_flags_not_drops(self):
        config = SweepConfig("quantum", 1_000, seed=1, exclusion_margin=0.3)
        points, summary = sweep(config)
        assert len(points) == 1_000
        flagged = [pt for pt in points if not pt.accardi_defined]
        assert flagged  # a margin this wide must catch points
        for pt in flagged:
            assert abs(math.cos(pt.params.alpha)) <= 0.3
            assert math.isnan(pt.a)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SweepConfig("urn", 10, 0)
        with pytest.raises(ValueError):
            SweepConfig("classical", 0, 0)
        with pytest.raises(ValueError):
            SweepConfig("classical", 10, 0, mode="exact")
        with pytest.raises(ValueError, match="unknown model"):
            SweepConfig(["classical"], 10, 0)  # unhashable


class TestNPointsRule:
    # n_points takes the integer rule n_per_arm and the seed take: an
    # integer, NumPy integers included, and at least 1
    @pytest.mark.parametrize("mode", ["analytic", "montecarlo"])
    @pytest.mark.parametrize("n", [1.5, 2.0, "3", None, 0, -1])
    def test_rejected_when_built(self, n, mode):
        with pytest.raises(ValueError, match="n_points must be >= 1"):
            SweepConfig("quantum", n, seed=0, mode=mode, n_per_arm=50)

    @pytest.mark.parametrize("mode", ["analytic", "montecarlo"])
    def test_integers_stored_as_int(self, mode):
        for n, want in ((np.int64(3), 3), (np.uint8(2), 2), (True, 1)):
            config = SweepConfig("quantum", n, seed=0, mode=mode, n_per_arm=50)
            assert type(config.n_points) is int and config.n_points == want
            points, summary = sweep(config)
            assert len(points) == summary.n_points == want


class TestSweepMonteCarlo:
    def test_consistent_with_analytic(self):
        # same sampled parameter points in both modes; estimates within 4
        # propagated standard errors of the closed forms
        n_pts = 5
        mc_pts, _ = sweep(
            SweepConfig("quantum", n_pts, seed=17, mode="montecarlo", n_per_arm=20_000)
        )
        an_pts, _ = sweep(SweepConfig("quantum", n_pts, seed=17))
        for mc, an in zip(mc_pts, an_pts):
            assert mc.params == an.params
            if not (mc.accardi_defined and an.accardi_defined):
                continue
            res = simulate_quantum(mc.params, 20_000, seed=_mc_seed(17, mc_pts.index(mc)))
            assert mc.a == res.accardi_est.estimate
            assert abs(mc.a - an.a) <= 4 * res.accardi_est.std_error

    def test_singular_point_flagged(self):
        pt = eval_point(
            QuantumParams(math.pi / 2, math.pi / 2),
            mode="montecarlo",
            n_per_arm=1_000,
            seed=3,
        )
        assert not pt.accardi_defined
        assert math.isnan(pt.a)

    def test_starved_point_flagged(self):
        pt = eval_point(
            ClassicalParams(1.0, 0.5, 0.5),
            mode="montecarlo",
            n_per_arm=100,
            seed=3,
            exclusion_margin=1e-6,
        )
        # p = 1 starves the non-relevant arm; flags off, not an exception
        assert not pt.accardi_defined


    @pytest.mark.parametrize(
        "model, margin",
        [(m, DEFAULT_EXCLUSION_MARGIN) for m in ("classical", "quantum")]
        + [(m, 0.3) for m in ("classical", "quantum")],
        ids=["classical", "quantum", "classical-margin-0.3", "quantum-margin-0.3"],
    )
    def test_points_run_with_their_documented_seeds(self, model, margin):
        # point i is simulate_*(params_i, n_per_arm, seeds[i]), flagged at
        # the exclusion margin, though it runs only the arms its flags read;
        # also past the first chunk of point seeds that a sweep hashes in one
        # pass.  At margin 0.3 many points have one flag false.  A point
        # whose relevance arm starves, as the benchmark's do, runs alone
        simulate = simulate_classical if model == "classical" else simulate_quantum
        runs = []
        for n_pts, n in [(12, 300), (_SEED_CHUNK + 3, 2)]:
            config = SweepConfig(
                model, n_pts, seed=2024, mode="montecarlo", n_per_arm=n,
                exclusion_margin=margin,
            )
            points, _ = sweep(config)
            assert len(points) == n_pts
            # _mc_seed(2024, i) for every i at once
            root = np.random.SeedSequence(2024, spawn_key=(0,))
            seeds = root.generate_state(n_pts, np.uint64).tolist()
            runs += [(pt, n, seed) for pt, seed in zip(points, seeds)]
        if model == "classical":
            starving = ClassicalParams(2e-7, 0.75, 0.25)
        else:
            starving = QuantumParams(math.pi - 1e-3, 0.8)
        runs.append((eval_point(starving, "montecarlo", 500, 31, margin), 500, 31))
        assert simulate(starving, 500, 31).arms[ArmKind.COND_ON_RELEVANT] is None
        one_flag = 0
        for pt, n, seed in runs:
            res = simulate(pt.params, n, seed)
            analytic = eval_point(pt.params, exclusion_margin=margin)
            a_ok, d_ok = analytic.accardi_defined, analytic.boost_defined
            one_flag += a_ok != d_ok
            a_est = res.accardi_est if a_ok else None
            b_est = res.boost_est if d_ok else None
            assert pt.accardi_defined == (a_est is not None)
            assert pt.boost_defined == (b_est is not None)
            assert pt.a.hex() == (a_est.estimate if a_est else math.nan).hex()
            assert pt.delta.hex() == (b_est.estimate if b_est else math.nan).hex()
        assert one_flag >= (len(runs) // 4 if margin == 0.3 else 1)

    @pytest.mark.parametrize("model", ["classical", "quantum"])
    def test_prefix_of_a_longer_sweep(self, model):
        # a point's seed does not depend on n_points
        short, _ = sweep(SweepConfig(model, 6, seed=5, mode="montecarlo", n_per_arm=200))
        long, _ = sweep(SweepConfig(model, 20, seed=5, mode="montecarlo", n_per_arm=200))
        assert [tuple(map(repr, pt)) for pt in short] == [tuple(map(repr, pt)) for pt in long[:6]]

    def test_point_seeds_are_64_bit_and_distinct(self):
        # 32-bit point seeds collide about 5 times in 200k points
        seeds = {_mc_seed(7, 0), _mc_seed(7, 199_999)}
        root = np.random.SeedSequence(7, spawn_key=(0,))
        seeds.update(root.generate_state(200_000, np.uint64).tolist())
        assert len(seeds) == 200_000
        assert max(seeds) >= 2**32

    # Tied conditional tallies (A undefined), an all-failure baseline (Delta
    # undefined) and starving arms; the seeds were picked to hit each.
    @example(ClassicalParams(0.5, 0.6, 0.4), 1, 0, 1e-6)  # tied conditionals
    @example(QuantumParams(1.0, 1.0), 2, 2, 1e-6)  # tied conditionals
    @example(ClassicalParams(0.2, 0.7, 0.3), 1, 0, 1e-6)  # all-failure baseline
    @example(QuantumParams(2.0, 1.0), 1, 1, 1e-6)  # all-failure baseline
    @example(ClassicalParams(1.0, 0.6, 0.4), 3, 0, 1e-6)  # ~R arm starves
    @example(QuantumParams(math.pi - 2e-4, 1.0), 3, 0, 0.0)  # R arm starves
    @example(QuantumParams(0.0, math.pi - 2e-4), 3, 0, 0.0)  # expansion arm starves
    @settings(max_examples=300, deadline=None)
    @given(
        params=st.one_of(
            st.builds(ClassicalParams, _unit, _unit, _unit),
            st.builds(QuantumParams, _angle, _angle),
        ),
        n_per_arm=st.one_of(st.integers(1, 5), st.just(100)),
        seed=st.integers(0, 2**64 - 1),
        margin=st.sampled_from([0.0, DEFAULT_EXCLUSION_MARGIN, 0.3]),
    )
    def test_point_reads_the_run_estimates(self, params, n_per_arm, seed, margin):
        # a point's a, delta and flags are the run's accardi_est and
        # boost_est, bit for bit, at the point's flags; NaN and a false
        # flag where those are None
        pt = eval_point(params, "montecarlo", n_per_arm, seed, margin)
        analytic = eval_point(params, exclusion_margin=margin)
        a_ok, d_ok = analytic.accardi_defined, analytic.boost_defined
        simulate = simulate_classical if params.name == "classical" else simulate_quantum
        res = simulate(params, n_per_arm, seed)
        a_est = res.accardi_est if a_ok else None
        b_est = res.boost_est if d_ok else None
        assert pt.accardi_defined == (a_est is not None)
        assert pt.boost_defined == (b_est is not None)
        assert pt.a.hex() == (a_est.estimate if a_est else math.nan).hex()
        assert pt.delta.hex() == (b_est.estimate if b_est else math.nan).hex()


def _mc_seed(seed, index):
    """The run seed of point ``index`` of a Monte Carlo sweep: a word of the
    seed's first child, which ``default_rng(seed)`` does not start from."""
    root = np.random.SeedSequence(seed, spawn_key=(0,))
    return int(root.generate_state(index + 1, np.uint64)[index])


class TestEvalPoint:
    def test_classical_analytic(self):
        pt = eval_point(ClassicalParams(0.5, 0.8, 0.2))
        assert pt.a == pytest.approx(0.5, abs=1e-12)
        assert pt.delta == pytest.approx(0.6, abs=1e-12)

    def test_quantum_witness(self):
        pt = eval_point(QuantumParams(math.pi / 3, math.pi / 4))
        assert pt.a == pytest.approx(1.183013, abs=1e-6)
        assert pt.delta == pytest.approx(0.138071, abs=1e-6)

    def test_singular_alpha_flagged(self):
        pt = eval_point(QuantumParams(math.pi / 2, math.pi / 2))
        assert not pt.accardi_defined
        assert pt.boost_defined


class TestEvalPointRules:
    # eval_point is a sweep of size 1: it rejects what SweepConfig rejects
    POINTS = (ClassicalParams(0.5, 0.8, 0.2), QuantumParams(1.0, 0.5))

    @pytest.mark.parametrize("mode", ["bogus", "exact", "Analytic", ""])
    def test_unknown_mode_rejected(self, mode):
        for params in self.POINTS:
            with pytest.raises(ValueError, match="unknown mode"):
                eval_point(params, mode=mode)
        with pytest.raises(ValueError, match="unknown mode"):
            SweepConfig("quantum", 2, seed=0, mode=mode)

    @pytest.mark.parametrize("mode", ["analytic", "montecarlo"])
    @pytest.mark.parametrize("margin", [-1, 0.5, 5.0, math.nan, None, "0.1"])
    def test_bad_margin_rejected(self, margin, mode):
        # the second quantum point is flagged on both counts at any margin;
        # the bad seed shows that both check the margin first
        for params in (*self.POINTS, QuantumParams(math.pi, math.pi / 2)):
            with pytest.raises(ValueError, match="exclusion_margin"):
                eval_point(params, mode=mode, n_per_arm=50, seed=-1, exclusion_margin=margin)
        with pytest.raises(ValueError, match="exclusion_margin"):
            SweepConfig("quantum", 2, seed=-1, mode=mode, exclusion_margin=margin)

    @pytest.mark.parametrize("mode", ["analytic", "montecarlo"])
    @pytest.mark.parametrize("margin", [0, 0.0, 1e-12, 0.49])
    def test_edge_margins_accepted(self, margin, mode):
        for params in self.POINTS:
            eval_point(params, mode=mode, n_per_arm=50, exclusion_margin=margin)


def _text_mode_parse(path):
    """The count-file reader as it was in text mode: the reference for
    ``parse_count_file``, with a decoding error raised as MalformedInput."""
    tokens = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                stripped = line.strip()
                if not stripped or stripped.startswith("#"):
                    continue
                tokens.extend(stripped.split())
    except UnicodeDecodeError as exc:
        raise MalformedInput(str(exc)) from None
    if len(tokens) != 5:
        raise MalformedInput(
            f"expected 5 counts (N N_R N_XR N_XN N_X), got {len(tokens)} tokens"
        )
    for t in tokens:
        if not (t.isascii() and t.isdigit()):
            raise MalformedInput(f"counts must be nonnegative, in ASCII digits: {t!r}")
    try:
        n, n_r, n_xr, n_xn, n_x = (int(t) for t in tokens)
    except ValueError as exc:
        raise MalformedInput(f"count too long in {path}: {exc}") from None
    if n == 0:
        raise MalformedInput("N must be positive")
    if n_r > n:
        raise MalformedInput(f"N_R={n_r} exceeds N={n}")
    if n_xr > n_r:
        raise MalformedInput(f"N_XR={n_xr} exceeds N_R={n_r}")
    if n_xn > n - n_r:
        raise MalformedInput(f"N_XN={n_xn} exceeds N - N_R={n - n_r}")
    if n_x > n:
        raise MalformedInput(f"N_X={n_x} exceeds N={n}")
    if n_r == 0 or n_r == n:
        raise MalformedInput(
            "both relevance classes must be populated to form conditional rates"
        )
    if n > sys.float_info.max:
        raise MalformedInput("N is beyond float range")
    return n, n_r, n_xr, n_xn, n_x


def _outcome(parse, path):
    try:
        return parse(path)
    except MalformedInput as exc:
        return str(exc)


# count files built from digit tokens, comments, the three line ends, the
# characters str.splitlines() would also break at, and raw bytes: free-form,
# or the five counts of a valid file with blanks and comment lines between
_LINE_ENDS = st.sampled_from(["\n", "\r\n", "\r"])
_BLANKS = st.sampled_from([" ", "\t", "\x0b", "\x0c", "\x1c", "\x85", "\u2028"])
_COMMENTS = st.text(max_size=6).map(lambda s: "#" + s)
_PIECES = st.one_of(
    _LINE_ENDS,
    _BLANKS,
    _COMMENTS,
    st.sampled_from(["0", "7", "100", "400", "500", "1000", "1" + "0" * 4300]),
    st.from_regex(r"\A[0-9]{1,6}\Z"),
).map(str.encode) | st.binary(max_size=3)
_SEPARATORS = st.lists(
    _LINE_ENDS | _BLANKS | st.tuples(_LINE_ENDS, _COMMENTS, _LINE_ENDS).map("".join),
    min_size=1,
    max_size=3,
).map("".join)
_VALID_COUNTS = ("1000", "500", "400", "100", "500", "")  # "": the last separator ends the file
_COUNT_FILES = st.one_of(
    st.lists(_PIECES, max_size=40).map(b"".join),
    st.lists(_SEPARATORS, min_size=6, max_size=6).map(
        lambda seps: "".join(s + c for s, c in zip(seps, _VALID_COUNTS)).encode()
    ),
).filter(lambda data: len(data) < 8192)  # text mode decodes in 8 KiB chunks


class TestEstimateFromFile:
    def write(self, tmp_path, text):
        path = tmp_path / "counts.txt"
        path.write_text(text, encoding="utf-8")  # the encoding the reader takes
        return path

    def test_hand_computed(self, tmp_path):
        path = self.write(tmp_path, "# N N_R N_XR N_XN N_X\n1000 500 400 100 500\n")
        outcome = estimate_from_file(path)
        assert outcome.point.a == pytest.approx(0.5, abs=1e-12)
        assert outcome.point.delta == pytest.approx(0.6, abs=1e-12)
        assert outcome.accardi.std_error > 0.0
        assert outcome.boost.std_error > 0.0

    def test_total_probability_consistent_counts(self, tmp_path):
        # N_X chosen so the law of total probability holds: A = N_R/N
        path = self.write(tmp_path, "1000 250 200 150 350\n")
        outcome = estimate_from_file(path)
        assert outcome.point.a == pytest.approx(0.25, abs=1e-12)

    @pytest.mark.parametrize(
        "counts,message",
        [
            ("1000 500 400 -1 500", "counts must be nonnegative"),
            ("0 0 0 0 0", "N must be positive"),
            ("1000 1001 400 0 500", "N_R=1001 exceeds N=1000"),
            ("1000 500 600 100 500", "N_XR=600 exceeds N_R=500"),
            ("1000 500 400 501 500", "N_XN=501 exceeds N - N_R=500"),
            ("1000 500 400 100 1001", "N_X=1001 exceeds N=1000"),
            # int() takes these spellings, but a count is ASCII digits only
            ("1_00 40 30 12 42", "in ASCII digits: '1_00'"),
            ("+100 40 30 12 42", "in ASCII digits: '+100'"),
            ("\u0661\u0660\u0660 40 30 12 42", "in ASCII digits: '\u0661\u0660\u0660'"),
            ("100 40 30 12 \uff14\uff12", "in ASCII digits: '\uff14\uff12'"),
        ],
        ids=[
            "negative", "n-zero", "n_r-exceeds-n", "n_xr-exceeds-n_r", "n_xn-exceeds-rest",
            "n_x-exceeds-n", "underscore", "plus-sign", "arabic-indic-digits",
            "fullwidth-digits",
        ],
    )
    def test_inconsistent_counts(self, counts, message, tmp_path):
        path = self.write(tmp_path, counts + "\n")
        with pytest.raises(MalformedInput, match=re.escape(message)):
            estimate_from_file(path)

    def test_wrong_token_count(self, tmp_path):
        path = self.write(tmp_path, "1 2 3\n")
        with pytest.raises(MalformedInput):
            estimate_from_file(path)

    def test_non_integer(self, tmp_path):
        path = self.write(tmp_path, "1000 500 400.5 100 500\n")
        with pytest.raises(MalformedInput):
            estimate_from_file(path)

    def test_empty_relevance_class(self, tmp_path):
        path = self.write(tmp_path, "1000 0 0 100 500\n")
        with pytest.raises(MalformedInput):
            estimate_from_file(path)

    def test_every_document_relevant(self, tmp_path):
        # N_R = N is consistent with N but leaves ~R empty
        path = self.write(tmp_path, "1000 1000 400 0 500\n")
        message = "both relevance classes must be populated to form conditional rates"
        with pytest.raises(MalformedInput) as info:
            estimate_from_file(path)
        assert str(info.value) == message

    def test_n_at_the_float_max_is_in_range(self, tmp_path):
        n = int(sys.float_info.max)  # exactly the largest double
        path = self.write(tmp_path, f"{n} {n // 2} 0 0 0\n")
        assert parse_count_file(path) == (n, n // 2, 0, 0, 0)

    def test_boost_flag_follows_the_classical_rule(self, tmp_path):
        # p = N_R/N is exactly EPS_DENOM: undefined, as for the closed form
        path = self.write(tmp_path, "1000000000 1 1 500000000 500000001\n")
        outcome = estimate_from_file(path)
        pt = outcome.point
        assert pt.params == EmpiricalParams(1e-9, 1.0, 0.5000000005)
        assert pt.boost_defined is False
        assert pt.boost_defined == eval_point(pt.params, exclusion_margin=0).boost_defined
        assert outcome.boost is None and math.isnan(pt.delta)
        assert pt.accardi_defined

    def test_params_are_empirical(self, tmp_path):
        # the classical rates, labelled apart: they evaluate as classical
        # params and name the model "empirical"
        pt = estimate_from_file(self.write(tmp_path, "1000 500 400 100 500\n")).point
        assert type(pt.params) is EmpiricalParams
        assert isinstance(pt.params, ClassicalParams)
        assert pt.model == "empirical"
        assert pt.params != ClassicalParams(0.5, 0.8, 0.2)
        assert eval_point(pt.params).model == "empirical"

    def test_delta_and_flags_are_eval_points(self, tmp_path):
        # Delta is the closed form's float, bit for bit, and both flags
        # follow the classical rules at zero margin, on hand-picked and on
        # seeded random counts of every size
        rng = np.random.default_rng(2013)
        files = [(100, 40, 30, 12, 42)]
        for _ in range(2_000):
            n = int(rng.integers(2, 10 ** rng.integers(1, 13), endpoint=True))
            n_r = int(rng.integers(1, n))
            n_xr, n_xn = int(rng.integers(0, n_r + 1)), int(rng.integers(0, n - n_r + 1))
            files.append((n, n_r, n_xr, n_xn, n_xr + n_xn))
        for n, n_r, n_xr, n_xn, n_x in files:
            text = f"{n} {n_r} {n_xr} {n_xn} {n_x}"
            pt = estimate_from_file(self.write(tmp_path, text)).point
            params = ClassicalParams(n_r / n, n_xr / n_r, n_xn / (n - n_r))
            want = eval_point(params, exclusion_margin=0)
            assert pt.delta.hex() == want.delta.hex(), text
            assert pt.accardi_defined == want.accardi_defined, text
            assert pt.boost_defined == want.boost_defined, text

    def test_not_utf8(self, tmp_path):
        path = tmp_path / "counts.txt"
        path.write_bytes(b"\xff100 40 30 12 42\n")
        message = "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"
        with pytest.raises(MalformedInput, match=re.escape(message)):
            estimate_from_file(path)

    @pytest.mark.parametrize(
        "text",
        [
            "# header\n1000 500\n# middle\n400 100 500\n",
            "# header\r\n1000 500\r\n# middle\r\n400 100 500\r\n",
            "# header\r1000 500\r# middle\r400 100 500\r",
            # a form feed is whitespace, not a line end: the comment runs on
            "# header\x0c 7 7\n1000 500\n# middle\x0c 1 2\n400 100 500\n",
        ],
        ids=["lf", "crlf", "cr", "form-feed-in-comment"],
    )
    def test_multiline_with_comments(self, text, tmp_path):
        outcome = estimate_from_file(self.write(tmp_path, text))
        assert outcome.point.a == pytest.approx(0.5, abs=1e-12)
        assert outcome == estimate_from_file(self.write(tmp_path, "1000 500 400 100 500"))

    def test_read_runs_to_the_end_of_a_long_file(self, tmp_path):
        # over 64 KiB of comments, with a three-byte character at bytes
        # 65535-65537: a reader that stops after its first 64 KiB read, or
        # decodes each read on its own, cuts that character
        head = "# note\n" * 9_362 + "#\u20ac\n"
        text = head + "# more\n" * 100 + "1000 500 400 100 500\n"
        assert text.encode()[65_535:65_538] == "\u20ac".encode()
        outcome = estimate_from_file(self.write(tmp_path, text))
        assert outcome == estimate_from_file(self.write(tmp_path, "1000 500 400 100 500\n"))

    def test_read_stops_a_byte_past_the_cap(self, tmp_path):
        # a file of the cap's length parses; one byte longer is malformed,
        # and the message names the cap
        counts = "1000 500 400 100 500\n"
        at_cap = "#" * (COUNT_FILE_CAP - len(counts) - 1) + "\n" + counts
        assert len(at_cap.encode()) == COUNT_FILE_CAP
        outcome = estimate_from_file(self.write(tmp_path, at_cap))
        assert outcome == estimate_from_file(self.write(tmp_path, counts))
        message = f"^count file longer than {COUNT_FILE_CAP} bytes$"
        with pytest.raises(MalformedInput, match=message):
            parse_count_file(self.write(tmp_path, " " + at_cap))

    @pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero")
    def test_a_file_with_no_end_is_malformed(self):
        with pytest.raises(MalformedInput, match=f"longer than {COUNT_FILE_CAP} bytes"):
            parse_count_file("/dev/zero")

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(data=_COUNT_FILES)
    @example(data=b"1000 500 400 100 500 \xe2\x82")
    @example(data=b"1000\r500\r\n# 1 2\r400 100 500")
    @example(data="# c\x0c 1 2\x85 3\u2028\n1000 500 400\x1c100\x0b500".encode())
    @example(data=b"1000 500 400 100 500 # note\n")
    def test_reads_as_text_mode_did(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "counts.txt")
            with open(path, "wb") as fh:
                fh.write(data)
            got, want = _outcome(parse_count_file, path), _outcome(_text_mode_parse, path)
        if got != want:
            # text mode decodes with an incremental decoder, which reports a
            # sequence cut short by the end of the file at its offset among
            # the bytes it held back; a whole-file decode gives the offset
            # in the file
            with pytest.raises(UnicodeDecodeError) as info:
                data.decode("utf-8")
            exc = info.value
            assert (exc.reason, exc.end) == ("unexpected end of data", len(data))
            tail = data[exc.start:]
            assert got == str(exc)
            assert want == str(UnicodeDecodeError("utf-8", tail, 0, len(tail), exc.reason))


class TestCsv:
    def test_header_and_empty(self, tmp_path):
        path = tmp_path / "empty.csv"
        export_csv([], path)
        assert path.read_text() == ",".join(CSV_HEADER) + "\n"

    def test_rewrite_leaves_no_old_tail(self, tmp_path):
        # export_csv writes over an existing file from byte 0 and cuts it at
        # the end of the new text
        path = tmp_path / "rw.csv"
        points, _ = sweep(SweepConfig("classical", 50, seed=2))
        export_csv(points, path)
        export_csv(points[:1], path)
        buf = io.StringIO()
        write_csv(points[:1], buf)
        assert path.read_bytes() == buf.getvalue().encode()

    def test_single_classical_row(self, tmp_path):
        path = tmp_path / "one.csv"
        pt = eval_point(ClassicalParams(0.5, 0.8, 0.2))
        export_csv([pt], path)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        fields = lines[1].split(",")
        assert fields[0] == "classical"
        assert fields[1:4] == ["0.5", "0.80000000000000004", "0.20000000000000001"]

    def test_quantum_param3_empty(self, tmp_path):
        path = tmp_path / "q.csv"
        export_csv([eval_point(QuantumParams(1.0, 0.5))], path)
        fields = path.read_text().splitlines()[1].split(",")
        assert fields[3] == ""

    def test_round_trip_exact(self, tmp_path):
        points, _ = sweep(SweepConfig("quantum", 500, seed=13))
        path = tmp_path / "rt.csv"
        export_csv(points, path)
        back = read_csv(path)
        assert len(back) == len(points)
        for orig, re in zip(points, back):
            assert re.params == orig.params
            assert (re.a == orig.a) or (math.isnan(re.a) and math.isnan(orig.a))
            assert (re.delta == orig.delta) or (
                math.isnan(re.delta) and math.isnan(orig.delta)
            )
            assert re.accardi_defined == orig.accardi_defined
            assert re.boost_defined == orig.boost_defined

    @pytest.mark.parametrize(
        "text,message",
        [
            ('\n"classical",0.5,0.5,0.2,0.5,0.6,true,true\n', "bad CSV row"),
            ("\nclassical,0.5,0.5,0.2,0.5,0.6,true,true\r\n", "bad CSV row"),
            ("\r\nclassical,0.5,0.5,0.2,0.5,0.6,true,true\r\n", "unexpected CSV header"),
            ("\nclassical,0.5,0.5,0.2,abc,0.6,true,true\n", "could not convert"),
            ("\nquantum,9,0.5,,1,2,true,true\n", "phi must lie in"),
        ],
        ids=["quoted", "crlf-row", "crlf-file", "abc", "phi-9"],
    )
    def test_read_csv_rejects_rows_export_csv_never_writes(self, text, message, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes((",".join(CSV_HEADER) + text).encode())
        with pytest.raises(MalformedInput, match=message):
            read_csv(path)

    @pytest.mark.parametrize(
        "n_rows, tail, message",
        [
            # past the first 8 KiB, where a text-mode reader's decoder chunk
            # no longer starts at the file's start
            (200, b"classical,0.5\xff,0.5,,,false,false\n",
             "line 202: 'utf-8' codec can't decode byte 0xff in position 13: invalid start byte"),
            (1, b"classical,0.5\xe2\x82",
             "line 3: 'utf-8' codec can't decode bytes in position 13-14: unexpected end of data"),
        ],
        ids=["byte-past-8k", "cut-at-eof"],
    )
    def test_read_csv_not_utf8_names_the_line(self, n_rows, tail, message, tmp_path):
        path = tmp_path / "bad.csv"
        export_csv([eval_point(ClassicalParams(0.5, 0.8, 0.2))] * n_rows, path)
        with open(path, "ab") as fh:
            fh.write(tail)
        with pytest.raises(MalformedInput) as info:
            read_csv(path)
        assert str(info.value) == message

    @pytest.mark.parametrize("model", ["classical", "quantum"])
    def test_writers_attach_nothing_to_points(self, model):
        # the writers read each field by name and keep nothing of what they
        # read: no memory stays behind on the points once they return
        points, summary = sweep(SweepConfig(model, 2000, seed=1))
        write_csv(points[:1], io.StringIO())
        points_to_json_dict(points[:1], summary)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            write_csv(points, io.StringIO())
            points_to_json_dict(points, summary)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained < 8 * len(points)

    def test_monte_carlo_calls_keep_nothing(self):
        # a run hands its arm rates and seed words to its arms, so nothing a
        # simulate_* run, a sweep or a Monte Carlo point computed stays
        # alive once its result is dropped.  One point's words from a sweep
        # would keep that sweep's whole seed-hash chunk
        def calls(seed):
            params = QuantumParams(1.0, 0.5)
            config = SweepConfig("quantum", 1024, seed, mode="montecarlo", n_per_arm=20)
            return {
                "simulate_quantum": lambda: simulate_quantum(params, 500, seed),
                "sweep": lambda: sweep(config),
                "eval_point": lambda: eval_point(params, "montecarlo", 500, seed),
            }

        # warm up on another seed, so that no measured call repeats the run
        # before it
        for call in calls(8).values():
            call()
        retained = {}
        for name, call in calls(7).items():
            tracemalloc.start()
            try:
                # a full collection empties CPython's free lists, which would
                # otherwise hold float and tuple blocks the call allocated
                gc.collect()
                before = tracemalloc.get_traced_memory()[0]
                call()
                gc.collect()
                retained[name] = tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()
        assert max(retained.values()) < 512, retained

    def test_gnuplot_two_columns(self, tmp_path):
        import io

        points, _ = sweep(SweepConfig("classical", 50, seed=2))
        buf = io.StringIO()
        write_gnuplot(points, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "# a delta"
        defined = [pt for pt in points if pt.accardi_defined and pt.boost_defined]
        assert len(lines) - 1 == len(defined)
        a, delta = lines[1].split()
        assert float(a) == defined[0].a
        assert float(delta) == defined[0].delta


def _flags_read_off(pt):
    """Whether each flag of ``pt`` is set exactly where its value is finite."""
    values = (math.isfinite(pt.a), math.isfinite(pt.delta))
    return (pt.accardi_defined, pt.boost_defined) == values


_MARGINS = st.sampled_from([0.0, DEFAULT_EXCLUSION_MARGIN, 0.3])
# distances from a singular manifold, some just inside or outside a margin
_OFFSETS = st.one_of(
    st.sampled_from([0.0, 1e-12, 5e-7, 1e-6, 2e-6, 2e-3, 0.29, 0.3, 0.31]),
    st.floats(0.0, 1.0),
)


@st.composite
def _crowded_params(draw):
    """Points in either model's box, crowded at its singular manifolds."""
    off, sign = draw(_OFFSETS), draw(st.sampled_from([-1.0, 1.0]))
    if draw(st.booleans()):
        # A is singular at q_r = q_n; Delta at P(R) = 0 and at q_r = q_n = 0
        q_r = draw(st.one_of(_unit, _OFFSETS))
        q_n = min(max(q_r + sign * off, 0.0), 1.0)
        return ClassicalParams(draw(st.one_of(_unit, _OFFSETS)), q_r, q_n)
    # A is singular at cos(alpha) = 0; Delta at phi = pi
    phi = draw(st.one_of(_angle, _OFFSETS.map(lambda o: math.pi - o)))
    return QuantumParams(phi, math.pi / 2 + sign * off)


@st.composite
def _count_files(draw):
    """The five counts of a consistent file, some with tied conditional
    rates (A undefined) or P(R) at EPS_DENOM (Delta undefined)."""
    n = draw(st.one_of(st.integers(2, 10_000), st.sampled_from([10**9, 10**18])))
    n_r = draw(st.one_of(st.integers(1, n - 1), st.just(1), st.just(n // 2)))
    n_xr = draw(st.integers(0, n_r))
    tied = n_xr * (n - n_r) // n_r
    n_xn = draw(st.one_of(st.integers(0, n - n_r), st.just(tied)))
    return n, n_r, n_xr, n_xn, draw(st.integers(0, n))


class TestFlagsReadOffValues:
    """Every entry point gives points whose flags are set exactly where
    their values are finite: a value a flag keeps is never NaN or
    infinite, and each flag property reads its own value."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        params=_crowded_params(),
        mode=st.sampled_from(["analytic", "montecarlo"]),
        margin=_MARGINS,
        n_per_arm=st.integers(1, 5),
        seed=st.integers(0, 2**64 - 1),
    )
    @example(QuantumParams(math.pi / 2, math.pi / 2), "analytic", 1e-6, 1, 0)
    @example(ClassicalParams(0.0, 0.8, 0.2), "analytic", 1e-6, 1, 0)
    def test_eval_point(self, params, mode, margin, n_per_arm, seed):
        assert _flags_read_off(eval_point(params, mode, n_per_arm, seed, margin))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        model=st.sampled_from(["classical", "quantum"]),
        mode=st.sampled_from(["analytic", "montecarlo"]),
        n_points=st.integers(1, 6),
        seed=st.integers(0, 2**64 - 1),
        n_per_arm=st.integers(1, 5),
        margin=_MARGINS,
    )
    def test_sweep_and_read_csv(self, model, mode, n_points, seed, n_per_arm, margin):
        points, _ = sweep(SweepConfig(model, n_points, seed, mode, n_per_arm, margin))
        assert all(map(_flags_read_off, points))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "points.csv")
            export_csv(points, path)
            back = read_csv(path)
        assert all(map(_flags_read_off, back))
        assert [(pt.accardi_defined, pt.boost_defined) for pt in back] == [
            (pt.accardi_defined, pt.boost_defined) for pt in points
        ]

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(counts=_count_files())
    @example(counts=(100, 50, 25, 25, 50))  # tied rates: A undefined
    @example(counts=(10**9, 1, 1, 500_000_000, 500_000_001))  # P(R) = EPS_DENOM
    def test_estimate_from_file(self, counts):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "counts.txt")
            with open(path, "w") as fh:
                fh.write(" ".join(map(str, counts)))
            pt = estimate_from_file(path).point
        assert _flags_read_off(pt)


class TestPointType:
    """Every source of points gives plain three-field ``ScatterPoint``
    tuples whose flag properties are Python bools, which the JSON writer
    renders as true and false.  _point builds its points without the
    class's own __new__, so nothing else checks the type."""

    @staticmethod
    def _assert_plain(points):
        for pt in points:
            assert type(pt) is ScatterPoint, pt
            assert type(pt.accardi_defined) is bool and type(pt.boost_defined) is bool, pt
        doc = json.loads(json.dumps(points_to_json_dict(points)))
        assert [(d["accardi_defined"], d["boost_defined"]) for d in doc["points"]] == [
            (pt.accardi_defined, pt.boost_defined) for pt in points
        ]
        assert all(type(d["accardi_defined"]) is bool for d in doc["points"])

    @pytest.mark.parametrize("mode", ["analytic", "montecarlo"])
    def test_eval_point(self, mode):
        # each flag set and unset
        params = [
            ClassicalParams(0.5, 0.8, 0.2),
            ClassicalParams(0.0, 0.5, 0.5),
            QuantumParams(1.0, 0.5),
            QuantumParams(math.pi, math.pi / 2),
        ]
        self._assert_plain([eval_point(p, mode, n_per_arm=20, seed=3) for p in params])

    @pytest.mark.parametrize("model", ["classical", "quantum"])
    def test_sweeps_and_read_csv(self, model, tmp_path):
        for mode in MODES:
            points, _ = sweep(SweepConfig(model, 20, 5, mode, n_per_arm=5, exclusion_margin=0.2))
            self._assert_plain(points)
        path = tmp_path / "points.csv"
        export_csv(points, path)
        self._assert_plain(read_csv(path))

    @pytest.mark.parametrize(
        "counts", ["1000 500 400 100 500", "100 50 25 25 50"], ids=["defined", "tied-rates"]
    )
    def test_estimate_from_file(self, counts, tmp_path):
        path = tmp_path / "counts.txt"
        path.write_text(counts)
        self._assert_plain([estimate_from_file(path).point])

    def test_flags_are_read_off_the_values_of_a_built_point(self, tmp_path):
        # no stored flag: a point built directly with a NaN value reads
        # that flag false, which no writer then contradicts
        assert ScatterPoint._fields == ("params", "a", "delta")
        params = ClassicalParams(0.5, 0.8, 0.2)
        points = [
            ScatterPoint(params, a, delta)
            for a in (0.5, math.nan)
            for delta in (0.6, math.nan)
        ]
        assert [(pt.accardi_defined, pt.boost_defined) for pt in points] == [
            (True, True), (True, False), (False, True), (False, False)
        ]
        self._assert_plain(points)
        path = tmp_path / "points.csv"
        export_csv(points, path)
        back = read_csv(path)
        assert [repr(pt) for pt in back] == [repr(pt) for pt in points]
        wide = ScatterPoint(params, np.float64(0.5), np.float64(math.nan))
        self._assert_plain([wide])
        assert (wide.accardi_defined, wide.boost_defined) == (True, False)

    def test_a_flag_cannot_be_assigned(self):
        pt = ScatterPoint(ClassicalParams(0.5, 0.8, 0.2), math.nan, 0.6)
        for flag in ("accardi_defined", "boost_defined"):
            with pytest.raises(AttributeError):
                setattr(pt, flag, True)
        assert (pt.accardi_defined, pt.boost_defined) == (False, True)

    @pytest.mark.parametrize(
        "clone",
        [copy.copy, copy.deepcopy, lambda pt: pickle.loads(pickle.dumps(pt))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_clone_keeps_fields_and_flags(self, clone):
        params = QuantumParams(1.0, 0.5)
        for a, delta in [(0.25, -0.5), (math.nan, 0.5), (0.25, math.nan)]:
            pt = ScatterPoint(params, a, delta)
            got = clone(pt)
            assert type(got) is ScatterPoint
            assert repr(got) == repr(pt)  # by repr: NaN is unequal to itself
            assert (got.accardi_defined, got.boost_defined) == (
                pt.accardi_defined, pt.boost_defined
            )

    def test_an_infinite_value_reads_its_flag_false(self, tmp_path):
        # a flag is set exactly where its value is finite: a point built with
        # +-inf reads as its twin with NaN there, in the summary and in every
        # writer, and the JSON holds no Infinity
        params = ClassicalParams(0.5, 0.8, 0.2)
        finite = ScatterPoint(params, 0.5, 0.6)
        values = (0.5, math.inf, -math.inf)
        points = [ScatterPoint(params, a, delta) for a in values for delta in values][1:]
        twins = [
            ScatterPoint(params, *(v if math.isfinite(v) else math.nan for v in pt[1:]))
            for pt in points
        ]
        for pt, twin in zip(points, twins):
            assert _flags_read_off(pt)
            assert not (pt.accardi_defined and pt.boost_defined)
            assert repr(summarize([pt, finite])) == repr(summarize([twin, finite]))
        self._assert_plain(points)
        path = tmp_path / "points.csv"
        export_csv(points, path)
        back = read_csv(path)
        assert [repr(pt) for pt in back] == [repr(pt) for pt in twins]
        assert [(pt.accardi_defined, pt.boost_defined) for pt in back] == [
            (pt.accardi_defined, pt.boost_defined) for pt in points
        ]
        buf = io.StringIO()
        write_gnuplot(points, buf)
        assert buf.getvalue() == "# a delta\n"

        def _refuse(constant):
            raise ValueError(f"not JSON: {constant}")

        doc = json.loads(
            json.dumps(points_to_json_dict(points, summarize(points))), parse_constant=_refuse
        )
        assert [(d["a"], d["delta"]) for d in doc["points"]] == [
            (pt.a if pt.accardi_defined else None, pt.delta if pt.boost_defined else None)
            for pt in points
        ]

    def test_the_model_is_read_off_the_params(self):
        # no stored model: a point names its params' model, so the two
        # cannot disagree
        points = [
            ScatterPoint(params, 0.5, 0.6)
            for params in (
                ClassicalParams(0.5, 0.8, 0.2),
                QuantumParams(1.0, 0.5),
                EmpiricalParams(0.5, 0.8, 0.2),
            )
        ]
        assert [pt.model for pt in points] == ["classical", "quantum", "empirical"]
        for pt in points:
            assert pt.model == pt.params.name
            with pytest.raises(AttributeError):
                pt.model = "quantum"

    def test_each_model_round_trips_through_csv(self, tmp_path):
        # the model column picks the class read_csv builds: an empirical row
        # comes back as EmpiricalParams
        points = [
            ScatterPoint(ClassicalParams(0.5, 0.8, 0.2), 0.5, 0.6),
            ScatterPoint(QuantumParams(1.0, 0.5), math.nan, -0.25),
            ScatterPoint(EmpiricalParams(0.25, 0.5, 0.5), math.nan, 0.0),
        ]
        path = tmp_path / "points.csv"
        export_csv(points, path)
        back = read_csv(path)
        assert [repr(pt) for pt in back] == [repr(pt) for pt in points]
        assert [type(pt.params) for pt in back] == [
            ClassicalParams, QuantumParams, EmpiricalParams
        ]


class TestSummary:
    def test_counts_consistent(self):
        points, summary = sweep(SweepConfig("quantum", 2_000, seed=21))
        both = [pt for pt in points if pt.accardi_defined and pt.boost_defined]
        assert summary.n_defined == len(both)
        assert 0.0 <= summary.fraction_a_below_0 <= 1.0
        assert 0.0 <= summary.fraction_a_above_1 <= 1.0
        deltas = [pt.delta for pt in both]
        assert summary.max_delta == max(deltas)

    def test_empty_categories_are_nan(self):
        pt = ScatterPoint(ClassicalParams(0.5, 0.9, 0.1), 0.5, 0.4)
        summary = summarize([pt])
        assert summary.max_delta_classical_region == 0.4
        assert math.isnan(summary.max_delta_violation)

    @pytest.mark.parametrize("edge", [0.0, 1.0])
    def test_a_at_a_bound_of_the_classical_region_is_inside_it(self, edge):
        # the region is the closed interval [0, 1]: A exactly 0 or 1 is not
        # a violation, and neither fraction counts it
        params = ClassicalParams(0.5, 0.9, 0.1)
        at_edge = ScatterPoint(params, edge, 0.7)
        inside = ScatterPoint(params, 0.5, 0.2)
        summary = summarize([at_edge, inside])
        assert summary.max_delta_classical_region == 0.7
        assert math.isnan(summary.max_delta_violation)
        assert summary.fraction_a_below_0 == summary.fraction_a_above_1 == 0.0

    @staticmethod
    def _numpy_summary(points):
        """The summary by NumPy masks: the reference summarize must equal."""
        a = np.array([pt.a for pt in points])
        delta = np.array([pt.delta for pt in points])
        a_ok = np.array([pt.accardi_defined for pt in points], dtype=bool)
        b_ok = np.array([pt.boost_defined for pt in points], dtype=bool)
        both = a_ok & b_ok
        n_a = int(np.count_nonzero(a_ok))
        below = int(np.count_nonzero(a_ok & (a < 0.0)))
        above = int(np.count_nonzero(a_ok & (a > 1.0)))

        def _max(mask):
            return float(np.max(delta[mask])) if np.any(mask) else math.nan

        return SweepSummary(
            n_points=len(points),
            n_defined=int(np.count_nonzero(both)),
            fraction_a_below_0=below / n_a if n_a else math.nan,
            fraction_a_above_1=above / n_a if n_a else math.nan,
            max_delta=_max(both),
            max_delta_classical_region=_max(both & (a >= 0.0) & (a <= 1.0)),
            max_delta_violation=_max(both & ((a < 0.0) | (a > 1.0))),
        )

    @staticmethod
    def _bits(summary):
        # float.hex: the same bits, and NaN matches NaN
        return [
            (type(v), v.hex() if isinstance(v, float) else v)
            for v in dataclasses.astuple(summary)
        ]

    @pytest.mark.parametrize("margin", [DEFAULT_EXCLUSION_MARGIN, 0.3])
    @pytest.mark.parametrize("model", ["classical", "quantum"])
    @pytest.mark.parametrize("mode", ["analytic", "montecarlo"])
    def test_equals_the_numpy_formula(self, mode, model, margin):
        n_points = 2_000 if mode == "analytic" else 300
        points, summary = sweep(
            SweepConfig(model, n_points, seed=13, mode=mode, n_per_arm=30,
                        exclusion_margin=margin)
        )
        assert self._bits(summary) == self._bits(self._numpy_summary(points))

        def both(pt):
            return pt.accardi_defined and pt.boost_defined

        def inside(pt):
            return not pt.accardi_defined or 0.0 <= pt.a <= 1.0

        subsets = {
            "none defined on both counts": [pt for pt in points if not both(pt)],
            "every A in [0, 1]": [pt for pt in points if inside(pt)],
            "every A outside [0, 1]": [
                pt for pt in points if not pt.accardi_defined or not inside(pt)
            ],
            "empty": [],
        }
        for name, subset in subsets.items():
            got = self._bits(summarize(subset))
            assert got == self._bits(self._numpy_summary(subset)), name
        if model == "quantum":  # A lies on both sides of [0, 1]
            assert subsets["none defined on both counts"]
            assert any(map(both, subsets["every A in [0, 1]"]))
            assert any(map(both, subsets["every A outside [0, 1]"]))
