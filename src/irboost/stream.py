"""Seeded Monte Carlo document streams for both models.

Five tallies are produced per run:

* ``COND_ON_RELEVANT``      source -> relevance filter (keep R) -> check X
* ``COND_ON_NON_RELEVANT``  source -> relevance filter (keep ~R) -> check X
* ``DIRECT_TERM``           source -> check X (relevance check removed)
* ``EXPAND_THEN_RELEVANCE`` source -> term filter (keep X) -> check relevance
* baseline                  source -> check relevance (no filtering)

The baseline is not one of the four filtered arms; it is the unconditioned
relevance tally the boost comparison needs.

Each arm runs until ``n_per_arm`` *accepted* documents ("wait for the same
number of documents to arrive" semantics); the raw draws consumed are
reported so the latency cost of filtering is observable.  An arm accepts a
raw draw with probability p_acc and scores an accepted document a success
with probability q_acc, both read off the model's rates.  Its tally is
sampled from its exact law (the waiting-time construction, Devroye,
*Non-Uniform Random Variate Generation*, 1986, ch. X) in a few variates,
whatever n and p_acc are:

* the arm starves iff K < n, where K ~ Binomial(MAX_DRAWS_FACTOR n, p_acc)
  counts the acceptances within the raw-draw budget;
* otherwise draws = n + NegBinomial(n, p_acc), redrawn until it fits the
  budget (the same event), and successes ~ Binomial(n, q_acc).

Every arm draws from its own RNG substream keyed by (seed, arm index), so
arm results are independent of the order (or parallelism) in which arms are
simulated, and identical configs give bit-identical results.  A run hashes
its seed once into 24 64-bit words, four per substream, and substream i
(arms 0-3, baseline 4) seeds a fresh PCG64 with words 4(i+1) .. 4(i+1)+3.
The first four words are skipped because ``default_rng(seed)`` starts from
them, so no arm shares its stream with a plain generator built from the
same seed.  The 24 words are exactly
``numpy.random.SeedSequence(seed).generate_state(24, np.uint64)``; they are
computed from that sequence's mixed pool with ``generate_state``'s output
hash in one NumPy pass instead of NumPy's word-by-word loop, and the tests
check the two agree on the installed NumPy.  A run computes its arm rates
and its seed words once and passes them to each arm; nothing is kept
between calls, so runs on threads share no state.  ``simulate_arm`` called
alone hashes its own seed.

Every run draws its arms through one loop (``_tallies``): the arms come
in groups of substream indices, drawn in order, and a group stops at its
first starved arm.  A full run (``simulate_*``) is five one-arm groups, so
it draws every arm.  A Monte Carlo point (``_run_point``) is a run read at
an exclusion margin: its groups are those of the flags that are set, the
three arms A is read from (0-2) and the expansion arm and the baseline
(3, 4) that Delta is, and it returns (A, Delta) as two floats.  A flag
reads NaN once one of its arms starves, whatever the rest draw; near
P(R) = 0 the relevance arm starves and the point draws one arm.  Each arm
draws from its own substream, so the values are bit for bit the full
run's ``accardi_est.estimate`` and ``boost_est.estimate`` at the point's
flags, and NaN where a flag is false or an estimate is None.

A Monte Carlo sweep (``_run_points``) of n points at seed s takes its point
seeds from one hash,
``seeds = SeedSequence(s, spawn_key=(0,)).generate_state(n, np.uint64)``:
the seed's first child, apart from the words ``default_rng(s)`` starts
from.  Point i is the point of ``simulate_*(params_i, n_per_arm,
seeds[i])`` at its flags; its seed does not depend on n.  The sweep hashes
its point seeds into their run words one chunk at a time (``_seed_words``):
it mixes the pools of a whole chunk with ``SeedSequence``'s own rule and
applies the same output hash, so the words, and so every point, are those
of a run of that seed alone.
"""

from __future__ import annotations

import contextlib
import enum
import json
import math
import operator
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np
from numpy.random import PCG64
from numpy.random.bit_generator import ISeedSequence

from .classical import ClassicalParams
from .errors import ArmStarvation, BoostUndefined, UndefinedQuantity
from .probcore import (
    ArmCounts,
    EstimateWithError,
    ModelParams,
    RateTriple,
    accardi_from_counts,
    accardi_of_rates,
    boost,
    boost_of_rates,
    estimate_rate,
    fields_dict,
    with_error,
)
from .quantum import QuantumParams

# Raw-draw budget per arm; acceptance probabilities below 1/MAX_DRAWS_FACTOR
# starve the arm instead of hanging the run.
MAX_DRAWS_FACTOR = 10_000
# the budget must fit the 64-bit count the variate generators take
_MAX_N_PER_ARM = (2**63 - 1) // MAX_DRAWS_FACTOR
_N_PER_ARM_RULE = f"n_per_arm must be an integer in [1, {_MAX_N_PER_ARM}]"


class ArmKind(enum.Enum):
    COND_ON_RELEVANT = "cond_on_relevant"
    COND_ON_NON_RELEVANT = "cond_on_non_relevant"
    DIRECT_TERM = "direct_term"
    EXPAND_THEN_RELEVANCE = "expand_then_relevance"

    # members are singletons that compare by identity, so the identity hash
    # is correct, and unlike Enum.__hash__ it runs in C (each arm's row
    # lookup hashes its kind); no output iterates a hash-ordered set of kinds
    __hash__ = object.__hash__


BASELINE_NAME = "baseline_relevance"
# The one arm order: every arm's kind, in substream order.  The baseline
# relevance tally is kind None, index 4.
_ALL_ARMS = (*ArmKind, None)
# each arm's kind: (its substream index, its tally name)
_ARM_ROWS = {
    kind: (index, BASELINE_NAME if kind is None else kind.value)
    for index, kind in enumerate(_ALL_ARMS)
}
# arm groups of substream indices (see _tallies): A's, in RateTriple order
_ACCARDI_ARMS = (0, 1, 2)
# the boost's arms, posterior (the expansion arm) then prior (the baseline)
_BOOST_ARMS = (3, 4)
# a full run: each arm a group of its own, so a starved arm skips no other
_EACH_ARM = tuple((index,) for index in range(len(_ALL_ARMS)))


def _check_int(value, low: int, high: float, message: str) -> int:
    """``value`` as a Python int; ValueError(message) unless it is an
    integer (NumPy integers included) in [low, high]."""
    try:
        value = operator.index(value)
    except TypeError:
        value = low - 1  # not an integer: rejected as out of range
    if not low <= value <= high:
        raise ValueError(message)
    return value


def check_seed(seed) -> int:
    """``seed`` as a Python int, if it is an integer in [0, 2**64)."""
    return _check_int(seed, 0, 2**64 - 1, "seed must fit in 64 unsigned bits")


def check_n_per_arm(n_per_arm) -> int:
    """``n_per_arm`` as a Python int, if it is an integer in [1, _MAX_N_PER_ARM]."""
    return _check_int(n_per_arm, 1, _MAX_N_PER_ARM, _N_PER_ARM_RULE)


@dataclass(frozen=True, slots=True)
class SimConfig:
    """One reproducible run: model parameters, accepted docs per arm, seed."""

    model: ModelParams
    n_per_arm: int
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "n_per_arm", check_n_per_arm(self.n_per_arm))
        object.__setattr__(self, "seed", check_seed(self.seed))


@dataclass(frozen=True, slots=True)
class ArmTally:
    counts: ArmCounts
    draws_consumed: int


@dataclass(frozen=True, slots=True)
class SimResult:
    """The tallies of one run, and the estimates read from them.

    ``arms`` maps each ArmKind to its tally, or to None if that arm starved
    (acceptance probability effectively zero).  ``rates``, ``accardi_est``
    and ``boost_est`` are computed from the tallies when read; each is None
    whenever an arm it depends on starved or the quantity is undefined.
    A Monte Carlo point builds no SimResult: ``_run_point`` takes the two
    estimates' values alone from the tallies it draws, bit for bit the
    ones this class reads.
    """

    config: SimConfig
    arms: Mapping[ArmKind, Optional[ArmTally]]
    baseline: Optional[ArmTally]

    def _accardi_counts(self) -> "Optional[list[ArmCounts]]":
        """Counts of the three arms A is read from, or None if one starved."""
        tallies = [self.arms[_ALL_ARMS[index]] for index in _ACCARDI_ARMS]
        return None if None in tallies else [t.counts for t in tallies]

    @property
    def rates(self) -> Optional[RateTriple]:
        counts = self._accardi_counts()
        if counts is None:
            return None
        return RateTriple(*(estimate_rate(c).estimate for c in counts))

    @property
    def accardi_est(self) -> Optional[EstimateWithError]:
        counts = self._accardi_counts()
        if counts is not None:
            with contextlib.suppress(UndefinedQuantity):
                return accardi_from_counts(*counts)
        return None

    @property
    def boost_est(self) -> Optional[EstimateWithError]:
        if self.baseline is not None:
            with contextlib.suppress(UndefinedQuantity):
                return empirical_boost(self, estimate_rate(self.baseline.counts))
        return None

    def to_json_dict(self) -> dict:
        """Stable JSON form; field names are part of the interface."""
        model = self.config.model

        def tally(t: Optional[ArmTally]):
            if t is None:
                return None
            return {**fields_dict(t.counts), "draws_consumed": t.draws_consumed}

        return {
            "config": {
                "model": {"kind": model.name, "params": fields_dict(model)},
                "n_per_arm": self.config.n_per_arm,
                "seed": self.config.seed,
            },
            "arms": {kind.value: tally(self.arms[kind]) for kind in ArmKind},
            BASELINE_NAME: tally(self.baseline),
            "derived": {
                "rates": fields_dict(self.rates),  # Probability dumps as a float
                "accardi": fields_dict(self.accardi_est),
                "boost": fields_dict(self.boost_est),
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)


# ---------------------------------------------------------------------------
# per-arm kernel
# ---------------------------------------------------------------------------


def _arm_rates(model: ModelParams) -> "tuple[float, ...]":
    """p_acc and q_acc of every arm, flat in substream order: substream i's
    at 2i and 2i + 1.  They are the chance that a raw draw is accepted and
    that an accepted document is a success.  Flat, so a run builds one
    tuple rather than six."""
    p_r, p_x_r, p_x_n, p_x, p_r_x = model.stream_rates()
    return (p_r, p_x_r, 1.0 - p_r, p_x_n, 1.0, p_x, p_x, p_r_x, 1.0, p_r)


class _Words(ISeedSequence):
    """Seed source that hands a bit generator precomputed state words."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        # PCG64 asks for exactly its four uint64 state words
        if n_words != self.words.size or dtype is not np.uint64:
            raise ValueError(f"expected a request for {self.words.size} uint64 words")
        return self.words


# The generate_state hash of a run's seed in uint32 words: four uint64 words
# per substream after a skipped first block.  Its constants are
# c_0 = 0x8B51F9DD and c_(i+1) = c_i * 0x58F38DED mod 2**32; word i takes c_i
# and c_(i+1), and pool word i % 4 (the default pool size).
_N_HASH_WORDS = 2 * 4 * (len(_ALL_ARMS) + 1)
_HASH_C = np.array(
    [0x8B51F9DD * pow(0x58F38DED, i, 2**32) % 2**32 for i in range(_N_HASH_WORDS + 1)],
    np.uint32,
)
_HASH_XOR, _HASH_MUL = _HASH_C[:-1], _HASH_C[1:]
_POOL_INDEX = np.arange(_N_HASH_WORDS) % 4


def _hash_words(pool: np.ndarray) -> np.ndarray:
    """``generate_state(24, np.uint64)`` of a mixed pool, the last axis of
    ``pool`` (four uint32 words), read-only: shape (24,) for one pool and
    (k, 24) for k.

    uint32 word i is ``x = pool[i % 4] ^ c_i; x *= c_(i+1); x ^= x >> 16``
    (mod 2**32), as in ``generate_state``, but for all words in one pass.
    """
    x = pool.take(_POOL_INDEX, -1)  # C order, unlike pool[..., _POOL_INDEX]
    x ^= _HASH_XOR
    x *= _HASH_MUL
    x ^= x >> 16
    # paired the way generate_state pairs them, so every byte order gets the
    # same words; both conversions are no-ops on a little-endian host
    words = x.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)
    words.setflags(write=False)
    return words


def _run_words(seed: int) -> np.ndarray:
    """The run's one seed hash, ``SeedSequence(seed).generate_state(24,
    np.uint64)``, four words per substream after a skipped first block.
    For one seed, NumPy's own ``SeedSequence`` mixes the pool fastest."""
    return _hash_words(np.random.SeedSequence(seed).pool)


# SeedSequence's pool mixing for an int seed below 2**64.  Its entropy is
# the seed's low and high uint32 words, padded with zeros to the pool's four
# (a seed below 2**32 has one word; hashing a missing word hashes 0).  Hash
# call j is ``x ^= h_j; x *= h_(j+1); x ^= x >> 16``, where h_0 = 0x43B0D7E5
# and h_(j+1) = h_j * 0x931E8875 (mod 2**32).  Calls 0-3 hash the entropy
# into the pool.  Then, for each source word s in turn, calls 4 + 3s .. 6 + 3s
# hash word s once for each other word d, in ascending d, and mix the hash y
# into it: ``d = 0xCA01F9DD * d - 0x4973F715 * y; d ^= d >> 16``.
_MIX_H = np.array(
    [0x43B0D7E5 * pow(0x931E8875, j, 2**32) % 2**32 for j in range(17)], np.uint32
)[:, None]
_MIX_L, _MIX_R = np.array([[0xCA01F9DD], [0x4973F715]], np.uint32)


def _mix_step(s: int):
    """(xor, mul, into) for source word s, one row per pool word d: the
    constants of the hash call mixed into d, and whether d is mixed into
    (word s is not, and its constants are unused)."""
    d = np.arange(4)[:, None]
    call = 4 + 3 * s + d - (d >= s)
    return _MIX_H[call, 0], _MIX_H[call + 1, 0], d != s


_MIX_STEPS = [_mix_step(s) for s in range(4)]
# Seeds hashed per pass: a pass costs tens of microseconds whatever its
# size, and its arrays take a few hundred bytes per seed.
_SEED_CHUNK = 1024


def _mixed_pools(seeds: np.ndarray) -> np.ndarray:
    """``SeedSequence(s).pool`` of each uint64 seed s, one row per seed."""
    pool = np.zeros((4, seeds.size), np.uint32)
    pool[:2] = seeds.astype("<u8", copy=False).view("<u4").reshape(-1, 2).T
    pool ^= _MIX_H[:4]
    pool *= _MIX_H[1:5]
    pool ^= pool >> 16
    for s, (xor, mul, into) in enumerate(_MIX_STEPS):
        hashed = pool[s] ^ xor
        hashed *= mul
        hashed ^= hashed >> 16
        hashed *= _MIX_R
        mixed = pool * _MIX_L
        mixed -= hashed
        mixed ^= mixed >> 16
        np.copyto(pool, mixed, where=into)
    return pool.T


def _seed_words(seeds: np.ndarray):
    """``_run_words(s)`` for each seed s of a uint64 array, in order, as
    read-only rows: one NumPy pass per ``_SEED_CHUNK`` seeds mixes their
    pools and hashes them, so many seeds build no ``SeedSequence`` each."""
    for start in range(0, seeds.size, _SEED_CHUNK):
        yield from _hash_words(_mixed_pools(seeds[start : start + _SEED_CHUNK]))


def _arm_rng(words: np.ndarray, index: int) -> np.random.Generator:
    start = 4 * (index + 1)
    return np.random.Generator(PCG64(_Words(words[start : start + 4])))


def _run_arm(
    rng: np.random.Generator, p_acc: float, q_acc: float, n: int, arm_name: str
) -> ArmTally:
    """Tally of an arm that stops at its n-th acceptance, drawn from its
    exact law in a few variates rather than document by document."""
    budget = MAX_DRAWS_FACTOR * n
    # the n-th acceptance comes after the budget iff fewer than n of the
    # budget's draws are accepted
    accepted = rng.binomial(budget, p_acc)
    if accepted < n:
        raise ArmStarvation(arm_name, accepted, n, budget)
    # draws to the n-th acceptance, conditioned on the same event by
    # rejection: one pass in expectation per arm
    draws = budget + 1
    while draws > budget:
        draws = n + rng.negative_binomial(n, p_acc)
    return ArmTally(ArmCounts(n, rng.binomial(n, q_acc)), draws)


def simulate_arm(
    model: ModelParams, kind: Optional[ArmKind], n_per_arm: int, seed: int, _run=None
) -> ArmTally:
    """Simulate one arm in isolation.  ``kind=None`` runs the baseline
    relevance tally.  Raises ArmStarvation on a dead arm.

    Uses the same (seed, arm) substream as the full simulation, so an
    arm simulated alone is bit-identical to the same arm inside
    ``simulate_classical`` / ``simulate_quantum``.  Called alone, it hashes
    its own seed.  ``_run`` is for ``_tallies`` only: the run's
    (``_arm_rates(model)``, ``_run_words(seed)``), whose ``n_per_arm`` and
    seed the run has checked already.
    """
    if _run is None:
        n_per_arm = check_n_per_arm(n_per_arm)
        seed = check_seed(seed)
    try:
        index, name = _ARM_ROWS[kind]
    except (KeyError, TypeError):  # TypeError: an unhashable kind
        raise ValueError("kind must be an ArmKind or None") from None
    rates, words = _run or (_arm_rates(model), _run_words(seed))
    p_acc, q_acc = rates[2 * index], rates[2 * index + 1]
    return _run_arm(_arm_rng(words, index), p_acc, q_acc, n_per_arm, name)


def _tallies(
    model: ModelParams, n_per_arm: int, seed: int, groups, words=None
) -> list:
    """The five tallies of one run of (model, n_per_arm, seed), for checked
    arguments, in substream order: the arms of each group of substream
    indices in ``groups`` are drawn in turn, and a group stops at its first
    starved arm.  None for an arm that starved or was not drawn.
    ``words``, if given, are ``_run_words(seed)``, hashed already."""
    # The one arm loop of every run (module docstring): a point draws only
    # its set flags' groups, so stream.arms_per_point reads under 5 on a
    # sweep that holds a point inside the exclusion margin or a point with
    # a starved arm.  Each arm goes through the module-level simulate_arm,
    # looked up at call time: bench/tracing.py counts one
    # stream.simulate_arm span per arm, and its stream.arm_us divides by
    # that count, so a run that routes around the call kills the traced
    # benchmark with ZeroDivisionError.  Keep the call until the tracer
    # hooks the arms elsewhere.
    run = (_arm_rates(model), _run_words(seed) if words is None else words)
    tallies = [None] * len(_ALL_ARMS)
    for group in groups:
        for index in group:
            try:
                tallies[index] = simulate_arm(model, _ALL_ARMS[index], n_per_arm, seed, run)
            except ArmStarvation:
                break
    return tallies


def _run_point(
    model: ModelParams, n_per_arm: int, seed: int, margin: float, words=None
) -> "tuple[float, float]":
    """(A, Delta) of the Monte Carlo point of (model, n_per_arm, seed) at
    the flags ``model.flags(margin)``, for checked arguments.  The point
    draws the arm group of each flag that is set (``_tallies``), and takes
    the values from the tallies through the same float rules as
    ``SimResult.accardi_est`` and ``boost_est``, without building the
    estimates: an arm that is not drawn or starved reads as NaN, and so
    does an estimate that reads it.  ``words``, if given, are
    ``_run_words(seed)``, hashed already."""
    groups = [
        arms for ok, arms in zip(model.flags(margin), (_ACCARDI_ARMS, _BOOST_ARMS)) if ok
    ]
    if not groups:
        return math.nan, math.nan
    r, n, direct, expand, base = [
        math.nan if t is None else t.counts.n_success / t.counts.n_total
        for t in _tallies(model, n_per_arm, seed, groups, words)
    ]
    return accardi_of_rates(r, n, direct), boost_of_rates(expand, base)


def _run_points(
    models: "Sequence[ModelParams]", n_per_arm: int, seed: int, margin: float
):
    """(A, Delta) of each point of the Monte Carlo sweep at ``seed``, in
    order: point i is ``_run_point(models[i], n_per_arm, seeds[i],
    margin)`` with the point seeds of the module docstring, whose run words
    are hashed one chunk at a time."""
    root = np.random.SeedSequence(seed, spawn_key=(0,))
    seeds = root.generate_state(len(models), np.uint64)
    for model, point_seed, words in zip(models, seeds.tolist(), _seed_words(seeds)):
        yield _run_point(model, n_per_arm, point_seed, margin, words)


def _simulate(model: ModelParams, n_per_arm: int, seed: int) -> SimResult:
    config = SimConfig(model=model, n_per_arm=n_per_arm, seed=seed)
    *arms, base = _tallies(model, config.n_per_arm, config.seed, _EACH_ARM)
    return SimResult(config, dict(zip(_ALL_ARMS, arms)), base)


def simulate_classical(
    params: ClassicalParams, n_per_arm: int, seed: int
) -> SimResult:
    """Urn model stream: per document, relevance ~ Bernoulli(p), then term
    occurrence ~ Bernoulli(q_r or q_n) conditional on relevance."""
    return _simulate(params, n_per_arm, seed)


def simulate_quantum(
    params: QuantumParams, n_per_arm: int, seed: int
) -> SimResult:
    """Spin-1/2 stream: each document arrives in |q>; measurements follow
    the Born rule with collapse between chained measurements."""
    return _simulate(params, n_per_arm, seed)


def empirical_boost(
    result: SimResult, baseline_p_r: EstimateWithError
) -> EstimateWithError:
    """Precision boost of the expansion arm against an unconditioned
    relevance baseline, with a delta-method standard error.

    Raises BoostUndefined when the expansion arm starved or the baseline
    rate is effectively zero.
    """
    tally = result.arms[ArmKind.EXPAND_THEN_RELEVANCE]
    if tally is None:
        raise BoostUndefined("expansion arm starved; no posterior estimate")
    post = estimate_rate(tally.counts)
    b = baseline_p_r.estimate
    delta = boost(post.estimate, b)  # raises BoostUndefined if b <= EPS_DENOM
    return with_error(
        delta,
        post.n + baseline_p_r.n,
        post.std_error / b,
        post.estimate * baseline_p_r.std_error / b**2,
    )
