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
check the two agree on the installed NumPy.
"""

from __future__ import annotations

import contextlib
import enum
import functools
import json
import math
import operator
from dataclasses import dataclass
from typing import Mapping, Optional

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


BASELINE_NAME = "baseline_relevance"
# One row per substream, in substream order: (kind, index, tally name).  The
# baseline relevance tally is kind None, index 4.
_ARMS = (
    *((kind, i, kind.value) for i, kind in enumerate(ArmKind)),
    (None, 4, BASELINE_NAME),
)
# the arms whose rates the Accardi invariant takes, in RateTriple order
_ACCARDI_ARMS = (
    ArmKind.COND_ON_RELEVANT, ArmKind.COND_ON_NON_RELEVANT, ArmKind.DIRECT_TERM
)


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


@dataclass(frozen=True)
class SimConfig:
    """One reproducible run: model parameters, accepted docs per arm, seed."""

    model: ModelParams
    n_per_arm: int
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "n_per_arm", check_n_per_arm(self.n_per_arm))
        object.__setattr__(self, "seed", check_seed(self.seed))


@dataclass(frozen=True)
class ArmTally:
    counts: ArmCounts
    draws_consumed: int


@dataclass(frozen=True)
class SimResult:
    """The tallies of one run, and the estimates read from them.

    ``arms`` maps each ArmKind to its tally, or to None if that arm starved
    (acceptance probability effectively zero).  ``rates``, ``accardi_est``
    and ``boost_est`` are computed from the tallies when read; each is None
    whenever an arm it depends on starved or the quantity is undefined.
    This class also owns the cheaper read of the two estimates' values
    alone, which a Monte Carlo sweep point takes.
    """

    config: SimConfig
    arms: Mapping[ArmKind, Optional[ArmTally]]
    baseline: Optional[ArmTally]

    def _accardi_counts(self) -> "Optional[list[ArmCounts]]":
        """Counts of the three arms A is read from, or None if one starved."""
        tallies = [self.arms[kind] for kind in _ACCARDI_ARMS]
        return None if None in tallies else [t.counts for t in tallies]

    def _estimate_values(self) -> "tuple[float, float]":
        """(``accardi_est.estimate``, ``boost_est.estimate``) bit for bit, NaN
        for an estimate that is None, through the same float rules on each
        tally's rate without building the estimates."""
        tallies = [self.arms[kind] for kind in _ACCARDI_ARMS]
        tallies += self.arms[ArmKind.EXPAND_THEN_RELEVANCE], self.baseline
        r, n, direct, expand, base = [
            math.nan if t is None else t.counts.n_success / t.counts.n_total
            for t in tallies
        ]
        return accardi_of_rates(r, n, direct), boost_of_rates(expand, base)

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


def _last_call(func):
    """Memo of ``func``'s last argument and result, for the five arms of a run.

    Not ``functools.lru_cache(maxsize=1)``: its dict gets a new key table
    every few misses, so whether one run allocates that table depended on
    how many runs came before it.  A miss here always allocates one pair.
    The pair is swapped whole, so threads never see a stale result.
    """
    last = (object(), None)  # a key no argument equals

    @functools.wraps(func)
    def wrapper(arg):
        nonlocal last
        key, value = last
        if key is arg or key == arg:
            return value
        value = func(arg)
        last = (arg, value)
        return value

    return wrapper


@_last_call
def _arm_rates(model: ModelParams) -> "tuple[tuple[float, float], ...]":
    """(p_acc, q_acc) of every arm, indexed by substream index: the chance
    that a raw draw is accepted and that an accepted document is a success.

    Cached for the last model: every arm of a run goes through
    ``simulate_arm``, and the five share one computation of the rates.
    """
    p_r, p_x_r, p_x_n, p_x, p_r_x = model.stream_rates()
    return ((p_r, p_x_r), (1.0 - p_r, p_x_n), (1.0, p_x), (p_x, p_r_x), (1.0, p_r))


class _Words(ISeedSequence):
    """Seed source that hands a bit generator precomputed state words."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        # PCG64 asks for exactly its four uint64 state words
        if n_words != self.words.size or dtype is not np.uint64:
            raise ValueError(f"expected a request for {self.words.size} uint64 words")
        return self.words


# The run's seed hash in uint32 words: four uint64 words per substream after
# a skipped first block.  SeedSequence.generate_state's output hash constants
# are c_0 = 0x8B51F9DD and c_(i+1) = c_i * 0x58F38DED mod 2**32; word i takes
# c_i and c_(i+1), and pool word i % 4 (the default pool size).
_N_HASH_WORDS = 2 * 4 * (len(_ARMS) + 1)
_HASH_C = np.array(
    [0x8B51F9DD * pow(0x58F38DED, i, 2**32) % 2**32 for i in range(_N_HASH_WORDS + 1)],
    np.uint32,
)
_HASH_XOR, _HASH_MUL = _HASH_C[:-1], _HASH_C[1:]
_POOL_INDEX = np.arange(_N_HASH_WORDS) % 4


@_last_call
def _run_words(seed: int) -> np.ndarray:
    """The run's one seed hash, ``SeedSequence(seed).generate_state(24,
    np.uint64)``, four words per substream after a skipped first block.
    Cached for the last seed: the five arms of a run share it.

    uint32 word i is ``x = pool[i % 4] ^ c_i; x *= c_(i+1); x ^= x >> 16``
    (mod 2**32), as in ``generate_state``, but for all words in one pass.
    """
    x = np.random.SeedSequence(seed).pool[_POOL_INDEX]
    x ^= _HASH_XOR
    x *= _HASH_MUL
    x ^= x >> 16
    # paired the way generate_state pairs them, so every byte order gets the
    # same words; both conversions are no-ops on a little-endian host
    words = x.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)
    words.setflags(write=False)
    return words


def _arm_rng(seed: int, index: int) -> np.random.Generator:
    start = 4 * (index + 1)
    return np.random.Generator(PCG64(_Words(_run_words(seed)[start : start + 4])))


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
    model: ModelParams, kind: Optional[ArmKind], n_per_arm: int, seed: int
) -> ArmTally:
    """Simulate one arm in isolation.  ``kind=None`` runs the baseline
    relevance tally.  Raises ArmStarvation on a dead arm.

    Uses the same (seed, arm) substream as the full simulation, so an
    arm simulated alone is bit-identical to the same arm inside
    ``simulate_classical`` / ``simulate_quantum``.
    """
    n_per_arm = check_n_per_arm(n_per_arm)
    seed = check_seed(seed)
    for row_kind, index, name in _ARMS:
        if row_kind is kind:
            break
    else:
        raise ValueError("kind must be an ArmKind or None")
    p_acc, q_acc = _arm_rates(model)[index]
    return _run_arm(_arm_rng(seed, index), p_acc, q_acc, n_per_arm, name)


def _simulate(model: ModelParams, n_per_arm: int, seed: int) -> SimResult:
    # Each arm goes through the module-level simulate_arm, looked up at call
    # time, though the run has checked its arguments already: bench/tracing.py
    # counts one stream.simulate_arm span per arm, and the stream.arm_us
    # metric divides by that count, so a run that routes around the call
    # kills the traced benchmark with ZeroDivisionError.  Keep the call until
    # the tracer hooks the arms elsewhere.
    config = SimConfig(model=model, n_per_arm=n_per_arm, seed=seed)
    n_per_arm, seed = config.n_per_arm, config.seed
    arms = {}
    for kind, _, _ in _ARMS:
        try:
            arms[kind] = simulate_arm(model, kind, n_per_arm, seed)
        except ArmStarvation:
            arms[kind] = None
    baseline = arms.pop(None)
    return SimResult(config, arms, baseline)


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
