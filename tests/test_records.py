"""Every frozen value record of the package carries ``__slots__``.

A sweep builds a parameter record per point, a Monte Carlo run a tally per
arm: each record has its fields in slots and no per-instance dict, stays
frozen, and survives copy, deepcopy and a pickle round-trip.  The records
are found by ``dataclasses.is_dataclass`` over the package's modules, so a
new one is checked as soon as it exists, and fails here until it has an
example below.
"""

import copy
import dataclasses
import importlib
import inspect
import math
import pickle
import pkgutil

import pytest

import irboost
from irboost import ClassicalParams, QuantumParams, SweepConfig, simulate_quantum, summarize, sweep
from irboost.probcore import ArmCounts, EstimateWithError, RateTriple
from irboost.quantum import quantum_rates
from irboost.stream import ArmTally, SimConfig
from irboost.sweep import CountEstimate, ScatterPoint


def _records():
    """Every dataclass defined in an irboost module, by qualified name."""
    found = {}
    for info in pkgutil.iter_modules(irboost.__path__, "irboost."):
        if info.name == "irboost.__main__":  # running it runs the CLI
            continue
        module = importlib.import_module(info.name)
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module.__name__ and dataclasses.is_dataclass(cls):
                found[cls.__qualname__] = cls
    return found


QUANTUM = QuantumParams(1.0, 0.5)
# n_per_arm 20 at phi = pi - 1e-4: P(R) ~ 2.5e-9, so the ~R arm starves
STARVED = simulate_quantum(QuantumParams(math.pi - 1e-4, 0.3), 20, 5)
EMPTY_SUMMARY = summarize([])  # every fraction and maximum NaN
_points, _ = sweep(SweepConfig("quantum", 40, seed=3, exclusion_margin=0.2))
_point = ScatterPoint("empirical", ClassicalParams(0.25, 0.5, 0.5), math.nan, 0.6)

# one instance of each record, NaN fields and a starved arm included
EXAMPLES = [
    RateTriple(0.9, 0.1, 0.5),
    ArmCounts(10, 3),
    EstimateWithError(0.5, 0.1, 10),
    ClassicalParams(0.3, 0.9, 0.1),
    QUANTUM,
    quantum_rates(QUANTUM),
    SimConfig(QUANTUM, 100, 7),
    ArmTally(ArmCounts(10, 3), 12),
    simulate_quantum(QUANTUM, 100, 7),
    STARVED,
    SweepConfig("quantum", 10, 3, mode="montecarlo", n_per_arm=20),
    summarize(_points),
    EMPTY_SUMMARY,
    CountEstimate(_point, None, EstimateWithError(0.6, 0.05, 1000)),
]


def test_every_record_has_an_example():
    assert set(_records()) == {type(record).__qualname__ for record in EXAMPLES}


def test_examples_hold_a_starved_arm_and_nan():
    assert None in STARVED.arms.values()
    assert math.isnan(EMPTY_SUMMARY.max_delta)


@pytest.mark.parametrize("record", EXAMPLES, ids=lambda r: type(r).__qualname__)
class TestRecord:
    def test_fields_live_in_slots(self, record):
        cls = type(record)
        assert "__slots__" in cls.__dict__
        assert not hasattr(record, "__dict__")
        with pytest.raises(TypeError):
            vars(record)

    @pytest.mark.parametrize(
        "clone",
        [copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_clone_gives_the_record_back(self, record, clone):
        # by repr, because a summary's NaN fields make it unequal to itself
        got = clone(record)
        assert type(got) is type(record)
        assert repr(got) == repr(record)
        assert not hasattr(got, "__dict__")

    def test_fields_are_frozen(self, record):
        for field in dataclasses.fields(record):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, field.name, getattr(record, field.name))
