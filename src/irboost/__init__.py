"""Toy models of query expansion: a classical urn and a quantum spin-1/2
document stream, compared through the precision boost Delta and the Accardi
statistical invariant A.

The package name ``sweep`` is the function ``irboost.sweep.sweep``, bound
over the submodule of the same name, so ``import irboost.sweep as sw``
gives the function.  The module is
``importlib.import_module("irboost.sweep")``.
"""

from .classical import (
    ClassicalParams,
    accardi_classical,
    boost_classical,
    marginal_term_rate,
    posterior_bayes,
)
from .errors import (
    AccardiUndefined,
    ArmStarvation,
    BoostUndefined,
    EmptyArm,
    IrboostError,
    MalformedInput,
    UndefinedQuantity,
)
from .probcore import (
    EPS_DENOM,
    ArmCounts,
    EstimateWithError,
    Probability,
    RateTriple,
    accardi,
    accardi_from_counts,
    boost,
    estimate_rate,
    total_probability,
)
from .quantum import (
    QuantumParams,
    QuantumRates,
    accardi_quantum,
    boost_quantum,
    interference_term,
    posterior_quantum,
    quantum_rates,
)
from .stream import (
    ArmKind,
    ArmTally,
    SimConfig,
    SimResult,
    empirical_boost,
    simulate_arm,
    simulate_classical,
    simulate_quantum,
)
from .sweep import (
    CountEstimate,
    ScatterPoint,
    SweepConfig,
    SweepSummary,
    estimate_from_file,
    eval_point,
    export_csv,
    read_csv,
    summarize,
    sweep,
)

__version__ = "0.1.0"

__all__ = [
    "AccardiUndefined",
    "ArmCounts",
    "ArmKind",
    "ArmStarvation",
    "ArmTally",
    "BoostUndefined",
    "ClassicalParams",
    "CountEstimate",
    "EPS_DENOM",
    "EmptyArm",
    "EstimateWithError",
    "IrboostError",
    "MalformedInput",
    "Probability",
    "QuantumParams",
    "QuantumRates",
    "RateTriple",
    "ScatterPoint",
    "SimConfig",
    "SimResult",
    "SweepConfig",
    "SweepSummary",
    "UndefinedQuantity",
    "accardi",
    "accardi_classical",
    "accardi_from_counts",
    "accardi_quantum",
    "boost",
    "boost_classical",
    "boost_quantum",
    "empirical_boost",
    "estimate_from_file",
    "estimate_rate",
    "eval_point",
    "export_csv",
    "interference_term",
    "marginal_term_rate",
    "posterior_bayes",
    "posterior_quantum",
    "quantum_rates",
    "read_csv",
    "simulate_arm",
    "simulate_classical",
    "simulate_quantum",
    "summarize",
    "sweep",
    "total_probability",
]
