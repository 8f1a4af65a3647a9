"""Simulator and verification toolkit for controlled remote preparation of
four-qubit cluster-type entangled states over GHZ-class channels."""

from .statevec import StateVector, apply, fidelity, is_unitary, project, tensor
from .protocol import (
    CLUSTER_TARGET,
    SQRT_HALF,
    SUCCESS_FIDELITY,
    ChannelPair,
    CorrectionTable,
    OutcomeKey,
    PauliLayer,
    TargetState,
    build_target,
    default_derived_table,
    published_correction_table,
)
from .engine import (
    BranchOutcome,
    MonteCarloResult,
    RunReport,
    ccc_count,
    enumerate_branches,
    monte_carlo,
)
from .oracle import (
    GENERIC_CHANNELS,
    GENERIC_TARGET,
    TableDiff,
    compare_with_published,
    derive_correction_table,
    validate_table,
)
from .metrics import (
    EfficiencyInputs,
    SchemeRow,
    comparison_table,
    entropy_curve,
    intrinsic_efficiency,
    shannon_entropy,
    tsp_formula,
    tsp_sweep,
)

__version__ = "0.1.0"

__all__ = [
    "StateVector",
    "apply",
    "fidelity",
    "is_unitary",
    "project",
    "tensor",
    "CLUSTER_TARGET",
    "SQRT_HALF",
    "SUCCESS_FIDELITY",
    "ChannelPair",
    "OutcomeKey",
    "PauliLayer",
    "TargetState",
    "build_target",
    "BranchOutcome",
    "MonteCarloResult",
    "RunReport",
    "ccc_count",
    "enumerate_branches",
    "monte_carlo",
    "GENERIC_CHANNELS",
    "GENERIC_TARGET",
    "CorrectionTable",
    "TableDiff",
    "compare_with_published",
    "default_derived_table",
    "derive_correction_table",
    "published_correction_table",
    "validate_table",
    "EfficiencyInputs",
    "SchemeRow",
    "comparison_table",
    "entropy_curve",
    "intrinsic_efficiency",
    "shannon_entropy",
    "tsp_formula",
    "tsp_sweep",
    "__version__",
]
