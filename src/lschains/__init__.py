"""Exact tensor and invariant multiplicities for semisimple Lie algebras.

Multiplicities are computed by enumerating chains of Weyl-orbit weights
with rational cuts (the path-model combinatorics) and are independently
checkable against a character-theoretic engine.  Integer renormalizations
between root systems, their inequality sweeps, and the acceptance suite
live in the submodules re-exported here.
"""

from .charoracle import (
    WeightMultiplicityTable,
    tensor_decompose_oracle,
    weight_multiplicities,
    weyl_dim,
)
from .errors import InputError, InvariantViolation
from .invariants import (
    SaturationReport,
    SaturationRow,
    VerificationReport,
    VerificationRow,
    clear_caches,
    dominant_pool,
    frobenius_check,
    invariant_dim,
    saturation_scan,
    sweep_tuples,
    verify_inequality,
)
from .pathmodel import (
    LSChain,
    TensorDecomposition,
    b_order_leq,
    chain_depth,
    chain_endpoint,
    delta_sequence,
    enumerate_ls_chains,
    tensor_decompose,
    tensor_multiplicity,
)
from .acceptance import CRITERIA, DEFAULT_BOUNDS, CriterionResult, run_all, run_criterion
from .renorm import (
    CheckResult,
    Renormalization,
    RenormReport,
    builtin,
    builtin_catalog,
    dual_renormalization,
    map_weight,
    special_exponents,
    transport_chain,
    validate,
)
from .rootsys import (
    OrbitPoset,
    Root,
    RootSystem,
    build_root_system,
    dual_weight,
    weight_from_eps,
    weight_to_eps,
    weyl_group_order,
    weyl_orbit,
    weyl_orbit_poset,
)

__version__ = "0.1.0"

__all__ = [
    "InputError",
    "InvariantViolation",
    "Root",
    "RootSystem",
    "OrbitPoset",
    "build_root_system",
    "dual_weight",
    "weight_from_eps",
    "weight_to_eps",
    "weyl_group_order",
    "weyl_orbit",
    "weyl_orbit_poset",
    "LSChain",
    "TensorDecomposition",
    "b_order_leq",
    "chain_depth",
    "chain_endpoint",
    "delta_sequence",
    "enumerate_ls_chains",
    "tensor_decompose",
    "tensor_multiplicity",
    "WeightMultiplicityTable",
    "weyl_dim",
    "weight_multiplicities",
    "tensor_decompose_oracle",
    "Renormalization",
    "RenormReport",
    "CheckResult",
    "builtin",
    "builtin_catalog",
    "validate",
    "map_weight",
    "transport_chain",
    "dual_renormalization",
    "special_exponents",
    "invariant_dim",
    "clear_caches",
    "VerificationRow",
    "VerificationReport",
    "verify_inequality",
    "frobenius_check",
    "SaturationRow",
    "SaturationReport",
    "saturation_scan",
    "dominant_pool",
    "sweep_tuples",
    "CriterionResult",
    "CRITERIA",
    "DEFAULT_BOUNDS",
    "run_criterion",
    "run_all",
    "__version__",
]
