"""Shock-model copulas, their generator calculus, and p-box bounds.

Three copula families arise when component lifetimes share one exogenous
shock: the max-type family (shock competes with each component, joint
maxima), the mixed max/min family, and the reflected variant of the mixed
family whose generators vanish at both endpoints.  This package builds
those copulas from distribution functions, extends them to interval-valued
(p-box) inputs with pointwise bounds, and ships the verification suites
that check every claimed property against independent oracles.
"""

from .distfn import (
    Clamp,
    Convex,
    DiracStep,
    Discrete,
    DistributionFn,
    Exponential,
    PiecewiseLinearWithJumps,
    Switch,
    Uniform,
    from_spec,
    lifetime_max,
    lifetime_min,
    to_spec,
)
from .genfn import (
    DegenerateModelError,
    Generator,
    GeneratorDomainError,
    IdentityGenerator,
    PiecewiseLinearGenerator,
    TruncatedLinear,
    UnitGenerator,
    ZeroGenerator,
    extend_chi,
    extend_phi,
    extend_psi,
    generator_from_spec,
    to_rmm,
    validate,
)
from .copulas import (
    GeneratorVector,
    MAX_DIMENSION,
    joint_marshall_values,
    joint_maxmin_values,
    joint_rmm_Hsigma_values,
    joint_rmm_values,
    marshall2,
    maxmin2,
    rmm2,
)
from .imprecise import (
    BoundFamily,
    PBox,
    ShockModel,
    build_bounds,
    maxmin_mixed_vectors,
    rmm_envelope,
    rmm_envelope_full_scan,
    rmm_envelope_full_scan_values,
    rmm_envelope_grid,
    rmm_envelope_values,
)
from .verify import (
    DiscreteModelOracle,
    check_copula,
    check_quasicopula,
    monte_carlo_joint,
    run_suite,
)

__version__ = "0.1.0"

__all__ = [
    "Clamp", "Convex", "DiracStep", "Discrete", "DistributionFn", "Exponential",
    "PiecewiseLinearWithJumps", "Switch", "Uniform", "from_spec", "lifetime_max",
    "lifetime_min", "to_spec",
    "DegenerateModelError", "Generator", "GeneratorDomainError", "IdentityGenerator",
    "PiecewiseLinearGenerator", "TruncatedLinear", "UnitGenerator", "ZeroGenerator",
    "extend_chi", "extend_phi", "extend_psi", "generator_from_spec", "to_rmm",
    "validate",
    "GeneratorVector", "MAX_DIMENSION", "joint_marshall_values", "joint_maxmin_values",
    "joint_rmm_Hsigma_values", "joint_rmm_values", "marshall2", "maxmin2", "rmm2",
    "BoundFamily", "PBox", "ShockModel", "build_bounds", "maxmin_mixed_vectors", "rmm_envelope",
    "rmm_envelope_full_scan", "rmm_envelope_full_scan_values", "rmm_envelope_grid",
    "rmm_envelope_values",
    "DiscreteModelOracle", "check_copula", "check_quasicopula", "monte_carlo_joint",
    "run_suite",
    "__version__",
]
