"""Numerical analysis of discrete-time CSVIU stochastic systems.

Control systems whose state noise scales with the magnitude of the
state ("control of systems with variability characterized by state
magnitude"): stability verdicts across a discount range, discounted and
long-run quadratic norms from perturbed Lyapunov equations, and a seeded
Monte Carlo engine that cross-checks the closed forms.
"""

from .errors import (
    ConvergenceError,
    CsviuError,
    DimensionError,
    DomainError,
    InternalInconsistencyError,
    NotStableError,
    ParseError,
    SingularOperatorError,
)
from .model import (
    CsviuModel,
    load_model,
    validate,
)
from .ops import (
    op_L_alpha,
    op_varpi,
    op_W,
    op_W_d,
    op_Z,
    operator_matrix,
    smat,
    spectral_radius,
    svec,
)
from .solver import (
    LyapunovSolution,
    RecursionTriple,
    backward_recursion,
    critical_alpha,
    solve_lyapunov,
)
from .stability import (
    DetectabilityResult,
    StabilityReport,
    check_detectability_with_G,
    check_stability,
    search_detectability,
)
from .norms import (
    NormReport,
    VBarBound,
    counter_discount_bound,
    decay_bound,
    h2_discounted_norm,
    norm_report,
    power_norm,
    v_bar_bound,
    vanishing_discount_sweep,
)
from .sim import (
    ConstantInput,
    EnergyEstimate,
    Ensemble,
    InputPolicy,
    SimConfig,
    ZeroInput,
    check_decay,
    estimate_abel_energy,
    estimate_cesaro_power,
    per_stage_energy,
    simulate_paths,
    validate_representation,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "CsviuError",
    "ParseError",
    "DimensionError",
    "DomainError",
    "NotStableError",
    "ConvergenceError",
    "SingularOperatorError",
    "InternalInconsistencyError",
    # model
    "CsviuModel",
    "load_model",
    "validate",
    # ops
    "op_Z",
    "op_W",
    "op_W_d",
    "op_varpi",
    "op_L_alpha",
    "svec",
    "smat",
    "operator_matrix",
    "spectral_radius",
    # solver
    "LyapunovSolution",
    "RecursionTriple",
    "solve_lyapunov",
    "critical_alpha",
    "backward_recursion",
    # stability
    "StabilityReport",
    "DetectabilityResult",
    "check_stability",
    "check_detectability_with_G",
    "search_detectability",
    # norms
    "NormReport",
    "VBarBound",
    "h2_discounted_norm",
    "power_norm",
    "v_bar_bound",
    "counter_discount_bound",
    "decay_bound",
    "vanishing_discount_sweep",
    "norm_report",
    # sim
    "SimConfig",
    "EnergyEstimate",
    "Ensemble",
    "InputPolicy",
    "ZeroInput",
    "ConstantInput",
    "simulate_paths",
    "estimate_abel_energy",
    "estimate_cesaro_power",
    "per_stage_energy",
    "validate_representation",
    "check_decay",
]
