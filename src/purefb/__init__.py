"""Adaptive backstepping for pseudo-affine pure-feedback systems.

Synthesis of stabilizing adaptive controllers for lower-triangular
plants whose stage maps need not be affine in the next state, plus a
fixed-step closed-loop simulator, numerical stability monitors, and two
registered benchmark scenarios (a two-state numeric system and a
three-state missile roll autopilot).
"""

__version__ = "1.0.0"

from .autodiff import EvaluationError, gradient, partial, real_value, smooth_abs
from .backstep import ControllerStack, DesignParams, SynthesisError
from .plant import (
    BoundSpec,
    OracleConstants,
    PlantConfigError,
    PlantSpec,
    UncertaintyProfile,
)
from .scenarios import SCENARIO_IDS, build
from .simkit import DivergenceError, Trajectory, integrate, measure_order, read_csv
from .verify import (
    VerifyTolerances,
    check_theorem1,
    dominance_audit,
    lyapunov_budget,
    monte_carlo,
)

__all__ = [
    "BoundSpec",
    "ControllerStack",
    "DesignParams",
    "DivergenceError",
    "EvaluationError",
    "OracleConstants",
    "PlantConfigError",
    "PlantSpec",
    "SCENARIO_IDS",
    "SynthesisError",
    "Trajectory",
    "UncertaintyProfile",
    "VerifyTolerances",
    "build",
    "check_theorem1",
    "dominance_audit",
    "gradient",
    "integrate",
    "lyapunov_budget",
    "measure_order",
    "monte_carlo",
    "partial",
    "read_csv",
    "real_value",
    "smooth_abs",
    "__version__",
]
