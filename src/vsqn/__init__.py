"""Variable sample-size stochastic quasi-Newton optimization toolkit."""

from .core import (
    BatchSchedule,
    ConfigError,
    ProblemMeta,
    RngStream,
    SampleHandle,
    ScalarSchedule,
)
from .hessian import (
    CurvaturePair,
    HessianBounds,
    LbfgsMemory,
    SecantError,
    collect_pair,
    materialize_dense,
    materialize_inverse,
    theoretical_bounds,
    verify_secant,
)
from .solvers import IterateRecord, RunResult, SolverConfig, run

__all__ = [
    "BatchSchedule", "ProblemMeta", "RngStream", "SampleHandle", "ScalarSchedule",
    "CurvaturePair", "HessianBounds", "LbfgsMemory", "SecantError",
    "collect_pair", "materialize_dense", "materialize_inverse",
    "theoretical_bounds", "verify_secant",
    "ConfigError", "IterateRecord", "RunResult", "SolverConfig", "run",
]

__version__ = "0.1.0"
