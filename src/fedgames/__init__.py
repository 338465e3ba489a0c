"""N-agent federated online prediction games.

Solvers for the exact centralized Nash policy, its homogeneity-reduced
form, and the decentralized mean-field policy, plus a greedy ridge
baseline, an evolutionary agent spawner, and a seeded experiment harness.
"""

from .errors import (
    ConfigError,
    DegenerateError,
    DynamicsError,
    EncodeError,
    MomentError,
    SolveError,
    SpecError,
)
from .model import (
    GameParams,
    MomentSet,
    TargetSeries,
    estimate_moments,
    exact_moments_deterministic,
)

__all__ = [
    "ConfigError",
    "DegenerateError",
    "DynamicsError",
    "EncodeError",
    "MomentError",
    "SolveError",
    "SpecError",
    "GameParams",
    "MomentSet",
    "TargetSeries",
    "estimate_moments",
    "exact_moments_deterministic",
]

__version__ = "0.1.0"
