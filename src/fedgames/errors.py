"""Exception types shared across the package, and the check of the
dataclasses' field rules."""

import math
import numbers


class FedGamesError(Exception):
    """Base class for all package errors."""


class MomentError(FedGamesError):
    """Raised when a latent sample bank is empty, has no replicas or
    holds a non-finite sample."""


class EncodeError(FedGamesError):
    """Raised on encoder shape mismatches."""


class SpecError(FedGamesError):
    """Raised for invalid dataset specifications."""


class SolveError(FedGamesError):
    """Raised when a linear system in a backward pass is singular."""


class DegenerateError(FedGamesError):
    """Raised when a reweighing step has no prior mass to work with."""


class DynamicsError(FedGamesError):
    """Raised when a forward step produces non-finite predictions."""


class ConfigError(FedGamesError):
    """Raised for malformed experiment configurations."""


# field rules, as (what a value must be, its check)
NONNEGATIVE = "finite and >= 0", lambda v: math.isfinite(v) and v >= 0
POSITIVE = "finite and > 0", lambda v: math.isfinite(v) and v > 0
FINITE = "finite", math.isfinite
AT_LEAST_ONE = ">= 1", lambda v: v >= 1
# a seed keys a random stream, and numpy takes no negative key
SEED = "an integer >= 0", lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool) and v >= 0


def check_fields(obj, rule, *names, error=ValueError) -> None:
    """Raise ``error`` for the first field of ``obj`` among ``names`` that
    breaks ``rule``, as "<field> must be <what>, got <value>". Every field
    rule of the package's dataclasses begins with the field's name, so a
    config reader can name the key that set it instead."""
    what, ok = rule
    for name in names:
        value = getattr(obj, name)
        if not ok(value):
            raise error(f"{name} must be {what}, got {value!r}")
