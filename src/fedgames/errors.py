"""Exception types shared across the package."""


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
