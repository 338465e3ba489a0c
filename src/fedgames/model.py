"""Shared domain types: game parameters, target series, latent moments.

The moment container stores the raw sample bank rather than only the
precomputed first/second moments, because the backward recursions consume
the weighted second moment ``E[Z' W Z]`` for a different weight matrix
``W`` at every timestep. Keeping the samples makes that functional moment
exact for arbitrary ``W`` in a single pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import MomentError


def _as_matrix(x, d: int, name: str) -> np.ndarray:
    """Coerce a scalar or array to a (d, d) float matrix."""
    a = np.asarray(x, dtype=float)
    if a.ndim == 0:
        a = a * np.eye(d)
    if a.shape != (d, d):
        raise ValueError(f"{name} must be scalar or {d}x{d}, got shape {a.shape}")
    return a


@dataclass(frozen=True)
class GameParams:
    """Parameters of the N-agent prediction game.

    theta / theta_bar drive the prediction dynamics, kappa / kappa_bar /
    gamma / alpha weigh the stage costs, and the remaining fields fix the
    problem size.
    """

    theta: np.ndarray
    theta_bar: np.ndarray
    kappa: float
    kappa_bar: float
    gamma: float
    alpha: float
    horizon_T: int
    population_N: int
    dim_y: int
    dim_z: int

    def __post_init__(self):
        object.__setattr__(self, "theta", _as_matrix(self.theta, self.dim_y, "theta"))
        object.__setattr__(
            self, "theta_bar", _as_matrix(self.theta_bar, self.dim_y, "theta_bar")
        )
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if self.kappa < 0 or self.kappa_bar < 0 or self.alpha < 0:
            raise ValueError("kappa, kappa_bar and alpha must be nonnegative")
        if self.horizon_T < 1 or self.population_N < 1:
            raise ValueError("horizon_T and population_N must be positive")
        if self.dim_y < 1 or self.dim_z < 1:
            raise ValueError("dim_y and dim_z must be positive")
        self.theta.setflags(write=False)
        self.theta_bar.setflags(write=False)

    def discount(self, t: int) -> float:
        """Stage discount e^{-alpha (T-1-t)} applied to the cost at step t."""
        return float(np.exp(-self.alpha * (self.horizon_T - 1 - t)))


@dataclass(frozen=True)
class TargetSeries:
    """Observed target values y_0..y_T plus where they came from."""

    values: np.ndarray  # (T+1, d_y)
    provenance: str = "unspecified"

    def __post_init__(self):
        v = np.atleast_2d(np.asarray(self.values, dtype=float))
        if v.shape[0] == 1 and v.shape[1] > 1 and np.asarray(self.values).ndim == 1:
            v = v.T
        if not np.all(np.isfinite(v)):
            raise ValueError("target series contains non-finite entries")
        object.__setattr__(self, "values", v)
        self.values.setflags(write=False)

    def __len__(self) -> int:
        return self.values.shape[0]

    @property
    def horizon(self) -> int:
        return self.values.shape[0] - 1


@dataclass(frozen=True)
class SampleBank:
    """Monte-Carlo latent replicas: samples[t] has shape (..., count, d_y, d_z).

    Leading axes before the replica axis (a round axis, say) stack
    independent banks that share the time axis.
    """

    samples: tuple

    def __post_init__(self):
        sams = []
        for t, s in enumerate(self.samples):
            a = np.asarray(s, dtype=float)
            if a.ndim < 3 or a.shape[-3] < 1:
                raise MomentError(f"bank at t={t} must be (..., count, d_y, d_z) with count >= 1")
            if not np.all(np.isfinite(a)):
                raise MomentError(f"bank at t={t} contains non-finite samples")
            a.setflags(write=False)
            sams.append(a)
        if not sams:
            raise MomentError("empty sample bank")
        object.__setattr__(self, "samples", tuple(sams))

    @property
    def horizon(self) -> int:
        return len(self.samples)

    @property
    def dims(self) -> tuple[int, int]:
        return self.samples[0].shape[-2], self.samples[0].shape[-1]


def _weighted_second(z: np.ndarray, w: np.ndarray) -> np.ndarray:
    # mean over samples of Z' W Z, broadcast over the leading axes, as
    # sum_s Z_s'(W Z_s) in two matmuls (the second of depth count d_y), so
    # each entry of a stack is reduced as a lone call (MomentSet docstring)
    wz = w[..., None, :, :] @ z
    rows = z.shape[-3] * z.shape[-2]
    return (z.reshape(*z.shape[:-3], rows, -1).mT @ wz.reshape(*wz.shape[:-3], rows, -1)) / z.shape[-3]


@dataclass(frozen=True)
class MomentSet:
    """Per-timestep latent moments M1, M2 and the weighted moment M2_W.

    A bank with leading axes after the time axis gives m1 and m2 of shape
    (T, ..., d_y, d_z) and (T, ..., d_z, d_z). ``weighted_m2`` is
    evaluated from the stored bank through the exact same reduction used
    to build ``m2``, so ``weighted_m2(t, I)`` is bit-identical to ``m2(t)``.
    Every entry of a stack (of weights, of rounds, or both) is bit-identical
    to a lone call on that entry: the reduction is two matmuls, and numpy's
    matmul runs the same kernel on each matrix of a stack as on a lone one.
    """

    bank: SampleBank
    m1: np.ndarray = field(init=False)  # (T, ..., d_y, d_z)
    m2: np.ndarray = field(init=False)  # (T, ..., d_z, d_z)

    def __post_init__(self):
        d_y, _ = self.bank.dims
        eye = np.eye(d_y)
        m1 = np.stack([s.mean(axis=-3) for s in self.bank.samples])
        m2 = np.stack([_weighted_second(s, eye) for s in self.bank.samples])
        m1.setflags(write=False)
        m2.setflags(write=False)
        object.__setattr__(self, "m1", m1)
        object.__setattr__(self, "m2", m2)

    @property
    def horizon(self) -> int:
        return self.bank.horizon

    @property
    def dims(self) -> tuple[int, int]:
        return self.bank.dims

    def weighted_m2(self, t: int, w: np.ndarray) -> np.ndarray:
        """Sample mean of Z' W Z at timestep t; w is (..., d_y, d_y) and
        broadcasts against the bank's leading axes."""
        return _weighted_second(self.bank.samples[t], np.asarray(w, dtype=float))


def estimate_moments(bank: SampleBank) -> MomentSet:
    """Monte-Carlo moment estimates from a latent sample bank."""
    return MomentSet(bank=bank)


def exact_moments_deterministic(z_schedule: Sequence[np.ndarray]) -> MomentSet:
    """Moments of a degenerate latent distribution Z_t == z_schedule[t].

    Useful as an oracle: a single-sample bank makes every moment exact.
    """
    sams = []
    for t, z in enumerate(z_schedule):
        a = np.atleast_2d(np.asarray(z, dtype=float))
        if not np.all(np.isfinite(a)):
            raise MomentError(f"z_schedule at t={t} is not finite")
        sams.append(a[None, :, :])
    return MomentSet(bank=SampleBank(samples=tuple(sams)))


@dataclass(frozen=True)
class IidEntryLatents:
    """Latent model with i.i.d. bounded entries and closed-form moments.

    Entries of Z_t are mean[t] plus independent uniform noise on
    [-half_width, half_width] (variance half_width^2 / 3). Closed forms:

        E[Z]       = mean
        E[Z' W Z]  = mean' W mean + var * tr(W) * I

    The exact moments keep the mean-field convergence diagnostics free of
    bank-estimation bias, and sampling stays uniformly bounded.
    """

    mean: np.ndarray  # (T, d_y, d_z)
    half_width: float

    def __post_init__(self):
        m = np.asarray(self.mean, dtype=float)
        if m.ndim != 3:
            raise ValueError("mean must be (T, d_y, d_z)")
        m.setflags(write=False)
        object.__setattr__(self, "mean", m)

    @property
    def var(self) -> float:
        return self.half_width**2 / 3.0

    def sample(self, t: int, count: int, rng: np.random.Generator) -> np.ndarray:
        d_y, d_z = self.mean.shape[1], self.mean.shape[2]
        noise = rng.uniform(-self.half_width, self.half_width, size=(count, d_y, d_z))
        noise += self.mean[t]
        return noise

    def exact_moments(self) -> "ClosedFormMoments":
        return ClosedFormMoments(self)


class ClosedFormMoments:
    """MomentSet-compatible view backed by IidEntryLatents closed forms."""

    def __init__(self, latents: IidEntryLatents):
        self._lat = latents
        d_y, d_z = latents.mean.shape[1], latents.mean.shape[2]
        self.m1 = latents.mean
        var = latents.var
        self.m2 = np.stack(
            [m.T @ m + var * d_y * np.eye(d_z) for m in latents.mean]
        )
        self._dims = (d_y, d_z)

    @property
    def horizon(self) -> int:
        return self.m1.shape[0]

    @property
    def dims(self) -> tuple[int, int]:
        return self._dims

    def weighted_m2(self, t: int, w: np.ndarray) -> np.ndarray:
        """E[Z' W Z] at timestep t; w is (..., d_y, d_y)."""
        w = np.asarray(w, dtype=float)
        m = self.m1[t]
        trace = np.trace(w, axis1=-2, axis2=-1)[..., None, None]
        return m.mT @ w @ m + self._lat.var * trace * np.eye(self._dims[1])
