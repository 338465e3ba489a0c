"""Shared domain types: game parameters, target series, latent moments.

The backward recursions consume the weighted second moment ``E[Z' W Z]``
for a different weight matrix ``W`` at every timestep. That moment is
linear in W: with z_a the a-th row of Z, E[Z' W Z] = sum_ab W_ab U_ab
over the d_y^2 unit moments U_ab = E[z_a z_b']. So the moment container
holds M1 and the unit moments, ``units`` of shape (T, ..., d_y^2, d_z^2)
with ``units[t, ..., a d_y + b, i d_z + j]`` = E[Z_ai Z_bj], and every
weighted moment is exact for arbitrary W without keeping the samples.
A Monte-Carlo bank is one (T, ..., count, d_y, d_z) array from end to
end; ``estimate_moments`` checks it and reduces every step at once. It
and the closed forms of ``IidEntryLatents`` build the same container.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import AT_LEAST_ONE, NONNEGATIVE, POSITIVE, MomentError, check_fields


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
        check_fields(self, ("finite", lambda a: np.isfinite(a).all()), "theta", "theta_bar")
        object.__setattr__(self, "theta", _as_matrix(self.theta, self.dim_y, "theta"))
        object.__setattr__(
            self, "theta_bar", _as_matrix(self.theta_bar, self.dim_y, "theta_bar")
        )
        check_fields(self, NONNEGATIVE, "kappa", "kappa_bar", "alpha")
        check_fields(self, POSITIVE, "gamma")
        check_fields(self, AT_LEAST_ONE, "horizon_T", "population_N", "dim_y", "dim_z")
        self.theta.setflags(write=False)
        self.theta_bar.setflags(write=False)

    def discount(self, t: int) -> float:
        """Stage discount e^{-alpha (T-1-t)} applied to the cost at step t."""
        return float(np.exp(-self.alpha * (self.horizon_T - 1 - t)))


@dataclass(frozen=True)
class TargetSeries:
    """Observed target values y_0..y_T."""

    values: np.ndarray  # (T+1, d_y)

    def __post_init__(self):
        v = np.atleast_2d(np.asarray(self.values, dtype=float))
        if v.shape[0] == 1 and v.shape[1] > 1 and np.asarray(self.values).ndim == 1:
            v = v.T
        if not np.all(np.isfinite(v)):
            raise ValueError("target series contains non-finite entries")
        object.__setattr__(self, "values", v)
        self.values.setflags(write=False)

    @property
    def horizon(self) -> int:
        return self.values.shape[0] - 1


def _weigh(w: np.ndarray, units: np.ndarray) -> np.ndarray:
    # sum_ab W_ab U_ab: the flattened weights times the unit moments, one
    # matmul that broadcasts w's leading axes against the units' stack axes
    out = w.reshape(*w.shape[:-2], 1, -1) @ units
    d_z = math.isqrt(units.shape[-1])
    return out.reshape(*out.shape[:-2], d_z, d_z)


@dataclass(frozen=True)
class MomentSet:
    """Per-timestep latent moments: M1 = E[Z] and the unit moments
    U_ab = E[z_a z_b'] of the rows z_a of Z.

    ``units[t, ..., a d_y + b, i d_z + j]`` is E[Z_ai Z_bj]; leading axes
    after the time axis (rounds, say) stack independent moment sets.
    ``weighted_m2(t, W)`` = sum_ab W_ab U_ab is one matmul of the
    flattened W against ``units[t]``, and ``m2`` is that contraction with
    W = I, so ``weighted_m2(t, I)`` is bit-identical to ``m2[t]``. Every
    entry of a stack (of weights, of rounds, or both) is bit-identical to
    a lone call on that entry: numpy's matmul runs the same kernel on each
    matrix of a stack as on a lone one.
    """

    m1: np.ndarray  # (T, ..., d_y, d_z)
    units: np.ndarray  # (T, ..., d_y^2, d_z^2)
    m2: np.ndarray = field(init=False)  # (T, ..., d_z, d_z)

    def __post_init__(self):
        m1 = np.asarray(self.m1, dtype=float).view()
        units = np.asarray(self.units, dtype=float).view()
        d_y, d_z = m1.shape[-2:]
        if units.shape != (*m1.shape[:-2], d_y * d_y, d_z * d_z):
            raise MomentError(f"units of shape {units.shape} do not match m1 of shape {m1.shape}")
        m2 = _weigh(np.eye(d_y), units)
        for name, a in (("m1", m1), ("units", units), ("m2", m2)):
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    @property
    def horizon(self) -> int:
        return self.m1.shape[0]

    def weighted_m2(self, t: int, w: np.ndarray) -> np.ndarray:
        """E[Z' W Z] at timestep t; w is (..., d_y, d_y) and broadcasts
        against the stack axes."""
        return _weigh(np.asarray(w, dtype=float), self.units[t])


def estimate_moments(samples) -> MomentSet:
    """Monte-Carlo moment estimates from a latent sample bank of shape
    (T, ..., count, d_y, d_z), or anything ``np.asarray`` stacks into
    one: every step's mean of Z and Gram matrix of the flattened samples,
    in one stacked matmul and one mean over the replica axis.

    Each step's arrays are bit-identical to those of a lone one-step call:
    the mean reduces each step's replicas in the same order, and matmul
    runs the same kernel on each matrix of a stack. A sum with a
    non-finite term is not finite, and m2 sums every sample's squares, so
    the sum of m2 settles in one reduction both the bank's finiteness and
    that its squares do not overflow. The steps are searched only when
    that sum is not finite, which an overflowing sum of finite m2 can
    also cause: MomentError names the first step whose samples or second
    moments are not finite."""
    s = np.asarray(samples, dtype=float)
    if s.ndim == 0 or s.shape[0] == 0:
        raise MomentError("empty sample bank")
    if s.ndim < 4 or s.shape[-3] < 1:
        raise MomentError(f"bank must be (T, ..., count, d_y, d_z) with count >= 1, got shape {s.shape}")
    d_y, d_z = s.shape[-2:]
    x = s.reshape(*s.shape[:-2], d_y * d_z)
    with np.errstate(invalid="ignore", over="ignore"):
        m1 = s.mean(axis=-3)
        gram = (x.mT @ x) / s.shape[-3]  # [(a, i), (b, j)], reordered to [(a, b), (i, j)]
        lead = gram.shape[:-2]
        units = gram.reshape(*lead, d_y, d_z, d_y, d_z).swapaxes(-3, -2).reshape(*lead, d_y * d_y, d_z * d_z)
        moments = MomentSet(m1=m1, units=units)
        finite = math.isfinite(np.sum(moments.m2))
    if not finite:
        T = s.shape[0]
        bad_samples = ~np.isfinite(s).reshape(T, -1).all(axis=1)
        bad = bad_samples | ~np.isfinite(moments.m2).reshape(T, -1).all(axis=1)
        if np.any(bad):
            t = int(np.flatnonzero(bad)[0])
            what = "contains non-finite samples" if bad_samples[t] else "has second moments that overflow"
            raise MomentError(f"bank at t={t} {what}")
    return moments


def exact_moments_deterministic(z_schedule) -> MomentSet:
    """Moments of a degenerate latent distribution Z_t == z_schedule[t]:
    ``estimate_moments`` of the stacked (T, d_y, d_z) schedule with one
    replica, so every moment is exact. Useful as an oracle."""
    return estimate_moments(np.asarray(z_schedule, dtype=float)[:, None])


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

    def exact_moments(self) -> MomentSet:
        """Closed-form moments: U_ab = m_a m_b' + var delta_ab I."""
        m = self.mean
        T, d_y, d_z = m.shape
        units = (m[:, :, None, :, None] * m[:, None, :, None, :]).reshape(T, d_y * d_y, d_z * d_z)
        units += self.var * np.outer(np.eye(d_y), np.eye(d_z))
        return MomentSet(m1=m, units=units)
