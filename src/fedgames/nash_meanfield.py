"""Decentralized mean-field policy: the large-population limit.

``nash_reduced`` writes the N-agent game's backward recursion in limit
scaling (Lam1 = Pi1, Lam2 = N Pi2, Lam3 = N^2 Pi3, Lam4 = N^2 Pi4,
chi1 = Xi1, chi2 = N Xi2, G2 = N G2_N, K = N K_N, E = N E_N), where N
enters only as eps = 1/N. The limit N -> oo is that recursion's eps = 0
call, whose coefficients no longer depend on N at all. The resulting
feedback law

    beta_t = G1(t) Y_own + G2(t) Ybar_t + H(t)

uses only the agent's own prediction and the offline-computable mean
field Ybar, which evolves as

    Ybar_{t+1} = [theta + theta_bar + M1 (G1 + G2)] Ybar_t + M1 H(t).

At eps = 0 the drift in (own, mean of others) coordinates is
[[theta, theta_bar], [0, theta + theta_bar]] and the gain
[[G1, G2], [0, G1 + G2]]. Lam3 feeds no policy coefficient; it is
carried for diagnostics only.

Since the blocks of every N share this scaling, the coefficient gap
Lam_i(t, N) - Lam_i(t) is a plain difference of one pass's entries:
``diagnostics.limit_gap_diagnostic`` solves its N grid and the limit as
one population stack and reads the limit's coefficients off its eps = 0
entry (``limit_coeffs``).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .model import GameParams, TargetSeries
from .nash_reduced import LimitScaledPass, game_units, structured_pass

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class DecentralizedCoeffs:
    """Limit coefficients; a pass over a round stack carries the round
    axis right after the time axis (L1 is (T+1, R, d_y, d_y), and so on)
    and a per-round ``max_asymmetry``."""

    L1: np.ndarray  # (T+1, d_y, d_y)
    L2: np.ndarray
    L3: np.ndarray
    L4: np.ndarray
    chi1: np.ndarray  # (T+1, d_y)
    chi2: np.ndarray
    G1: np.ndarray  # (T, d_z, d_y)
    G2: np.ndarray
    H: np.ndarray  # (T, d_z)
    F: np.ndarray  # (T, d_z, d_z)
    K: np.ndarray
    M: np.ndarray
    E: np.ndarray
    drift_sum: np.ndarray  # theta + theta_bar, used by the mean-field recursion
    dims: tuple  # (d_y, d_z)
    max_asymmetry: float | np.ndarray


def decentralized_backward_pass(
    params: GameParams,
    moments,
    targets: TargetSeries,
) -> DecentralizedCoeffs:
    """Backward pass of the limit system: the structured pass of
    ``nash_reduced`` at eps = 0, whose limit-scaled blocks and gains are
    this type's fields.

    Moments and targets may carry a round axis right after the time axis
    (m1 (T, R, d_y, d_z), values (T+1, R, d_y)); every round is then
    solved at once and the outputs carry the same round axis.
    """
    s = structured_pass(params, moments, targets, 0.0, "decentralized")
    return limit_coeffs(params, s, game_units(s, math.inf)[1])


def limit_coeffs(params: GameParams, s: LimitScaledPass, max_asymmetry) -> DecentralizedCoeffs:
    """The coefficients of an eps = 0 pass (a lone game or a round stack)
    whose asymmetry ``game_units`` has judged."""
    return DecentralizedCoeffs(
        *s.blocks,
        *s.forcing,
        G1=s.g1,
        G2=s.g2,
        H=s.h,
        F=s.F,
        K=s.K,
        M=s.M,
        E=s.E,
        drift_sum=params.theta + params.theta_bar,
        dims=(params.dim_y, params.dim_z),
        max_asymmetry=float(max_asymmetry) if np.ndim(max_asymmetry) == 0 else max_asymmetry,
    )


def decentralized_action(
    t: int, own_prediction: np.ndarray, ybar: np.ndarray, coeffs: DecentralizedCoeffs
) -> np.ndarray:
    """Local action: needs only the agent's own prediction and Ybar.

    ``own_prediction`` is (d_y,) for one agent or (N, d_y) stacked over
    agents; the result is (d_z,) or (N, d_z).
    """
    if not 0 <= t < coeffs.G1.shape[0]:
        raise IndexError(f"t={t} outside horizon {coeffs.G1.shape[0]}")
    own = np.atleast_1d(np.asarray(own_prediction, dtype=float))
    yb = np.asarray(ybar, dtype=float).reshape(-1)
    return own @ coeffs.G1[t].T + coeffs.G2[t] @ yb + coeffs.H[t]


def meanfield_forward(coeffs: DecentralizedCoeffs, moments, y0: np.ndarray) -> np.ndarray:
    """Ybar (T+1, d_y) of the deterministic mean-field recursion started
    from the mean initial prediction: Ybar' = [theta + theta_bar +
    M1 (G1 + G2)] Ybar + M1 H.

    Coefficients and moments with a round axis take y0 of shape (R, d_y)
    and give ybar of shape (T+1, R, d_y)."""
    T = coeffs.G1.shape[0]
    ybar = np.zeros((T + 1, *coeffs.H.shape[1:-1], coeffs.dims[0]))
    ybar[0] = np.asarray(y0, dtype=float).reshape(ybar.shape[1:])
    for t in range(T):
        M1 = moments.m1[t]
        drift = coeffs.drift_sum + M1 @ (coeffs.G1[t] + coeffs.G2[t])
        ybar[t + 1] = (drift @ ybar[t][..., None] + M1 @ coeffs.H[t][..., None])[..., 0]
    return ybar
