"""Greedy per-agent ridge baseline.

Each agent fits its action to the windowed residuals of the prediction
dynamics by discounted ridge regression:

    min_b  sum_s exp(-alpha (t-1-s)) || resid_s - Z_s b ||^2 + gamma ||b||^2

with resid_s = y_{s+1} - theta Y_s - theta_bar Y^(N)_s. The discount is
applied as exp(-alpha (t-1-s) / 2) row weights on both Z_s and resid_s,
which makes the weighted least-squares objective exactly the discounted
one, and the unique minimizer is the normal-equations solution
(X'X + gamma I)^{-1} X' ybar.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RidgeConfig:
    window_T: int
    alpha: float
    gamma: float

    def __post_init__(self):
        if self.window_T < 1:
            raise ValueError("window_T must be >= 1")
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if self.alpha < 0:
            raise ValueError("alpha must be nonnegative")


def ridge_design(Z, resid, cfg: RidgeConfig) -> tuple[np.ndarray, np.ndarray]:
    """Stack the windowed (Z, residual) pairs with discount row weights.

    ``Z`` is (..., k, d_y, d_z) and ``resid`` (..., k, d_y), ordered oldest
    to newest along the window axis; the newest row gets weight 1. Leading
    axes are independent problems (one per agent). Returns X (..., k d_y,
    d_z) and ybar (..., k d_y).
    """
    Z = np.asarray(Z, dtype=float)
    resid = np.asarray(resid, dtype=float)
    k = Z.shape[-3]
    if k == 0:
        raise ValueError("ridge window is empty")
    if resid.shape != Z.shape[:-1]:
        raise ValueError(f"residuals of shape {resid.shape} do not match latents {Z.shape}")
    w = np.exp(-cfg.alpha * np.arange(k - 1, -1, -1) / 2.0)
    X = (w[:, None, None] * Z).reshape(Z.shape[:-3] + (-1, Z.shape[-1]))
    ybar = (w[:, None] * resid).reshape(resid.shape[:-2] + (-1,))
    return X, ybar


def ridge_action(Z, resid, cfg: RidgeConfig) -> np.ndarray:
    """Unique minimizer of the discounted ridge objective, (..., d_z):
    one normal-equations solve per leading index."""
    X, ybar = ridge_design(Z, resid, cfg)
    Xt = np.swapaxes(X, -1, -2)
    gram = Xt @ X + cfg.gamma * np.eye(X.shape[-1])
    return np.linalg.solve(gram, (Xt @ ybar[..., None]))[..., 0]
