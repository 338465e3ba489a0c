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

from .errors import AT_LEAST_ONE, NONNEGATIVE, POSITIVE, check_fields


@dataclass(frozen=True)
class RidgeConfig:
    window_T: int
    alpha: float
    gamma: float

    def __post_init__(self):
        check_fields(self, AT_LEAST_ONE, "window_T")
        check_fields(self, NONNEGATIVE, "alpha")
        check_fields(self, POSITIVE, "gamma")


def ridge_weights(k: int, cfg: RidgeConfig) -> np.ndarray:
    """(k,) discount row weights of a window of k pairs, oldest first: the
    newest pair gets weight 1."""
    return np.exp(-cfg.alpha * np.arange(k - 1, -1, -1) / 2.0)


def ridge_penalty(d_z: int, cfg: RidgeConfig) -> np.ndarray:
    """gamma I, the (d_z, d_z) ridge term of the normal equations."""
    return cfg.gamma * np.eye(d_z)


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
    w = ridge_weights(k, cfg)
    X = (w[:, None, None] * Z).reshape(Z.shape[:-3] + (-1, Z.shape[-1]))
    ybar = (w[:, None] * resid).reshape(resid.shape[:-2] + (-1,))
    return X, ybar


def ridge_solve(X, ybar, penalty, gram=None, rhs=None) -> np.ndarray:
    """(..., d_z) solutions of the normal equations (X'X + penalty) b =
    X' ybar, one per leading index; ``gram`` (..., d_z, d_z) and ``rhs``
    (..., d_z, 1) are optional buffers for the two products."""
    Xt = np.swapaxes(X, -1, -2)
    gram = np.matmul(Xt, X, out=gram)
    gram += penalty
    rhs = np.matmul(Xt, ybar[..., None], out=rhs)
    return np.linalg.solve(gram, rhs)[..., 0]


def ridge_action(Z, resid, cfg: RidgeConfig) -> np.ndarray:
    """Unique minimizer of the discounted ridge objective, (..., d_z):
    one normal-equations solve per leading index."""
    X, ybar = ridge_design(Z, resid, cfg)
    return ridge_solve(X, ybar, ridge_penalty(X.shape[-1], cfg))
