"""Greedy per-agent ridge baseline.

Each agent fits its action to the windowed residuals of the prediction
dynamics by discounted ridge regression:

    min_b  sum_s exp(-alpha (t-1-s)) || resid_s - Z_s b ||^2 + gamma ||b||^2

with resid_s = y_{s+1} - theta Y_s - theta_bar Y^(N)_s. The discount is
applied as exp(-alpha (t-1-s) / 2) row weights on both Z_s and resid_s,
which makes the weighted least-squares objective exactly the discounted
one, and the unique minimizer is the normal-equations solution
(X'X + gamma I)^{-1} X' ybar.

``RidgeWindow`` holds every agent's pairs and is the one kernel that
solves them: the harness plays its ``step``, and ``ridge_action`` is one
``solve`` of a window that holds exactly its pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

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


class RidgeWindow:
    """The (Z, residual) pairs of n agents, oldest first: the W =
    ``window_T`` pairs before a round, then the round's T, in (n, W + T,
    ...) histories.

    ``solve(k, end)`` fits each agent's pairs end - k .. end - 1: it
    writes their weighted design X and ybar into the newest k rows of one
    (n, W, ...) buffer (the newest k of the W weights are a k-pair
    window's), and solves the normal equations from it in place. The
    agent axis stays first, so each agent's design rows are C-ordered and
    its matmuls take the path of a lone agent's. The views of a window
    size k (its weights, its rows of the buffers, flattened and
    transposed) are built at its first solve and kept, so an episode
    builds at most W sets and a step pays only for its arithmetic: the
    two weighted products, the Gram and right-hand side matmuls and one
    batched solve. Memory grows linearly with the window."""

    def __init__(self, n: int, d_y: int, d_z: int, T: int, cfg: RidgeConfig):
        W = cfg.window_T
        self.z = np.zeros((n, W + T, d_y, d_z))
        self.resid = np.zeros((n, W + T, d_y))
        self.weights = np.exp(-cfg.alpha * np.arange(W - 1, -1, -1) / 2.0)  # the newest pair's is 1
        self.penalty = cfg.gamma * np.eye(d_z)
        self.X, self.ybar = np.empty((n, W, d_y, d_z)), np.empty((n, W, d_y))
        self.gram, self.rhs = np.empty((n, d_z, d_z)), np.empty((n, d_z, 1))
        self.zero = np.zeros((n, d_z))
        self.views = {}  # window size k -> its views, built at its first solve

    def _views(self, k: int) -> tuple:
        """Window size k's weights, shaped for the latents and the
        residuals, its rows of the X and ybar buffers, and X flattened to
        (n, k d_y, d_z) with its transpose and ybar as (n, k d_y, 1)."""
        n, W, _, d_z = self.X.shape
        w, X, ybar = self.weights[W - k :], self.X[:, W - k :], self.ybar[:, W - k :]
        flat = X.reshape(n, -1, d_z)
        return w[:, None, None], w[:, None], X, ybar, flat, np.swapaxes(flat, -1, -2), ybar.reshape(n, -1)[..., None]

    def solve(self, k: int, end: int) -> np.ndarray:
        """The (n, d_z) minimizers on each agent's pairs end - k .. end - 1,
        for 1 <= k <= W."""
        views = self.views.get(k)
        if views is None:
            views = self.views[k] = self._views(k)
        w_z, w_resid, X, ybar, flat, flat_t, ybar_col = views
        np.multiply(w_z, self.z[:, end - k : end], out=X)
        np.multiply(w_resid, self.resid[:, end - k : end], out=ybar)
        gram = np.matmul(flat_t, flat, out=self.gram)
        gram += self.penalty
        rhs = np.matmul(flat_t, ybar_col, out=self.rhs)
        return np.linalg.solve(gram, rhs)[..., 0]

    def step(self, r, t, latents, target, drift, mean_drift, scale: float) -> np.ndarray:
        """The (n, d_z) ridge actions of step t of round r on the newest
        k = min(rT + t, W) pairs, zero while none is held; then the step's
        pair goes to row W + t: ``scale`` times the latents and the
        residual target - drift - mean_drift of the dynamics' drift terms.
        The round's last step moves the newest W rows to the front, one
        shift per round."""
        W = self.X.shape[1]
        T = self.z.shape[1] - W
        k = min(r * T + t, W)
        actions = self.solve(k, W + t) if k else self.zero
        np.multiply(latents, scale, out=self.z[:, W + t])
        resid = self.resid[:, W + t]
        np.subtract(target, drift, out=resid)
        resid -= mean_drift
        resid *= scale
        if t == T - 1:
            self.z[:, :W] = self.z[:, -W:]
            self.resid[:, :W] = self.resid[:, -W:]
        return actions


def ridge_action(Z, resid, cfg: RidgeConfig) -> np.ndarray:
    """Unique minimizer of the discounted ridge objective, (..., d_z), for
    ``Z`` (..., k, d_y, d_z) and ``resid`` (..., k, d_y), ordered oldest to
    newest along the window axis: one ``RidgeWindow`` solve over the
    flattened leading axes, each an independent problem (one per agent)."""
    Z = np.asarray(Z, dtype=float)
    resid = np.asarray(resid, dtype=float)
    *lead, k, d_y, d_z = Z.shape
    if k == 0:
        raise ValueError("ridge window is empty")
    if resid.shape != Z.shape[:-1]:
        raise ValueError(f"residuals of shape {resid.shape} do not match latents {Z.shape}")
    window = RidgeWindow(int(np.prod(lead)), d_y, d_z, 0, replace(cfg, window_T=k))
    window.z[:] = Z.reshape(window.z.shape)
    window.resid[:] = resid.reshape(window.resid.shape)
    return window.solve(k, k).reshape(*lead, d_z)
