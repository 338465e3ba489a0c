"""Exact centralized Nash solver for the finite N-agent prediction game.

Backward dynamic-programming pass over the stacked state of all N agent
predictions. Each agent n carries a quadratic-affine value function

    V_n(t, y) = y' P_n(t) y + 2 S_n(t)' y + const,

and the equilibrium actions are affine in the stacked predictions:

    beta_t = G(t) y_t + H(t).

Per step the pass assembles the regularized N d_z system matrix and the
cross/forcing terms from the latent moments (cross-agent expectations
factorize under the mean-homogeneity assumption), solves once, and
updates every P_n, S_n, each from its own P_n(t+1), S_n(t+1). The
assembly is array-at-a-time over agents and blocks, but dense: it never
uses the repeating-block structure or the relabeling P_n = J'P_1J that
``check_block_structure`` verifies. Per step the cost is one
O((N d_z)^3) solve plus N per-agent value updates of O(N^3 d_z^2 d_y)
each, about O(N^4 d_z^2 d_y) in total, which caps this solver at modest
populations; large N is served by the reduced and decentralized solvers.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import SolveError
from .model import GameParams, TargetSeries

logger = logging.getLogger(__name__)

HARD_N_CEILING = 32


@dataclass(frozen=True)
class FullNashCoeffs:
    """Feedback coefficients and value-function weights of the full game."""

    P: np.ndarray  # (N, T+1, N d_y, N d_y)
    S: np.ndarray  # (N, T+1, N d_y)
    G: np.ndarray  # (T, N d_z, N d_y)
    H: np.ndarray  # (T, N d_z)
    dims: tuple  # (N, d_y, d_z)
    max_asymmetry: float
    condition_numbers: np.ndarray  # (T,)


@dataclass(frozen=True)
class StructureReport:
    """Deviation of the solved P_n / S_n from the repeating-block pattern."""

    max_deviation: float
    p1_pattern_dev: float
    s1_pattern_dev: float
    permutation_dev: float
    n2_degenerate: bool
    notes: tuple = field(default_factory=tuple)


def _drift(params: GameParams) -> np.ndarray:
    """Stacked drift: block (i, j) = theta * delta_ij + theta_bar / N."""
    N = params.population_N
    return np.kron(np.eye(N), params.theta) + np.kron(
        np.full((N, N), 1.0 / N), params.theta_bar
    )


def _theta_rows(params: GameParams, own: np.ndarray, other: np.ndarray) -> np.ndarray:
    """Every agent's block row, (N, d_y, N d_y): row n is a uniform `other`
    with `own` added at slot n."""
    N, d_y = params.population_N, params.dim_y
    rows = np.tile(other, (N, 1, N)).reshape(N, d_y, N, d_y)
    agents = np.arange(N)
    rows[agents, :, agents] += own
    return rows.reshape(N, d_y, N * d_y)


def _dense(blocks: np.ndarray) -> np.ndarray:
    """(..., R, K, a, b) blocks -> (..., R a, K b) block matrices."""
    *lead, R, K, a, b = blocks.shape
    return blocks.swapaxes(-3, -2).reshape(*lead, R * a, K * b)


def full_backward_pass(
    params: GameParams,
    moments,
    targets: TargetSeries,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> FullNashCoeffs:
    """Solve the coupled backward system for P_n, S_n, G, H.

    Raises SolveError if the regularized system matrix is singular at any
    step (cannot happen for gamma > 0 with finite moments, but surfaced
    rather than swallowed).
    """
    N, d_y, d_z = params.population_N, params.dim_y, params.dim_z
    T = params.horizon_T
    if targets.horizon < T:
        raise ValueError(f"targets cover horizon {targets.horizon} < {T}")
    if moments.horizon < T:
        raise ValueError(f"moments cover horizon {moments.horizon} < {T}")
    if N > HARD_N_CEILING:
        raise ValueError(
            f"full solver is limited to N <= {HARD_N_CEILING}; "
            "use the reduced or decentralized solver"
        )

    kap, kbar, gam = params.kappa, params.kappa_bar, params.gamma
    drift = _drift(params)
    y = targets.values
    agents = np.arange(N)
    # agent n's drift row (its next prediction) and the drift row of its
    # deviation from the population mean, as they enter the stage cost
    row_k = _theta_rows(params, params.theta, params.theta_bar / N)
    row_kb = _theta_rows(params, params.theta, -params.theta / N)
    row_k_t = row_k.swapaxes(1, 2)
    stage_w = kap * row_k_t @ row_k + kbar * row_kb.swapaxes(1, 2) @ row_kb

    P = np.zeros((N, T + 1, N * d_y, N * d_y))
    S = np.zeros((N, T + 1, N * d_y))
    G = np.zeros((T, N * d_z, N * d_y))
    H = np.zeros((T, N * d_z))
    conds = np.zeros(T)
    max_asym = 0.0

    for t in range(T - 1, -1, -1):
        disc = params.discount(t)
        M1 = moments.m1[t]
        M2 = moments.m2[t]
        A2 = M1.T @ M1
        m1_y = M1.T @ y[t + 1]
        p_next = P[:, t + 1]
        s_next = S[:, t + 1]

        # E[Z^m' Z^k] under homogeneity: M2 on the diagonal, M1'M1 off it.
        ezz = np.where(np.eye(N, dtype=bool)[:, :, None, None], M2, A2)

        # Quadratic coupling M1' P_n[m, k] M1 for every agent n and block
        # (m, k), with the weighted moment E[Z' P_n[m, m] Z] on m = k.
        p_blocks = p_next.reshape(N, N, d_y, N, d_y).swapaxes(2, 3)
        coupling = np.einsum("ya,nmkyz,zb->nmkab", M1, p_blocks, M1)
        diag_ws = p_blocks[:, agents, agents].reshape(N * N, d_y, d_y)
        coupling[:, agents, agents] = moments.weighted_m2(t, diag_ws).reshape(
            N, N, d_z, d_z
        )

        # System matrix: hat-A1 (diagonal), hat-A2 (all-pairs), and each
        # agent's own row of the coupling.
        a_mat = _dense(coupling[agents, agents])
        hat_a1 = np.kron(np.eye(N), M2)
        hat_a2 = np.kron(np.ones((N, N)), A2) + np.kron(np.eye(N), M2 - A2)
        m_sys = (
            disc
            * (
                (kap + kbar * (1 - 1 / N)) * hat_a1
                - kbar * (1 - 1 / N) * (1 / N) * hat_a2
                + gam * np.eye(N * d_z)
            )
            + a_mat
        )

        # Feedback forcing: stage-cost cross terms plus the P coupling.
        m1_row_k = M1.T @ row_k
        m1_row_kb = M1.T @ row_kb
        # M1' (P_n drift)[m, :] for every agent n and block row m
        m1_p_drift = M1.T @ (p_next @ drift).reshape(N, N, d_y, N * d_y)
        r_mat = disc * (kap * m1_row_k + kbar * (1 - 1 / N) * m1_row_kb)
        r_mat = (r_mat + m1_p_drift[agents, agents]).reshape(N * d_z, N * d_y)
        c_vec = (s_next.reshape(N, N, d_y)[agents, agents] @ M1).reshape(-1)
        f_vec = np.tile(m1_y, N)

        conds[t] = np.linalg.cond(m_sys)
        logger.debug("full pass t=%d cond=%.3e", t, conds[t])
        try:
            g_t = -np.linalg.solve(m_sys, r_mat)
            h_t = np.linalg.solve(m_sys, disc * kap * f_vec - c_vec)
        except np.linalg.LinAlgError as exc:
            raise SolveError(f"singular system matrix at t={t}") from exc
        G[t] = g_t
        H[t] = h_t

        # Quadratic action weights Q_n, blocks (n, m, k): the coupling plus
        # the stage-cost terms, built in place.
        q = coupling
        q += (disc * kbar / N**2) * ezz
        q[agents, agents] -= (disc * kbar / N) * ezz  # m = n: E[Z^n' Z^k]
        q[agents, :, agents] -= (disc * kbar / N) * ezz.swapaxes(0, 1)  # k = n: E[Z^m' Z^n]
        q[agents, agents, agents] += disc * ((kbar + kap) * M2 + gam * np.eye(d_z))
        q = _dense(q)

        # State-action cross weights L_n, blocks (n, m).
        l_blk = m1_p_drift - (disc * kbar / N) * m1_row_kb[:, None]
        l_blk[agents, agents] += disc * (kbar * m1_row_kb + kap * m1_row_k)
        l_n = l_blk.reshape(N, N * d_z, N * d_y)
        l_n_t = l_n.swapaxes(1, 2)

        p_new = g_t.T @ q @ g_t + g_t.T @ l_n + l_n_t @ g_t + disc * stage_w
        p_new += drift.T @ p_next @ drift
        p_new_t = p_new.swapaxes(1, 2)
        max_asym = max(max_asym, float(np.max(np.abs(p_new - p_new_t))))
        P[:, t] = 0.5 * (p_new + p_new_t)

        lifted_y = np.kron(np.eye(N), m1_y)
        dz_s = (s_next.reshape(N, N, d_y) @ M1).reshape(N, N * d_z)
        s_new = (q @ h_t - disc * kap * lifted_y + dz_s) @ g_t + l_n_t @ h_t
        s_new += -disc * kap * (row_k_t @ y[t + 1]) + s_next @ drift
        S[:, t] = s_new

    if max_asym > tolerances.symmetry:
        logger.warning("P_n asymmetry %.3e exceeds %.1e", max_asym, tolerances.symmetry)
    return FullNashCoeffs(
        P=P, S=S, G=G, H=H, dims=(N, d_y, d_z), max_asymmetry=max_asym, condition_numbers=conds
    )


def full_action(t: int, predictions: np.ndarray, coeffs: FullNashCoeffs) -> np.ndarray:
    """Stacked equilibrium action beta_t = G(t) y + H(t)."""
    if not 0 <= t < coeffs.G.shape[0]:
        raise IndexError(f"t={t} outside horizon {coeffs.G.shape[0]}")
    yhat = np.asarray(predictions, dtype=float).reshape(-1)
    return coeffs.G[t] @ yhat + coeffs.H[t]


def _swap_first(N: int, n: int, d: int) -> np.ndarray:
    """Block permutation exchanging agent slots 0 and n."""
    perm = np.arange(N)
    perm[0], perm[n] = n, 0
    J = np.zeros((N, N))
    J[perm, np.arange(N)] = 1.0
    return np.kron(J, np.eye(d))


def check_block_structure(coeffs: FullNashCoeffs, tol: float | None = None) -> StructureReport:
    """Verify the repeating-block pattern of P_1 / S_1 and the relabeling
    relation P_n = J' P_1 J, S_n = J' S_1. Report-only."""
    N, d_y, _ = coeffs.dims
    if N < 2:
        raise ValueError("block structure is defined for N >= 2")
    tol = DEFAULT_TOLERANCES.symmetry if tol is None else tol

    def yblk(i):
        return slice(i * d_y, (i + 1) * d_y)

    p1_dev = 0.0
    s1_dev = 0.0
    perm_dev = 0.0
    for t in range(coeffs.P.shape[1]):
        p1 = coeffs.P[0, t]
        pi2 = p1[yblk(0), yblk(1)]
        pi3 = p1[yblk(1), yblk(1)]
        for j in range(1, N):
            p1_dev = max(p1_dev, float(np.max(np.abs(p1[yblk(0), yblk(j)] - pi2))))
            p1_dev = max(p1_dev, float(np.max(np.abs(p1[yblk(j), yblk(0)] - pi2.T))))
            p1_dev = max(p1_dev, float(np.max(np.abs(p1[yblk(j), yblk(j)] - pi3))))
        if N >= 3:
            pi4 = p1[yblk(1), yblk(2)]
            for i in range(1, N):
                for j in range(1, N):
                    if i != j:
                        p1_dev = max(
                            p1_dev, float(np.max(np.abs(p1[yblk(i), yblk(j)] - pi4)))
                        )
        s1 = coeffs.S[0, t]
        xi2 = s1[yblk(1)]
        for j in range(2, N):
            s1_dev = max(s1_dev, float(np.max(np.abs(s1[yblk(j)] - xi2))))
        for n in range(1, N):
            J = _swap_first(N, n, d_y)
            perm_dev = max(perm_dev, float(np.max(np.abs(coeffs.P[n, t] - J.T @ p1 @ J))))
            perm_dev = max(perm_dev, float(np.max(np.abs(coeffs.S[n, t] - J.T @ s1))))

    notes = []
    if N == 2:
        notes.append("N=2: pattern degenerates to (Pi1, Pi2; Pi2', Pi3); no Pi4 blocks exist")
    max_dev = max(p1_dev, s1_dev, perm_dev)
    if max_dev > tol:
        notes.append(f"deviation {max_dev:.3e} exceeds tolerance {tol:.1e}")
    return StructureReport(
        max_deviation=max_dev,
        p1_pattern_dev=p1_dev,
        s1_pattern_dev=s1_dev,
        permutation_dev=perm_dev,
        n2_degenerate=(N == 2),
        notes=tuple(notes),
    )
