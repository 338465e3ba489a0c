"""Homogeneity-reduced centralized Nash solver.

Under mean homogeneity of the latents, the N d-dimensional value-function
weights of the full game collapse to four repeating d_y x d_y blocks
Pi_1..Pi_4 (and two d_y forcing blocks Xi_1, Xi_2), and the stacked
feedback gain collapses to per-agent gains G1_N, G2_N and intercept H_N.
The backward pass below updates those blocks directly: every structured
matrix that appears in the full-game update lives in the exchangeable
block family of ``blockalg``, so the update is evaluated blockwise with a
cost independent of N.

The per-step scalars:

    F_N = disc [(kap + kbar (1-1/N)^2) M2 + gamma I] + M2_{Z, Pi1}
    K_N = -disc kbar (1-1/N)(1/N) M1'M1 + M1' Pi2 M1

feed a closed-form inverse of the (F on-diagonal, K off-diagonal) block
system yielding (M_N, E_N), from which the gains are assembled.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, fields, replace

import numpy as np

from .blockalg import XBlockColumn, XBlockMatrix
from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import SolveError
from .model import GameParams, TargetSeries

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ReducedCoeffs:
    """Reduced coefficients; a pass over a round stack carries the round
    axis right after the time axis (Pi1 is (T+1, R, d_y, d_y), and so on)
    and a per-round ``max_asymmetry``."""

    Pi1: np.ndarray  # (T+1, d_y, d_y)
    Pi2: np.ndarray
    Pi3: np.ndarray
    Pi4: np.ndarray
    Xi1: np.ndarray  # (T+1, d_y)
    Xi2: np.ndarray
    G1N: np.ndarray  # (T, d_z, d_y)
    G2N: np.ndarray
    HN: np.ndarray  # (T, d_z)
    FN: np.ndarray  # (T, d_z, d_z)
    KN: np.ndarray
    MN: np.ndarray
    EN: np.ndarray
    Q1N: np.ndarray
    Q2N: np.ndarray
    Q3N: np.ndarray
    Q4N: np.ndarray
    dims: tuple  # (N, d_y, d_z)
    max_asymmetry: float | np.ndarray

    def pi3_pi4_gap(self) -> np.ndarray:
        """Per-timestep ||Pi3 - Pi4||_F.

        The two tail blocks appear to coincide in practice; nothing here
        assumes it, and this diagnostic lets runs measure the gap.
        """
        return np.linalg.norm(self.Pi3 - self.Pi4, axis=(-2, -1))


def take_round(coeffs, r: int):
    """Round r of coefficients solved over a round stack: every per-step
    array loses its round axis and ``max_asymmetry`` becomes a float.
    Works on ReducedCoeffs and DecentralizedCoeffs, whose ``drift_sum``
    has no time axis."""
    per_round = {
        f.name: getattr(coeffs, f.name)[:, r]
        for f in fields(coeffs)
        if f.name not in ("dims", "max_asymmetry", "drift_sum")
    }
    return replace(coeffs, **per_round, max_asymmetry=float(coeffs.max_asymmetry[r]))


def failing_round(solve, *stacks) -> str:
    """"round r, " for the first round whose slices of ``stacks`` make
    ``solve`` fail; "" for stacks without a round axis. Error messages only."""
    if stacks[0].ndim == 2:
        return ""
    for r in range(stacks[0].shape[0]):
        try:
            solve(*(s[r] for s in stacks))
        except (np.linalg.LinAlgError, SolveError):
            return f"round {r}, "
    return ""


def block_inverse(F: np.ndarray, K: np.ndarray, N: int) -> tuple[np.ndarray, np.ndarray]:
    """Invert the N-block matrix with F on the diagonal and K elsewhere.

    Returns (M, E) such that the inverse has M on the diagonal and E off
    it, i.e. F M + (N-1) K E = I and K M + [F + (N-2) K] E = 0. F and K
    may be stacks (..., d, d).
    """
    F = np.asarray(F, dtype=float)
    K = np.asarray(K, dtype=float)
    d = F.shape[-1]
    eye = np.eye(d)
    try:
        # one factorization of F serves both F^-1 K and F^-1
        sol = np.linalg.solve(F, np.concatenate([K, np.broadcast_to(eye, K.shape)], axis=-1))
        f_inv_k, f_inv = sol[..., :d], sol[..., d:]
        core = F + (N - 2) * K - (N - 1) * (K @ f_inv_k)
        E = -np.linalg.solve(core, K) @ f_inv
        M = f_inv @ (eye - (N - 1) * (K @ E))
    except np.linalg.LinAlgError as exc:
        raise SolveError("singular block in structured inverse") from exc
    return M, E


def reduced_backward_pass(
    params: GameParams,
    moments,
    targets: TargetSeries,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> ReducedCoeffs:
    """Backward pass over the repeating blocks Pi_i, Xi_i and gains.

    Moments and targets may carry a round axis right after the time axis
    (m1 (T, R, d_y, d_z), values (T+1, R, d_y)); every round is then
    solved at once and the outputs carry the same round axis.
    """
    N, d_y, d_z = params.population_N, params.dim_y, params.dim_z
    T = params.horizon_T
    if N < 2:
        raise ValueError("reduced solver requires N >= 2; route N = 1 to the full solver")
    if targets.horizon < T or moments.horizon < T:
        raise ValueError("targets/moments do not cover the horizon")
    rounds = moments.m1.shape[1:-2]
    if targets.values.shape[1:-1] != rounds:
        raise ValueError("targets and moments carry different round axes")

    kap, kbar, gam = params.kappa, params.kappa_bar, params.gamma
    th, tb = params.theta, params.theta_bar
    y = targets.values

    Pi = np.zeros((4, T + 1, *rounds, d_y, d_y))
    Xi = np.zeros((2, T + 1, *rounds, d_y))
    G1N = np.zeros((T, *rounds, d_z, d_y))
    G2N = np.zeros((T, *rounds, d_z, d_y))
    HN = np.zeros((T, *rounds, d_z))
    Fs, Ks, Ms, Es = (np.zeros((T, *rounds, d_z, d_z)) for _ in range(4))
    Qs = np.zeros((4, T, *rounds, d_z, d_z))
    max_asym = np.zeros(rounds)

    # blocks of the value-function update that do not depend on t
    drift = XBlockMatrix.build(N, th + tb / N, tb / N, tb / N, th + tb / N, tb / N)
    drift_t = drift.T
    gram_kap = XBlockMatrix.uniform_row_gram(N, th + tb / N, tb / N)
    gram_kbar = XBlockMatrix.uniform_row_gram(N, (1 - 1 / N) * th, -th / N)

    for t in range(T - 1, -1, -1):
        disc = params.discount(t)
        M1 = moments.m1[t]
        M2 = moments.m2[t]
        A2 = M1.mT @ M1
        y_next = y[t + 1][..., None]
        p1, p2, p3, p4 = Pi[0, t + 1], Pi[1, t + 1], Pi[2, t + 1], Pi[3, t + 1]
        x1, x2 = Xi[0, t + 1][..., None], Xi[1, t + 1][..., None]

        FN = disc * ((kap + kbar * (1 - 1 / N) ** 2) * M2 + gam * np.eye(d_z))
        FN += moments.weighted_m2(t, p1)
        KN = -disc * kbar * (1 - 1 / N) * (1 / N) * A2 + M1.mT @ p2 @ M1
        try:
            MN, EN = block_inverse(FN, KN, N)
        except SolveError as exc:
            where = failing_round(lambda f, k: block_inverse(f, k, N), FN, KN)
            raise SolveError(f"reduced pass failed at {where}t={t}: {exc}") from exc
        if logger.isEnabledFor(logging.DEBUG):
            logger.debug("reduced t=%d cond(F)=%.3e (max over rounds)", t, np.max(np.linalg.cond(FN)))

        Q1 = FN
        Q2 = KN
        Q3 = disc * kbar * M2 / N**2 + moments.weighted_m2(t, p3)
        Q4 = disc * kbar * A2 / N**2 + M1.mT @ p4 @ M1

        ME = MN + (N - 1) * EN
        row_sum = p1 + (N - 1) * p2
        g1 = -disc * (kap + kbar * (1 - 1 / N)) * MN @ M1.mT @ th
        g1 += disc * ME @ M1.mT @ (kbar * (1 - 1 / N) / N * th - kap / N * tb)
        g1 -= MN @ M1.mT @ p1 @ th + (N - 1) * EN @ M1.mT @ p2 @ th
        g1 -= (1 / N) * ME @ M1.mT @ row_sum @ tb
        g2 = -disc * (kap + kbar * (1 - 1 / N)) * EN @ M1.mT @ th
        g2 += disc * ME @ M1.mT @ (kbar * (1 - 1 / N) / N * th - kap / N * tb)
        g2 -= EN @ M1.mT @ p1 @ th + (MN + (N - 2) * EN) @ M1.mT @ p2 @ th
        g2 -= (1 / N) * ME @ M1.mT @ row_sum @ tb
        h = -ME @ M1.mT @ (-disc * kap * y_next + x1)

        G1N[t], G2N[t], HN[t] = g1, g2, h[..., 0]
        Fs[t], Ks[t], Ms[t], Es[t] = FN, KN, MN, EN
        Qs[0, t], Qs[1, t], Qs[2, t], Qs[3, t] = Q1, Q2, Q3, Q4

        # Blockwise evaluation of the value-function update.
        p_mat = XBlockMatrix.symmetric(N, p1, p2, p3, p4 if N >= 3 else None)
        q_mat = XBlockMatrix.symmetric(N, Q1, Q2, Q3, Q4 if N >= 3 else None)
        g_mat = XBlockMatrix.build(N, g1, g2, g2, g1, g2)
        dz_lift = XBlockMatrix.diag(N, M1.mT)

        zero_zy = np.zeros((d_z, d_y))
        l_kap = XBlockMatrix.build(
            N, M1.mT @ (th + tb / N), M1.mT @ tb / N, zero_zy, zero_zy, zero_zy
        )
        mt = M1.mT @ th
        l_kbar = XBlockMatrix.build(
            N,
            (1 - 1 / N) ** 2 * mt,
            -(1 - 1 / N) / N * mt,
            -(1 - 1 / N) / N * mt,
            mt / N**2,
            mt / N**2,
        )
        l_mat = disc * kap * l_kap + disc * kbar * l_kbar + dz_lift @ p_mat @ drift

        gl = g_mat.T @ l_mat
        stage = disc * kap * gram_kap
        stage += disc * kbar * gram_kbar
        p_new = g_mat.T @ q_mat @ g_mat + gl + gl.T + stage + drift_t @ p_mat @ drift

        asym = [p_new.a - p_new.a.mT, p_new.b - p_new.c.mT, p_new.d - p_new.d.mT]
        if N >= 3:
            asym.append(p_new.e - p_new.e.mT)
        for diff in asym:
            max_asym = np.maximum(max_asym, np.max(np.abs(diff), axis=(-2, -1)))
        Pi[0, t] = 0.5 * (p_new.a + p_new.a.mT)
        Pi[1, t] = 0.5 * (p_new.b + p_new.c.mT)
        Pi[2, t] = 0.5 * (p_new.d + p_new.d.mT)
        if N >= 3:
            Pi[3, t] = 0.5 * (p_new.e + p_new.e.mT)

        h_col = XBlockColumn.uniform(N, h)
        forcing = XBlockColumn.build(
            N, -disc * kap * M1.mT @ y_next + M1.mT @ x1, M1.mT @ x2
        )
        stage_s = XBlockColumn.build(
            N, -disc * kap * (th + tb / N).T @ y_next, -disc * kap * (tb / N).T @ y_next
        )
        s_new = (
            g_mat.T @ (q_mat @ h_col + forcing)
            + l_mat.T @ h_col
            + stage_s
            + drift_t @ XBlockColumn.build(N, x1, x2)
        )
        Xi[0, t] = s_new.u[..., 0]
        Xi[1, t] = s_new.v[..., 0]

    if np.max(max_asym) > tolerances.symmetry:
        logger.warning("Pi asymmetry %.3e exceeds %.1e", np.max(max_asym), tolerances.symmetry)
    if N >= 3 and logger.isEnabledFor(logging.DEBUG):
        logger.debug(
            "max_t ||Pi3 - Pi4|| = %.3e", np.max(np.linalg.norm(Pi[2] - Pi[3], axis=(-2, -1)))
        )
    return ReducedCoeffs(
        Pi1=Pi[0],
        Pi2=Pi[1],
        Pi3=Pi[2],
        Pi4=Pi[3],
        Xi1=Xi[0],
        Xi2=Xi[1],
        G1N=G1N,
        G2N=G2N,
        HN=HN,
        FN=Fs,
        KN=Ks,
        MN=Ms,
        EN=Es,
        Q1N=Qs[0],
        Q2N=Qs[1],
        Q3N=Qs[2],
        Q4N=Qs[3],
        dims=(N, d_y, d_z),
        max_asymmetry=float(max_asym) if max_asym.ndim == 0 else max_asym,
    )


def reduced_action(
    t: int, own_prediction: np.ndarray, others_sum: np.ndarray, coeffs: ReducedCoeffs
) -> np.ndarray:
    """Action G1_N own + G2_N sum_of_others + H_N.

    ``own_prediction`` and ``others_sum`` are (d_y,) for one agent or
    (N, d_y) stacked over agents; the result is (d_z,) or (N, d_z).
    """
    if not 0 <= t < coeffs.G1N.shape[0]:
        raise IndexError(f"t={t} outside horizon {coeffs.G1N.shape[0]}")
    own = np.atleast_1d(np.asarray(own_prediction, dtype=float))
    others = np.atleast_1d(np.asarray(others_sum, dtype=float))
    return own @ coeffs.G1N[t].T + others @ coeffs.G2N[t].T + coeffs.HN[t]
