"""Decentralized mean-field policy: the large-population limit solver.

Rescaling the reduced solver's repeating blocks by their asymptotic
orders (Lam1 = Pi1, Lam2 = N Pi2, Lam3 = N^2 Pi3, Lam4 = N^2 Pi4,
chi1 = Xi1, chi2 = N Xi2) and dropping the O(1/N) terms gives a closed
backward system whose coefficients no longer depend on N at all. The
resulting feedback law

    beta_t = G1(t) Y_own + G2(t) Ybar_t + H(t)

uses only the agent's own prediction and the offline-computable mean
field Ybar, which evolves as

    Ybar_{t+1} = [theta + theta_bar + M1 (G1 + G2)] Ybar_t + M1 H(t).

Per step the quadratic weights satisfy Q1 = F (stage discount included)
and Q2 = K (kappa_bar included) -- both are limits of the same finite-N
blocks -- and the kappa cross term enters the Lam2 / Lam3 / Lam4 updates
with a positive sign, being the limit of the state-action cross weight
whose own-drift block is theta + theta_bar / N. The tests pin every term
against the rescaled finite-N solver at N = 1e6. Lam3 feeds no policy
coefficient; it is carried for diagnostics only.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .config import check_symmetry
from .errors import SolveError
from .model import GameParams, TargetSeries
from .nash_reduced import ReducedCoeffs, check_pass_finite, failing_round

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


@dataclass(frozen=True)
class MeanFieldTrajectory:
    ybar: np.ndarray  # (T+1, d_y)


def decentralized_backward_pass(
    params: GameParams,
    moments,
    targets: TargetSeries,
) -> DecentralizedCoeffs:
    """Backward pass of the limit system.

    Moments and targets may carry a round axis right after the time axis
    (m1 (T, R, d_y, d_z), values (T+1, R, d_y)); every round is then
    solved at once and the outputs carry the same round axis.
    """
    d_y, d_z = params.dim_y, params.dim_z
    T = params.horizon_T
    if targets.horizon < T or moments.horizon < T:
        raise ValueError("targets/moments do not cover the horizon")
    rounds = moments.m1.shape[1:-2]
    if targets.values.shape[1:-1] != rounds:
        raise ValueError("targets and moments carry different round axes")

    kap, kbar, gam = params.kappa, params.kappa_bar, params.gamma
    th, tb = params.theta, params.theta_bar
    y = targets.values

    L = np.zeros((4, T + 1, *rounds, d_y, d_y))
    chi = np.zeros((2, T + 1, *rounds, d_y))
    G1 = np.zeros((T, *rounds, d_z, d_y))
    G2 = np.zeros((T, *rounds, d_z, d_y))
    H = np.zeros((T, *rounds, d_z))
    Fs, Ks, Ms, Es = (np.zeros((T, *rounds, d_z, d_z)) for _ in range(4))
    max_asym = np.zeros(rounds)

    for t in range(T - 1, -1, -1):
        disc = params.discount(t)
        M1 = moments.m1[t]
        M2 = moments.m2[t]
        A2 = M1.mT @ M1
        y_next = y[t + 1][..., None]
        l1, l2, l3, l4 = L[0, t + 1], L[1, t + 1], L[2, t + 1], L[3, t + 1]
        c1, c2 = chi[0, t + 1][..., None], chi[1, t + 1][..., None]

        F = disc * ((kap + kbar) * M2 + gam * np.eye(d_z)) + moments.weighted_m2(t, l1)
        K = -disc * kbar * A2 + M1.mT @ l2 @ M1
        try:
            M = np.linalg.inv(F)
            E = -np.linalg.solve(F + K, K @ M)
        except np.linalg.LinAlgError as exc:
            where = failing_round(lambda f, k: np.linalg.solve(f + k, k @ np.linalg.inv(f)), F, K)
            raise SolveError(f"singular F or F+K at {where}t={t}") from exc
        if logger.isEnabledFor(logging.DEBUG):
            logger.debug(
                "decentralized t=%d cond(F)=%.3e cond(F+K)=%.3e (max over rounds)",
                t,
                np.max(np.linalg.cond(F)),
                np.max(np.linalg.cond(F + K)),
            )

        Q1 = F
        Q2 = K
        Q3 = disc * kbar * M2 + moments.weighted_m2(t, l3)
        Q4 = disc * kbar * A2 + M1.mT @ l4 @ M1
        ME = M + E

        g1 = -disc * (kap + kbar) * M @ M1.mT @ th - M @ M1.mT @ l1 @ th
        g2 = -disc * (kap + kbar) * E @ M1.mT @ th
        g2 += disc * ME @ M1.mT @ (kbar * th - kap * tb)
        g2 -= E @ M1.mT @ l1 @ th + ME @ M1.mT @ l2 @ th
        g2 -= ME @ M1.mT @ (l1 + l2) @ tb
        h = -ME @ M1.mT @ (-disc * kap * y_next + c1)

        G1[t], G2[t], H[t] = g1, g2, h[..., 0]
        Fs[t], Ks[t], Ms[t], Es[t] = F, K, M, E

        # Limits of the state-action cross blocks (own row, off row,
        # off column, diagonal tail, off-off tail).
        a_inf = disc * (kap + kbar) * M1.mT @ th + M1.mT @ l1 @ th
        b_inf = disc * M1.mT @ (kap * tb - kbar * th) + M1.mT @ (l1 @ tb + l2 @ (th + tb))
        c_inf = -disc * kbar * M1.mT @ th + M1.mT @ l2.mT @ th
        d_inf = disc * kbar * M1.mT @ th + M1.mT @ (l2.mT @ tb + l3 @ th + l4 @ tb)
        e_inf = disc * kbar * M1.mT @ th + M1.mT @ (l2.mT @ tb + l4 @ (th + tb))

        w1 = g1.mT @ a_inf
        new1 = g1.mT @ Q1 @ g1 + w1 + w1.mT + disc * (kap + kbar) * th.T @ th + th.T @ l1 @ th

        new2 = g1.mT @ Q2 @ g1 + g1.mT @ (Q1 + Q2) @ g2
        new2 += g1.mT @ b_inf + (g2.mT @ a_inf + (g1 + g2).mT @ c_inf).mT
        new2 += disc * (kap * th.T @ tb - kbar * th.T @ th)
        new2 += th.T @ l2 @ th + th.T @ (l1 + l2) @ tb

        quad_tail = (
            g1.mT @ (Q2.mT + Q4) @ g2
            + g2.mT @ (Q2 + Q4) @ g1
            + g2.mT @ (Q1 + Q2 + Q2.mT + Q4) @ g2
        )
        stage_tail = disc * (kap * tb.T @ tb + kbar * th.T @ th)
        p_tail = (
            th.T @ (l2.mT + l4) @ tb
            + tb.T @ (l2 + l4) @ th
            + tb.T @ (l1 + l2 + l2.mT + l4) @ tb
        )
        w3 = g2.mT @ (b_inf + e_inf) + g1.mT @ d_inf
        new3 = g1.mT @ Q3 @ g1 + quad_tail + w3 + w3.mT + stage_tail + th.T @ l3 @ th + p_tail
        w4 = g2.mT @ b_inf + (g1 + g2).mT @ e_inf
        new4 = g1.mT @ Q4 @ g1 + quad_tail + w4 + w4.mT + stage_tail + th.T @ l4 @ th + p_tail

        for sym in (new1, new3, new4):
            max_asym = np.maximum(max_asym, np.max(np.abs(sym - sym.mT), axis=(-2, -1)))
        L[0, t] = 0.5 * (new1 + new1.mT)
        L[1, t] = new2
        L[2, t] = 0.5 * (new3 + new3.mT)
        L[3, t] = 0.5 * (new4 + new4.mT)

        chi[0, t] = (
            g1.mT @ (Q1 + Q2) @ h
            + g1.mT @ (-disc * kap * M1.mT @ y_next + M1.mT @ c1)
            + (a_inf + c_inf).mT @ h
            - disc * kap * th.T @ y_next
            + th.T @ c1
        )[..., 0]
        chi[1, t] = (
            g2.mT @ (Q1 + Q2) @ h
            + (g1 + g2).mT @ (Q2.mT + Q4) @ h
            + g2.mT @ (-disc * kap * M1.mT @ y_next + M1.mT @ c1)
            + (g1 + g2).mT @ M1.mT @ c2
            + (b_inf + e_inf).mT @ h
            - disc * kap * tb.T @ y_next
            + tb.T @ c1
            + (th + tb).T @ c2
        )[..., 0]

    check_pass_finite("decentralized", rounds, T, *L, *chi, G1, G2, H, Fs, Ks, Ms, Es)
    check_symmetry(logger, "Lambda", max_asym, L)
    return DecentralizedCoeffs(
        L1=L[0],
        L2=L[1],
        L3=L[2],
        L4=L[3],
        chi1=chi[0],
        chi2=chi[1],
        G1=G1,
        G2=G2,
        H=H,
        F=Fs,
        K=Ks,
        M=Ms,
        E=Es,
        drift_sum=th + tb,
        dims=(d_y, d_z),
        max_asymmetry=float(max_asym) if max_asym.ndim == 0 else max_asym,
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


def meanfield_forward(coeffs: DecentralizedCoeffs, moments, y0: np.ndarray) -> MeanFieldTrajectory:
    """Deterministic mean-field recursion started from the mean initial
    prediction: Ybar' = [theta + theta_bar + M1 (G1 + G2)] Ybar + M1 H.

    Coefficients and moments with a round axis take y0 of shape (R, d_y)
    and give ybar of shape (T+1, R, d_y)."""
    T = coeffs.G1.shape[0]
    ybar = np.zeros((T + 1, *coeffs.H.shape[1:-1], coeffs.dims[0]))
    ybar[0] = np.asarray(y0, dtype=float).reshape(ybar.shape[1:])
    for t in range(T):
        M1 = moments.m1[t]
        drift = coeffs.drift_sum + M1 @ (coeffs.G1[t] + coeffs.G2[t])
        ybar[t + 1] = (drift @ ybar[t][..., None] + M1 @ coeffs.H[t][..., None])[..., 0]
    return MeanFieldTrajectory(ybar=ybar)


def rescaled_blocks(reduced: ReducedCoeffs) -> tuple[np.ndarray, ...]:
    """Reduced blocks in limit scaling: (Pi1, N Pi2, N^2 Pi3, N^2 Pi4,
    Xi1, N Xi2)."""
    N = reduced.dims[0]
    return (
        reduced.Pi1,
        N * reduced.Pi2,
        N**2 * reduced.Pi3,
        N**2 * reduced.Pi4,
        reduced.Xi1,
        N * reduced.Xi2,
    )


def lambda_gap(reduced: ReducedCoeffs, limit: DecentralizedCoeffs) -> np.ndarray:
    """max_i || Lam_i^N(t) - Lam_i(t) ||_F per timestep."""
    r1, r2, r3, r4, _, _ = rescaled_blocks(reduced)
    lims = (limit.L1, limit.L2, limit.L3, limit.L4)
    gaps = []
    for t in range(limit.L1.shape[0]):
        gaps.append(
            max(
                float(np.linalg.norm(r - l[t]))
                for r, l in zip((r1[t], r2[t], r3[t], r4[t]), lims)
            )
        )
    return np.array(gaps)
