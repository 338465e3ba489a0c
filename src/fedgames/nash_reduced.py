"""Homogeneity-reduced centralized Nash solver.

Under mean homogeneity of the latents, the N d-dimensional value-function
weights of the full game collapse to four repeating d_y x d_y blocks
Pi_1..Pi_4 (and two d_y forcing blocks Xi_1, Xi_2), and the stacked
feedback gain collapses to per-agent gains G1_N, G2_N and intercept H_N.
The backward pass below updates those blocks directly, at a cost
independent of N.

Every structured matrix in the full-game update is exchangeable in agents
2..N: first block row (a, b, ..., b), first block column (a; c; ...; c),
d on the rest of the diagonal and e off it. With s = sqrt(N-1), an
orthogonal change of basis that keeps agent 1 and rotates agents 2..N
onto their normalized sum and N-2 directions orthogonal to it turns such
a matrix into blockdiag(hat, tilde, ..., tilde) with

    hat   = [[a, s b], [s c, d + (N-2) e]]    (2 blocks by 2 blocks)
    tilde = d - e                              (N-2 copies).

Sums, products and transposes act on hat and tilde separately, so the
update is ordinary matrix algebra on the two; a uniform block column
(u; v; ...; v) becomes (u; s v) with no tilde part. The blocks come back
as a = hat_00, b = hat_01 / s, c = hat_10 / s,
e = (hat_11 - tilde) / (N-1) and d = tilde + e.

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


def check_pass_finite(name: str, rounds: tuple, T: int, *per_step) -> None:
    """Raise SolveError if a backward pass's outputs are not finite.

    ``per_step`` arrays carry time first, then the ``rounds`` axes; their
    steps t < T are checked. The error names the first non-finite t in
    backward order and, for a round stack, the first round non-finite
    there: a pass whose iterates overflow stops here instead of handing
    NaN gains on."""
    bad = np.zeros((T, *rounds), dtype=bool)
    for arr in per_step:
        bad |= ~np.isfinite(arr[:T].reshape(T, *rounds, -1)).all(axis=-1)
    if not bad.any():
        return
    t = int(np.flatnonzero(bad.reshape(T, -1).any(axis=1))[-1])
    where = f"round {int(np.flatnonzero(bad[t])[0])}, " if rounds else ""
    raise SolveError(f"{name} pass produced non-finite coefficients at {where}t={t}")


def _hat(N: int, a, b, c, d, e) -> np.ndarray:
    """[[a, s b], [s c, d + (N-2) e]], s = sqrt(N-1): the symmetric-coordinate
    image of the exchangeable block matrix (a, b; c, d, e). Blocks (or
    scalars) broadcast over leading round axes."""
    s = np.sqrt(N - 1)
    a, b, c, d, e = np.broadcast_arrays(a, b, c, d, e)
    top = np.concatenate([a, s * b], axis=-1)
    bottom = np.concatenate([s * c, d + (N - 2) * e], axis=-1)
    return np.concatenate([top, bottom], axis=-2)


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
    max_asym = np.zeros(rounds)

    # t-independent parts of the value-function update in symmetric
    # coordinates (module docstring): the drift D, the rows (r1, r2, ..., r2)
    # of the two stage costs, and the stage part of the cross weight L
    s = np.sqrt(N - 1)
    drift = _hat(N, th + tb / N, tb / N, tb / N, th + tb / N, tb / N)
    row_kap = np.concatenate([th + tb / N, s * tb / N], axis=-1)
    row_kbar = np.concatenate([(1 - 1 / N) * th, -s * th / N], axis=-1)
    stage = kap * row_kap.T @ row_kap + kbar * row_kbar.T @ row_kbar
    dev = -(1 - 1 / N) / N * th
    cross = kap * _hat(N, th + tb / N, tb / N, 0.0, 0.0, 0.0)
    cross += kbar * _hat(N, (1 - 1 / N) ** 2 * th, dev, dev, th / N**2, th / N**2)

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

        # P' = G'QG + G'L + L'G + stage + D'PD, with the cross weight
        # L = lift (stage cross + P D) and lift the block diagonal of M1',
        # on the hat part and, for N >= 3, on the tilde part
        lift = _hat(N, M1.mT, 0.0, 0.0, M1.mT, 0.0)
        p_hat = _hat(N, p1, p2, p2.mT, p3, p4)
        q_hat = _hat(N, FN, KN, KN.mT, Q3, Q4)
        g_hat = _hat(N, g1, g2, g2, g1, g2)
        l_hat = lift @ (disc * cross + p_hat @ drift)
        gl = g_hat.mT @ l_hat
        p_new = g_hat.mT @ q_hat @ g_hat + gl + gl.mT + disc * stage + drift.T @ p_hat @ drift

        a, d = p_new[..., :d_y, :d_y], p_new[..., d_y:, d_y:]
        b, c = p_new[..., :d_y, d_y:] / s, p_new[..., d_y:, :d_y] / s
        if N >= 3:
            g_til, p_til = g1 - g2, p3 - p4
            gl_til = g_til.mT @ M1.mT @ p_til @ th
            tilde = g_til.mT @ (Q3 - Q4) @ g_til + gl_til + gl_til.mT + th.T @ p_til @ th
            e = (d - tilde) / (N - 1)
            d = tilde + e
        else:
            e = np.zeros_like(d)
        for diff in (a - a.mT, b - c.mT, d - d.mT, e - e.mT):
            max_asym = np.maximum(max_asym, np.max(np.abs(diff), axis=(-2, -1)))
        Pi[0, t] = 0.5 * (a + a.mT)
        Pi[1, t] = 0.5 * (b + c.mT)
        Pi[2, t] = 0.5 * (d + d.mT)
        Pi[3, t] = 0.5 * (e + e.mT)

        # the forcing update on uniform columns (u; v; ...; v) -> (u; s v)
        x_hat = np.concatenate([x1, s * x2], axis=-2)
        h_hat = np.concatenate([h, s * h], axis=-2)
        forcing = lift @ x_hat
        forcing[..., :d_z, :] -= disc * kap * M1.mT @ y_next
        s_new = (
            g_hat.mT @ (q_hat @ h_hat + forcing)
            + l_hat.mT @ h_hat
            - disc * kap * row_kap.T @ y_next
            + drift.T @ x_hat
        )
        Xi[0, t] = s_new[..., :d_y, 0]
        Xi[1, t] = s_new[..., d_y:, 0] / s

    check_pass_finite("reduced", rounds, T, *Pi, *Xi, G1N, G2N, HN, Fs, Ks, Ms, Es)
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
