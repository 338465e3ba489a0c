"""Exact centralized Nash solver for the finite N-agent prediction game.

Backward dynamic-programming pass over the stacked state of all N agent
predictions. Each agent n carries a quadratic-affine value function

    V_n(t, y) = y' P_n(t) y + 2 S_n(t)' y + const,

and the equilibrium actions are affine in the stacked predictions:

    beta_t = G(t) y_t + H(t).

Per step the pass assembles the regularized N d_z system matrix and the
cross/forcing terms from the latent moments (cross-agent expectations
factorize under the mean-homogeneity assumption), solves once for
[G(t) | H(t)], and updates every P_n, S_n, each from its own P_n(t+1),
S_n(t+1). The assembly is array-at-a-time over agents and blocks, but
dense and independent: it never uses the repeating-block structure or
the relabeling P_n = J'P_1J that ``check_block_structure`` verifies.

The value updates work in prediction space. With X = (I_N (x) M1)[G | H],
each agent's expected next-step cost is a quadratic form in X plus, per
block, the covariance of the latents around their mean, so no
(N, N, N, d_z, d_z) coupling array and no dense per-agent action weight
Q_n is ever formed. The pass reads the unit moments U_ab = E[z_a z_b']
(``MomentSet.units``) directly: E[Z' W Z] is linear in W, so the
weighted moments of the system matrix, and the covariance terms of all N
value updates, are each one GEMM of the weights against U. U is a
property of the latents, not of the game, so reading it keeps the pass
dense and independent of the block structure. Per step the cost is one
O((N d_z)^3) solve plus N value updates of O(N^3 d_y^3 (1 + d_y)) each,
about O(N^4 d_y^3 (1 + d_y)) in total, which caps this solver at modest
populations; large N is served by the reduced and decentralized solvers.
The pass keeps each step's system matrix; its condition number, an SVD
that costs more than the solve, is computed only when
``FullNashCoeffs.condition_numbers`` is read (or at DEBUG level).

One pass solves a stack of rounds at once, each as it would be alone.
Its temporaries grow as R N^3 d_y^2 and R N^2 d_z^2 over R rounds, and
not with the Monte-Carlo sample count, so ``rounds_per_pass`` stacks
(HARD_N_CEILING // N)^2 rounds, which keeps a stacked pass's peak memory
at or below one lone pass at HARD_N_CEILING.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .config import SYMMETRY_RTOL, check_symmetry_scale
from .errors import SolveError
from .model import GameParams, TargetSeries
from .nash_reduced import check_pass_finite, failing_round

logger = logging.getLogger(__name__)

HARD_N_CEILING = 32


@dataclass(frozen=True)
class FullNashCoeffs:
    """Feedback coefficients and value-function weights of the full game.

    A pass over a round stack carries the round axis second on every
    array, after agents on P and S (P is (N, R, T+1, N d_y, N d_y)) and
    after time elsewhere (G is (T, R, N d_z, N d_y)), and a per-round
    ``max_asymmetry``; ``nash_reduced.take_round`` takes one round."""

    P: np.ndarray  # (N, T+1, N d_y, N d_y)
    S: np.ndarray  # (N, T+1, N d_y)
    G: np.ndarray  # (T, N d_z, N d_y)
    H: np.ndarray  # (T, N d_z)
    dims: tuple  # (N, d_y, d_z)
    max_asymmetry: float | np.ndarray
    system: np.ndarray  # (T, N d_z, N d_z) regularized system matrix of each step

    @property
    def condition_numbers(self) -> np.ndarray:
        """(T,) 2-norm condition number of each step's system matrix, by
        SVD; computed when read, since only the round-0 snapshot reads it."""
        return np.linalg.cond(self.system)


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


def rounds_per_pass(N: int) -> int:
    """Rounds that one stacked pass at population N solves together.

    A pass's largest temporaries grow as R N^3 d_y^2 and R N^2 d_z^2 over
    R rounds, and none grows with the sample count, so
    R = (HARD_N_CEILING // N)^2 keeps its peak memory at or below one lone
    pass at HARD_N_CEILING."""
    return max(1, (HARD_N_CEILING // N) ** 2)


def full_backward_pass(params: GameParams, moments, targets: TargetSeries) -> FullNashCoeffs:
    """Solve the coupled backward system for P_n, S_n, G, H.

    Moments and targets may carry a round axis right after the time axis
    (m1 (T, R, d_y, d_z), values (T+1, R, d_y)); every round is then
    solved at once and the outputs carry the round axis second
    (``FullNashCoeffs``). A lone pass is a stack of one: every product
    acts on one round's matrices with a lone pass's shapes, so round r of
    a stack (``nash_reduced.take_round``) equals the pass over round r
    alone, bit for bit.

    Raises SolveError if the regularized system matrix is singular at any
    step, naming the first singular round of a stack (cannot happen for
    gamma > 0 with finite moments, but surfaced rather than swallowed),
    and, as the other passes do, if its outputs are not finite, naming the
    first such step in backward order (``check_pass_finite``).
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
    rounds = moments.m1.shape[1:-2]
    if targets.values.shape[1:-1] != rounds:
        raise ValueError("targets and moments carry different round axes")
    R = int(np.prod(rounds))  # 1 for a lone pass
    n_y, n_z = N * d_y, N * d_z

    kap, kbar, gam = params.kappa, params.kappa_bar, params.gamma
    drift = _drift(params)
    y = targets.values.reshape(-1, R, d_y)
    agents = np.arange(N)
    # agent n's drift row (its next prediction) and the drift row of its
    # deviation from the population mean, as they enter the stage cost
    row_k = _theta_rows(params, params.theta, params.theta_bar / N)
    row_kb = _theta_rows(params, params.theta, -params.theta / N)
    stage_w = kap * row_k.swapaxes(1, 2) @ row_k + kbar * row_kb.swapaxes(1, 2) @ row_kb
    # the stage rows in homogeneous coordinates [y; 1]
    row_k1 = np.concatenate([row_k, np.zeros((N, d_y, 1))], axis=2)
    row_kb1 = np.concatenate([row_kb, np.zeros((N, d_y, 1))], axis=2)
    eye_z = np.eye(d_z)

    # round axis first, then agents: step t of every round is one block
    P = np.zeros((T + 1, R, N, n_y, n_y))
    S = np.zeros((T + 1, R, N, n_y))
    G = np.zeros((T, R, n_z, n_y))
    H = np.zeros((T, R, n_z))
    system = np.empty((T, R, n_z, n_z))
    max_asym = np.zeros(R)
    scale = np.zeros(R)  # largest |entry| of each round's P, for check_symmetry

    for t in range(T - 1, -1, -1):
        disc = params.discount(t)
        M1 = moments.m1[t].reshape(R, d_y, d_z)
        M2 = moments.m2[t].reshape(R, d_z, d_z)
        A2 = M1.mT @ M1
        cov_eye = M2 - A2
        m1_y = (M1.mT @ y[t + 1, :, :, None])[:, None, :, 0]
        p_next = P[t + 1]
        s_next = S[t + 1]
        dk = disc * kbar

        # Cov(E_ab) = E[z_a z_b'] - M1[a] M1[b]' for each unit weight E_ab;
        # Cov(W) = sum_ab W_ab Cov(E_ab) is then one GEMM in W. Cross-agent
        # blocks factorize, E[Z^m' W Z^k] = M1' W M1 for m != k, so
        # Cov(P_n[m, m]) is all the weighted moments add to the mean products.
        unit_cov = moments.units[t].reshape(R, d_y * d_y, d_z * d_z) - (
            M1[:, :, None, :, None] * M1[:, None, :, None, :]
        ).reshape(R, d_y * d_y, d_z * d_z)
        # P_n[m, m] for every agent n and block m
        p_diag = np.diagonal(p_next.reshape(R, N, N, d_y, N, d_y), axis1=2, axis2=4)
        p_diag = np.moveaxis(p_diag, -1, 2)

        # System matrix: agent n's block row is M1' P_n[n, m] M1 + the
        # stage terms, with the weighted moment E[Z' P_n[n, n] Z] on m = n.
        p_rows = p_next.reshape(R, N, N, d_y, n_y)[:, agents, agents]  # P_n[n, :]
        m_sys = ((M1.mT[:, None] @ p_rows).reshape(R, N * d_z * N, d_y) @ M1).reshape(R, N, d_z, N, d_z)
        m_sys -= (dk * (1 - 1 / N) / N) * A2[:, None, :, None, :]
        cov_own = (p_diag[:, agents, agents].reshape(R, N, d_y * d_y) @ unit_cov).reshape(R, N, d_z, d_z)
        m_sys[:, agents, :, agents] += (
            cov_own
            + disc * (
                (kap + kbar * (1 - 1 / N)) * M2 - kbar * (1 - 1 / N) / N * cov_eye + gam * eye_z
            )[:, None]
        ).swapaxes(0, 1)
        m_sys = m_sys.reshape(R, n_z, n_z)
        system[t] = m_sys

        # Right-hand sides: the feedback forcing (stage-cost cross terms plus
        # the P coupling) and the S-minus-target forcing; one solve gives
        # [G | H] up to sign.
        r_rows = disc * (kap * row_k + kbar * (1 - 1 / N) * row_kb) + p_rows @ drift
        rhs = np.empty((R, N, d_z, n_y + 1))
        rhs[..., :-1] = M1.mT[:, None] @ r_rows
        rhs[..., -1] = s_next.reshape(R, N, N, d_y)[:, agents, agents] @ M1 - disc * kap * m1_y

        if logger.isEnabledFor(logging.DEBUG):
            logger.debug("full pass t=%d cond=%.3e (max over rounds)", t, np.max(np.linalg.cond(m_sys)))
        rhs = rhs.reshape(R, n_z, n_y + 1)
        try:
            gh = -np.linalg.solve(m_sys, rhs)
        except np.linalg.LinAlgError as exc:
            where = failing_round(
                np.linalg.solve, m_sys.reshape(*rounds, n_z, n_z), rhs.reshape(*rounds, n_z, n_y + 1)
            )
            raise SolveError(f"singular system matrix at {where}t={t}") from exc
        G[t] = gh[..., :-1]
        H[t] = gh[..., -1]

        # Value updates in prediction space, in homogeneous coordinates
        # [y; 1]: one quadratic form w_n per agent carries P_n (top left)
        # and S_n (last column). x = (I (x) M1)[G | H] is the mean effect of
        # the actions on the next predictions and a = x + [drift | 0] the
        # mean closed loop, so the continuation is a'P_n a plus, per block
        # m, G_m' Cov(P_n[m, m]) G_m. The stage cost adds c x_sum'x_sum and
        # c Cov(I) per block (c = disc kbar / N^2, the population mean),
        # agent n's own action cost and its row-n and column-n terms.
        # Neither the coupling array nor a dense Q_n is formed.
        gh_blk = gh.reshape(R, N, d_z, n_y + 1)
        x_blk = M1[:, None] @ gh_blk  # (R, N, d_y, N d_y + 1)
        x_sum = x_blk.sum(axis=1)
        a = x_blk.reshape(R, n_y, n_y + 1).copy()
        a[..., :-1] += drift
        c = dk / N**2
        p_a = (p_next.reshape(R, N * n_y, n_y) @ a).reshape(R, N, n_y, -1)
        w = a.mT[:, None] @ p_a + c * (x_sum.mT @ x_sum)[:, None]

        # sum_m G_m' Cov(P_n[m, m] + c I) G_m for every agent n: one GEMM of
        # the weights against G_m' Cov(E_ab) G_m; then agent n's own action cost
        unit_g = gh_blk.mT[:, :, None] @ (
            unit_cov.reshape(R, 1, d_y * d_y, d_z, d_z) @ gh_blk[:, :, None]
        )
        weights = (p_diag + c * np.eye(d_y)).reshape(R, N, N * d_y * d_y)
        w += (weights @ unit_g.reshape(R, N * d_y * d_y, -1)).reshape(w.shape)
        own = disc * ((kbar + kap) * M2 + gam * eye_z) - (2 * dk / N) * cov_eye
        w += gh_blk.mT @ (own[:, None] @ gh_blk)

        # row-n and column-n stage terms of agent n's prediction and of its
        # deviation from the mean, plus transpose, as one product of stacked
        # pairs: x_n'(disc (kbar rkb_n + kap rk_n) - (dk/N) x_sum) - (dk/N) x_sum' rkb_n
        x_sums = np.broadcast_to(x_sum[:, None], x_blk.shape)
        left = np.concatenate([x_blk, x_sums], axis=2)
        right = np.concatenate(
            [
                disc * (kbar * row_kb1 + kap * row_k1) - (dk / N) * x_sums,
                np.broadcast_to(-(dk / N) * row_kb1, x_blk.shape),
            ],
            axis=2,
        )
        cross = left.mT @ right
        w += cross + cross.mT

        p_new = w[..., :-1, :-1] + disc * stage_w
        p_new_t = p_new.mT
        max_asym = np.maximum(max_asym, np.max(np.abs(p_new - p_new_t), axis=(1, 2, 3)))
        P[t] = 0.5 * (p_new + p_new_t)
        scale = np.maximum(scale, np.max(np.abs(P[t]), axis=(1, 2, 3)))

        s_new = w[..., :-1, -1] + s_next @ a[..., :-1]
        s_new -= disc * kap * ((x_blk[..., :-1] + row_k).mT @ y[t + 1, :, None, :, None])[..., 0]
        S[t] = s_new

    check_pass_finite("full", rounds, T, P, S, G, H)
    check_symmetry_scale(logger, "P_n", max_asym, scale)
    # round axis second: after agents on P and S, after time elsewhere
    k = len(rounds)
    return FullNashCoeffs(
        P=np.moveaxis(P.reshape(T + 1, *rounds, N, n_y, n_y), (k + 1, 0), (0, k + 1)),
        S=np.moveaxis(S.reshape(T + 1, *rounds, N, n_y), (k + 1, 0), (0, k + 1)),
        G=G.reshape(T, *rounds, n_z, n_y),
        H=H.reshape(T, *rounds, n_z),
        dims=(N, d_y, d_z),
        max_asymmetry=max_asym.reshape(rounds) if rounds else float(max_asym[0]),
        system=system.reshape(T, *rounds, n_z, n_z),
    )


def full_action(t: int, predictions: np.ndarray, coeffs: FullNashCoeffs) -> np.ndarray:
    """Stacked equilibrium action beta_t = G(t) y + H(t)."""
    if not 0 <= t < coeffs.G.shape[0]:
        raise IndexError(f"t={t} outside horizon {coeffs.G.shape[0]}")
    yhat = np.asarray(predictions, dtype=float).reshape(-1)
    return coeffs.G[t] @ yhat + coeffs.H[t]


def check_block_structure(coeffs: FullNashCoeffs) -> float:
    """The largest deviation of the solved P_n / S_n from the
    repeating-block pattern of P_1 / S_1 (Pi1 at block (0, 0), Pi2 along
    the rest of row 0 and, transposed, of column 0, Pi3 on the rest of the
    diagonal, Pi4 elsewhere; at N = 2 no Pi4 blocks exist) and from the
    relabeling P_n = J' P_1 J, S_n = J' S_1, where J exchanges agent slots
    0 and n. Report-only: a deviation above SYMMETRY_RTOL times the
    largest |entry| of P logs a warning."""
    N, d_y, _ = coeffs.dims
    if N < 2:
        raise ValueError("block structure is defined for N >= 2")
    # [n, t, i, j] is block (i, j) of P_n(t), and [n, t, i] block i of S_n(t)
    P = coeffs.P.reshape(N, -1, N, d_y, N, d_y).swapaxes(3, 4)
    S = coeffs.S.reshape(N, -1, N, d_y)
    p1, s1 = P[0], S[0]
    pi2 = p1[:, None, 0, 1]
    rest = np.arange(1, N)
    # Pi4's blocks (a, b), a != b among slots 1..N-1; the first is (1, 2)
    a, b = 1 + np.array(np.nonzero(~np.eye(N - 1, dtype=bool)))
    n = np.arange(N)
    slots = np.tile(n, (N, 1))  # row n: P_1's slot order in J' P_1 J, 0 and n exchanged
    slots[n, n] = 0
    slots[:, 0] = n
    deviations = (
        p1[:, 0, 1:] - pi2,
        p1[:, 1:, 0] - pi2.swapaxes(-1, -2),
        p1[:, rest, rest] - p1[:, None, 1, 1],
        p1[:, a, b] - p1[:, a[:1], b[:1]],
        s1[:, 2:] - s1[:, None, 1],
        P.swapaxes(0, 1) - p1[:, slots[:, :, None], slots[:, None, :]],
        S.swapaxes(0, 1) - s1[:, slots],
    )
    max_dev = max(float(np.abs(d).max(initial=0.0)) for d in deviations)
    scale = float(np.max(np.abs(coeffs.P)))
    if max_dev > SYMMETRY_RTOL * scale:
        logger.warning("block deviation %.3e exceeds %.1e of max |P| %.3e", max_dev, SYMMETRY_RTOL, scale)
    return max_dev
