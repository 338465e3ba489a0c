"""Homogeneity-reduced centralized Nash solver, written in 1/N.

Under mean homogeneity of the latents, the N d-dimensional value-function
weights of the full game collapse to four repeating d_y x d_y blocks
Pi_1..Pi_4 (and two d_y forcing blocks Xi_1, Xi_2), and the stacked
feedback gain collapses to per-agent gains G1_N, G2_N and intercept H_N.
One backward recursion updates those blocks directly, at a cost
independent of N, and N enters it only as eps = 1/N: the decentralized
pass (``nash_meanfield``) is its eps = 0 call, the large-population limit.

Every structured matrix in the full-game update is exchangeable in agents
2..N: first block row (a, b, ..., b), first block column (a; c; ...; c),
d on the rest of the diagonal and e off it. The recursion works in the
coordinates (own, mean of the other N - 1 agents), where such a matrix
acts on the uniform states (u; v; ...; v) = (u; v) as a 2 x 2 block
matrix, and on the N - 2 directions that sum to zero over agents 2..N as
the tail d - e. Its blocks are held in limit scaling, each multiplied by
its order in N: A = Pi1, B = N Pi2, Lam3 = N^2 Pi3, Lam4 = N^2 Pi4,
chi1 = Xi1, chi2 = N Xi2, and the gains g1 = G1_N, Gam2 = N G2_N, with
K = N K_N and E = N E_N. With q = 1 - eps and w = 1 - 2 eps, a map (the
drift, the gains; off-agent blocks b, c, e times N) and a quadratic form
(the value, the action cost; b, c times N and d, e times N^2) become

    map  = [[a, q b], [eps c, d + w e]]      tail d - eps e
    form = [[a, q b], [q c, q (eps d + w e)]]  tail d - e

and every update is ordinary matrix algebra on these 2 x 2 blocks and the
tails. Each step adds the next state's stage weight disc W to the value
form P, solves the Nash system (F on the diagonal, K/N off it) with
``block_inverse`` and takes the gains from the first block row of the
state-action weight L = lift (P + disc W) D; the value update is
P' = G'QG + G'L + L'G + D'(P + disc W)D. The blocks come back as
A = P'_00, B = P'_01 / q, Lam4 = (P'_11 / q - eps Delta) / q and
Lam3 = Lam4 + Delta, where Delta = Lam3 - Lam4 follows its own tail
update. At N = 2 (w = 0) the value has no tail block: the update reads
no Lam4 there, and a per-entry select keeps Pi4 = 0 and keeps an
overflowing Delta, weighted by 0, from turning into NaN.

One pass solves a stack of independent games on the axes right after
time: rounds (moments and targets carry the round axis), populations
(``structured_pass`` takes a sequence of N, ``math.inf`` for the limit,
and puts each entry's eps = 1/N on that axis; ``limit_gap_diagnostic``
solves its N grid and the limit in one pass), or both, the population
axis first (``harness.SeedWork`` solves every reduced N of a seed's
cells and the limit over all of its rounds in one pass). Every update
acts on each entry as on a lone game, so an entry's coefficients equal
the lone pass bit for bit: eps and its polynomials broadcast as
(P, 1, 1) or (P, 1, 1, 1) arrays through the same IEEE operations as the
Python floats of a lone N, the tail update is a per-entry select, and
``weighted_m2`` gives every entry of a stack the bits of a lone call.
``game_units`` reads each entry's blocks and asymmetry back in the units
of its own game.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, fields, replace
from typing import NamedTuple

import numpy as np

from .config import check_symmetry
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
    Works on ReducedCoeffs, DecentralizedCoeffs, whose ``drift_sum`` has
    no time axis, and FullNashCoeffs, whose round axis is second on every
    array."""
    per_round = {
        f.name: getattr(coeffs, f.name)[:, r]
        for f in fields(coeffs)
        if f.name not in ("dims", "max_asymmetry", "drift_sum")
    }
    return replace(coeffs, **per_round, max_asymmetry=float(coeffs.max_asymmetry[r]))


def _round_label(r: int) -> str:
    return f"round {r}"


def _stack_label(*axes):
    """The label of a stack entry from its index tuple: each stack axis's
    label of its index, joined."""
    return lambda idx: ", ".join(axis(i) for axis, i in zip(axes, idx))


def failing_round(solve, *stacks, label=_stack_label(_round_label)) -> str:
    """"<label>, " for the first stack entry, in C order over the stack
    axes, whose slices of ``stacks`` make ``solve`` fail; "" for stacks
    without a stack axis. ``label`` names an entry from its index tuple
    (a round by default). Error messages only."""
    if stacks[0].ndim == 2:
        return ""
    for idx in np.ndindex(stacks[0].shape[:-2]):
        try:
            solve(*(s[idx] for s in stacks))
        except (np.linalg.LinAlgError, SolveError):
            return f"{label(idx)}, "
    return ""


def check_pass_finite(name: str, rounds: tuple, T: int, *per_step, label=_stack_label(_round_label)) -> None:
    """Raise SolveError if a backward pass's outputs are not finite.

    ``per_step`` arrays carry time first, then the ``rounds`` stack axes;
    their steps t < T are checked. The error names the first non-finite t
    in backward order and, for a stack, the first entry in C order
    non-finite there (``label`` names it from its index tuple, a round by
    default): a pass whose iterates overflow stops here instead of
    handing NaN gains on."""
    bad = np.zeros((T, *rounds), dtype=bool)
    for arr in per_step:
        bad |= ~np.isfinite(arr[:T].reshape(T, *rounds, -1)).all(axis=-1)
    if not bad.any():
        return
    t = int(np.flatnonzero(bad.reshape(T, -1).any(axis=1))[-1])
    where = f"{label(_index(np.flatnonzero(bad[t])[0], rounds))}, " if rounds else ""
    raise SolveError(f"{name} pass produced non-finite coefficients at {where}t={t}")


def _index(flat, shape) -> tuple:
    """The index tuple of entry ``flat`` of a C-ordered ``shape``."""
    return tuple(int(i) for i in np.unravel_index(flat, shape))


def _blocks(a, b, c, d) -> np.ndarray:
    """[[a, b], [c, d]] from blocks (or scalars) that broadcast over
    leading stack axes."""
    a, b, c, d = np.broadcast_arrays(a, b, c, d)
    return np.concatenate(
        [np.concatenate([a, b], axis=-1), np.concatenate([c, d], axis=-1)], axis=-2
    )


def exchangeable_map(eps, a, b, c, d, e) -> np.ndarray:
    """The (own, mean of others) image [[a, q b], [eps c, d + w e]] of the
    exchangeable map (a, b/N; c/N, d, e/N) at eps = 1/N (module docstring)."""
    return _blocks(a, (1 - eps) * b, eps * c, d + (1 - 2 * eps) * e)


def exchangeable_form(eps, a, b, c, d, e) -> np.ndarray:
    """The (own, mean of others) image [[a, q b], [q c, q (eps d + w e)]]
    of the exchangeable quadratic form (a, b/N; c/N, d/N^2, e/N^2)."""
    q = 1 - eps
    return _blocks(a, q * b, q * c, q * (eps * d + (1 - 2 * eps) * e))


def block_inverse(F: np.ndarray, K: np.ndarray, eps) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Invert the N-block matrix with F on the diagonal and K/N elsewhere,
    at eps = 1/N (0 for the limit N -> oo).

    Returns (M, E, core): the inverse has M on the diagonal and E/N off
    it, i.e. F M + eps q K E = I and K M + (F + w K) E = 0 with q = 1 - eps
    and w = 1 - 2 eps; core = F + w K - eps q K F^-1 K is the matrix solved
    for E. F, K and eps may be stacks (..., d, d).
    """
    F = np.asarray(F, dtype=float)
    K = np.asarray(K, dtype=float)
    d = F.shape[-1]
    eye = np.eye(d)
    eq = eps * (1 - eps)
    try:
        # one factorization of F serves both F^-1 K and F^-1
        sol = np.linalg.solve(F, np.concatenate([K, np.broadcast_to(eye, K.shape)], axis=-1))
        f_inv_k, f_inv = sol[..., :d], sol[..., d:]
        core = F + (1 - 2 * eps) * K - eq * (K @ f_inv_k)
        E = -np.linalg.solve(core, K) @ f_inv
        M = f_inv @ (eye - eq * (K @ E))
    except np.linalg.LinAlgError as exc:
        raise SolveError("singular block in structured inverse") from exc
    return M, E, core


class LimitScaledPass(NamedTuple):
    """One structured pass's outputs in limit scaling (module docstring),
    the stack axes right after time."""

    blocks: np.ndarray  # (4, T+1, ..., d_y, d_y): A, B, Lam3, Lam4
    forcing: np.ndarray  # (2, T+1, ..., d_y): chi1, chi2
    g1: np.ndarray  # (T, ..., d_z, d_y)
    g2: np.ndarray  # Gam2
    h: np.ndarray  # (T, ..., d_z)
    F: np.ndarray  # (T, ..., d_z, d_z)
    K: np.ndarray
    M: np.ndarray
    E: np.ndarray
    asymmetry: np.ndarray  # (4, ...): each block's largest asymmetry, its own units

    def entry(self, p: int) -> "LimitScaledPass":
        """Entry p of a population stack, copied out of the stack."""
        blocks, forcing, *per_step, asym = self
        per_step = (a[:, p].copy() for a in per_step)
        return LimitScaledPass(blocks[:, :, p].copy(), forcing[:, :, p].copy(), *per_step, asym[:, p].copy())


def _worst(values, label) -> str:
    """The largest of per-entry values, naming its entry on a stack."""
    if np.ndim(values) == 0:
        return f"{float(values):.3e}"
    i = int(np.argmax(values))
    return f"{values.flat[i]:.3e} (max, at {label(_index(i, values.shape))})"


def structured_pass(params: GameParams, moments, targets: TargetSeries, populations, name: str) -> LimitScaledPass:
    """The backward recursion of the module docstring at eps = 1/N for
    ``populations``: an N (``math.inf`` for the limit, eps = 0) or, for a
    population stack, a sequence of them, whose outputs carry the
    population axis, then the round axis of moments and targets that
    carry one, after time. ``name`` names the pass in its errors and its
    DEBUG line per step, which name a stack entry N=<n> (then the round,
    on a round axis)."""
    d_y, d_z, T = params.dim_y, params.dim_z, params.horizon_T
    if targets.horizon < T or moments.horizon < T:
        raise ValueError("targets/moments do not cover the horizon")
    rounds = moments.m1.shape[1:-2]
    if targets.values.shape[1:-1] != rounds:
        raise ValueError("targets and moments carry different round axes")
    axes = [_round_label] * len(rounds)
    if np.ndim(populations):
        ns = tuple(populations)
        # one eps per entry on the axis before the rounds and the matrices
        eps = 1 / np.array(ns, dtype=float).reshape(-1, *[1] * (len(rounds) + 2))
        rounds = (len(ns), *rounds)
        axes.insert(0, lambda p: f"N={ns[p]}")
    else:
        eps = 1 / populations
    entry_label = _stack_label(*axes)
    q, w = 1 - eps, 1 - 2 * eps
    # entries with a tail block Lam4 (N >= 3, and the limit) take its update
    tail = w > 0
    any_tail = bool(np.any(tail))

    kap, kbar, gam = params.kappa, params.kappa_bar, params.gamma
    th, tb = params.theta, params.theta_bar
    y = targets.values
    eye_y, eye_z = np.eye(d_y), np.eye(d_z)

    lam = np.zeros((4, T + 1, *rounds, d_y, d_y))
    chi = np.zeros((2, T + 1, *rounds, d_y))
    G1 = np.zeros((T, *rounds, d_z, d_y))
    G2 = np.zeros((T, *rounds, d_z, d_y))
    H = np.zeros((T, *rounds, d_z))
    Fs, Ks, Ms, Es = (np.zeros((T, *rounds, d_z, d_z)) for _ in range(4))
    asym = np.zeros((4, *rounds))
    drift = exchangeable_map(eps, th + eps * tb, tb, tb, th + eps * tb, tb)

    for t in range(T - 1, -1, -1):
        disc = params.discount(t)
        M1 = moments.m1[t]
        lift = _blocks(M1.mT, 0.0, 0.0, M1.mT)
        A, B, lam3, lam4 = lam[:, t + 1]
        # P + disc W: the stage cost kap |own' - y|^2 + kbar |own' - mean'|^2
        # of the next state, own' - mean' being q (own' - mean of others')
        a_hat = A + disc * (kap + kbar * q * q) * eye_y
        b_hat = B - disc * kbar * q * eye_y
        lam4_hat = lam4 + disc * kbar * eye_y

        M2 = moments.m2[t]
        F = disc * ((kap + kbar * q * q) * M2 + gam * eye_z) + moments.weighted_m2(t, A)
        K = M1.mT @ b_hat @ M1
        try:
            M, E, core = block_inverse(F, K, eps)
        except SolveError as exc:
            where = failing_round(block_inverse, F, K, np.broadcast_to(eps, (*rounds, 1, 1)), label=entry_label)
            raise SolveError(f"{name} pass failed at {where}t={t}: {exc}") from exc
        if logger.isEnabledFor(logging.DEBUG):
            logger.debug(
                "%s t=%d cond(F)=%s cond(core)=%s",
                name, t, _worst(np.linalg.cond(F), entry_label), _worst(np.linalg.cond(core), entry_label),
            )
        Q3 = disc * kbar * M2 + moments.weighted_m2(t, lam3)
        Q4 = M1.mT @ lam4_hat @ M1

        p_hat = exchangeable_form(eps, a_hat, b_hat, b_hat.mT, lam3 + disc * kbar * eye_y, lam4_hat)
        pd = p_hat @ drift
        L = lift @ pd
        l00, l01 = L[..., :d_z, :d_y], L[..., :d_z, d_y:] / q
        g1 = -(M @ l00 + eps * q * E @ l01)
        g2 = -(E @ l00 + (M + w * E) @ l01)
        # the forcing column (chi1; q chi2), less the target's pull on own'
        x_hat = np.concatenate(
            [(chi[0, t + 1] - disc * kap * y[t + 1])[..., None], q * chi[1, t + 1][..., None]], axis=-2
        )
        fx = lift @ x_hat
        h = -(M + q * E) @ fx[..., :d_z, :]

        G1[t], G2[t], H[t] = g1, g2, h[..., 0]
        Fs[t], Ks[t], Ms[t], Es[t] = F, K, M, E

        # P' = G'QG + G'L + L'G + D'(P + disc W)D
        gain = exchangeable_map(eps, g1, g2, g2, g1, g2)
        cost = exchangeable_form(eps, F, K, K.mT, Q3, Q4)
        gl = gain.mT @ L
        p_new = gain.mT @ cost @ gain + gl + gl.mT + drift.mT @ pd
        h_col = np.concatenate([h, h], axis=-2)
        s_new = gain.mT @ (cost @ h_col + fx) + L.mT @ h_col + drift.mT @ x_hat

        a, b = p_new[..., :d_y, :d_y], p_new[..., :d_y, d_y:]
        c, d = p_new[..., d_y:, :d_y], p_new[..., d_y:, d_y:]
        delta = 0.0
        if any_tail:
            # the tail update, with tails g1 - eps Gam2, theta and Lam3 - Lam4
            g_til, p_til = g1 - eps * g2, lam3 - lam4
            gl_til = g_til.mT @ M1.mT @ p_til @ th
            delta = g_til.mT @ (Q3 - Q4) @ g_til + gl_til + gl_til.mT + th.T @ p_til @ th
            delta = np.where(tail, delta, 0.0)
        new4 = (d / q - eps * delta) / q
        new3 = new4 + delta
        new4 = np.where(tail, new4, 0.0)
        skew = (a - a.mT, (b - c.mT) / q, new3 - new3.mT, new4 - new4.mT)
        asym = np.maximum(asym, [np.max(np.abs(x), axis=(-2, -1)) for x in skew])
        lam[0, t] = 0.5 * (a + a.mT)
        lam[1, t] = 0.5 * (b + c.mT) / q
        lam[2, t] = 0.5 * (new3 + new3.mT)
        lam[3, t] = 0.5 * (new4 + new4.mT)
        chi[0, t] = s_new[..., :d_y, 0]
        chi[1, t] = (s_new[..., d_y:, :] / q)[..., 0]

    check_pass_finite(name, rounds, T, *lam, *chi, G1, G2, H, Fs, Ks, Ms, Es, label=entry_label)
    return LimitScaledPass(lam, chi, G1, G2, H, Fs, Ks, Ms, Es, asym)


def game_units(s: LimitScaledPass, n) -> tuple[np.ndarray, np.ndarray]:
    """Each entry's blocks and largest asymmetry in the units of its own
    game, with the symmetry warning its lone pass gives: Pi1..Pi4 = (A,
    B / N, Lam3 / N^2, Lam4 / N^2), stacked, at a finite N and the Lambda
    blocks themselves at the limit, N = inf. ``n`` is N, or a population
    stack's (P,) array of them."""
    finite = np.isfinite(n)
    k = np.where(finite, n, 1.0)
    kk = k[..., None, None]
    blocks = np.stack([s.blocks[0], s.blocks[1] / kk, s.blocks[2] / kk**2, s.blocks[3] / kk**2])
    a1, a2, a3, a4 = s.asymmetry
    max_asym = np.maximum(np.maximum(a1, a2 / k), np.maximum(a3, a4) / k**2)
    for name, pick in (("Pi", finite), ("Lambda", ~finite)):
        pick = np.broadcast_to(pick, np.shape(max_asym))
        if pick.any():
            check_symmetry(logger, name, max_asym[pick], blocks[:, :, pick])
    return blocks, max_asym


def reduced_backward_pass(params: GameParams, moments, targets: TargetSeries) -> ReducedCoeffs:
    """Backward pass over the repeating blocks Pi_i, Xi_i and gains: the
    structured pass at eps = 1/N, its blocks scaled back to their N-game
    units.

    Moments and targets may carry a round axis right after the time axis
    (m1 (T, R, d_y, d_z), values (T+1, R, d_y)); every round is then
    solved at once and the outputs carry the same round axis.
    """
    n = params.population_N
    if n < 2:
        raise ValueError("reduced solver requires N >= 2; route N = 1 to the full solver")
    return reduced_coeffs(params, structured_pass(params, moments, targets, n, "reduced"), n)


def reduced_coeffs(params: GameParams, s: LimitScaledPass, n: int) -> ReducedCoeffs:
    """The coefficients of a pass at eps = 1/n (a lone game or a round
    stack, such as one entry of a population stack), in the units of the
    n-agent game, with the symmetry warning of its lone pass."""
    Pi, max_asym = game_units(s, n)
    coeffs = ReducedCoeffs(
        *Pi,
        Xi1=s.forcing[0],
        Xi2=s.forcing[1] / n,
        G1N=s.g1,
        G2N=s.g2 / n,
        HN=s.h,
        FN=s.F,
        KN=s.K / n,
        MN=s.M,
        EN=s.E / n,
        dims=(n, params.dim_y, params.dim_z),
        max_asymmetry=float(max_asym) if max_asym.ndim == 0 else max_asym,
    )
    if n >= 3 and logger.isEnabledFor(logging.DEBUG):
        logger.debug("max_t ||Pi3 - Pi4|| = %.3e", np.max(coeffs.pi3_pi4_gap()))
    return coeffs


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
