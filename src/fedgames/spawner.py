"""Evolutionary pool management: rank, retire, resample, reweigh.

Scores are squared prediction errors. The retained agents' weights are
updated by the closed-form Gibbs posterior

    w*_i  proportional to  exp(-lambda s_i) prior_i,

which is the unique minimizer of the score-plus-KL variational over the
retained simplex. Retired slots are refilled by draws from the mixture

    sum_i w_i Normal(theta_(i), sigma_t (1 - w_(i)) / (N - K) I),

so replacements concentrate near the strongest retained agents with
vanishing exploration as a retained agent dominates.

Respawned encoders can optionally have their latent maps steered away
from the retained agents' features while still tracking the target: the
steering matrix solves a sphere-constrained quadratic program (built in
``build_ortho_problem``, solved in ``ortho_solve`` via eigenvalue
decomposition plus safeguarded root finding on the secular equation).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateError, SolveError

logger = logging.getLogger(__name__)


def score_agents(target_next, predictions_next) -> np.ndarray:
    """Squared prediction error per agent at one step."""
    y = np.asarray(target_next, dtype=float).reshape(1, -1)
    preds = np.atleast_2d(np.asarray(predictions_next, dtype=float))
    diff = preds - y
    return np.einsum("nd,nd->n", diff, diff)


def gibbs_reweigh(prior: np.ndarray, scores: np.ndarray, lam: float) -> np.ndarray:
    """Closed-form Gibbs posterior over the retained agents."""
    prior = np.asarray(prior, dtype=float)
    scores = np.asarray(scores, dtype=float)
    if prior.shape != scores.shape:
        raise ValueError("prior and scores must align")
    if np.any(prior <= 0):
        raise DegenerateError("prior must be strictly positive on the retained set")
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    logw = np.log(prior) - lam * scores
    logw -= logw.max()
    w = np.exp(logw)
    total = w.sum()
    if total <= 0 or not np.isfinite(total):
        raise DegenerateError("posterior has no mass")
    return w / total


def rank_ascending(scores: np.ndarray) -> np.ndarray:
    """Indices sorted by score ascending; ties broken by agent index."""
    scores = np.asarray(scores, dtype=float)
    return np.argsort(scores, kind="stable")


def resample_parameters(
    flat_params: np.ndarray,
    scores: np.ndarray,
    prior: np.ndarray,
    lam: float,
    sigma_t: float,
    retire_K: int,
    rng: np.random.Generator,
):
    """Retire the K worst parameter vectors and draw replacements.

    Returns (new_params, retained_idx, retired_idx, posterior) where
    ``posterior`` is the Gibbs reweighing over the retained agents used as
    the mixture weights.
    """
    flat_params = np.asarray(flat_params, dtype=float)
    N, dim = flat_params.shape
    if not 1 <= retire_K < N:
        raise ValueError("retire_K must satisfy 1 <= K < N")
    order = rank_ascending(scores)
    retained_idx = order[: N - retire_K]
    retired_idx = order[N - retire_K :]
    post = gibbs_reweigh(
        np.asarray(prior, dtype=float)[retained_idx],
        np.asarray(scores, dtype=float)[retained_idx],
        lam,
    )
    new_params = flat_params.copy()
    for slot in retired_idx:
        pick = rng.choice(retained_idx.shape[0], p=post)
        centre = flat_params[retained_idx[pick]]
        var = sigma_t * (1.0 - post[pick]) / (N - retire_K)
        new_params[slot] = centre + np.sqrt(var) * rng.standard_normal(dim)
    return new_params, retained_idx, retired_idx, post


@dataclass(frozen=True)
class OrthoProblem:
    """Flattened sphere-constrained quadratic program for feature steering."""

    Q: np.ndarray  # (d^2, d^2) PSD
    c: np.ndarray  # (d^2,)
    xi_I: np.ndarray  # vec of the identity
    d_z: int
    zeta1: float


@dataclass(frozen=True)
class OrthoSolution:
    A_star: np.ndarray
    lambda_star: float
    kkt_residual: float
    constraint_residual: float
    hard_case: bool


def vec(a: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization (matches vec(ZAb) = (b' kron Z) vec A)."""
    return np.asarray(a, dtype=float).flatten(order="F")


def unvec(x: np.ndarray, d: int) -> np.ndarray:
    return np.asarray(x, dtype=float).reshape((d, d), order="F")


def build_ortho_problem(retained_Z, respawned_Z, beta, y, zeta1: float) -> OrthoProblem:
    """Assemble Q, c from cross-feature alignments and target tracking.

    Q = sum_{m in respawned} sum_{n in retained} v_mn v_mn' + zeta1 sum_m H_m' H_m
    c = -2 zeta1 sum_m H_m' y
    with v_mn = vec(Z_m' Z_n) and H_m = beta' kron Z_m. The latents are
    stacked (count, d_y, d_z); every (m, n) pair is formed in one product.
    """
    beta = np.asarray(beta, dtype=float).reshape(-1)
    y = np.asarray(y, dtype=float).reshape(-1)
    d_z = beta.shape[0]
    dim = d_z * d_z
    zm = np.asarray(respawned_Z, dtype=float)
    zn = np.asarray(retained_Z, dtype=float)
    # vec(Zm' Zn) is column-stacked: entry (a, b) lands at a + b d_z
    V = np.einsum("mia,nib->mnba", zm, zn).reshape(-1, dim)
    Q = V.T @ V
    c = np.zeros(dim)
    if zeta1 > 0:
        H = np.einsum("j,mia->mija", beta, zm).reshape(zm.shape[0], zm.shape[1], dim)
        Q = Q + zeta1 * np.einsum("mip,miq->pq", H, H)
        c = -2.0 * zeta1 * np.einsum("mip,i->p", H, y)
    return OrthoProblem(Q=Q, c=c, xi_I=vec(np.eye(d_z)), d_z=d_z, zeta1=zeta1)


def _secular_root(evals, g2, zeta2_sq, lam_lo, lam_hi, iters=200):
    """Solve sum g2_i / (evals_i + lam)^2 = zeta2^2 on (lam_lo, lam_hi).

    Safeguarded Newton on 1/sqrt(f) - 1/zeta2 (nearly linear in lam),
    falling back to bisection whenever the Newton step leaves the bracket.
    """
    target = np.sqrt(zeta2_sq)

    def f(lam):
        return np.sum(g2 / (evals + lam) ** 2)

    lo, hi = lam_lo, lam_hi
    lam = 0.5 * (lo + hi)
    for _ in range(iters):
        val = f(lam)
        if val > zeta2_sq:
            lo = lam
        else:
            hi = lam
        norm = np.sqrt(val)
        h = 1.0 / norm - 1.0 / target
        dh = np.sum(g2 / (evals + lam) ** 3) / norm**3  # h'(lam)
        step = -h / dh if dh != 0 else 0.0
        nxt = lam + step
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
        if abs(nxt - lam) <= 1e-15 * max(1.0, abs(lam)):
            return nxt
        lam = nxt
    return lam


def ortho_solve(prob: OrthoProblem, zeta2: float) -> OrthoSolution:
    """Global minimizer of xi'Q xi + c'xi subject to ||xi - xi_I|| = zeta2.

    zeta2 = 0 pins the solution at the identity. Otherwise the minimizer
    lies on the rightmost multiplier branch lam > -lambda_min(Q) where the
    secular function is strictly decreasing; if the forcing vector has no
    component on the bottom eigenspace and the interior limit undershoots
    the radius (hard case), the remaining radius is taken along the
    lowest eigenvector with a deterministic positive orientation.
    """
    if zeta2 < 0:
        raise ValueError("zeta2 must be nonnegative")
    d = prob.d_z
    if zeta2 == 0.0:
        return OrthoSolution(
            A_star=np.eye(d),
            lambda_star=0.0,
            kkt_residual=0.0,
            constraint_residual=0.0,
            hard_case=False,
        )
    Q = 0.5 * (prob.Q + prob.Q.T)
    evals, evecs = np.linalg.eigh(Q)
    g = Q @ prob.xi_I + 0.5 * prob.c
    g_rot = evecs.T @ g
    g2 = g_rot**2
    lam_min = evals[0]
    zeta2_sq = zeta2 * zeta2

    bottom = np.abs(evals - lam_min) <= 1e-12 * max(1.0, abs(lam_min))
    interior = ~bottom
    hard_limit = float(np.sum(g2[interior] / (evals[interior] - lam_min) ** 2)) if np.any(
        interior
    ) else 0.0
    no_bottom_force = float(np.sum(g2[bottom])) <= 1e-28 * max(1.0, float(np.sum(g2)))

    if no_bottom_force and hard_limit <= zeta2_sq:
        # hard case: fill the leftover radius along the bottom eigenvector
        lam_star = -lam_min
        u_rot = np.zeros_like(g_rot)
        u_rot[interior] = -g_rot[interior] / (evals[interior] + lam_star)
        residual_sq = zeta2_sq - float(np.sum(u_rot[interior] ** 2))
        tau = np.sqrt(max(residual_sq, 0.0))
        direction = np.flatnonzero(bottom)[0]
        u_rot[direction] += tau
        hard = True
    else:
        # strictly decreasing secular function on (-lam_min, inf):
        # ||g|| / (lam + lam_min) >= sqrt(f) gives the right bracket
        norm_g = np.sqrt(float(np.sum(g2)))
        lam_lo = -lam_min + 1e-300
        lam_hi = -lam_min + norm_g / zeta2 + 1e-12
        lam_star = _secular_root(evals, g2, zeta2_sq, lam_lo, lam_hi)
        u_rot = -g_rot / (evals + lam_star)
        hard = False

    xi = prob.xi_I + evecs @ u_rot
    kkt = float(
        np.linalg.norm((Q + lam_star * np.eye(Q.shape[0])) @ xi - (lam_star * prob.xi_I - 0.5 * prob.c))
    )
    constraint = abs(float(np.linalg.norm(xi - prob.xi_I)) - zeta2)
    if hard:
        logger.info("ortho_solve hard case: lambda* = -lambda_min = %.6g", lam_star)
    return OrthoSolution(
        A_star=unvec(xi, d),
        lambda_star=float(lam_star),
        kkt_residual=kkt,
        constraint_residual=constraint,
        hard_case=hard,
    )


def ortho_objective(prob: OrthoProblem, xi: np.ndarray) -> float:
    xi = np.asarray(xi, dtype=float).reshape(-1)
    return float(xi @ (0.5 * (prob.Q + prob.Q.T)) @ xi + prob.c @ xi)


def resolvent_check(Q: np.ndarray, lambda1: float, lambda2: float) -> float:
    """Deviation of (Q+l1)^-1 - (Q+l2)^-1 from (l2-l1)(Q+l2)^-1(Q+l1)^-1."""
    Q = np.asarray(Q, dtype=float)
    eye = np.eye(Q.shape[0])
    try:
        inv1 = np.linalg.inv(Q + lambda1 * eye)
        inv2 = np.linalg.inv(Q + lambda2 * eye)
    except np.linalg.LinAlgError as exc:
        raise SolveError("singular shift in resolvent check") from exc
    return float(np.linalg.norm(inv1 - inv2 - (lambda2 - lambda1) * inv2 @ inv1))
