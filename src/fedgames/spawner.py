"""Evolutionary pool management: rank, retire, resample, reweigh.

Scores are squared prediction errors. The retained agents' weights are
updated by the closed-form Gibbs posterior

    w*_i  proportional to  exp(-lambda s_i) prior_i,

which is the unique minimizer of the score-plus-KL variational over the
retained simplex. Weights are carried between rounds as log weights, so
a retained agent's mass never rounds to zero however large lambda times
its score gap grows. Retired slots are refilled by draws from the mixture

    sum_i w_i Normal(theta_(i), sigma_t (1 - w_(i)) / (N - K) I),

so replacements concentrate near the strongest retained agents with
vanishing exploration as a retained agent dominates.

Respawned encoders can optionally have their latent maps steered away
from the retained agents' features while still tracking the target: the
steering matrix solves a sphere-constrained quadratic program (built in
``build_ortho_problem``, solved in ``ortho_solve`` via eigenvalue
decomposition plus safeguarded root finding on the secular equation).
The program is assembled from the two populations' Gram tensors, so a
round costs O(N d_y^2 d_z^2 + d_z^6), not O(K (N - K) d_z^4).
"""

from __future__ import annotations

import functools
import logging
import math
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


def gibbs_reweigh(log_prior: np.ndarray, scores: np.ndarray, lam: float):
    """Closed-form Gibbs posterior over the retained agents, from their
    log prior weights. Returns ``(post, log_post)``; ``log_post`` is
    exact where ``post`` underflows to zero."""
    log_prior = np.asarray(log_prior, dtype=float)
    scores = np.asarray(scores, dtype=float)
    if log_prior.shape != scores.shape:
        raise ValueError("prior and scores must align")
    if not np.isfinite(log_prior).all():
        raise DegenerateError("prior must be strictly positive on the retained set")
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    logw = log_prior - lam * scores
    logw -= np.maximum.reduce(logw)
    w = np.exp(logw)
    total = float(np.add.reduce(w))
    if not 0 < total < math.inf:
        raise DegenerateError("posterior has no mass")
    return w / total, logw - math.log(total)


def rank_ascending(scores: np.ndarray) -> np.ndarray:
    """Indices sorted by score ascending; ties broken by agent index."""
    scores = np.asarray(scores, dtype=float)
    return np.argsort(scores, kind="stable")


# the tolerance of ``Generator.choice`` on the sum of its probabilities
_CHOICE_ATOL = math.sqrt(np.finfo(float).eps)


def resample_parameters(
    flat_params: np.ndarray,
    scores: np.ndarray,
    log_prior: np.ndarray,
    lam: float,
    sigma_t: float,
    retire_K: int,
    rng: np.random.Generator,
):
    """Retire the K worst parameter vectors and draw replacements.

    Returns (new_rows, retained_idx, retired_idx, posterior,
    log_posterior) where ``new_rows`` (K, dim) are the replacements of
    the retired slots, in ``retired_idx`` order, and ``posterior`` is the
    Gibbs reweighing over the retained agents used as the mixture
    weights. Each retired slot, in order, draws one uniform for its
    mixture component (the draw of ``rng.choice(N - K, p=posterior)``)
    and then ``dim`` standard normals.
    """
    flat_params = np.asarray(flat_params, dtype=float)
    scores = np.asarray(scores, dtype=float)
    N, dim = flat_params.shape
    if not 1 <= retire_K < N:
        raise ValueError("retire_K must satisfy 1 <= K < N")
    order = rank_ascending(scores)
    retained_idx = order[: N - retire_K]
    retired_idx = order[N - retire_K :]
    post, log_post = gibbs_reweigh(np.asarray(log_prior, dtype=float)[retained_idx], scores[retained_idx], lam)
    # the check and the cdf of rng.choice(p=post), once for all slots;
    # post is nonnegative by construction, so only its sum is checked
    cdf = post.cumsum()
    if not abs(cdf[-1] - 1.0) <= _CHOICE_ATOL:
        raise ValueError("probabilities do not sum to 1")
    cdf /= cdf[-1]
    uniforms = np.empty(retire_K)
    normals = np.empty((retire_K, dim))
    for i in range(retire_K):
        uniforms[i] = rng.random()
        rng.standard_normal(out=normals[i])
    picks = cdf.searchsorted(uniforms, side="right")
    var = sigma_t * (1.0 - post[picks]) / (N - retire_K)
    new_rows = flat_params[retained_idx[picks]] + np.sqrt(var)[:, None] * normals
    return new_rows, retained_idx, retired_idx, post, log_post


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
    stacked (count, d_y, d_z). The pair sum factors through the Gram
    tensors C[i, a, j, c] = sum_m Z_m[i, a] Z_m[j, c] of the two
    populations: entry (a + b d_z, c + e d_z) of Q is
    sum_ij Cm[i, a, j, c] (Cn[i, b, j, e] + zeta1 [i = j] beta_b beta_e),
    so no pair is formed. ``xi_I`` is shared by every problem of its d_z
    and read-only.
    """
    beta = np.asarray(beta, dtype=float).reshape(-1)
    y = np.asarray(y, dtype=float).reshape(-1)
    d_z = beta.shape[0]
    dim = d_z * d_z
    zm = np.asarray(respawned_Z, dtype=float)
    zn = np.asarray(retained_Z, dtype=float)
    d_y = zm.shape[1]
    cm = _gram(zm).reshape(d_y, d_z, d_y, d_z)
    cn = _gram(zn).reshape(d_y, d_z, d_y, d_z)
    c = np.zeros(dim)
    if zeta1 > 0:
        tracking = zeta1 * (beta[:, None] * beta)
        for i in range(d_y):
            cn[i, :, i, :] += tracking
        # H_m' y = beta kron Z_m' y, column-stacked like vec
        c = (-2.0 * zeta1) * (beta[:, None] * (y @ np.add.reduce(zm, axis=0))).reshape(dim)
    Q = np.einsum("iajc,ibje->baec", cm, cn).reshape(dim, dim)
    return OrthoProblem(Q=Q, c=c, xi_I=_vec_eye(d_z), d_z=d_z, zeta1=zeta1)


@functools.cache
def _vec_eye(d: int) -> np.ndarray:
    """vec of the (d, d) identity, read-only: one per d, shared."""
    xi = vec(np.eye(d))
    xi.flags.writeable = False
    return xi


def _gram(z: np.ndarray) -> np.ndarray:
    """(d_y d_z, d_y d_z) sum over the stack of the outer products of the
    row-major flattened Z."""
    flat = z.reshape(z.shape[0], -1)
    return flat.T @ flat


def _secular_root(evals, g2, zeta2_sq, lam_lo, lam_hi, iters=200):
    """Solve sum g2_i / (evals_i + lam)^2 = zeta2^2 on (lam_lo, lam_hi).

    Safeguarded Newton on 1/sqrt(f) - 1/zeta2 (nearly linear in lam),
    falling back to bisection whenever the Newton step leaves the bracket.
    It stops once the Newton step, or the bracket, is below 1e-15 relative
    (absolute below 1); testing the step before the bracket keeps an
    iterate that rounding has put just past the root from restarting a
    bisection. ``evals`` and ``g2`` are sequences of Python floats, and
    each iteration takes f and f' from one pass over the shifted
    eigenvalues.
    """
    target = math.sqrt(zeta2_sq)
    lo, hi = lam_lo, lam_hi
    lam = 0.5 * (lo + hi)
    for _ in range(iters):
        val = slope = 0.0
        for e, g in zip(evals, g2):
            shifted = e + lam
            term = g / (shifted * shifted)
            val += term
            slope += term / shifted
        if val > zeta2_sq:
            lo = lam
        else:
            hi = lam
        # h = 1/sqrt(f) - 1/zeta2 has h' = f^(-3/2) sum g2/shifted^3, so
        # the Newton step -h/h' is (sqrt(f)/zeta2 - 1) f / sum g2/shifted^3
        nxt = lam + (math.sqrt(val) / target - 1.0) * val / slope if slope > 0 else math.nan
        tol = 1e-15 * max(1.0, abs(lam))
        if abs(nxt - lam) <= tol:
            return nxt
        if hi - lo <= tol:
            return lam
        if not lo < nxt < hi:  # also taken by a nan step
            nxt = 0.5 * (lo + hi)
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
    Q = prob.Q + prob.Q.T
    Q *= 0.5
    half_c = 0.5 * prob.c
    evals, evecs = np.linalg.eigh(Q)
    # the eigenbasis work is on d_z^2 scalars: Python floats from here on
    ev = evals.tolist()
    g_rot = (evecs.T @ (Q @ prob.xi_I + half_c)).tolist()
    g2 = [g * g for g in g_rot]
    lam_min = ev[0]
    zeta2_sq = zeta2 * zeta2

    # eigh sorts ascending, so the bottom eigenspace is a leading block
    tol = 1e-12 * max(1.0, abs(lam_min))
    n_bottom = 1
    while n_bottom < len(ev) and ev[n_bottom] - lam_min <= tol:
        n_bottom += 1
    g2_total = sum(g2)
    # hard case: no forcing on the bottom eigenspace, and the secular
    # function's limit at lam = -lam_min undershoots the radius
    hard = sum(g2[:n_bottom]) <= 1e-28 * max(1.0, g2_total) and (
        sum(g / ((e - lam_min) * (e - lam_min)) for e, g in zip(ev[n_bottom:], g2[n_bottom:])) <= zeta2_sq
    )
    if hard:
        # fill the leftover radius along the bottom eigenvector
        lam_star = -lam_min
        u_rot = [0.0] * n_bottom + [-g / (e + lam_star) for e, g in zip(ev[n_bottom:], g_rot[n_bottom:])]
        residual_sq = zeta2_sq - sum(u * u for u in u_rot)
        u_rot[0] += math.sqrt(max(residual_sq, 0.0))
    else:
        # strictly decreasing secular function on (-lam_min, inf):
        # ||g|| / (lam + lam_min) >= sqrt(f) gives the right bracket
        lam_lo = math.nextafter(-lam_min, math.inf)
        lam_hi = -lam_min + math.sqrt(g2_total) / zeta2 + 1e-12
        lam_star = _secular_root(ev, g2, zeta2_sq, lam_lo, lam_hi)
        u_rot = [-g / (e + lam_star) for e, g in zip(ev, g_rot)]

    step = evecs @ np.array(u_rot)
    xi = prob.xi_I + step
    # KKT: (Q + lam I) xi = lam xi_I - c/2
    residual = Q @ xi + lam_star * step + half_c
    kkt = math.sqrt(float(residual @ residual))
    constraint = abs(math.sqrt(float(step @ step)) - zeta2)
    if hard:
        logger.info("ortho_solve hard case: lambda* = -lambda_min = %.6g", lam_star)
    return OrthoSolution(
        A_star=unvec(xi, d),
        lambda_star=lam_star,
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
