"""Convergence diagnostics: finite-N coefficients and mean predictions
against their mean-field limits.

Two gaps are reported per population size N:

  * lambda gap: max over blocks of || Lam_i^N(t) - Lam_i(t) ||_F with the
    reduced solver's blocks rescaled by their asymptotic orders. This is
    deterministic and should shrink like 1/N.
  * mean-field gap: Monte-Carlo estimate of E || Y^(N)_t - Ybar_t || when
    N agents with independent bounded latents follow the decentralized
    policy. Shrinks like 1/sqrt(N).

The latent model here is the i.i.d.-entry one with closed-form moments,
so the measured gaps carry no moment-estimation bias.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .errors import DynamicsError
from .harness import check_finite
from .model import GameParams, IidEntryLatents, TargetSeries
from .nash_meanfield import (
    DecentralizedCoeffs,
    decentralized_backward_pass,
    lambda_gap,
    meanfield_forward,
)
from .nash_reduced import reduced_backward_pass, take_round
from .streams import SeedTable

logger = logging.getLogger(__name__)

# Agents that one Monte-Carlo batch advances together: the mean gap runs
# max(1, min(paths, MC_BATCH_AGENTS // N)) paths of N agents at a time, so
# the uniform buffer of a batch of several paths holds at most
# MC_BATCH_AGENTS d_y d_z entries, no more than one lone path at
# N = MC_BATCH_AGENTS, and a population at or above it runs one path at a
# time. Larger batches ran slower, presumably as their buffers leave the
# cache; smaller ones pay the per-step overhead of a few numpy calls on
# more batches.
MC_BATCH_AGENTS = 4096


@dataclass(frozen=True)
class ConvergenceScenario:
    """Scalar-friendly scenario for the N-grid diagnostics."""

    params: GameParams  # population_N is overridden per grid point
    targets: TargetSeries
    latent_mean: np.ndarray  # (T, d_y, d_z)
    latent_half_width: float = 0.5
    paths: int = 100

    def __post_init__(self):
        # one path gives no standard error, and none no mean
        if self.paths < 2:
            raise ValueError(f"paths must be at least 2, got {self.paths!r}")
        if not (math.isfinite(self.latent_half_width) and self.latent_half_width >= 0.0):
            raise ValueError(f"latent_half_width must be finite and >= 0, got {self.latent_half_width!r}")
        if not np.isfinite(self.latent_mean).all():
            raise ValueError("latent_mean must be finite")


@dataclass(frozen=True)
class GapRow:
    N: int
    t: int
    lambda_gap: float
    meanfield_gap: float
    stderr: float


@dataclass(frozen=True)
class GapReport:
    rows: tuple
    n_grid: tuple

    def per_n(self) -> list[dict]:
        """One summary row per N: max-over-t lambda gap, terminal
        mean-field gap with its standard error, and the within-2se
        monotonicity flag."""
        rows_by_n = [[r for r in self.rows if r.N == n] for n in self.n_grid]
        last = [max(rows, key=lambda r: r.t) for rows in rows_by_n]
        flags = monotone_flags([r.meanfield_gap for r in last], [r.stderr for r in last])
        return [
            {
                "N": n,
                "lambda_gap": max(r.lambda_gap for r in rows),
                "meanfield_gap": end.meanfield_gap,
                "stderr": end.stderr,
                "monotone_2se": ok,
            }
            for n, rows, end, ok in zip(self.n_grid, rows_by_n, last, flags)
        ]


def monotone_flags(gaps, stderrs) -> list[bool]:
    """Within-2se non-increase flags for a gap sequence."""
    flags = [True]
    for i in range(1, len(gaps)):
        tol = 2.0 * float(np.hypot(stderrs[i], stderrs[i - 1]))
        flags.append(gaps[i] <= gaps[i - 1] + tol)
    return flags


def mc_batch_size(N: int, paths: int) -> int:
    """Paths of N agents that ``_simulate_mean_gap`` advances together."""
    return max(1, min(paths, MC_BATCH_AGENTS // N))


def _simulate_mean_gap(
    params: GameParams,
    latents: IidEntryLatents,
    coeffs: DecentralizedCoeffs,
    ybar: np.ndarray,
    y0: np.ndarray,
    paths: int,
    seed: int,
    table: SeedTable | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-timestep Monte-Carlo mean and standard error of
    || mean prediction - Ybar || under the decentralized policy.

    Path p draws from the stream (seed, 31, p), generator p of ``table``
    (built from ``seed`` when not given). The paths run in batches of
    ``mc_batch_size(N, paths)``, in path order. A step of a batch is
    ``decentralized_action``, ``latents.sample`` and
    ``harness.step_dynamics`` fused into four matrix products and one
    einsum on buffers allocated once:

      * a path's predictions are the columns of a (d_y + 1, N) slice of
        a (B, d_y + 1, N) stack whose last rows are ones, so the action
        G1 y + G2 Ybar_t + H and the affine part of the dynamics are each
        one matrix product over the stack;
      * ``latents.sample`` draws Z = (M_t - h) + 2h U with U uniform on
        [0, 1); each path fills its own (N, d_y, d_z) slice of one
        uniform buffer from its own stream, and Z beta = 2h U beta +
        (M_t - h) beta, whose second term folds into the affine part, so
        Z is never formed;
      * the population means are one product with a 1/N vector, and
        their finiteness is the batch's finite check;
      * the squared gaps ``d.dot(d)``, the product ``np.linalg.norm``
        takes, are one stacked product after the batch's last step, and
        one ``np.sqrt`` at the end gives the norms.

    numpy's matmul runs the same kernel on each matrix of a stack as on a
    lone one, and the einsum sums each path's entries in the same order,
    so every path's gaps are those of a batch of one, bit for bit. A
    batch whose means are not finite runs again one path at a time, and
    ``harness.check_finite`` names the agent of the first failing path at
    its first failing step, as a loop over lone paths would.

    Results differ from the unfused loop (``tests/oracles.py``,
    ``reference_mean_gap``) by reassociation only.
    """
    N, d_y, d_z, T = params.population_N, params.dim_y, params.dim_z, params.horizon_T
    h = latents.half_width
    if table is None:
        table = SeedTable((seed, 31), paths)
    # step t's action on [y; 1]: G1_t y + (G2_t Ybar_t + H_t)
    act = np.concatenate([coeffs.G1, coeffs.G2 @ ybar[:T, :, None] + coeffs.H[..., None]], axis=2)
    # step t's dynamics on [y; 1] less the mean and 2h U beta terms:
    # theta y + (M_t - h) beta
    affine = (latents.mean - h) @ act
    affine[:, :, :d_y] += params.theta
    act *= 2.0 * h  # from here on, the action times 2h
    weights = np.full(N, 1.0 / N)
    batch = mc_batch_size(N, paths)
    u = np.empty((batch, N, d_y, d_z))
    beta = np.empty((batch, d_z, N))
    noise = np.empty((batch, d_y, N))
    step = np.empty((batch, d_y, d_y + 1))
    drift = np.empty((batch, d_y, 1))
    stacks = np.ones((batch, d_y + 1, N)), np.ones((batch, d_y + 1, N))
    means = np.empty((T + 1, batch, d_y))

    def advance(first: int, count: int):
        """Squared gaps (count, T) of paths first.. first + count - 1, or
        None once a batch of several has a non-finite mean."""
        rngs = [table.rng(p) for p in range(first, first + count)]
        cols, nxt = (s[:count] for s in stacks)
        cols[:, :d_y] = y0[:, None]
        np.matmul(cols[:, :d_y], weights, out=means[0, :count])
        for t in range(T):
            for b, rng in enumerate(rngs):
                rng.random(out=u[b])
            np.matmul(act[t], cols, out=beta[:count])
            np.einsum("pnij,pjn->pin", u[:count], beta[:count], out=noise[:count])
            step[:count] = affine[t]
            np.matmul(params.theta_bar, means[t, :count, :, None], out=drift[:count])
            step[:count, :, d_y:] += drift[:count]
            preds = nxt[:, :d_y]
            np.matmul(step[:count], cols, out=preds)
            preds += noise[:count]
            mean = means[t + 1, :count]
            np.matmul(preds, weights, out=mean)
            if not math.isfinite(np.add.reduce(mean, axis=None)):
                if count > 1:
                    return None
                try:
                    check_finite(preds[0].T, mean[0])
                except DynamicsError as exc:
                    raise DynamicsError(f"{exc} at N={N}, path {first}, step {t}") from exc
            cols, nxt = nxt, cols
        diff = means[1:, :count] - ybar[1 : T + 1, None]
        return np.matmul(diff[..., None, :], diff[..., None])[..., 0, 0].T

    gaps = np.zeros((paths, T + 1))
    for first in range(0, paths, batch):
        count = min(batch, paths - first)
        sq = advance(first, count)
        if sq is None:
            sq = np.concatenate([advance(p, 1) for p in range(first, first + count)])
        gaps[first : first + count, 1:] = sq
    gaps = np.sqrt(gaps)
    return gaps.mean(axis=0), gaps.std(axis=0, ddof=1) / np.sqrt(paths)


def limit_gap_diagnostic(n_grid, seed: int, scenario: ConvergenceScenario) -> GapReport:
    """Coefficient and mean-field gaps over a population grid; ``seed``
    keys the Monte-Carlo paths of the mean-field gap.

    One reduced pass solves the whole grid as a population stack
    (``reduced_backward_pass(..., n_grid=...)``), and each N's
    coefficients are its ``take_round`` slice, bit-identical to a pass at
    that N alone. Under INFO logging the limit pass, the stacked pass and
    each N's Monte-Carlo loop report their wall time.
    """
    latents = IidEntryLatents(mean=scenario.latent_mean, half_width=scenario.latent_half_width)
    # the path streams' keys hold no N: one table serves the whole grid
    table = SeedTable((seed, 31), scenario.paths)
    moments = latents.exact_moments()
    base = scenario.params
    n_grid = tuple(int(n) for n in n_grid)
    start = time.perf_counter()
    limit = decentralized_backward_pass(base, moments, scenario.targets)
    y0 = scenario.targets.values[0]
    ybar = meanfield_forward(limit, moments, y0).ybar
    logger.info("convergence limit pass: %.3f s", time.perf_counter() - start)
    start = time.perf_counter()
    stack = reduced_backward_pass(base, moments, scenario.targets, n_grid=n_grid)
    logger.info(
        "convergence reduced pass, %d populations stacked: %.3f s",
        len(n_grid),
        time.perf_counter() - start,
    )

    lams = [lambda_gap(take_round(stack, p), limit) for p in range(len(n_grid))]
    # freed before the Monte-Carlo buffers are allocated: kept alive, the
    # stack's per-step F, K, M, E arrays added to the command's peak RSS
    del stack

    rows = []
    for n, lam in zip(n_grid, lams):
        start = time.perf_counter()
        mf_mean, mf_se = _simulate_mean_gap(
            replace(base, population_N=n), latents, limit, ybar, y0, scenario.paths, seed, table
        )
        logger.info(
            "convergence N=%d: Monte-Carlo mean gap %.3f s (%d paths, %d per batch)",
            n,
            time.perf_counter() - start,
            scenario.paths,
            mc_batch_size(n, scenario.paths),
        )
        for t in range(base.horizon_T + 1):
            rows.append(
                GapRow(
                    N=n,
                    t=t,
                    lambda_gap=float(lam[t]),
                    meanfield_gap=float(mf_mean[t]),
                    stderr=float(mf_se[t]),
                )
            )
    return GapReport(rows=tuple(rows), n_grid=n_grid)
