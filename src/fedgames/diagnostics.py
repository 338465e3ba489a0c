"""Convergence diagnostics: finite-N coefficients and mean predictions
against their mean-field limits.

Two gaps are reported per population size N:

  * lambda gap: max over blocks of || Lam_i^N(t) - Lam_i(t) ||_F, the
    blocks in limit scaling (each multiplied by its order in N), where
    one structured pass holds the whole grid and the limit. This is
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
import operator
import time
from dataclasses import dataclass, replace

import numpy as np

from .errors import NONNEGATIVE, SEED, DynamicsError, check_fields
from .harness import check_finite
from .model import GameParams, IidEntryLatents, TargetSeries
from .nash_meanfield import DecentralizedCoeffs, limit_coeffs, meanfield_forward
from .nash_meanfield import decentralized_backward_pass  # noqa: F401  (perfbench's tracer names it; not called)
from .nash_reduced import game_units, structured_pass
from .nash_reduced import reduced_backward_pass  # noqa: F401  (perfbench's tracer names it; not called)
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
    """What `fedgames convergence` runs: the game, whose population_N
    every N of ``n_grid`` overrides; its targets; the latent model, whose
    mean, a number or an array, is filled into a (T, d_y, d_z) array; and
    the Monte-Carlo paths, keyed by ``seed``."""

    params: GameParams
    targets: TargetSeries
    latent_mean: np.ndarray | float = 0.8
    latent_half_width: float = 0.5
    paths: int = 100
    n_grid: tuple = (4, 16, 64)
    seed: int = 0

    def __post_init__(self):
        # one path gives no standard error, and none no mean
        if self.paths < 2:
            raise ValueError(f"paths must be at least 2, got {self.paths!r}")
        check_fields(self, NONNEGATIVE, "latent_half_width")
        check_fields(self, SEED, "seed")
        try:
            grid = tuple(operator.index(n) for n in self.n_grid)
        except TypeError:
            grid = ()
        # a float is rejected rather than truncated, and a repeated N
        # would be solved and simulated twice
        if not grid or min(grid) < 2 or len(set(grid)) < len(grid):
            raise ValueError(
                f"n_grid must be a non-empty sequence of integers N >= 2, each distinct, got {self.n_grid!r}"
            )
        p = self.params
        # a copy, not a broadcast view: the Monte-Carlo products' last bits
        # depend on the strides
        mean = np.full((p.horizon_T, p.dim_y, p.dim_z), self.latent_mean, dtype=float)
        if not np.isfinite(mean).all():
            raise ValueError("latent_mean must be finite")
        object.__setattr__(self, "n_grid", grid)
        object.__setattr__(self, "latent_mean", mean)


@dataclass(frozen=True)
class GapReport:
    """Each gap per (N, t), row p of an array holding N = n_grid[p]: the
    lambda gap and the Monte-Carlo mean-field gap with its standard error,
    each (P, T+1)."""

    n_grid: tuple
    lambda_gap: np.ndarray
    meanfield_gap: np.ndarray
    stderr: np.ndarray

    def per_n(self) -> list[dict]:
        """One summary row per N: max-over-t lambda gap, terminal
        mean-field gap with its standard error, and the within-2se
        monotonicity flag."""
        lams = self.lambda_gap.max(axis=1).tolist()
        ends = self.meanfield_gap[:, -1].tolist()
        ses = self.stderr[:, -1].tolist()
        flags = monotone_flags(ends, ses)
        return [
            {"N": n, "lambda_gap": lam, "meanfield_gap": end, "stderr": se, "monotone_2se": ok}
            for n, lam, end, se, ok in zip(self.n_grid, lams, ends, ses, flags)
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


def coefficient_gaps(
    params: GameParams, moments, targets: TargetSeries, grid: tuple[int, ...]
) -> tuple[np.ndarray, DecentralizedCoeffs]:
    """Each N's lambda gaps, (T+1, P), and the limit's coefficients, from
    one structured pass over the population stack eps = 1/N for each N of
    ``grid`` (integers >= 2), then 0.

    Each entry equals the lone pass at its N (the limit:
    ``decentralized_backward_pass``) bit for bit, warns as that pass
    would, and a failing entry is named N=<n> (the limit N=inf). The gap
    max_i ||Lam_i(t, N) - Lam_i(t)||_F is a difference of the stack's
    blocks in limit scaling. The limit's arrays are copied out, so the
    stack, with every entry's per-step F, K, M and E, is freed on return.
    """
    ns = (*grid, math.inf)
    n = np.array(ns)
    s = structured_pass(params, moments, targets, 1 / n[:, None, None], "reduced", lambda p: f"N={ns[p]}")
    _, max_asym = game_units(s, n)
    gaps = np.linalg.norm(s.blocks[:, :, :-1] - s.blocks[:, :, -1:], axis=(-2, -1)).max(axis=0)
    return gaps, limit_coeffs(params, s.entry(-1), max_asym[-1])


def limit_gap_diagnostic(scenario: ConvergenceScenario) -> GapReport:
    """Coefficient and mean-field gaps over the scenario's population grid.

    ``coefficient_gaps`` solves the whole grid and the limit in one pass,
    whose stack is freed before the Monte-Carlo buffers are allocated.
    Under INFO logging that pass and each N's Monte-Carlo loop report
    their wall time.
    """
    grid, paths, seed = scenario.n_grid, scenario.paths, scenario.seed
    latents = IidEntryLatents(mean=scenario.latent_mean, half_width=scenario.latent_half_width)
    # the path streams' keys hold no N: one table serves the whole grid
    table = SeedTable((seed, 31), paths)
    moments = latents.exact_moments()
    base = scenario.params
    start = time.perf_counter()
    lams, limit = coefficient_gaps(base, moments, scenario.targets, grid)
    y0 = scenario.targets.values[0]
    ybar = meanfield_forward(limit, moments, y0)
    logger.info(
        "convergence pass, %d populations and the limit: %.3f s", len(grid), time.perf_counter() - start
    )

    gaps = []
    for N in grid:
        start = time.perf_counter()
        gaps.append(_simulate_mean_gap(replace(base, population_N=N), latents, limit, ybar, y0, paths, seed, table))
        logger.info(
            "convergence N=%d: Monte-Carlo mean gap %.3f s (%d paths, %d per batch)",
            N,
            time.perf_counter() - start,
            paths,
            mc_batch_size(N, paths),
        )
    mean, stderr = np.swapaxes(gaps, 0, 1)
    return GapReport(n_grid=grid, lambda_gap=lams.T, meanfield_gap=mean, stderr=stderr)
