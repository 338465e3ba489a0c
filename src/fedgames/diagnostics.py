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

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ConvergenceScenario:
    """Scalar-friendly scenario for the N-grid diagnostics."""

    params: GameParams  # population_N is overridden per grid point
    targets: TargetSeries
    latent_mean: np.ndarray  # (T, d_y, d_z)
    latent_half_width: float = 0.5
    paths: int = 100


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


def _simulate_mean_gap(
    params: GameParams,
    latents: IidEntryLatents,
    coeffs: DecentralizedCoeffs,
    ybar: np.ndarray,
    y0: np.ndarray,
    paths: int,
    seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-timestep Monte-Carlo mean and standard error of
    || mean prediction - Ybar || under the decentralized policy.

    Paths run one at a time, path p on the stream (seed, 31, p). A step
    is ``decentralized_action``, ``latents.sample`` and
    ``harness.step_dynamics`` fused into three matrix products and one
    einsum on buffers allocated once:

      * the predictions are the columns of a (d_y + 1, N) array whose
        last row is ones, so the action G1 y + G2 Ybar_t + H and the
        affine part of the dynamics are each one matrix product;
      * ``latents.sample`` draws Z = (M_t - h) + 2h U with U uniform on
        [0, 1); U is drawn from the same stream into one (N, d_y, d_z)
        buffer, and Z beta = 2h U beta + (M_t - h) beta, whose second
        term folds into the affine part, so Z is never formed;
      * the population mean is one product with a 1/N vector, and its
        finiteness is the step's finite check (``harness.check_finite``);
      * a step stores the squared gap ``d.dot(d)``, the product
        ``np.linalg.norm`` takes, and one ``np.sqrt`` after the loop
        gives the same norms.

    Results differ from the unfused loop (``tests/oracles.py``,
    ``reference_mean_gap``) by reassociation only.
    """
    N, d_y, d_z, T = params.population_N, params.dim_y, params.dim_z, params.horizon_T
    h = latents.half_width
    # step t's action on [y; 1]: G1_t y + (G2_t Ybar_t + H_t)
    act = np.concatenate([coeffs.G1, coeffs.G2 @ ybar[:T, :, None] + coeffs.H[..., None]], axis=2)
    # step t's dynamics on [y; 1] less the mean and 2h U beta terms:
    # theta y + (M_t - h) beta
    affine = (latents.mean - h) @ act
    affine[:, :, :d_y] += params.theta
    act *= 2.0 * h  # from here on, the action times 2h
    weights = np.full(N, 1.0 / N)
    u = np.empty((N, d_y, d_z))
    beta = np.empty((d_z, N))
    noise = np.empty((d_y, N))
    gaps = np.zeros((paths, T + 1))
    for pth in range(paths):
        rng = np.random.default_rng([seed, 31, pth])
        cols, nxt = np.ones((d_y + 1, N)), np.ones((d_y + 1, N))
        cols[:d_y] = y0[:, None]
        mean = cols[:d_y] @ weights
        for t in range(T):
            rng.random(out=u)
            np.matmul(act[t], cols, out=beta)
            np.einsum("nij,jn->in", u, beta, out=noise)
            step = affine[t].copy()
            step[:, d_y] += params.theta_bar @ mean
            preds = nxt[:d_y]
            np.matmul(step, cols, out=preds)
            preds += noise
            mean = preds @ weights
            try:
                check_finite(preds.T, mean)
            except DynamicsError as exc:
                raise DynamicsError(f"{exc} at N={N}, path {pth}, step {t}") from exc
            diff = mean - ybar[t + 1]
            gaps[pth, t + 1] = diff.dot(diff)
            cols, nxt = nxt, cols
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
            replace(base, population_N=n), latents, limit, ybar, y0, scenario.paths, seed
        )
        logger.info(
            "convergence N=%d: Monte-Carlo mean gap %.3f s (%d paths)",
            n,
            time.perf_counter() - start,
            scenario.paths,
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
