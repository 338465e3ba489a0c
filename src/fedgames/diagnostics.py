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

from dataclasses import dataclass, replace

import numpy as np

from .model import GameParams, IidEntryLatents, TargetSeries
from .nash_meanfield import (
    DecentralizedCoeffs,
    decentralized_backward_pass,
    lambda_gap,
    meanfield_forward,
)
from .nash_reduced import reduced_backward_pass


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
    || mean prediction - Ybar || under the decentralized policy."""
    N, d_y, T = params.population_N, params.dim_y, params.horizon_T
    gaps = np.zeros((paths, T + 1))
    for pth in range(paths):
        rng = np.random.default_rng([seed, 31, pth])
        preds = np.tile(y0, (N, 1))
        mean = preds.mean(axis=0)
        for t in range(T):
            z = latents.sample(t, N, rng)
            beta = preds @ coeffs.G1[t].T + ybar[t] @ coeffs.G2[t].T + coeffs.H[t]
            preds = (
                preds @ params.theta.T
                + mean @ params.theta_bar.T
                + np.einsum("nij,nj->ni", z, beta)
            )
            mean = preds.mean(axis=0)
            gaps[pth, t + 1] = np.linalg.norm(mean - ybar[t + 1])
    return gaps.mean(axis=0), gaps.std(axis=0, ddof=1) / np.sqrt(paths)


def limit_gap_diagnostic(n_grid, seed: int, scenario: ConvergenceScenario) -> GapReport:
    """Coefficient and mean-field gaps over a population grid; ``seed``
    keys the Monte-Carlo paths of the mean-field gap."""
    latents = IidEntryLatents(mean=scenario.latent_mean, half_width=scenario.latent_half_width)
    moments = latents.exact_moments()
    base = scenario.params
    limit = decentralized_backward_pass(base, moments, scenario.targets)
    y0 = scenario.targets.values[0]
    ybar = meanfield_forward(limit, moments, y0).ybar

    rows = []
    for n in n_grid:
        params_n = replace(base, population_N=int(n))
        reduced = reduced_backward_pass(params_n, moments, scenario.targets)
        lam = lambda_gap(reduced, limit)
        mf_mean, mf_se = _simulate_mean_gap(
            params_n, latents, limit, ybar, y0, scenario.paths, seed
        )
        for t in range(base.horizon_T + 1):
            rows.append(
                GapRow(
                    N=int(n),
                    t=t,
                    lambda_gap=float(lam[t]),
                    meanfield_gap=float(mf_mean[t]),
                    stderr=float(mf_se[t]),
                )
            )
    return GapReport(rows=tuple(rows), n_grid=tuple(int(n) for n in n_grid))

