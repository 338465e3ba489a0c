"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Tolerances are pinned here and nowhere else. Criterion 10 is empirical
and report-only: it prints the measured values and the direction of the
comparison but never fails the build.
"""

import time

import numpy as np
import pytest
from oracles import realized_cost, simulate_affine_policies

from fedgames.datasets import DatasetSpec
from fedgames.diagnostics import ConvergenceScenario, limit_gap_diagnostic
from fedgames.harness import EncoderConfig, EpisodeTrace, Scenario, run_episode
from fedgames.model import GameParams, TargetSeries, exact_moments_deterministic
from fedgames.nash_full import check_block_structure, full_action, full_backward_pass
from fedgames.nash_reduced import reduced_action, reduced_backward_pass
from fedgames.ridge import RidgeConfig, ridge_action, ridge_design
from fedgames.spawner import (
    build_ortho_problem,
    gibbs_reweigh,
    ortho_objective,
    ortho_solve,
    resolvent_check,
    vec,
)
from test_spawner import projected_gradient_simplex, variational_pieces


def _report(criterion, ok, detail=""):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} {detail}")
    return ok


def _grid_params(rng, N, d, T):
    params = GameParams(
        theta=0.8 * np.eye(d) + 0.03 * rng.standard_normal((d, d)),
        theta_bar=0.1 * np.eye(d) + 0.03 * rng.standard_normal((d, d)),
        kappa=1.2,
        kappa_bar=0.6,
        gamma=0.9,
        alpha=0.05,
        horizon_T=T,
        population_N=N,
        dim_y=d,
        dim_z=d,
    )
    zs = [rng.standard_normal((d, d)) for _ in range(T)]
    targets = TargetSeries(values=rng.standard_normal((T + 1, d)))
    return params, zs, targets


GRID = [(N, d, T) for N in (2, 3, 5) for d in (1, 2) for T in (3, 8)]


@pytest.fixture(scope="module")
def solved_grid():
    """Criterion-1 scenario grid solved once and reused by criteria 2-3."""
    out = []
    start = time.perf_counter()
    for i, (N, d, T) in enumerate(GRID):
        rng = np.random.default_rng(1000 + i)
        params, zs, targets = _grid_params(rng, N, d, T)
        moments = exact_moments_deterministic(zs)
        full = full_backward_pass(params, moments, targets)
        red = reduced_backward_pass(params, moments, targets)
        out.append((params, zs, targets, full, red, rng.standard_normal((N, d))))
    return out, time.perf_counter() - start


def test_criterion_1_full_reduced_equivalence(solved_grid):
    grid, solve_time = solved_grid
    start = time.perf_counter()
    worst = 0.0
    for params, zs, targets, full, red, y0 in grid:
        N, d, T = params.population_N, params.dim_y, params.horizon_T
        preds = y0.copy()
        for t in range(T):
            stacked = full_action(t, preds.reshape(-1), full)
            total = preds.sum(axis=0)
            for n in range(N):
                mine = reduced_action(t, preds[n], total - preds[n], red)
                worst = max(worst, float(np.max(np.abs(mine - stacked[n * d : (n + 1) * d]))))
            # advance the closed loop under the full policy
            nxt = np.empty_like(preds)
            mean = preds.mean(axis=0)
            for n in range(N):
                nxt[n] = (
                    params.theta @ preds[n]
                    + params.theta_bar @ mean
                    + zs[t] @ stacked[n * d : (n + 1) * d]
                )
            preds = nxt
    elapsed = solve_time + (time.perf_counter() - start)
    ok = worst <= 1e-7 and elapsed < 10.0
    assert _report(1, ok, f"(max action gap {worst:.2e}, runtime {elapsed:.2f}s)")


def test_criterion_2_block_structure(solved_grid):
    grid, _ = solved_grid
    worst = 0.0
    for params, _, _, full, _, _ in grid:
        worst = max(worst, check_block_structure(full))
    assert _report(2, worst <= 1e-9, f"(max block deviation {worst:.2e})")


def test_criterion_3_block_inverse_identities(solved_grid):
    grid, _ = solved_grid
    worst = 0.0
    for params, _, _, _, red, _ in grid:
        N = params.population_N
        eye = np.eye(params.dim_z)
        for t in range(params.horizon_T):
            F, K, M, E = red.FN[t], red.KN[t], red.MN[t], red.EN[t]
            worst = max(worst, float(np.max(np.abs(F @ M + (N - 1) * K @ E - eye))))
            worst = max(worst, float(np.max(np.abs(K @ M + (F + (N - 2) * K) @ E))))
    assert _report(3, worst <= 1e-10, f"(max identity residual {worst:.2e})")


def test_criterion_4_nash_deviation():
    rng = np.random.default_rng(77)
    worst_gain = -np.inf
    for N, d, T in ((2, 1, 3), (3, 1, 3), (5, 1, 3), (3, 2, 3), (16, 1, 3), (32, 1, 3)):
        params, zs, targets = _grid_params(rng, N, d, T)
        moments = exact_moments_deterministic(zs)
        full = full_backward_pass(params, moments, targets)
        gains = [full.G[:, n * d : (n + 1) * d, :] for n in range(N)]
        icpts = [full.H[:, n * d : (n + 1) * d] for n in range(N)]
        x0 = rng.standard_normal(N * d)
        xs0, us0 = simulate_affine_policies(params, zs, targets, gains, icpts, x0)
        base = [realized_cost(params, targets, xs0, us0, n) for n in range(N)]
        for trial in range(200):
            n = trial % N
            delta = rng.standard_normal((T, d))
            delta *= rng.uniform(0, 0.1) / max(np.linalg.norm(delta), 1e-12)
            dev = [ic.copy() for ic in icpts]
            dev[n] = dev[n] + delta
            xs, us = simulate_affine_policies(params, zs, targets, gains, dev, x0)
            worst_gain = max(worst_gain, base[n] - realized_cost(params, targets, xs, us, n))
    assert _report(4, worst_gain <= 1e-6, f"(max cost drop under deviation {worst_gain:.2e})")


def test_criterion_5_meanfield_convergence():
    start = time.perf_counter()
    rng = np.random.default_rng(5)
    params = GameParams(
        theta=0.7,
        theta_bar=0.2,
        kappa=1.0,
        kappa_bar=0.5,
        gamma=1.0,
        alpha=0.05,
        horizon_T=4,
        population_N=256,
        dim_y=1,
        dim_z=1,
    )
    scenario = ConvergenceScenario(
        params=params,
        targets=TargetSeries(values=rng.standard_normal((5, 1))),
        latent_mean=np.full((4, 1, 1), 0.8),
        latent_half_width=0.4,
        paths=100,
        n_grid=(4, 16, 64, 256),
        seed=17,
    )
    report = limit_gap_diagnostic(scenario)
    summary = report.per_n()
    lam = [r["lambda_gap"] for r in summary]
    strictly_dec = all(a > b for a, b in zip(lam, lam[1:]))
    mono = all(r["monotone_2se"] for r in summary)
    elapsed = time.perf_counter() - start
    ok = strictly_dec and mono and elapsed < 120.0
    gaps = ", ".join(f"N={r['N']}: {r['meanfield_gap']:.3f}±{r['stderr']:.3f}" for r in summary)
    assert _report(
        5, ok, f"(lambda gaps {[f'{v:.2e}' for v in lam]}, meanfield {gaps}, {elapsed:.1f}s)"
    )


def test_criterion_6_trivial_policy_sanity():
    params = GameParams(
        theta=0.7,
        theta_bar=0.3,
        kappa=0.0,
        kappa_bar=0.0,
        gamma=1.0,
        alpha=0.01,
        horizon_T=2,
        population_N=3,
        dim_y=1,
        dim_z=2,
    )
    scenario = Scenario(
        params=params,
        dataset=DatasetSpec(kind="periodic", length=5),
        encoder=EncoderConfig(kind="rfn", sigma=0.1),
        mc_samples=6,
        ridge=RidgeConfig(window_T=2, alpha=0.1, gamma=0.5),
    )
    ok = True
    for policy in ("full", "reduced", "decentralized", "greedy"):
        trace = EpisodeTrace()
        rec = run_episode(policy, scenario, seed=3, trace=trace)
        ok &= bool(np.all(trace.actions == 0.0)) and bool(np.all(rec.costs == 0.0))
    assert _report(6, ok, "(all four policies identically zero)")


def test_criterion_7_gibbs_posterior():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        n_total = int(rng.integers(2, 11))
        k = int(rng.integers(1, n_total))
        retained = n_total - k
        prior = rng.dirichlet(np.ones(retained) * 2.0)
        prior = np.clip(prior, 1e-3, None)
        prior /= prior.sum()
        scores = rng.uniform(0, 2, size=retained)
        lam = float(rng.uniform(0.3, 3.0))
        closed, _ = gibbs_reweigh(np.log(prior), scores, lam)
        obj, grad = variational_pieces(scores, prior, lam)
        oracle = projected_gradient_simplex(obj, grad, retained)
        worst = max(worst, float(np.max(np.abs(closed - oracle))))
    assert _report(7, worst <= 1e-6, f"(max closed-form vs PGD gap {worst:.2e})")


def test_criterion_8_orthogonalization_qp():
    rng = np.random.default_rng(8)
    worst_kkt = 0.0
    worst_sample_gap = -np.inf
    worst_resolvent = 0.0
    bound_ok = True
    for _ in range(50):
        d_z = int(rng.integers(1, 5))
        prob = build_ortho_problem(
            [rng.standard_normal((2, d_z)) for _ in range(3)],
            [rng.standard_normal((2, d_z)) for _ in range(2)],
            rng.standard_normal(d_z),
            rng.standard_normal(2),
            float(rng.uniform(0.0, 1.5)),
        )
        zeta2 = float(rng.uniform(0.05, 1.5))
        sol = ortho_solve(prob, zeta2)
        worst_kkt = max(worst_kkt, sol.kkt_residual, sol.constraint_residual)
        best = ortho_objective(prob, vec(sol.A_star))
        dirs = rng.standard_normal((10_000, prob.xi_I.shape[0]))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        sampled = np.array([ortho_objective(prob, prob.xi_I + zeta2 * g) for g in dirs])
        worst_sample_gap = max(worst_sample_gap, best - float(sampled.min()))

        # the printed bound assumes Q + lam* I invertible with
        # lam* + lam_min(Q) != 0, which excludes hard-case instances
        Q = 0.5 * (prob.Q + prob.Q.T)
        lam_min = float(np.linalg.eigvalsh(Q)[0])
        if not sol.hard_case and sol.lambda_star + lam_min > 1e-8:
            g_vec = Q @ prob.xi_I + 0.5 * prob.c
            xi_star = vec(sol.A_star)
            for lam in np.linspace(-lam_min + 0.1, sol.lambda_star + 5.0, 9):
                xi_lam = np.linalg.solve(
                    Q + lam * np.eye(Q.shape[0]), lam * prob.xi_I - 0.5 * prob.c
                )
                bound = (
                    abs(lam - sol.lambda_star)
                    / ((lam + lam_min) * (sol.lambda_star + lam_min))
                    * np.linalg.norm(g_vec)
                )
                bound_ok &= bool(np.linalg.norm(xi_star - xi_lam) <= bound + 1e-9)
        root = rng.standard_normal((d_z * d_z, d_z * d_z))
        worst_resolvent = max(
            worst_resolvent,
            resolvent_check(
                root @ root.T / d_z, float(rng.uniform(0.5, 2)), float(rng.uniform(0.5, 2))
            ),
        )
    ok = (
        worst_kkt <= 1e-8
        and worst_sample_gap <= 1e-8
        and worst_resolvent <= 1e-11
        and bound_ok
    )
    assert _report(
        8,
        ok,
        f"(kkt {worst_kkt:.2e}, sampling gap {worst_sample_gap:.2e}, "
        f"resolvent {worst_resolvent:.2e}, bound holds {bound_ok})",
    )


def test_criterion_9_ridge_oracle():
    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(100):
        d_z = int(rng.integers(1, 9))
        window = int(rng.integers(1, 17))
        cfg = RidgeConfig(
            window_T=window,
            alpha=float(rng.uniform(0, 0.5)),
            gamma=float(rng.uniform(0.1, 2.0)),
        )
        hist = [
            (rng.standard_normal((2, d_z)), rng.standard_normal(2)) for _ in range(window)
        ]
        Z, R = np.stack([z for z, _ in hist]), np.stack([r for _, r in hist])
        beta = ridge_action(Z, R, cfg)
        X, ybar = ridge_design(Z, R, cfg)
        resid = X.T @ (ybar - X @ beta) - cfg.gamma * beta
        worst = max(worst, float(np.max(np.abs(resid))))
    assert _report(9, worst <= 1e-10, f"(max normal-equation residual {worst:.2e})")


def test_criterion_10_soft_empirical_report_only():
    params = GameParams(
        theta=0.7,
        theta_bar=0.3,
        kappa=1.0,
        kappa_bar=10.0,
        gamma=1.0,
        alpha=0.01,
        horizon_T=1,
        population_N=25,
        dim_y=1,
        dim_z=5,
    )
    dataset = DatasetSpec(kind="logistic_map", length=61, seed=12)
    dec_scenario = Scenario(
        params=params,
        dataset=dataset,
        encoder=EncoderConfig(kind="rfn", sigma=0.1),
        mc_samples=100,
        aggregation_alpha=0.2,
        aggregation_window=1,
    )
    greedy_scenario = Scenario(
        params=params,
        dataset=dataset,
        encoder=EncoderConfig(kind="rfn", sigma=0.1),
        mc_samples=100,
        ridge=RidgeConfig(window_T=3, alpha=0.1, gamma=0.1),
        aggregation_alpha=0.2,
        aggregation_window=1,
    )
    wins = 0
    lines = []
    for seed in (2024, 2025, 2026):
        dec = run_episode("decentralized", dec_scenario, seed)
        grd = run_episode("greedy", greedy_scenario, seed)
        win = dec.rmse_worst <= grd.rmse_worst
        wins += int(win)
        lines.append(
            f"seed {seed}: decentralized worst {dec.rmse_worst:.4f} "
            f"vs greedy worst {grd.rmse_worst:.4f} -> {'dec' if win else 'greedy'}"
        )
    direction_holds = wins >= 2
    _report(
        10,
        True,
        f"[report-only] worst-agent direction holds in {wins}/3 seeds "
        f"({'matches' if direction_holds else 'MISSES'} the expected direction); "
        + "; ".join(lines),
    )
