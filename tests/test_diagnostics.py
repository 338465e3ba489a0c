import logging
import math
import sys
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from fedgames import diagnostics, nash_meanfield, nash_reduced
from fedgames.diagnostics import ConvergenceScenario, _simulate_mean_gap, coefficient_gaps, limit_gap_diagnostic
from fedgames.errors import DynamicsError
from fedgames.model import GameParams, IidEntryLatents, TargetSeries
from fedgames.nash_meanfield import decentralized_backward_pass, meanfield_forward
from fedgames.streams import SeedTable
from oracles import reference_mean_gap


def scenario(T=4, paths=30, n_grid=(4, 16, 64)):
    rng = np.random.default_rng(3)
    params = GameParams(
        theta=0.7,
        theta_bar=0.2,
        kappa=1.0,
        kappa_bar=0.5,
        gamma=1.0,
        alpha=0.05,
        horizon_T=T,
        population_N=64,
        dim_y=1,
        dim_z=1,
    )
    return ConvergenceScenario(
        params=params,
        targets=TargetSeries(values=rng.standard_normal((T + 1, 1))),
        latent_mean=np.full((T, 1, 1), 0.8),
        latent_half_width=0.4,
        paths=paths,
        n_grid=n_grid,
        seed=1,
    )


def test_gap_report_shape_and_positivity():
    report = limit_gap_diagnostic(scenario(n_grid=(4, 16)))
    for gap in (report.lambda_gap, report.meanfield_gap, report.stderr):
        assert gap.shape == (2, 5)  # two Ns, T+1 timesteps
        assert np.all(gap >= 0.0)
    assert np.all(np.isfinite(report.lambda_gap))


def test_lambda_gap_strictly_decreasing():
    report = limit_gap_diagnostic(scenario())
    summary = report.per_n()
    lams = [r["lambda_gap"] for r in summary]
    assert lams[0] > lams[1] > lams[2]


def test_meanfield_gap_shrinks_with_n():
    report = limit_gap_diagnostic(scenario(paths=60, n_grid=(4, 64)))
    summary = report.per_n()
    assert summary[1]["meanfield_gap"] <= summary[0]["meanfield_gap"] + 2 * (
        summary[0]["stderr"] + summary[1]["stderr"]
    )
    assert all(r["monotone_2se"] for r in summary)


def test_identical_agents_zero_cross_variance():
    # deterministic latents (zero half width): all agents see the same Z
    # and the same Ybar, so the mean gap reduces to a single-agent bias
    # path, identical across Monte-Carlo repetitions
    report = limit_gap_diagnostic(replace(scenario(paths=7, n_grid=(8,)), latent_half_width=0.0))
    assert np.all(report.stderr <= 1e-14)


@pytest.mark.parametrize("half_width", [0.0, 0.4])
@pytest.mark.parametrize("d_y", [1, 2])
@pytest.mark.parametrize("N", [1, 4, 64, 1024])
def test_mean_gap_matches_reference_loop(N, d_y, half_width):
    # the fused loop against the package's own draw, action and dynamics;
    # y0 starts off Ybar so that the deterministic (half_width 0) gap is a
    # trajectory, not rounding noise
    T, d_z = 5, 3
    rng = np.random.default_rng(9)
    theta = 0.7 if d_y == 1 else np.array([[0.6, 0.1], [-0.05, 0.7]])
    theta_bar = 0.2 if d_y == 1 else np.array([[0.2, 0.0], [0.05, 0.15]])
    params = GameParams(
        theta=theta,
        theta_bar=theta_bar,
        kappa=1.0,
        kappa_bar=0.5,
        gamma=1.0,
        alpha=0.05,
        horizon_T=T,
        population_N=N,
        dim_y=d_y,
        dim_z=d_z,
    )
    latents = IidEntryLatents(mean=0.8 + 0.1 * rng.standard_normal((T, d_y, d_z)), half_width=half_width)
    moments = latents.exact_moments()
    targets = TargetSeries(values=rng.standard_normal((T + 1, d_y)))
    coeffs = decentralized_backward_pass(params, moments, targets)
    ybar = meanfield_forward(coeffs, moments, targets.values[0])
    y0 = targets.values[0] + 0.3
    (mean, se), (ref_mean, ref_se) = (
        f(params, latents, coeffs, ybar, y0, 3, 4) for f in (_simulate_mean_gap, reference_mean_gap)
    )
    np.testing.assert_allclose(mean, ref_mean, rtol=1e-10, atol=0)
    # at half_width 0 every path is the same, and the stderr is the
    # rounding noise of np.std on equal values
    np.testing.assert_allclose(se, ref_se, rtol=1e-10, atol=1e-15)


def mean_gap_case(N, T=4):
    """Arguments of ``_simulate_mean_gap`` up to the path count, d_y 2, d_z 3."""
    d_y, d_z = 2, 3
    rng = np.random.default_rng(11)
    params = GameParams(
        theta=np.array([[0.6, 0.1], [-0.05, 0.7]]),
        theta_bar=np.array([[0.2, 0.0], [0.05, 0.15]]),
        kappa=1.0,
        kappa_bar=0.5,
        gamma=1.0,
        alpha=0.05,
        horizon_T=T,
        population_N=N,
        dim_y=d_y,
        dim_z=d_z,
    )
    latents = IidEntryLatents(mean=0.8 + 0.1 * rng.standard_normal((T, d_y, d_z)), half_width=0.4)
    moments = latents.exact_moments()
    targets = TargetSeries(values=rng.standard_normal((T + 1, d_y)))
    coeffs = decentralized_backward_pass(params, moments, targets)
    ybar = meanfield_forward(coeffs, moments, targets.values[0])
    return params, latents, coeffs, ybar, targets.values[0] + 0.3


@pytest.mark.parametrize("N", [16, diagnostics.MC_BATCH_AGENTS + 904])
def test_batching_changes_no_bit(monkeypatch, N):
    # one path per batch, the default batches, and batches of 2 and 3 that
    # leave a short last batch of one, on one thread and on two where the
    # batches are many and short: every path keeps its bits
    case = mean_gap_case(N)
    paths = 7
    results, sizes, threads = [], [], []
    default = diagnostics.MC_BATCH_AGENTS
    for workers in (1, 2):
        monkeypatch.setattr(diagnostics, "MC_WORKERS", workers)
        for budget in (1, default, 2 * N, 3 * N):
            monkeypatch.setattr(diagnostics, "MC_BATCH_AGENTS", budget)
            sizes.append(diagnostics.mc_batch_size(N, paths))
            threads.append(diagnostics.mc_workers(N, paths))
            results.append(_simulate_mean_gap(*case, paths, 5))
    assert sizes == [1, paths if N < default else 1, 2, 3] * 2
    assert threads == [1] * 4 + [2, 1 if N < default else 2, 2, 1]
    for mean, se in results[1:]:
        np.testing.assert_array_equal(mean, results[0][0])
        np.testing.assert_array_equal(se, results[0][1])


def test_more_threads_than_cpus_change_no_bit(monkeypatch):
    # 8 threads of 4 one-path batches each, switching as often as the
    # interpreter allows: every path's row keeps the bits of one thread
    case = mean_gap_case(64)
    monkeypatch.setattr(diagnostics, "MC_BATCH_AGENTS", 64)
    monkeypatch.setattr(diagnostics, "MC_WORKERS", 1)
    expected = _simulate_mean_gap(*case, 32, 5)
    monkeypatch.setattr(diagnostics, "MC_WORKERS", 8)
    assert diagnostics.mc_workers(64, 32) == 8
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = _simulate_mean_gap(*case, 32, 5)
    finally:
        sys.setswitchinterval(interval)
    for a, b in zip(got, expected):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize(
    "N,paths,threads",
    # the benchmark's grid at 20 paths and its neighbours: batches of more
    # than 8 paths stay on one thread, as do fewer than two batches per thread
    [(4, 20, 1), (64, 20, 1), (256, 20, 1), (256, 100, 1), (512, 16, 1), (512, 32, 2)]
    + [(1024, 20, 2), (4096, 20, 2), (4096, 3, 1), (4096, 4, 2)],
)
def test_threads_only_where_they_pay(monkeypatch, N, paths, threads):
    monkeypatch.setattr(diagnostics, "MC_WORKERS", 2)
    assert diagnostics.mc_workers(N, paths) == threads
    monkeypatch.setattr(diagnostics, "MC_WORKERS", 1)
    assert diagnostics.mc_workers(N, paths) == 1


def test_mean_gap_overflow_names_agent_path_and_step():
    # the backward pass stops an overflow of its own coefficients, so this
    # check is reached with finite coefficients and dynamics that overflow:
    # theta 1e100 takes the predictions past 1e308 at step 3; 40 paths of
    # 4 agents run as one batch, which then runs again path by path
    s = scenario()
    params = replace(s.params, population_N=4)
    latents = IidEntryLatents(mean=s.latent_mean, half_width=s.latent_half_width)
    moments = latents.exact_moments()
    coeffs = decentralized_backward_pass(params, moments, s.targets)
    ybar = meanfield_forward(coeffs, moments, s.targets.values[0])
    for paths in (2, 40):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DynamicsError, match=r"agent \d+ at N=4, path 0, step 3$"):
                _simulate_mean_gap(
                    replace(params, theta=1e100), latents, coeffs, ybar, s.targets.values[0], paths, 1
                )


class PoisonedStreams:
    """The path streams of seed 1, except that path p's draws for agent a
    turn NaN at step t, for each p: (a, t) of ``poison``."""

    def __init__(self, paths, poison):
        self.table, self.poison = SeedTable((1, 31), paths), poison

    def rng(self, p):
        rng = self.table.rng(p)
        return PoisonedStream(rng, *self.poison[p]) if p in self.poison else rng


class PoisonedStream:
    def __init__(self, rng, agent, step):
        self.rng, self.agent, self.step, self.t = rng, agent, step, 0

    def random(self, out):
        self.rng.random(out=out)
        if self.t == self.step:
            out[self.agent] = np.nan
        self.t += 1


@pytest.mark.parametrize("budget", [1, 4 * 2, 4 * 5, diagnostics.MC_BATCH_AGENTS])
def test_mean_gap_error_names_the_first_failing_path(monkeypatch, budget):
    # paths 6, 11 and 9 fail first in time (steps 0 and 1), path 5 first in
    # path order (step 3): in batches of 1, 2, 5 or all 12 paths, on one
    # thread or two, the error is path 5's, as the loop over lone paths
    # raised it; in batches of 1 or 2 each of two threads plays failing paths
    monkeypatch.setattr(diagnostics, "MC_BATCH_AGENTS", budget)
    case = mean_gap_case(4, T=5)
    for workers in (1, 2):
        monkeypatch.setattr(diagnostics, "MC_WORKERS", workers)
        table = PoisonedStreams(12, {5: (2, 3), 6: (3, 0), 9: (1, 1), 11: (0, 0)})
        with pytest.raises(DynamicsError, match=r"agent 2 at N=4, path 5, step 3$"):
            _simulate_mean_gap(*case, 12, 1, table)


class RecordingStreams:
    """The path streams of seed 1, recording the thread that asks for each;
    odd paths, the second of two threads' share, start 20 ms late, so that
    thread is still playing when the caller's is done."""

    def __init__(self, paths):
        self.table, self.threads = SeedTable((1, 31), paths), set()

    def rng(self, p):
        self.threads.add(threading.get_ident())
        if p % 2:
            time.sleep(0.02)
        return self.table.rng(p)


def test_no_worker_thread_outlives_the_call(monkeypatch):
    # a run that completes and one that raises both play on two threads and
    # join the second before they return: a thread left running would keep
    # the command from exiting
    monkeypatch.setattr(diagnostics, "MC_WORKERS", 2)
    monkeypatch.setattr(diagnostics, "MC_BATCH_AGENTS", 4)
    case = mean_gap_case(4)
    before = threading.active_count()
    table = RecordingStreams(6)
    _simulate_mean_gap(*case, 6, 1, table)
    assert len(table.threads) == 2
    assert threading.active_count() == before
    with pytest.raises(DynamicsError, match=r"path 3, step 1$"):
        _simulate_mean_gap(*case, 6, 1, PoisonedStreams(6, {3: (0, 1)}))
    assert threading.active_count() == before


def test_info_line_names_the_threads(monkeypatch, caplog):
    monkeypatch.setattr(diagnostics, "MC_WORKERS", 2)
    monkeypatch.setattr(diagnostics, "MC_BATCH_AGENTS", 16)
    with caplog.at_level(logging.INFO, logger="fedgames.diagnostics"):
        limit_gap_diagnostic(scenario(paths=8, n_grid=(4, 16)))
    lines = [m for m in caplog.messages if m.startswith("convergence N=")]
    assert lines[0].endswith("(8 paths, 4 per batch, 1 thread)")
    assert lines[1].endswith("(8 paths, 1 per batch, 2 threads)")


@pytest.mark.parametrize("paths", [0, 1])
def test_scenario_needs_two_paths(paths):
    # one path gave a NaN standard error, none NaN gaps, with only a warning
    s = scenario()
    with pytest.raises(ValueError, match="paths must be at least 2"):
        replace(s, paths=paths)


@pytest.mark.parametrize(
    "field,value,message",
    [
        ("latent_half_width", np.nan, "latent_half_width must be finite"),
        ("latent_half_width", np.inf, "latent_half_width must be finite"),
        ("latent_half_width", -0.1, "latent_half_width must be finite and >= 0"),
        ("latent_mean", np.full((4, 1, 1), np.nan), "latent_mean must be finite"),
        ("latent_mean", np.full((4, 1, 1), -np.inf), "latent_mean must be finite"),
    ],
)
def test_scenario_rejects_nonfinite_latents(field, value, message):
    # a NaN half width used to surface as non-finite coefficients of the
    # decentralized pass
    with pytest.raises(ValueError, match=message):
        replace(scenario(), **{field: value})


def test_lambda_gap_rate_is_one_over_n():
    # criterion 5's scenario: N max_t lambda_gap settles at ~0.12000; each
    # reduced pass costs the same at any N, so the grid can reach 2^24
    rng = np.random.default_rng(5)
    base = GameParams(
        theta=0.7,
        theta_bar=0.2,
        kappa=1.0,
        kappa_bar=0.5,
        gamma=1.0,
        alpha=0.05,
        horizon_T=4,
        population_N=2,
        dim_y=1,
        dim_z=1,
    )
    targets = TargetSeries(values=rng.standard_normal((5, 1)))
    moments = IidEntryLatents(mean=np.full((4, 1, 1), 0.8), half_width=0.4).exact_moments()
    grid = tuple(2**k for k in (9, 12, 16, 20, 24))
    gaps, _ = coefficient_gaps(base, moments, targets, grid)
    scaled = [n * float(gap) for n, gap in zip(grid, gaps.max(axis=0))]

    ref = scaled[-1]
    dist = [abs(s - ref) / ref for s in scaled[:-1]]
    assert max(dist) <= 1e-3, dist
    assert all(b <= a for a, b in zip(dist, dist[1:])), dist


def test_one_pass_per_command(monkeypatch):
    # the limit and every N of the grid come from one structured pass
    calls = []
    real = nash_reduced.structured_pass

    def counted(*args, **kwargs):
        calls.append(args[3])
        return real(*args, **kwargs)

    for module in (diagnostics, nash_meanfield, nash_reduced):
        monkeypatch.setattr(module, "structured_pass", counted)
    limit_gap_diagnostic(scenario(paths=2))
    assert calls == [(4, 16, 64, math.inf)]


def test_scenario_fills_its_latent_mean():
    # a number fills a contiguous array, as an array is copied: a
    # broadcast view moves the Monte-Carlo gaps' last bits
    s = scenario(T=3)
    for mean in (0.8, np.full((3, 1, 1), 0.8)):
        filled = replace(s, latent_mean=mean).latent_mean
        np.testing.assert_array_equal(filled, np.full((3, 1, 1), 0.8))
        assert filled.flags.c_contiguous and filled is not mean
    assert ConvergenceScenario(params=s.params, targets=s.targets).latent_mean.shape == (3, 1, 1)


@pytest.mark.parametrize("seed", [-1, 2.5, True, "3"])
def test_scenario_seed_must_be_an_integer_of_at_least_zero(seed):
    with pytest.raises(ValueError, match=r"seed must be an integer >= 0"):
        replace(scenario(paths=2), seed=seed)


@pytest.mark.parametrize("grid", [[4.7, 16], [1, 4], [True, 4], [], 5])
def test_grid_must_hold_integers_of_at_least_two(grid):
    # 4.7 used to run as N = 4, and an N below 2 reached the pass
    with pytest.raises(ValueError, match=r"n_grid must be a non-empty sequence of integers N >= 2"):
        scenario(paths=2, n_grid=grid)
