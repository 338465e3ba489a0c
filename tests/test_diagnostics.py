from dataclasses import replace

import numpy as np
import pytest

from fedgames import diagnostics
from fedgames.diagnostics import ConvergenceScenario, _simulate_mean_gap, limit_gap_diagnostic
from fedgames.errors import DynamicsError
from fedgames.model import GameParams, IidEntryLatents, TargetSeries
from fedgames.nash_meanfield import decentralized_backward_pass, lambda_gap, meanfield_forward
from fedgames.nash_reduced import reduced_backward_pass
from fedgames.streams import SeedTable
from oracles import reference_mean_gap


def scenario(T=4, paths=30):
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
    )


def test_gap_report_shape_and_positivity():
    report = limit_gap_diagnostic([4, 16], 1, scenario())
    assert len(report.rows) == 2 * 5  # two Ns, T+1 timesteps
    for row in report.rows:
        assert row.lambda_gap >= 0.0
        assert row.meanfield_gap >= 0.0
        assert row.stderr >= 0.0
        assert np.isfinite(row.lambda_gap)


def test_lambda_gap_strictly_decreasing():
    report = limit_gap_diagnostic([4, 16, 64], 1, scenario())
    summary = report.per_n()
    lams = [r["lambda_gap"] for r in summary]
    assert lams[0] > lams[1] > lams[2]


def test_meanfield_gap_shrinks_with_n():
    report = limit_gap_diagnostic([4, 64], 1, scenario(paths=60))
    summary = report.per_n()
    assert summary[1]["meanfield_gap"] <= summary[0]["meanfield_gap"] + 2 * (
        summary[0]["stderr"] + summary[1]["stderr"]
    )
    assert all(r["monotone_2se"] for r in summary)


def test_identical_agents_zero_cross_variance():
    # deterministic latents (zero half width): all agents see the same Z
    # and the same Ybar, so the mean gap reduces to a single-agent bias
    # path, identical across Monte-Carlo repetitions
    s = scenario(paths=7)
    s = ConvergenceScenario(
        params=s.params,
        targets=s.targets,
        latent_mean=s.latent_mean,
        latent_half_width=0.0,
        paths=7,
    )
    report = limit_gap_diagnostic([8], 1, s)
    for row in report.rows:
        assert row.stderr <= 1e-14


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
    ybar = meanfield_forward(coeffs, moments, targets.values[0]).ybar
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
    ybar = meanfield_forward(coeffs, moments, targets.values[0]).ybar
    return params, latents, coeffs, ybar, targets.values[0] + 0.3


@pytest.mark.parametrize("N", [16, diagnostics.MC_BATCH_AGENTS + 904])
def test_batching_changes_no_bit(monkeypatch, N):
    # one path per batch, the default batches, and batches of 3 that leave
    # a short last batch of one: every path keeps its bits
    case = mean_gap_case(N)
    paths = 7
    results, sizes = [], []
    default = diagnostics.MC_BATCH_AGENTS
    for budget in (1, default, 3 * N):
        monkeypatch.setattr(diagnostics, "MC_BATCH_AGENTS", budget)
        sizes.append(diagnostics.mc_batch_size(N, paths))
        results.append(_simulate_mean_gap(*case, paths, 5))
    assert sizes == [1, paths if N < default else 1, 3]
    for mean, se in results[1:]:
        np.testing.assert_array_equal(mean, results[0][0])
        np.testing.assert_array_equal(se, results[0][1])


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
    ybar = meanfield_forward(coeffs, moments, s.targets.values[0]).ybar
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


@pytest.mark.parametrize("budget", [1, 4 * 5, diagnostics.MC_BATCH_AGENTS])
def test_mean_gap_error_names_the_first_failing_path(monkeypatch, budget):
    # paths 11 and 9 fail first in time (steps 0 and 1), path 5 first in
    # path order (step 3): in batches of 1, 5 or all 12 paths, the error is
    # path 5's, as the loop over lone paths raised it
    monkeypatch.setattr(diagnostics, "MC_BATCH_AGENTS", budget)
    case = mean_gap_case(4, T=5)
    table = PoisonedStreams(12, {5: (2, 3), 9: (1, 1), 11: (0, 0)})
    with pytest.raises(DynamicsError, match=r"agent 2 at N=4, path 5, step 3$"):
        _simulate_mean_gap(*case, 12, 1, table)


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
    limit = decentralized_backward_pass(base, moments, targets)

    def scaled_gap(n):
        reduced = reduced_backward_pass(replace(base, population_N=n), moments, targets)
        return n * float(np.max(lambda_gap(reduced, limit)))

    ref = scaled_gap(2**24)
    dist = [abs(scaled_gap(2**k) - ref) / ref for k in (9, 12, 16, 20)]
    assert max(dist) <= 1e-3, dist
    assert all(b <= a for a, b in zip(dist, dist[1:])), dist
