import numpy as np

from fedgames.diagnostics import ConvergenceScenario, limit_gap_diagnostic
from fedgames.model import GameParams, TargetSeries


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
