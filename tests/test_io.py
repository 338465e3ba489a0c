import csv
import json

import numpy as np

from fedgames.datasets import DatasetSpec
from fedgames.harness import EncoderConfig, Scenario, run_episode
from fedgames.io import (
    SCHEMA_VERSION,
    dump_coeffs,
    export_gap_report_csv,
    export_run_record_json,
    load_coeff_arrays,
    write_jsonl,
)
from fedgames.model import GameParams, TargetSeries, exact_moments_deterministic
from fedgames.nash_reduced import reduced_backward_pass
from fedgames.ridge import RidgeConfig


def small_record():
    params = GameParams(
        theta=0.7,
        theta_bar=0.3,
        kappa=1.0,
        kappa_bar=0.5,
        gamma=1.0,
        alpha=0.01,
        horizon_T=2,
        population_N=2,
        dim_y=1,
        dim_z=2,
    )
    scenario = Scenario(
        params=params,
        dataset=DatasetSpec(kind="periodic", length=5),
        encoder=EncoderConfig(kind="rfn", sigma=0.1),
        mc_samples=4,
        ridge=RidgeConfig(window_T=2, alpha=0.1, gamma=0.5),
    )
    return run_episode("reduced", scenario, seed=1)


def test_coeff_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    params = GameParams(
        theta=0.8,
        theta_bar=0.1,
        kappa=1.0,
        kappa_bar=0.5,
        gamma=1.0,
        alpha=0.0,
        horizon_T=3,
        population_N=3,
        dim_y=1,
        dim_z=1,
    )
    zs = [rng.standard_normal((1, 1)) for _ in range(3)]
    targets = TargetSeries(values=rng.standard_normal((4, 1)))
    red = reduced_backward_pass(params, exact_moments_deterministic(zs), targets)
    path = tmp_path / "red.json"
    dump_coeffs(vars(red), "reduced", path)
    arrays = load_coeff_arrays(path)
    np.testing.assert_array_equal(arrays["Pi1"], red.Pi1)
    np.testing.assert_array_equal(arrays["G1N"], red.G1N)
    assert arrays["kind"] == "reduced"


def test_run_record_exports(tmp_path):
    record = small_record()
    jpath = tmp_path / "run.json"
    export_run_record_json(record, jpath)
    payload = json.loads(jpath.read_text())
    assert payload["schema_version"] == SCHEMA_VERSION == "4"
    assert payload["policy"] == "reduced"
    assert payload["costs"] == record.costs.tolist()
    assert len(payload["costs"]) == 2
    assert "costs_per_round" not in payload
    quantiles = payload["round_cost_quantiles"]
    assert list(quantiles) == ["min", "median", "p90", "max"]
    for name, values in quantiles.items():
        assert values == record.round_cost_quantiles[name].tolist()
        assert len(values) == 2  # (5 targets - 1) // T=2 rounds
    assert quantiles["min"] <= quantiles["median"] <= quantiles["max"]


def test_gap_report_csv(tmp_path):
    from fedgames.diagnostics import GapReport, GapRow

    report = GapReport(
        rows=(GapRow(N=4, t=0, lambda_gap=0.5, meanfield_gap=0.1, stderr=0.01),),
        n_grid=(4,),
    )
    path = tmp_path / "gap.csv"
    export_gap_report_csv(report, path)
    with path.open() as fh:
        rows = list(csv.reader(fh))
    assert rows[1] == ["4", "0", "0.5", "0.1", "0.01"]


def test_jsonl(tmp_path):
    path = tmp_path / "events.jsonl"
    write_jsonl([{"round": 0, "retired": [1]}, {"round": 1, "retired": [0]}], path)
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 2
    assert json.loads(lines[0])["retired"] == [1]
