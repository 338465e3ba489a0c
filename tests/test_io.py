import csv
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from fedgames.nash_full import full_backward_pass
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


def json_dumps_text(fields, kind):
    """What `dump_coeffs` must write: `json.dumps` of its payload, each
    array as a list."""
    payload = {"schema_version": SCHEMA_VERSION, "kind": kind}
    for name, value in fields.items():
        if isinstance(value, np.ndarray):
            value = {"dims": list(value.shape), "data": value.ravel().tolist()}
        elif isinstance(value, tuple):
            value = list(value)
        payload[name] = value
    return json.dumps(payload)


def full_snapshot_fields(N, d_y):
    """Agent 1's round-0 fields of a full pass, as `fedgames run` dumps them."""
    rng = np.random.default_rng(10 * N + d_y)
    T = 3
    params = GameParams(
        theta=0.8 * np.eye(d_y) + 0.05 * rng.standard_normal((d_y, d_y)),
        theta_bar=0.1 * np.eye(d_y),
        kappa=1.3,
        kappa_bar=0.7,
        gamma=0.9,
        alpha=0.05,
        horizon_T=T,
        population_N=N,
        dim_y=d_y,
        dim_z=2,
    )
    zs = [rng.standard_normal((d_y, 2)) for _ in range(T)]
    targets = TargetSeries(values=rng.standard_normal((T + 1, d_y)))
    coeffs = full_backward_pass(params, exact_moments_deterministic(zs), targets)
    return {
        "P1": coeffs.P[0],
        "S1": coeffs.S[0],
        "G": coeffs.G,
        "H": coeffs.H,
        "dims": coeffs.dims,
        "max_asymmetry": coeffs.max_asymmetry,
        "condition_numbers": coeffs.condition_numbers,
    }


def nan_with_payload(bits):
    return np.array([0x7FF8000000000000 | bits], dtype=np.uint64).view(np.float64)


# numbers whose json text is easy to get wrong: a signed zero, NaNs with
# other payload bits, the infinities, the least subnormal, and the two
# points where repr switches between plain and exponent notation
SPECIAL_FIELDS = {
    "zeros": np.array([[0.0, -0.0], [-0.0, 0.0]]),
    "nans": np.concatenate([nan_with_payload(1), [math.nan], nan_with_payload(0xBEEF), -nan_with_payload(0)]),
    "infinities": np.array([math.inf, -math.inf, 1.0, math.inf]),
    "tiny": np.array([5e-324, -5e-324, 5e-324]),
    "notation": np.array([1e16, 9999999999999998.0, 1e-5, 0.0001, 1e-5, 1e16]),
    "empty": np.empty((2, 0)),
    "scalar": np.array(-0.0),
    "dims": (3, 1, 2),
    "max_asymmetry": 2.5e-17,
}


@pytest.mark.parametrize("N", range(2, 9))
@pytest.mark.parametrize("d_y", [1, 2])
def test_full_snapshot_is_json_dumps_text(tmp_path, N, d_y):
    fields = full_snapshot_fields(N, d_y)
    path = tmp_path / "full.json"
    dump_coeffs(fields, "full", path)
    assert path.read_text(encoding="utf-8") == json_dumps_text(fields, "full")


@pytest.mark.parametrize("kind", ["full", "reduced"])
def test_special_numbers_are_json_dumps_text(tmp_path, kind):
    path = tmp_path / "special.json"
    dump_coeffs(SPECIAL_FIELDS, kind, path)
    assert path.read_text(encoding="utf-8") == json_dumps_text(SPECIAL_FIELDS, kind)


@st.composite
def repeating_fields(draw):
    """A few arrays whose entries are drawn from one small pool of floats."""
    pool = draw(st.lists(st.floats(width=64), min_size=1, max_size=6))
    fields = {}
    for i in range(draw(st.integers(1, 4))):
        shape = tuple(draw(st.lists(st.integers(0, 4), max_size=3)))
        size = math.prod(shape)
        entries = draw(st.lists(st.sampled_from(pool), min_size=size, max_size=size))
        fields[f"a{i}"] = np.array(entries, dtype=float).reshape(shape)
    fields["max_asymmetry"] = draw(st.sampled_from(pool))
    return fields


@settings(max_examples=100, deadline=None)
@given(repeating_fields())
def test_full_writer_matches_json_dumps_on_repeated_values(tmp_path_factory, fields):
    path = tmp_path_factory.mktemp("prop") / "full.json"
    dump_coeffs(fields, "full", path)
    assert path.read_text(encoding="utf-8") == json_dumps_text(fields, "full")


def test_full_snapshot_round_trips_bitwise(tmp_path):
    # JSON keeps no NaN payload, so the round trip is over every other number
    fields = full_snapshot_fields(5, 2) | {k: v for k, v in SPECIAL_FIELDS.items() if k != "nans"}
    path = tmp_path / "full.json"
    dump_coeffs(fields, "full", path)
    loaded = load_coeff_arrays(path)
    assert list(loaded) == ["schema_version", "kind", *fields]
    for name, value in fields.items():
        if isinstance(value, np.ndarray):
            assert loaded[name].shape == value.shape, name
            np.testing.assert_array_equal(loaded[name].view(np.uint64), value.view(np.uint64), err_msg=name)
    assert loaded["dims"] == [3, 1, 2]
    assert loaded["max_asymmetry"] == 2.5e-17


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
    from fedgames.diagnostics import GapReport

    # float64 entries, which numpy 2 would print as np.float64(0.5)
    report = GapReport(
        n_grid=(4,), lambda_gap=np.array([[0.5]]), meanfield_gap=np.array([[0.1]]), stderr=np.array([[0.01]])
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
