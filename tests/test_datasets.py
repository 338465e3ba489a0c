import numpy as np
import pytest

from fedgames import datasets
from fedgames.datasets import (
    DatasetSpec,
    build_dataset,
    drift_blend,
    drift_targets,
    load_csv,
)
from fedgames.errors import SpecError


def test_periodic_alternates():
    ts = build_dataset(DatasetSpec(kind="periodic", length=4))[0]
    vals = ts.values[:, 0]
    assert set(np.round(vals, 12)) == {0.9, -0.9}
    assert all(vals[i] == -vals[i + 1] for i in range(3))


def test_concept_drift_at_zero():
    # k = 0 gives x = [0, 0, 0]; first regime value is 0.5 cos(0) = 0.5
    y = drift_targets(np.zeros(3))
    assert y[0] == pytest.approx(0.5)


def test_drift_blend_endpoints():
    assert drift_blend(7 * np.pi / 8) == pytest.approx(1.0)
    assert drift_blend(9 * np.pi / 8) == pytest.approx(0.0, abs=1e-12)
    assert drift_blend(np.pi) == pytest.approx(np.cos(np.pi / 4))


def test_logistic_map_deterministic_and_bounded():
    spec = DatasetSpec(kind="logistic_map", length=50, seed=4)
    a = build_dataset(spec)[0].values
    b = build_dataset(spec)[0].values
    np.testing.assert_array_equal(a, b)
    assert np.all((a >= 0.0) & (a <= 1.0))


def test_unknown_kind_rejected():
    with pytest.raises(SpecError):
        DatasetSpec(kind="sine", length=10)


def test_build_dataset_lag1_inputs():
    ts, inputs = build_dataset(DatasetSpec(kind="periodic", length=6))
    np.testing.assert_array_equal(inputs, ts.values[:-1])


def test_csv_basic(tmp_path):
    path = tmp_path / "series.csv"
    path.write_text("v\n1\n2\n3\n", encoding="utf-8")
    ts, inputs = load_csv(path, ["v"], {"v": [1]})
    np.testing.assert_array_equal(ts.values[:, 0], [1.0, 2.0, 3.0])
    np.testing.assert_array_equal(ts.values[1:, 0], [2.0, 3.0])
    np.testing.assert_array_equal(inputs[:, 0], [1.0, 2.0])


def test_csv_multi_lag_alignment(tmp_path):
    path = tmp_path / "two.csv"
    path.write_text("a,b\n10,0\n11,1\n12,2\n13,3\n", encoding="utf-8")
    ts, inputs = load_csv(path, ["a"], {"a": [1, 2], "b": [1]})
    # max lag 2 => first usable time index is 1
    np.testing.assert_array_equal(ts.values[:, 0], [11.0, 12.0, 13.0])
    np.testing.assert_array_equal(inputs[0], [11.0, 10.0, 1.0])
    np.testing.assert_array_equal(inputs[1], [12.0, 11.0, 2.0])

    # two target columns, each at lags 1 and 3: max lag 3 => the series
    # starts at row 2, and input row i reads rows 2 + i and i
    path.write_text("a,b\n10,0\n11,1\n12,2\n13,3\n14,4\n15,5\n", encoding="utf-8")
    ts, inputs = load_csv(path, ["a", "b"], {"a": [1, 3], "b": [1, 3]})
    np.testing.assert_array_equal(ts.values, [[12.0, 2.0], [13.0, 3.0], [14.0, 4.0], [15.0, 5.0]])
    np.testing.assert_array_equal(
        inputs, [[12.0, 10.0, 2.0, 0.0], [13.0, 11.0, 3.0, 1.0], [14.0, 12.0, 4.0, 2.0]]
    )


def test_csv_errors(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("v\n", encoding="utf-8")
    with pytest.raises(SpecError):
        load_csv(empty, ["v"], {"v": [1]})
    bad = tmp_path / "bad.csv"
    bad.write_text("v\n1\nx\n", encoding="utf-8")
    with pytest.raises(SpecError):
        load_csv(bad, ["v"], {"v": [1]})
    short = tmp_path / "short.csv"
    short.write_text("v\n1\n2\n", encoding="utf-8")
    with pytest.raises(SpecError):
        load_csv(short, ["v"], {"v": [1, 2]})
    with pytest.raises(SpecError):
        load_csv(tmp_path / "nope.csv", ["v"], {"v": [1]})
    missing = tmp_path / "cols.csv"
    missing.write_text("w\n1\n2\n", encoding="utf-8")
    with pytest.raises(SpecError):
        load_csv(missing, ["v"], {"v": [1]})
    with pytest.raises(SpecError):  # lag 0 would feed y_{t+1} in as x_t
        load_csv(short, ["v"], {"v": [0]})


@pytest.mark.parametrize(
    "parameters",
    [
        {"target_columns": ["v"], "lag_spec": {"v": [1]}},
        {"path": "s.csv", "lag_spec": {"v": [1]}},
        {"path": "s.csv", "target_columns": ["v"]},
        {"path": "s.csv", "target_columns": [], "lag_spec": {"v": [1]}},
        {"path": "s.csv", "target_columns": ["v"], "lag_spec": {}},
        {"path": "s.csv", "target_columns": ["v"], "lag_spec": {"v": []}},
        {"path": "s.csv", "target_columns": ["v"], "lag_spec": {"v": [1, 0]}},
        {"path": "s.csv", "target_columns": ["v"], "lag_spec": {"v": [-1]}},
        {"path": "s.csv", "target_columns": ["v"], "lag_spec": {"v": [1]}, "max_rows": -2},
        {"path": "s.csv", "target_columns": ["v"], "lag_spec": {"v": [1]}, "typo": 1},
        {"path": "s.csv", "target_columns": ["v"], "lag_spec": {"v": [1]}, "max_scale": "false"},
    ],
    ids=[
        "no-path",
        "no-targets",
        "no-lags",
        "empty-targets",
        "empty-lag-spec",
        "empty-lag-list",
        "lag-0",
        "negative-lag",
        "negative-max-rows",
        "unknown-key",
        "max-scale-string",  # scaled, as bool("false") is True
    ],
)
def test_csv_spec_rejected_up_front(parameters):
    with pytest.raises(SpecError):
        DatasetSpec(kind="csv", length=10, parameters=parameters)


def test_csv_max_scaling(tmp_path):
    path = tmp_path / "scale.csv"
    path.write_text("a,b\n-4,1\n2,2\n1,4\n", encoding="utf-8")
    ts, inputs = load_csv(path, ["a"], {"a": [1], "b": [1]}, max_scale=True)
    np.testing.assert_allclose(ts.values[:, 0], [-1.0, 0.5, 0.25])
    np.testing.assert_allclose(inputs[:, 1], [0.25, 0.5])  # b scaled by 4


def test_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    vals = rng.standard_normal(20)
    path = tmp_path / "rt.csv"
    path.write_text("v\n" + "\n".join(repr(float(v)) for v in vals) + "\n", encoding="utf-8")
    ts, _ = load_csv(path, ["v"], {"v": [1]})
    np.testing.assert_array_equal(ts.values[:, 0], vals)


def _csv_spec(path, length):
    parameters = {"path": str(path), "target_columns": ["v"], "lag_spec": {"v": [1]}}
    return DatasetSpec(kind="csv", length=length, parameters=parameters)


def test_csv_length_takes_first_rows(tmp_path):
    path = tmp_path / "five.csv"
    path.write_text("v\n1\n2\n3\n4\n5\n", encoding="utf-8")
    targets, inputs = build_dataset(_csv_spec(path, 2))
    np.testing.assert_array_equal(targets.values[:, 0], [1.0, 2.0])
    np.testing.assert_array_equal(inputs[:, 0], [1.0])
    targets, _ = build_dataset(_csv_spec(path, 5))
    np.testing.assert_array_equal(targets.values[:, 0], [1.0, 2.0, 3.0, 4.0, 5.0])


def test_csv_shorter_than_length_rejected(tmp_path):
    path = tmp_path / "five.csv"
    path.write_text("v\n1\n2\n3\n4\n5\n", encoding="utf-8")
    with pytest.raises(SpecError, match="fewer than the dataset length 6"):
        build_dataset(_csv_spec(path, 6))


def test_csv_max_rows_is_an_unknown_key():
    # the dataset length is the rows to read; max_rows is refused as any unknown key is
    for max_rows in (3, -2):
        parameters = {"path": "s.csv", "target_columns": ["v"], "lag_spec": {"v": [1]}, "max_rows": max_rows}
        with pytest.raises(SpecError) as caught:
            DatasetSpec(kind="csv", length=3, parameters=parameters)
        known = "['path', 'target_columns', 'lag_spec', 'max_scale']"
        assert str(caught.value) == f"parameters of csv: unknown keys ['max_rows'], known {known}"


@pytest.mark.parametrize(
    "kind,parameters",
    [
        ("periodic", {"c": 3.6}),
        ("concept_drift", {"typo": 1}),
        ("logistic_map", {"typo": 1}),  # ran, unread
        ("logistic_map", {"c": True}),  # ran as c = 1.0
        ("logistic_map", {"c": "x"}),
        ("logistic_map", {"c": float("nan")}),
    ],
)
def test_parameters_checked_per_kind(kind, parameters):
    # the message begins with the field's name, which a config reader
    # replaces with the key's
    with pytest.raises(SpecError, match=rf"^parameters of {kind}: "):
        DatasetSpec(kind=kind, length=10, parameters=parameters)


def test_logistic_map_takes_an_integer_c():
    spec = DatasetSpec(kind="logistic_map", length=10, parameters={"c": 3})
    want = DatasetSpec(kind="logistic_map", length=10, parameters={"c": 3.0})
    np.testing.assert_array_equal(build_dataset(spec)[0].values, build_dataset(want)[0].values)


@pytest.mark.parametrize("seed", [-1, True, 1.0])
def test_seed_must_be_an_integer_of_at_least_zero(seed):
    with pytest.raises(SpecError, match="seed must be an integer >= 0"):
        DatasetSpec(kind="logistic_map", length=10, seed=seed)


def test_concept_drift_built_once(monkeypatch):
    real = datasets._concept_drift
    calls = []
    monkeypatch.setattr(datasets, "_concept_drift", lambda length: calls.append(length) or real(length))
    targets, inputs = build_dataset(DatasetSpec(kind="concept_drift", length=6))
    assert calls == [6]
    ys, xs = real(6)
    np.testing.assert_array_equal(targets.values, ys)
    np.testing.assert_array_equal(inputs, xs[:-1])
