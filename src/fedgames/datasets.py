"""Synthetic target generators and CSV ingestion.

Each dataset yields targets y_0..y_T together with the encoder input
sequence x_0..x_{T-1}; x_t is fed to the encoders at step t, whose action
produces the prediction of y_{t+1}.

Generators:
  periodic      values alternating between +0.9 and -0.9, input is the
                lag-1 target.
  logistic_map  classical quadratic map x' = c x (1 - x) with c = 3.6,
                or the parameter c. The reference tooling for this series does not print its
                recurrence, so the classical map in the chaotic regime
                stands in for it; nothing downstream depends on the exact
                trajectory.
  concept_drift two bivariate regimes of x = [k, k, sqrt(k)] blended by
                cos(2 (k - 7 pi / 8)) on [7 pi / 8, 9 pi / 8]; k runs on
                an even grid over [0, 2 pi]. Input is x itself.
  csv           generic numeric CSV with per-column lag lists; ``length``
                is the number of data rows read from the top of the
                file.
"""

from __future__ import annotations

import csv
import math
import numbers
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import SEED, SpecError, check_fields
from .model import TargetSeries

# each kind's parameters, with the rule of a given value as (what it must
# be, its check); None for the csv keys that the checks below read
FINITE_NUMBER = "a finite number", lambda v: (
    isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)
)
PARAMETERS = {
    "periodic": {},
    "logistic_map": {"c": FINITE_NUMBER},
    "concept_drift": {},
    "csv": {
        "path": None,
        "target_columns": None,
        "lag_spec": None,
        "max_scale": ("true or false", lambda v: isinstance(v, bool)),
    },
}
KINDS = tuple(PARAMETERS)


@dataclass(frozen=True)
class DatasetSpec:
    kind: str
    length: int
    parameters: dict = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        check_fields(self, (f"one of {KINDS}", KINDS.__contains__), "kind", error=SpecError)
        check_fields(self, (">= 2", lambda n: n >= 2), "length", error=SpecError)
        check_fields(self, SEED, "seed", error=SpecError)
        # each message begins with the field's name, as check_fields' do
        rules = PARAMETERS[self.kind]
        unknown = set(self.parameters) - set(rules)
        if unknown:
            raise SpecError(f"parameters of {self.kind}: unknown keys {sorted(unknown)}, known {list(rules)}")
        for key, value in self.parameters.items():
            if rules[key] is not None and not rules[key][1](value):
                raise SpecError(f"parameters of {self.kind}: {key} must be {rules[key][0]}, got {value!r}")
        if self.kind == "csv":
            missing = {"path", "target_columns", "lag_spec"} - set(self.parameters)
            if missing:
                raise SpecError(f"csv dataset needs parameters {sorted(missing)}")
            if not self.parameters["target_columns"]:
                raise SpecError("csv dataset needs at least one target column")
            _check_lag_spec(self.parameters["lag_spec"])


def _check_lag_spec(lag_spec) -> None:
    """Every listed column needs at least one lag, each an integer >= 1:
    lag 0 would put the target itself into the input."""
    if not isinstance(lag_spec, dict) or not lag_spec:
        raise SpecError("lag_spec must map at least one column to its lags")
    for name, lags in lag_spec.items():
        if not isinstance(lags, (list, tuple)) or not lags:
            raise SpecError(f"lag_spec[{name!r}] must be a non-empty list of lags")
        if any(not isinstance(lag, numbers.Integral) or lag < 1 for lag in lags):
            raise SpecError(f"lags of {name!r} must be integers >= 1, got {lags}")


LOGISTIC_DEFAULTS = {"c": 3.6}


def _periodic(length: int) -> np.ndarray:
    t = np.arange(length)
    return (0.9 * (-1.0) ** t)[:, None]


def _logistic_map(length: int, seed: int, parameters: dict) -> np.ndarray:
    c = parameters.get("c", LOGISTIC_DEFAULTS["c"])
    rng = np.random.default_rng(seed)
    x = float(rng.uniform(0.2, 0.8))
    out = np.empty(length)
    for i in range(length):
        out[i] = x
        x = c * x * (1.0 - x)
    return out[:, None]


def drift_blend(k: float) -> float:
    """Cosine regime blend: 1 before 7pi/8, 0 after 9pi/8."""
    lo, hi = 7.0 * np.pi / 8.0, 9.0 * np.pi / 8.0
    if k < lo:
        return 1.0
    if k > hi:
        return 0.0
    return float(np.cos(2.0 * (k - lo)))


def drift_targets(x: np.ndarray) -> np.ndarray:
    """Evaluate the two drift regimes at x = [k, k, sqrt(k)] and blend."""
    x1, x2, x3 = x
    y_first = np.array(
        [
            x1**2 + np.sin(x2) + x1 * x3 + 0.5 * np.cos(10.0 * x1),
            x1 * np.cos(x2) + x3 - np.exp(-x2),
        ]
    )
    y_second = np.array(
        [
            x1 + x2 - np.sin(x3),
            np.cos(x1) * np.sin(x2) + x3**2 + 0.25 * np.cos(10.0 * x1),
        ]
    )
    a = drift_blend(x1)
    return a * y_first + (1.0 - a) * y_second


def _concept_drift(length: int) -> tuple[np.ndarray, np.ndarray]:
    ks = np.linspace(0.0, 2.0 * np.pi, length)
    xs = np.stack([ks, ks, np.sqrt(ks)], axis=1)
    ys = np.stack([drift_targets(x) for x in xs])
    return ys, xs


def build_dataset(spec: DatasetSpec) -> tuple[TargetSeries, np.ndarray]:
    """(targets, inputs) pair; inputs[t] is the encoder input at step t:
    the lag-1 target, concept_drift's x, or the csv's lagged columns. A
    synthetic series is deterministic under the spec's seed."""
    if spec.kind == "csv":
        return load_csv(
            spec.parameters["path"],
            spec.parameters["target_columns"],
            spec.parameters["lag_spec"],
            length=spec.length,
            max_scale=spec.parameters.get("max_scale", False),
        )
    if spec.kind == "periodic":
        vals = xs = _periodic(spec.length)
    elif spec.kind == "logistic_map":
        vals = xs = _logistic_map(spec.length, spec.seed, spec.parameters)
    else:
        vals, xs = _concept_drift(spec.length)
    return TargetSeries(values=vals), xs[:-1]


def load_csv(
    path,
    target_columns: list[str],
    lag_spec: dict[str, list[int]],
    length: int | None = None,
    max_scale: bool = False,
) -> tuple[TargetSeries, np.ndarray]:
    """Load a numeric CSV into (targets, lagged inputs).

    ``length`` reads the first ``length`` data rows (all rows if None); a
    file with fewer rows is a ``SpecError``.

    ``lag_spec`` maps a column name to the list of lags to include;
    inputs[t] concatenates column[t - lag + 1] over all (column, lag)
    pairs, so lag 1 of a target column reproduces the plain lag-1 input
    convention. Targets start at the first index where every lag is
    available; values[0] seeds the predictions. ``max_scale`` divides
    each column by its own maximum absolute value over the loaded rows.
    """
    _check_lag_spec(lag_spec)
    path = Path(path)
    if not path.exists():
        raise SpecError(f"csv file not found: {path}")
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise SpecError(f"{path} has no header row")
        rows = list(reader)
    if length is not None:
        if len(rows) < length:
            raise SpecError(f"{path} has {len(rows)} data rows, fewer than the dataset length {length}")
        rows = rows[:length]
    if not rows:
        raise SpecError(f"{path} contains no data rows")

    needed = list(dict.fromkeys(list(target_columns) + list(lag_spec)))
    cols: dict[str, np.ndarray] = {}
    for name in needed:
        if name not in rows[0]:
            raise SpecError(f"missing column {name!r} in {path}")
        try:
            cols[name] = np.array([float(r[name]) for r in rows])
        except (TypeError, ValueError) as exc:
            raise SpecError(f"non-numeric cell in column {name!r} of {path}") from exc
        if not np.all(np.isfinite(cols[name])):
            raise SpecError(f"column {name!r} of {path} contains NaN or inf")
        if max_scale:
            peak = np.max(np.abs(cols[name]))
            if peak > 0:
                cols[name] = cols[name] / peak

    n_rows = len(rows)
    max_lag = max(max(lags) for lags in lag_spec.values())
    start = max_lag - 1
    if n_rows - start < 2:
        raise SpecError(f"{path}: series too short for max lag {max_lag}")

    ts = np.arange(start, n_rows)  # time base of the target series
    targets = np.stack([np.stack([cols[c][t] for c in target_columns]) for t in ts])
    in_ts = ts[:-1]
    inputs = np.stack(
        [
            np.concatenate(
                [[cols[c][t - lag + 1] for lag in lags] for c, lags in lag_spec.items()]
            )
            for t in in_ts
        ]
    )
    return TargetSeries(values=targets), inputs
