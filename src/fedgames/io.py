"""Serialization: coefficient dumps, run records, gap reports.

Matrices are stored row-major with explicit dims so the JSON snapshots
are self-describing: {"dims": [r, c], "data": [..]}.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

SCHEMA_VERSION = "4"


def _enc_array(a: np.ndarray) -> dict:
    a = np.asarray(a, dtype=float)
    return {"dims": list(a.shape), "data": a.ravel(order="C").tolist()}


def _dec_array(d: dict) -> np.ndarray:
    return np.array(d["data"], dtype=float).reshape(d["dims"])


def dump_coeffs(fields: dict, kind: str, path) -> None:
    """JSON snapshot of a solver's coefficients, given as name -> array
    (or scalar, or tuple)."""
    payload = {"schema_version": SCHEMA_VERSION, "kind": kind}
    for name, value in fields.items():
        if isinstance(value, np.ndarray):
            payload[name] = _enc_array(value)
        elif isinstance(value, tuple):
            payload[name] = list(value)
        else:
            payload[name] = value
    Path(path).write_text(json.dumps(payload), encoding="utf-8")


def load_coeff_arrays(path) -> dict:
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    return {
        k: _dec_array(v) if isinstance(v, dict) and "dims" in v else v
        for k, v in payload.items()
    }


def export_run_record_json(record, path) -> None:
    """One cell's summary: its metrics, its largest prediction magnitude
    and ``diverged`` flag, each agent's total cost ``costs`` (N,), and per
    round the quantiles of the agents' costs, ``round_cost_quantiles``
    {"min", "median", "p90", "max"} -> (rounds,).
    The spawner's events are not repeated here: `write_jsonl` logs them."""
    summary = {
        "schema_version": SCHEMA_VERSION,
        "policy": record.policy,
        "seed": record.seed,
        "regret": record.regret,
        "rmse_aggregated": record.rmse_aggregated,
        "rmse_worst": record.rmse_worst,
        "rmse_bottom20": record.rmse_bottom20,
        "messages_per_step": record.messages_per_step,
        "runtime_ms": record.runtime_ms,
        "max_abs_prediction": record.max_abs_prediction,
        "diverged": record.diverged,
        "costs": record.costs.tolist(),
        "round_cost_quantiles": {name: q.tolist() for name, q in record.round_cost_quantiles.items()},
    }
    Path(path).write_text(json.dumps(summary), encoding="utf-8")


def export_gap_report_csv(report, path) -> None:
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["N", "t", "lambda_gap", "meanfield_gap", "stderr"])
        for row in report.rows:
            writer.writerow(
                [row.N, row.t, repr(row.lambda_gap), repr(row.meanfield_gap), repr(row.stderr)]
            )


def write_jsonl(events, path) -> None:
    with Path(path).open("w", encoding="utf-8") as fh:
        for ev in events:
            fh.write(json.dumps(ev) + "\n")
