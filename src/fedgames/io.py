"""Serialization: coefficient dumps, run records, gap reports.

Matrices are stored row-major with explicit dims so the JSON snapshots
are self-describing: {"dims": [r, c], "data": [..]}.

A coefficient snapshot is byte for byte the text that ``json.dumps``
writes for it. The full solver's snapshot is made in a way of its own:
its dense arrays repeat each exchangeable block exactly (the N = 16
snapshot of perfbench's ``full_oracle`` at seed 1 holds 5716 numbers,
609 of them distinct), so the text of each distinct number is made once
and then gathered. The other snapshots repeat few numbers, and go
through ``json.dumps`` whole, which is faster for them.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

SCHEMA_VERSION = "4"


def _enc_array(a: np.ndarray) -> dict:
    a = np.asarray(a, dtype=float)
    return {"dims": list(a.shape), "data": a.ravel(order="C")}


def _dec_array(d: dict) -> np.ndarray:
    return np.array(d["data"], dtype=float).reshape(d["dims"])


def _dumps_distinct(payload: dict) -> str:
    """``json.dumps(payload)``, where each encoded array's "data" is a
    float64 array, making the text of each distinct number once. Numbers
    are told apart by their bits, so -0.0 keeps its own text; the texts
    are json's own, so NaN and the infinities read as json writes them."""
    arrays = [value["data"] for value in payload.values() if isinstance(value, dict)]
    bits, inverse = np.unique(np.concatenate(arrays).view(np.uint64), return_inverse=True)
    distinct = json.dumps(bits.view(np.float64).tolist())[1:-1].split(", ")
    texts = np.array(distinct, dtype=object)[inverse].tolist()
    items, start = [], 0
    for name, value in payload.items():
        if isinstance(value, dict):
            stop = start + value["data"].size
            value = f'{{"dims": {json.dumps(value["dims"])}, "data": [{", ".join(texts[start:stop])}]}}'
            start = stop
        else:
            value = json.dumps(value)
        items.append(f"{json.dumps(name)}: {value}")
    return f"{{{', '.join(items)}}}"


def dump_coeffs(fields: dict, kind: str, path) -> None:
    """JSON snapshot of a solver's coefficients, given as name -> array
    (or scalar, or tuple): the text of ``json.dumps``, the arrays as lists."""
    payload = {"schema_version": SCHEMA_VERSION, "kind": kind}
    for name, value in fields.items():
        if isinstance(value, np.ndarray):
            payload[name] = _enc_array(value)
        elif isinstance(value, tuple):
            payload[name] = list(value)
        else:
            payload[name] = value
    if kind == "full":
        text = _dumps_distinct(payload)
    else:
        text = json.dumps(payload, default=np.ndarray.tolist)
    Path(path).write_text(text, encoding="utf-8")


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
    """One row per (N, t) of a ``diagnostics.GapReport``; each gap is
    written as the repr of a Python float, which numpy 2's float64 repr
    (``np.float64(...)``) is not."""
    gaps = report.lambda_gap, report.meanfield_gap, report.stderr
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["N", "t", "lambda_gap", "meanfield_gap", "stderr"])
        for p, n in enumerate(report.n_grid):
            for t in range(report.lambda_gap.shape[1]):
                writer.writerow([n, t, *(repr(float(gap[p, t])) for gap in gaps)])


def write_jsonl(events, path) -> None:
    with Path(path).open("w", encoding="utf-8") as fh:
        for ev in events:
            fh.write(json.dumps(ev) + "\n")
