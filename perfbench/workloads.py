"""The benchmark's four workloads: seeded configs, cell lists, output checks.

Every workload is one ``fedgames`` CLI command on a config generated from
the benchmark seed, which derives the dataset seed and the cell seeds.
``tiny=True`` gives the same shape at a size for the smoke test.
"""

from __future__ import annotations

import csv
import json
import math
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

COMMON_PARAMS = {"theta": 0.7, "theta_bar": 0.3, "kappa": 1.0, "kappa_bar": 0.5, "gamma": 1.0, "alpha": 0.01}
MC_SAMPLES = 100

# full and reduced solve the same game, so their cells must agree; at the
# seed state they match to ~1e-16
FULL_REDUCED_RTOL = 1e-9
FULL_REDUCED_KEYS = ("rmse_agg", "rmse_worst", "regret")

CELL_FAILURE = re.compile(r"^solver failure in cell policy=(\S+) N=(\d+) seed=(-?\d+): (.*)$")
GRID_FAILURE = re.compile(r"^solver failure: (.*)$")


def _seeds(seed: int, count: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.randrange(2**31) for _ in range(count)]


def _params(T: int, d_y: int, d_z: int) -> dict:
    return dict(COMMON_PARAMS, horizon_T=T, dim_y=d_y, dim_z=d_z)


def meanfield_large(seed: int, tiny: bool) -> dict:
    ds_seed, cell_seed = _seeds(seed, 2)
    return {
        "params": _params(4, 1, 4),
        "mc_samples": MC_SAMPLES,
        "dataset": {"kind": "logistic_map", "length": 9 if tiny else 13, "seed": ds_seed},
        "encoder": {"kind": "rfn"},
        "policies": ["reduced", "decentralized"],
        "n_grid": [32 if tiny else 1024],
        "seeds": [cell_seed],
    }


def full_oracle(seed: int, tiny: bool) -> dict:
    ds_seed, cell_seed = _seeds(seed, 2)
    return {
        "params": _params(4, 1, 4),
        "mc_samples": MC_SAMPLES,
        "dataset": {"kind": "logistic_map", "length": 17, "seed": ds_seed},
        "encoder": {"kind": "rfn"},
        "policies": ["full", "reduced"],
        "n_grid": [2, 3] if tiny else [8, 16],
        "seeds": [cell_seed],
    }


def greedy_spawn(seed: int, tiny: bool) -> dict:
    # The series stays at the CLI's default dataset seed 0, on which ROADMAP
    # item 2 reproduces the greedy divergence: there the greedy cell fails
    # for every benchmark seed tried (0-29). With the series seed derived
    # from the benchmark seed too, it completed for 2 of seeds 1-10, and the
    # throughput would jump between seeds with whether the defect shows.
    (cell_seed,) = _seeds(seed, 1)
    return {
        "params": _params(4, 1, 4),
        "mc_samples": MC_SAMPLES,
        "dataset": {"kind": "logistic_map", "length": 17 if tiny else 201, "seed": 0},
        "encoder": {"kind": "esn"},
        "ridge": {"window_T": 3, "alpha": 0.1, "gamma": 0.1},
        "spawner": {"retire_k": 2 if tiny else 8, "zeta1": 0.1, "zeta2": 0.5, "orthogonalize": True},
        "policies": ["greedy", "decentralized"],
        "n_grid": [8 if tiny else 64],
        "seeds": [cell_seed],
    }


def convergence_sweep(seed: int, tiny: bool) -> dict:
    (conv_seed,) = _seeds(seed, 1)
    T = 4 if tiny else 32
    return {
        "params": _params(T, 2, 6),
        "seed": conv_seed,
        # load_config requires a dataset and policies even for `convergence`
        "dataset": {"kind": "logistic_map", "length": T + 1},
        "policies": ["decentralized"],
        "convergence": {
            "n_grid": [4, 16] if tiny else [4, 16, 64, 256, 1024, 4096],
            "paths": 5 if tiny else 20,
        },
    }


def run_cells(cfg: dict) -> dict:
    """(policy, N, seed) -> agent-steps of the cell, for `fedgames run`."""
    T = cfg["params"]["horizon_T"]
    rounds = (cfg["dataset"]["length"] - 1) // T
    return {
        (policy, n, s): n * rounds * T
        for policy in cfg["policies"]
        for n in cfg["n_grid"]
        for s in cfg["seeds"]
    }


def convergence_cells(cfg: dict) -> dict:
    """N -> agent-steps of the grid point, for `fedgames convergence`."""
    T, paths = cfg["params"]["horizon_T"], cfg["convergence"]["paths"]
    return {n: n * paths * T for n in cfg["convergence"]["n_grid"]}


def cli_failures(stderr: str, cells) -> dict:
    """Failed cell -> message, from the CLI's failure lines."""
    failed = {}
    for line in stderr.splitlines():
        m = CELL_FAILURE.match(line)
        if m:
            failed[(m[1], int(m[2]), int(m[3]))] = m[4]
            continue
        m = GRID_FAILURE.match(line)
        if m:  # `convergence` fails as a whole
            failed.update({cell: m[1] for cell in cells})
    return failed


def _nonfinite_json(value) -> bool:
    if isinstance(value, float):
        return not math.isfinite(value)
    if isinstance(value, dict):
        return any(_nonfinite_json(v) for v in value.values())
    if isinstance(value, list):
        return any(_nonfinite_json(v) for v in value)
    return False


def _read_csv(path: Path) -> list[dict]:
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _nonfinite_row(row: dict) -> bool:
    for value in row.values():
        try:
            if not math.isfinite(float(value)):
                return True
        except ValueError:  # a text column such as `policy`
            pass
    return False


_CELL_FILE = re.compile(r"^(?:run_|spawner_)?(\w+?)_N(\d+)_seed(-?\d+)\.jsonl?$")


def check_run(out: Path, cells) -> dict:
    """Output checks of a `fedgames run` that exited 0; returns cell ->
    reason for the cells that fail one. Every cell must have a results.csv
    row, every number written must be finite, and full cells must match
    their reduced twin."""
    bad = {}
    results = out / "results.csv"
    if not results.exists():
        return {cell: "results.csv missing" for cell in cells}
    rows = {}
    for row in _read_csv(results):
        cell = (row["policy"], int(row["N"]), int(row["seed"]))
        rows[cell] = row
        if _nonfinite_row(row):
            bad[cell] = "non-finite value in results.csv"
    for cell in cells:
        if cell not in rows:
            bad[cell] = "no row in results.csv"
    for path in sorted(out.glob("*.json*")) + sorted((out / "coeffs").glob("*.json")):
        text = path.read_text(encoding="utf-8")
        values = [json.loads(line) for line in text.splitlines() if line] if path.suffix == ".jsonl" else json.loads(text)
        if path.name == "report.json":
            for entry in values["cells"]:
                if _nonfinite_json(entry):
                    bad[(entry["policy"], entry["N"], entry["seed"])] = "non-finite value in report.json"
            for entry in values["mc_means_over_seeds"]:
                if _nonfinite_json(entry):
                    bad.update({
                        cell: "non-finite Monte-Carlo mean in report.json"
                        for cell in cells if cell[:2] == (entry["policy"], entry["N"])
                    })
        elif _nonfinite_json(values):
            m = _CELL_FILE.match(path.name)
            cell = (m[1], int(m[2]), int(m[3])) if m else None
            targets = [cell] if cell in cells else list(cells)
            bad.update({c: f"non-finite value in {path.relative_to(out)}" for c in targets})
    for policy, n, s in cells:
        twin = ("reduced", n, s)
        if policy != "full" or twin not in rows or (policy, n, s) not in rows:
            continue
        for key in FULL_REDUCED_KEYS:
            a, b = float(rows[(policy, n, s)][key]), float(rows[twin][key])
            if not math.isclose(a, b, rel_tol=FULL_REDUCED_RTOL, abs_tol=0.0):
                bad[(policy, n, s)] = f"full {key} {a!r} != reduced {b!r} (rtol {FULL_REDUCED_RTOL})"
    return bad


def check_convergence(out: Path, cells) -> dict:
    """Output checks of a `fedgames convergence` that exited 0: one finite
    convergence.csv row per N and finite gap_report.csv rows for every N.
    Returns N -> reason for the grid points that fail one."""
    bad = {}
    for name in ("convergence.csv", "gap_report.csv"):
        path = out / name
        if not path.exists():
            return {cell: f"{name} missing" for cell in cells}
        seen = set()
        for row in _read_csv(path):
            n = int(row["N"])
            seen.add(n)
            if _nonfinite_row(row):
                bad[n] = f"non-finite value in {name}"
        for n in cells:
            if n not in seen:
                bad[n] = f"no row for N={n} in {name}"
    return bad


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # fedgames CLI subcommand
    config: Callable[[int, bool], dict]
    cells: Callable[[dict], dict]
    check: Callable[[Path, dict], dict]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("meanfield_large", "run", meanfield_large, run_cells, check_run),
        Workload("full_oracle", "run", full_oracle, run_cells, check_run),
        Workload("greedy_spawn", "run", greedy_spawn, run_cells, check_run),
        Workload("convergence_sweep", "convergence", convergence_sweep, convergence_cells, check_convergence),
    )
}
