"""Command-line entry points: run, convergence, verify.

``run`` executes the (policy, N, seed) cell grid of a JSON config (the
cells of a seed share its dataset, latent bank and structured pass,
``harness.SeedWork``; the cells of one N play in groups of stacked
episodes, ``harness.run_group``), writes each cell's files as its group
completes, and results.csv and report.json when the grid ends.
``convergence`` emits the N-versus-gap table used for the mean-field
convergence plots. ``verify`` runs three built-in fixture suites
(structure, QP, convergence) and prints a pass/fail table.

Exit codes: 0 success, 2 config error, 3 solver failure (each failing
cell is printed as its group is done; the cells that completed are still
written). All
outputs are deterministic under a fixed config and seeds, except the
measured runtime_ms column, which the determinism fingerprint therefore
excludes.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import logging
import sys
import time
from pathlib import Path

import numpy as np

from .datasets import DatasetSpec
from .diagnostics import ConvergenceScenario, limit_gap_diagnostic
from .errors import SEED, ConfigError, FedGamesError
from .harness import POLICIES, EncoderConfig, Scenario, SeedWork, SpawnerConfig, run_episode, run_group
from .io import (
    SCHEMA_VERSION,
    dump_coeffs,
    export_gap_report_csv,
    export_run_record_json,
    write_jsonl,
)
from .model import GameParams, TargetSeries, estimate_moments  # noqa: F401  (perfbench's tracer wraps estimate_moments here)
from .nash_full import check_block_structure, full_backward_pass
from .nash_meanfield import decentralized_backward_pass  # noqa: F401  (perfbench's tracer wraps it here)
from .nash_reduced import reduced_backward_pass
from .ridge import RidgeConfig

logger = logging.getLogger(__name__)

RESULTS_HEADER = ["policy", "N", "seed", "rmse_agg", "rmse_worst", "regret", "runtime_ms"]

# `run` plays the cells of one N as groups of up to GROUP_AGENTS // N
# cells (at least one), each group as one episode on stacked (G N, ...)
# buffers (harness.run_group). At small N a step's cost is numpy's
# per-call overhead, which a group pays once for all of its cells; the
# bound keeps a group's per-step arrays within a few hundred kB at the
# benchmark's dims, and lets the two cells of an N of 1024 share a group.
GROUP_AGENTS = 2048


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _distinct(v: list) -> bool:
    """Non-empty, with distinct (hashable) entries: a repeated grid entry
    would run its cells twice."""
    return bool(v) and len(set(v)) == len(v)


def _ints(low: int):
    return f"a non-empty list of distinct integers >= {low}", lambda v: (
        isinstance(v, list) and all(_is_int(n) and n >= low for n in v) and _distinct(v)
    )


# JSON types, as (what a value must be, its check)
INT = "an integer", _is_int
INTS = "a list of integers", lambda v: isinstance(v, list) and all(map(_is_int, v))
NUMBER = "a number", _is_number
BOOL = "true or false", lambda v: isinstance(v, bool)
STR = "a string", lambda v: isinstance(v, str)
OBJECT = "an object", lambda v: isinstance(v, dict)
MATRIX = "a number or a list of equal-length rows of numbers", lambda v: _is_number(v) or (
    isinstance(v, list)
    and all(isinstance(row, list) and all(map(_is_number, row)) for row in v)
    and len({len(row) for row in v}) <= 1
)

# The config schema: each section's keys (the top level is "") and their
# JSON types, checked when the config is loaded. A section builds the
# dataclass that _BUILDS names: a key sets the field of its name, or of
# the name in _FIELDS, and an omitted key takes the field's default; a
# field without one makes its key required, as is params; `run` requires
# dataset and policies too (cell_grid). The keys that the commands read
# themselves take their defaults from _DEFAULTS.
# The values' ranges are the dataclasses' rules (errors.check_fields),
# checked as each is built, and cell_grid's for the whole grid.
_SCHEMA = {
    "": {
        "schema_version": STR,
        "params": OBJECT,
        "mc_samples": INT,
        "seed": SEED,
        "dataset": OBJECT,
        "encoder": OBJECT,
        "policies": (
            f"a non-empty list of distinct policy names from {list(POLICIES)}",
            lambda v: isinstance(v, list) and all(p in POLICIES for p in v) and _distinct(v),
        ),
        "n_grid": _ints(1),
        "seeds": _ints(0),
        "ridge": OBJECT,
        "aggregation": OBJECT,
        "spawner": OBJECT,
        "convergence": OBJECT,
        "output_dir": STR,
    },
    "params": dict(
        theta=MATRIX, theta_bar=MATRIX, kappa=NUMBER, kappa_bar=NUMBER, gamma=NUMBER, alpha=NUMBER,
        horizon_T=INT, population_N=INT, dim_y=INT, dim_z=INT,
    ),
    "dataset": {"kind": STR, "length": INT, "parameters": OBJECT, "seed": INT},
    "encoder": {"kind": STR, "sigma": NUMBER, "activation": STR},
    "ridge": {"window_T": INT, "alpha": NUMBER, "gamma": NUMBER},
    "aggregation": {"alpha_a": NUMBER, "window_Ta": INT},
    "spawner": dict(retire_k=INT, lam=NUMBER, sigma_t=NUMBER, zeta1=NUMBER, zeta2=NUMBER, orthogonalize=BOOL),
    "convergence": {"n_grid": INTS, "paths": INT, "latent_mean": NUMBER, "latent_half_width": NUMBER},
}
_BUILDS = {
    "": Scenario,
    "params": GameParams,
    "dataset": DatasetSpec,
    "encoder": EncoderConfig,
    "ridge": RidgeConfig,
    "aggregation": Scenario,
    "spawner": SpawnerConfig,
    "convergence": ConvergenceScenario,
}
_FIELDS = {"aggregation.alpha_a": "aggregation_alpha", "aggregation.window_Ta": "aggregation_window"}
# n_grid defaults to [params.population_N], and seeds to [seed]
_DEFAULTS = {"seed": 0, "output_dir": "out", "params.population_N": 2}


def _key(section: str, key: str) -> str:
    return f"{section}.{key}" if section else key


def _field(section: str, key: str):
    """The dataclass field that ``key`` of ``section`` sets, or None for a
    section or a key that the commands read themselves."""
    dotted = _key(section, key)
    if dotted in _DEFAULTS or not section and key in _SCHEMA:
        return None
    name = _FIELDS.get(dotted, key)
    return next((f for f in dataclasses.fields(_BUILDS[section]) if f.name == name), None)


def _required(section: str, key: str) -> bool:
    f = _field(section, key)
    if f is None:
        return not section and key == "params"
    return f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING


def _check_type(key: str, kind, value) -> None:
    what, ok = kind
    if not ok(value):
        raise ConfigError(f"{key} must be {what}, got {value!r}")


def load_config(path) -> dict:
    """The config at ``path``, its keys and their types checked against
    the schema in one pass: unknown keys, missing required ones and a value
    of the wrong JSON type are each a ConfigError naming the key."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise ConfigError(f"config not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    for section, schema in _SCHEMA.items():
        if section and section not in raw:
            continue
        values = _section(raw, section)
        where = _key("config", section)
        unknown = set(values) - set(schema)
        if unknown:
            raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")
        missing = {key for key in schema if key not in values and _required(section, key)}
        if missing:
            raise ConfigError(f"missing keys in {where}: {sorted(missing)}")
        for key, value in values.items():
            _check_type(_key(section, key), schema[key], value)
    return raw


def _section(cfg: dict, section: str) -> dict:
    if not section:
        return cfg
    return cfg[section] if section in cfg else {}


def _get(cfg: dict, dotted: str):
    """The value of a key that the commands read themselves, or its default."""
    section, _, key = dotted.rpartition(".")
    values = _section(cfg, section)
    return values[key] if key in values else _DEFAULTS[dotted]


def _given(cfg: dict, section: str) -> dict:
    """{field: (key, value)} of the keys of ``section`` in ``cfg`` that set
    a field of its dataclass."""
    return {
        f.name: (_key(section, key), value)
        for key, value in _section(cfg, section).items()
        if (f := _field(section, key)) is not None
    }


def _build(cls, given: dict, **built):
    """``cls`` from the fields ``given`` (as ``_given`` returns them) and
    ``built``. An error of its rules, which begins with the field's name,
    becomes a ConfigError that begins with the key's."""
    try:
        return cls(**built, **{name: value for name, (_, value) in given.items()})
    except (ValueError, FedGamesError) as exc:
        name, _, rest = str(exc).partition(" ")
        raise ConfigError(f"{given[name][0] if name in given else name} {rest}") from exc


def build_params(cfg: dict, n: int) -> GameParams:
    return _build(GameParams, _given(cfg, "params"), population_N=n)


def build_scenario(cfg: dict, n: int) -> Scenario:
    sections = {
        section: _build(_BUILDS[section], _given(cfg, section))
        for section in ("dataset", "encoder", "ridge", "spawner")
        if section in cfg
    }
    given = _given(cfg, "") | _given(cfg, "aggregation")
    return _build(Scenario, given, params=build_params(cfg, n), **sections)


def cell_grid(cfg: dict, seed_override=None):
    """The (policy, N, seed) cells of a loaded `run` config. The rules that
    need the whole grid are checked here, before any cell runs. Left to
    the cells are the full solver's N ceiling and the checks of the built
    dataset, its column count against `dim_y` and its length against one
    round of `horizon_T` (`harness.SeedWork`)."""
    missing = {"dataset", "policies"} - set(cfg)
    if missing:
        raise ConfigError(f"missing keys in config: {sorted(missing)}")
    ns = cfg["n_grid"] if "n_grid" in cfg else [_get(cfg, "params.population_N")]
    if seed_override is None:
        seeds = cfg["seeds"] if "seeds" in cfg else [_get(cfg, "seed")]
    else:
        _check_type("--seed-override", _SCHEMA[""]["seed"], seed_override)
        seeds = [seed_override]
    if "greedy" in cfg["policies"] and "ridge" not in cfg:
        raise ConfigError("policy 'greedy' needs a ridge section")
    if "spawner" in cfg and not cfg["spawner"]["retire_k"] < min(ns):
        raise ConfigError(
            f"spawner.retire_k must be below every N in the grid, got {cfg['spawner']['retire_k']!r} "
            f"with N = {min(ns)}"
        )
    return [(policy, n, seed) for policy in cfg["policies"] for n in ns for seed in seeds]


def _round0_coeff_dump(policy, scenario, seed, record, coeff_dir):
    """Write agent 1's first-round coefficients, as solved by the episode,
    for a regression snapshot, and return the file's path; a policy that
    solves nothing has none (None).

    The reduced and decentralized solvers hold only agent 1's value
    function already. The full solver holds every agent's P_n and S_n,
    (N, T+1, N d_y, N d_y) and (N, T+1, N d_y); the snapshot keeps
    agent 1's, as ``P1`` and ``S1``, so that no snapshot grows as N^3.
    Its ``G``, ``H`` and health figures are written whole: the step
    system matrices it keeps are written as their ``condition_numbers``."""
    if record.round0_coeffs is None:
        return None
    kind, coeffs = record.round0_coeffs
    fields = vars(coeffs)
    if kind == "full":
        fields = (
            {"P1": coeffs.P[0], "S1": coeffs.S[0]}
            | {name: value for name, value in fields.items() if name not in ("P", "S", "system")}
            | {"condition_numbers": coeffs.condition_numbers}
        )
    n = scenario.params.population_N
    path = Path(coeff_dir) / f"{policy}_N{n}_seed{seed}.json"
    dump_coeffs(fields, kind, path)
    return path


def results_fingerprint(path) -> str:
    """Canonical digest of results.csv with the volatile runtime column
    blanked; two runs with the same config and seeds must agree."""
    import hashlib

    with Path(path).open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    idx = rows[0].index("runtime_ms")
    for row in rows[1:]:
        row[idx] = ""
    blob = "\n".join(",".join(r) for r in rows)
    return hashlib.sha256(blob.encode()).hexdigest()


def _write_cell(out_dir: Path, cell, scenario, record) -> tuple[list, dict]:
    """Write a completed cell's run_*.json, its spawner log and its round-0
    snapshot, log its INFO line, and return its results.csv row and its
    report.json entry, which hold all that the grid keeps of the cell."""
    policy, n, seed = cell
    write_start = time.perf_counter()
    written = [out_dir / f"run_{policy}_N{n}_seed{seed}.json"]
    export_run_record_json(record, written[0])
    if record.spawn_events:
        written.append(out_dir / f"spawner_{policy}_N{n}_seed{seed}.jsonl")
        write_jsonl(record.spawn_events, written[-1])
    written.append(_round0_coeff_dump(policy, scenario, seed, record, out_dir / "coeffs"))
    if logger.isEnabledFor(logging.INFO):  # the byte count costs a stat per file
        logger.info(
            "cell policy=%s N=%d seed=%d: episode %.3f s, output writing %.3f s, %d bytes written",
            policy,
            n,
            seed,
            record.runtime_ms / 1000.0,
            time.perf_counter() - write_start,
            sum(path.stat().st_size for path in written if path is not None),
        )
    metrics = record.rmse_aggregated, record.rmse_worst, record.regret, record.runtime_ms
    row = [policy, n, seed, *map(repr, metrics)]
    entry = {
        "policy": policy,
        "N": n,
        "seed": seed,
        "regret": record.regret,
        "rmse_agg": record.rmse_aggregated,
        "rmse_worst": record.rmse_worst,
        "rmse_bottom20": record.rmse_bottom20,
        "messages_per_step": record.messages_per_step,
        "max_abs_prediction": record.max_abs_prediction,
        "diverged": record.diverged,
    }
    return row, entry


def _groups(cells) -> list:
    """The grid's cells grouped by N, in grid order, each N's cells cut
    into groups of up to GROUP_AGENTS // N."""
    by_n = {}
    for cell in cells:
        by_n.setdefault(cell[1], []).append(cell)
    return [
        same_n[i : i + size]
        for n, same_n in by_n.items()
        for size in [max(1, GROUP_AGENTS // n)]
        for i in range(0, len(same_n), size)
    ]


def cmd_run(args) -> int:
    try:
        cfg = load_config(args.config)
        cells = cell_grid(cfg, args.seed_override)
        # a cell's scenario depends only on its N; built in grid order, so
        # the first error is the first failing cell's
        scenarios = {n: build_scenario(cfg, n) for n in dict.fromkeys(n for _, n, _ in cells)}
    except (ConfigError, FedGamesError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if args.dry_run:
        print(f"{len(cells)} cells:")
        for policy, n, seed in cells:
            print(f"  policy={policy} N={n} seed={seed}")
        return 0

    out_dir = Path(args.out or _get(cfg, "output_dir"))
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "coeffs").mkdir(exist_ok=True)

    # the cells of a seed share its dataset, latent bank and structured
    # pass, built at the seed's first group and held until the grid ends
    # (every N's groups hold every seed)
    pairs = {(policy, n) for policy, n, _ in cells}  # the grid is a full product: every seed runs every pair
    shared, tried = {}, set()
    # each group's files are written as it completes, and its records are
    # then dropped. If building a seed's work or playing the group raises,
    # the group's cells run again one at a time (a cell whose seed has no
    # work builds its own), so each failed cell is reported on its own and
    # the run exits 3, and the cells that completed still get their outputs.
    # A seed whose work raised is not built again: run_group rejects its
    # later groups, whose cells then run alone at once
    kept = {}  # cell -> (results.csv row, report.json entry)
    failed = (FedGamesError, ValueError, np.linalg.LinAlgError)
    for group in _groups(cells):
        n = group[0][1]
        records = None
        try:
            for _, _, seed in group:
                if seed not in tried:
                    tried.add(seed)
                    shared[seed] = SeedWork(scenarios[n], seed, pairs)
            records = run_group([(policy, seed) for policy, _, seed in group], scenarios[n], shared)
        except failed:
            pass
        for i, (policy, _, seed) in enumerate(group):
            try:
                record = records[i] if records else run_episode(policy, scenarios[n], seed, shared=shared.get(seed))
            except failed as exc:
                print(f"solver failure in cell policy={policy} N={n} seed={seed}: {exc}", file=sys.stderr)
                continue
            kept[policy, n, seed] = _write_cell(out_dir, (policy, n, seed), scenarios[n], record)

    with (out_dir / "results.csv").open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(RESULTS_HEADER)
        writer.writerows(kept[cell][0] for cell in sorted(kept))
    # sample-path metrics live per cell; Monte-Carlo means over seeds are
    # exported alongside, labeled as such. Each (policy, N) is averaged in
    # grid order, which sets the means' last bits
    per_pair = {}
    for cell in filter(kept.__contains__, cells):
        per_pair.setdefault(cell[:2], []).append(kept[cell][1])
    aggregates = [
        {"policy": policy, "N": n, "seeds": len(entries)}
        | {
            f"mc_mean_{name}": float(np.mean([e[name] for e in entries]))
            for name in ("regret", "rmse_agg", "rmse_worst", "rmse_bottom20")
        }
        for (policy, n), entries in sorted(per_pair.items(), key=lambda g: (cfg["policies"].index(g[0][0]), g[0][1]))
    ]
    report = {
        "schema_version": SCHEMA_VERSION,
        "cells": [kept[cell][1] for cell in sorted(kept)],
        "mc_means_over_seeds": aggregates,
        "config": cfg,
    }
    (out_dir / "report.json").write_text(json.dumps(report), encoding="utf-8")
    print(f"wrote {out_dir / 'results.csv'} ({len(kept)} cells)")
    return 3 if len(kept) < len(cells) else 0


def _convergence_scenario(cfg: dict) -> ConvergenceScenario:
    # every N of the grid overrides the population size
    params = build_params(cfg, _get(cfg, "params.population_N"))
    seed = _get(cfg, "seed")
    rng = np.random.default_rng(seed)
    targets = TargetSeries(values=rng.standard_normal((params.horizon_T + 1, params.dim_y)))
    return _build(ConvergenceScenario, _given(cfg, "convergence"), params=params, targets=targets, seed=seed)


def cmd_convergence(args) -> int:
    try:
        cfg = load_config(args.config)
        scenario = _convergence_scenario(cfg)
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out_dir = Path(args.out or _get(cfg, "output_dir"))
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        report = limit_gap_diagnostic(scenario)
    except FedGamesError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    export_gap_report_csv(report, out_dir / "gap_report.csv")
    with (out_dir / "convergence.csv").open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["N", "lambda_gap", "meanfield_gap", "stderr", "monotone_2se"])
        for row in report.per_n():
            writer.writerow(
                [
                    row["N"],
                    repr(row["lambda_gap"]),
                    repr(row["meanfield_gap"]),
                    repr(row["stderr"]),
                    int(row["monotone_2se"]),
                ]
            )
    print(f"wrote {out_dir / 'convergence.csv'} ({len(scenario.n_grid)} rows)")
    return 0


def _verify_structure() -> tuple[bool, str]:
    from .model import exact_moments_deterministic

    rng = np.random.default_rng(2024)
    T, N, d = 4, 3, 1
    params = GameParams(
        theta=0.8,
        theta_bar=0.15,
        kappa=1.2,
        kappa_bar=0.6,
        gamma=1.0,
        alpha=0.05,
        horizon_T=T,
        population_N=N,
        dim_y=d,
        dim_z=d,
    )
    zs = [rng.standard_normal((d, d)) for _ in range(T)]
    targets = TargetSeries(values=rng.standard_normal((T + 1, d)))
    moments = exact_moments_deterministic(zs)
    full = full_backward_pass(params, moments, targets)
    red = reduced_backward_pass(params, moments, targets)
    worst = 0.0
    for t in range(T):
        worst = max(worst, float(np.max(np.abs(red.G1N[t] - full.G[t][:d, :d]))))
        worst = max(worst, float(np.max(np.abs(red.HN[t] - full.H[t][:d]))))
        ident = red.FN[t] @ red.MN[t] + (N - 1) * red.KN[t] @ red.EN[t] - np.eye(d)
        worst = max(worst, float(np.max(np.abs(ident))))
    dev = check_block_structure(full)
    ok = worst <= 1e-8 and dev <= 1e-9
    return ok, f"max coefficient gap {worst:.2e}, block deviation {dev:.2e}"


def _verify_qp() -> tuple[bool, str]:
    from .spawner import build_ortho_problem, ortho_objective, ortho_solve, resolvent_check, vec

    rng = np.random.default_rng(7)
    worst_kkt = 0.0
    worst_gap = -np.inf
    for _ in range(10):
        d_z = int(rng.integers(1, 4))
        prob = build_ortho_problem(
            [rng.standard_normal((2, d_z)) for _ in range(3)],
            [rng.standard_normal((2, d_z)) for _ in range(2)],
            rng.standard_normal(d_z),
            rng.standard_normal(2),
            float(rng.uniform(0.1, 1.0)),
        )
        zeta2 = float(rng.uniform(0.1, 1.0))
        sol = ortho_solve(prob, zeta2)
        worst_kkt = max(worst_kkt, sol.kkt_residual, sol.constraint_residual)
        best = ortho_objective(prob, vec(sol.A_star))
        dirs = rng.standard_normal((500, prob.xi_I.shape[0]))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        sampled = min(
            ortho_objective(prob, prob.xi_I + zeta2 * g) for g in dirs
        )
        worst_gap = max(worst_gap, best - sampled)
    root = rng.standard_normal((6, 6))
    res = resolvent_check(root @ root.T, 0.7, 1.9)
    ok = worst_kkt <= 1e-8 and worst_gap <= 1e-8 and res <= 1e-11
    return ok, f"kkt {worst_kkt:.2e}, sampling gap {worst_gap:.2e}, resolvent {res:.2e}"


def _verify_convergence() -> tuple[bool, str]:
    params = GameParams(
        theta=0.7,
        theta_bar=0.2,
        kappa=1.0,
        kappa_bar=0.5,
        gamma=1.0,
        alpha=0.05,
        horizon_T=4,
        population_N=64,
        dim_y=1,
        dim_z=1,
    )
    rng = np.random.default_rng(11)
    scenario = ConvergenceScenario(
        params=params,
        targets=TargetSeries(values=rng.standard_normal((5, 1))),
        latent_half_width=0.4,
        paths=40,
        seed=5,
    )
    report = limit_gap_diagnostic(scenario)
    summary = report.per_n()
    lam = [row["lambda_gap"] for row in summary]
    mono = all(row["monotone_2se"] for row in summary)
    ok = lam[0] > lam[1] > lam[2] and mono
    return ok, f"lambda gaps {[f'{v:.2e}' for v in lam]}, meanfield monotone {mono}"


def cmd_verify(args) -> int:
    suites = [
        ("structure", _verify_structure),
        ("qp", _verify_qp),
        ("convergence", _verify_convergence),
    ]
    all_ok = True
    for name, fn in suites:
        try:
            ok, detail = fn()
        except FedGamesError as exc:
            ok, detail = False, f"error: {exc}"
        all_ok &= ok
        print(f"{name:<12} {'PASS' if ok else 'FAIL'}  {detail}")
    return 0 if all_ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="fedgames", description=__doc__)
    parser.add_argument(
        "--log-level",
        choices=("DEBUG", "INFO", "WARNING", "ERROR"),
        default="WARNING",
        help="level of the log lines on stderr; DEBUG adds the solvers' per-step "
        "condition numbers (default WARNING)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run the (policy, N, seed) cell grid")
    run_p.add_argument("--config", required=True)
    run_p.add_argument("--out", default=None)
    run_p.add_argument("--seed-override", type=int, default=None)
    run_p.add_argument("--dry-run", action="store_true")
    run_p.set_defaults(fn=cmd_run)

    conv_p = sub.add_parser("convergence", help="emit the N-vs-gap table")
    conv_p.add_argument("--config", required=True)
    conv_p.add_argument("--out", default=None)
    conv_p.set_defaults(fn=cmd_convergence)

    ver_p = sub.add_parser("verify", help="run the built-in fixture suites")
    ver_p.set_defaults(fn=cmd_verify)

    args = parser.parse_args(argv)
    logging.basicConfig(level=args.log_level)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
