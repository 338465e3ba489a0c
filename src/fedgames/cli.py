"""Command-line entry points: run, convergence, verify.

``run`` executes the (policy, N, seed) cell grid of a JSON config and
writes results.csv, per-cell coefficient snapshots, and report.json.
``convergence`` emits the N-versus-gap table used for the mean-field
convergence plots. ``verify`` runs three built-in fixture suites
(structure, QP, convergence) and prints a pass/fail table.

Exit codes: 0 success, 2 config error, 3 solver failure (each failing
cell is printed; the cells that completed are still written). All
outputs are deterministic under a fixed config and seeds, except the
measured runtime_ms column, which the determinism fingerprint therefore
excludes.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import sys
import time
from pathlib import Path

import numpy as np

from .datasets import DatasetSpec
from .diagnostics import ConvergenceScenario, limit_gap_diagnostic
from .errors import ConfigError, FedGamesError
from .harness import POLICIES, EncoderConfig, Scenario, SpawnerConfig, run_episode
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

_PARAM_KEYS = {
    "theta",
    "theta_bar",
    "kappa",
    "kappa_bar",
    "gamma",
    "alpha",
    "horizon_T",
    "population_N",
    "dim_y",
    "dim_z",
}
_TOP_KEYS = {
    "schema_version",
    "params",
    "mc_samples",
    "seed",
    "dataset",
    "encoder",
    "policies",
    "n_grid",
    "seeds",
    "ridge",
    "aggregation",
    "spawner",
    "convergence",
    "output_dir",
}


def _require_keys(section: dict, allowed: set, where: str, required: set = frozenset()):
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")
    missing = required - set(section)
    if missing:
        raise ConfigError(f"missing keys in {where}: {sorted(missing)}")


def load_config(path) -> dict:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise ConfigError(f"config not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    _require_keys(raw, _TOP_KEYS, "config", {"params", "dataset", "policies"})
    _require_keys(
        raw["params"],
        _PARAM_KEYS,
        "config.params",
        _PARAM_KEYS - {"population_N"},
    )
    _require_keys(
        raw["dataset"], {"kind", "length", "parameters", "seed"}, "config.dataset", {"kind", "length"}
    )
    if "encoder" in raw:
        _require_keys(raw["encoder"], {"kind", "sigma", "activation"}, "config.encoder")
    if "ridge" in raw:
        _require_keys(raw["ridge"], {"window_T", "alpha", "gamma"}, "config.ridge", {"window_T", "alpha", "gamma"})
    if "aggregation" in raw:
        _require_keys(raw["aggregation"], {"alpha_a", "window_Ta"}, "config.aggregation")
    if "spawner" in raw:
        _require_keys(
            raw["spawner"],
            {"retire_k", "lam", "sigma_t", "zeta1", "zeta2", "orthogonalize"},
            "config.spawner",
            {"retire_k"},
        )
    if "convergence" in raw:
        _require_keys(
            raw["convergence"],
            {"n_grid", "paths", "latent_mean", "latent_half_width"},
            "config.convergence",
        )
    policies = raw["policies"]
    if not (isinstance(policies, list) and policies):
        raise ConfigError(f"policies must be a non-empty list of policy names, got {policies!r}")
    for policy in policies:
        if policy not in POLICIES:
            raise ConfigError(f"unknown policy {policy!r}")
    return raw


def build_params(cfg: dict, n: int) -> GameParams:
    fields = dict(cfg["params"])
    fields["population_N"] = int(n)
    try:
        return GameParams(**fields)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad params: {exc}") from exc


def build_scenario(cfg: dict, n: int) -> Scenario:
    params = build_params(cfg, n)
    ds = cfg["dataset"]
    dataset = DatasetSpec(
        kind=ds["kind"],
        length=int(ds["length"]),
        parameters=ds.get("parameters", {}),
        seed=int(ds.get("seed", 0)),
    )
    enc = cfg.get("encoder", {})
    encoder = EncoderConfig(
        kind=enc.get("kind", "rfn"),
        sigma=float(enc.get("sigma", 0.1)),
        activation=enc.get("activation", "hard_sigmoid"),
    )
    ridge = None
    if "ridge" in cfg:
        r = cfg["ridge"]
        ridge = RidgeConfig(
            window_T=int(r["window_T"]), alpha=float(r["alpha"]), gamma=float(r["gamma"])
        )
    agg = cfg.get("aggregation", {})
    spawner = None
    if "spawner" in cfg:
        s = cfg["spawner"]
        spawner = SpawnerConfig(
            retire_k=int(s["retire_k"]),
            lam=float(s.get("lam", 1.0)),
            sigma_t=float(s.get("sigma_t", 0.1)),
            zeta1=float(s.get("zeta1", 0.0)),
            zeta2=float(s.get("zeta2", 0.0)),
            orthogonalize=bool(s.get("orthogonalize", False)),
        )
    return Scenario(
        params=params,
        dataset=dataset,
        encoder=encoder,
        mc_samples=int(cfg.get("mc_samples", 100)),
        ridge=ridge,
        aggregation_alpha=float(agg.get("alpha_a", 0.2)),
        aggregation_window=int(agg.get("window_Ta", 1)),
        spawner=spawner,
    )


def cell_grid(cfg: dict, seed_override=None):
    """The (policy, N, seed) cells of a `run` config. A grid that some
    cell could not run is a ConfigError, raised before any cell runs;
    only the full solver's N ceiling is left to its cells."""
    ns = cfg["n_grid"] if "n_grid" in cfg else [cfg["params"].get("population_N", 2)]
    if not _is_int_list(ns, 1):
        raise ConfigError(
            f"n_grid (default [params.population_N]) must be a non-empty list of integers >= 1, got {ns!r}"
        )
    seeds = [seed_override] if seed_override is not None else cfg.get("seeds", [cfg.get("seed", 0)])
    # the random streams are keyed by the seed, and numpy takes no negative key
    if not _is_int_list(seeds, 0):
        raise ConfigError(f"seeds (default [seed]) must be a non-empty list of integers >= 0, got {seeds!r}")
    if "greedy" in cfg["policies"] and "ridge" not in cfg:
        raise ConfigError("policy 'greedy' needs a ridge section")
    for name, value in (
        ("mc_samples", cfg.get("mc_samples", 100)),
        ("ridge.window_T", cfg.get("ridge", {}).get("window_T", 1)),
        ("aggregation.window_Ta", cfg.get("aggregation", {}).get("window_Ta", 1)),
    ):
        if not _is_int_at_least(value, 1):
            raise ConfigError(f"{name} must be an integer >= 1, got {value!r}")
    if "spawner" in cfg:
        retire_k = cfg["spawner"]["retire_k"]
        if not (_is_int_at_least(retire_k, 1) and retire_k < min(ns)):
            raise ConfigError(
                f"spawner.retire_k must be an integer in [1, N) for every N in the grid, "
                f"got {retire_k!r} with N = {min(ns)}"
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


def cmd_run(args) -> int:
    try:
        cfg = load_config(args.config)
        cells = cell_grid(cfg, args.seed_override)
        scenarios = {cell: build_scenario(cfg, cell[1]) for cell in cells}  # validate early
    except (ConfigError, FedGamesError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if args.dry_run:
        print(f"{len(cells)} cells:")
        for policy, n, seed in cells:
            print(f"  policy={policy} N={n} seed={seed}")
        return 0

    out_dir = Path(args.out or cfg.get("output_dir", "out"))
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "coeffs").mkdir(exist_ok=True)

    results = {}
    failures = []
    for cell in cells:
        policy, _, seed = cell
        try:
            results[cell] = run_episode(policy, scenarios[cell], seed)
        except (FedGamesError, ValueError, np.linalg.LinAlgError) as exc:
            failures.append((cell, str(exc)))

    # a failed cell is reported and the run exits 3, but the cells that
    # completed still get their outputs
    for (policy, n, seed), msg in failures:
        print(f"solver failure in cell policy={policy} N={n} seed={seed}: {msg}", file=sys.stderr)

    with (out_dir / "results.csv").open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(RESULTS_HEADER)
        for cell in sorted(results):
            policy, n, seed = cell
            rec = results[cell]
            writer.writerow(
                [
                    policy,
                    n,
                    seed,
                    repr(rec.rmse_aggregated),
                    repr(rec.rmse_worst),
                    repr(rec.regret),
                    repr(rec.runtime_ms),
                ]
            )

    report_cells = []
    for cell in sorted(results):
        policy, n, seed = cell
        rec = results[cell]
        write_start = time.perf_counter()
        written = [out_dir / f"run_{policy}_N{n}_seed{seed}.json"]
        export_run_record_json(rec, written[0])
        if rec.spawn_events:
            written.append(out_dir / f"spawner_{policy}_N{n}_seed{seed}.jsonl")
            write_jsonl(rec.spawn_events, written[-1])
        written.append(_round0_coeff_dump(policy, scenarios[cell], seed, rec, out_dir / "coeffs"))
        logger.info(
            "cell policy=%s N=%d seed=%d: episode %.3f s, output writing %.3f s, %d bytes written",
            policy,
            n,
            seed,
            rec.runtime_ms / 1000.0,
            time.perf_counter() - write_start,
            sum(path.stat().st_size for path in written if path is not None),
        )
        report_cells.append(
            {
                "policy": policy,
                "N": n,
                "seed": seed,
                "regret": rec.regret,
                "rmse_agg": rec.rmse_aggregated,
                "rmse_worst": rec.rmse_worst,
                "rmse_bottom20": rec.rmse_bottom20,
                "messages_per_step": rec.messages_per_step,
                "max_abs_prediction": rec.max_abs_prediction,
                "diverged": rec.diverged,
            }
        )
    # sample-path metrics live per cell; Monte-Carlo means over seeds are
    # exported alongside, labeled as such
    aggregates = []
    for policy in cfg["policies"]:
        for n in sorted({c[1] for c in results}):
            recs = [results[c] for c in results if c[0] == policy and c[1] == n]
            if not recs:
                continue
            aggregates.append(
                {
                    "policy": policy,
                    "N": n,
                    "seeds": len(recs),
                    "mc_mean_regret": float(np.mean([r.regret for r in recs])),
                    "mc_mean_rmse_agg": float(np.mean([r.rmse_aggregated for r in recs])),
                    "mc_mean_rmse_worst": float(np.mean([r.rmse_worst for r in recs])),
                    "mc_mean_rmse_bottom20": float(np.mean([r.rmse_bottom20 for r in recs])),
                }
            )
    (out_dir / "report.json").write_text(
        json.dumps(
            {
                "schema_version": SCHEMA_VERSION,
                "cells": report_cells,
                "mc_means_over_seeds": aggregates,
                "config": cfg,
            }
        ),
        encoding="utf-8",
    )
    print(f"wrote {out_dir / 'results.csv'} ({len(results)} cells)")
    return 3 if failures else 0


def _is_int_at_least(value, low: int) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= low


def _is_int_list(values, low: int) -> bool:
    return isinstance(values, list) and bool(values) and all(_is_int_at_least(v, low) for v in values)


def _convergence_number(conv: dict, key: str, default: float) -> float:
    value = conv.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"convergence.{key} must be a number, got {value!r}")
    return float(value)


def _convergence_scenario(cfg: dict) -> tuple[ConvergenceScenario, list[int], int]:
    conv = cfg.get("convergence", {})
    n_grid = conv.get("n_grid", [4, 16, 64])
    paths = conv.get("paths", 100)
    seed = cfg.get("seed", 0)
    # the targets' and the paths' streams are keyed by the seed, as in `run`
    if not _is_int_at_least(seed, 0):
        raise ConfigError(f"seed must be an integer >= 0, got {seed!r}")
    # the finite-N games need two agents, and the gap's standard error two paths
    if not _is_int_list(n_grid, 2):
        raise ConfigError(
            f"convergence.n_grid must be a non-empty list of integers >= 2, got {n_grid!r}"
        )
    if not _is_int_at_least(paths, 2):
        raise ConfigError(f"convergence.paths must be an integer >= 2, got {paths!r}")
    params = build_params(cfg, max(n_grid))
    T, d_y, d_z = params.horizon_T, params.dim_y, params.dim_z
    # ConvergenceScenario's ValueError, a config error here, rejects a
    # non-finite mean and a non-finite or negative half width
    mean_val = _convergence_number(conv, "latent_mean", 0.8)
    rng = np.random.default_rng(seed)
    targets = TargetSeries(values=rng.standard_normal((T + 1, d_y)))
    scenario = ConvergenceScenario(
        params=params,
        targets=targets,
        latent_mean=np.full((T, d_y, d_z), mean_val),
        latent_half_width=_convergence_number(conv, "latent_half_width", 0.5),
        paths=paths,
    )
    return scenario, n_grid, seed


def cmd_convergence(args) -> int:
    try:
        cfg = load_config(args.config)
        scenario, n_grid, seed = _convergence_scenario(cfg)
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out_dir = Path(args.out or cfg.get("output_dir", "out"))
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        report = limit_gap_diagnostic(n_grid, seed, scenario)
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
    print(f"wrote {out_dir / 'convergence.csv'} ({len(n_grid)} rows)")
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
    dev = check_block_structure(full).max_deviation
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
        latent_mean=np.full((4, 1, 1), 0.8),
        latent_half_width=0.4,
        paths=40,
    )
    report = limit_gap_diagnostic([4, 16, 64], 5, scenario)
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
