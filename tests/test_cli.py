import csv
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fedgames
from fedgames.cli import RESULTS_HEADER, main, results_fingerprint
from fedgames.diagnostics import monotone_flags
from fedgames.harness import Scenario


@pytest.fixture
def config(tmp_path):
    cfg = {
        "schema_version": "1",
        "params": {
            "theta": 0.7,
            "theta_bar": 0.3,
            "kappa": 1.0,
            "kappa_bar": 0.5,
            "gamma": 1.0,
            "alpha": 0.01,
            "horizon_T": 2,
            "dim_y": 1,
            "dim_z": 2,
        },
        "mc_samples": 6,
        "seed": 0,
        "dataset": {"kind": "periodic", "length": 5, "parameters": {}, "seed": 0},
        "encoder": {"kind": "rfn", "sigma": 0.1},
        "policies": ["reduced", "greedy"],
        "n_grid": [2, 3],
        "seeds": [1],
        "ridge": {"window_T": 2, "alpha": 0.1, "gamma": 0.5},
        "aggregation": {"alpha_a": 0.2, "window_Ta": 1},
        "convergence": {"n_grid": [4, 8, 16], "paths": 12, "latent_mean": 0.8, "latent_half_width": 0.4},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path, cfg


def test_run_produces_results(config, tmp_path):
    path, _ = config
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    with (out / "results.csv").open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == RESULTS_HEADER
    assert len(rows) == 1 + 4  # 2 policies x 2 Ns x 1 seed
    assert (out / "report.json").exists()
    report = json.loads((out / "report.json").read_text())
    assert report["schema_version"] == "4"
    assert len(report["cells"]) == 4
    means = {(m["policy"], m["N"]): m for m in report["mc_means_over_seeds"]}
    assert means[("reduced", 2)]["seeds"] == 1
    assert means[("reduced", 2)]["mc_mean_regret"] >= 0.0
    coeff_files = list((out / "coeffs").glob("*.json"))
    assert len(coeff_files) == 2  # reduced cells only; greedy has no coefficients
    payload = json.loads(coeff_files[0].read_text())
    assert payload["schema_version"] == "4"
    assert "dims" in payload["G1N"]
    assert not {"Q1N", "Q2N", "Q3N", "Q4N"} & payload.keys()


def test_interrupted_grid_keeps_the_cells_it_completed(config, tmp_path, monkeypatch):
    # each group's files are written as the group completes, so a grid
    # that stops early keeps what it ran
    import fedgames.cli

    path, _ = config
    out = tmp_path / "out"
    calls = []
    run_group = fedgames.cli.run_group

    def interrupt_second(members, scenario, shared):
        calls.append(members)
        if len(calls) == 2:
            raise KeyboardInterrupt
        return run_group(members, scenario, shared)

    monkeypatch.setattr(fedgames.cli, "run_group", interrupt_second)
    with pytest.raises(KeyboardInterrupt):
        main(["run", "--config", str(path), "--out", str(out)])
    # the grid's first group is N = 2: (reduced, 2, 1) and (greedy, 2, 1)
    assert calls[0] == [("reduced", 1), ("greedy", 1)]
    assert (out / "run_reduced_N2_seed1.json").exists()
    assert (out / "coeffs" / "reduced_N2_seed1.json").exists()
    assert (out / "run_greedy_N2_seed1.json").exists()
    assert not (out / "run_reduced_N3_seed1.json").exists()
    assert not (out / "run_greedy_N3_seed1.json").exists()
    assert not (out / "results.csv").exists()


def test_run_deterministic(config, tmp_path):
    path, _ = config
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["run", "--config", str(path), "--out", str(out1)]) == 0
    assert main(["run", "--config", str(path), "--out", str(out2)]) == 0
    assert results_fingerprint(out1 / "results.csv") == results_fingerprint(out2 / "results.csv")


def test_dry_run(config, capsys):
    path, _ = config
    assert main(["run", "--config", str(path), "--dry-run"]) == 0
    out = capsys.readouterr().out
    assert "4 cells" in out
    assert "policy=reduced N=2 seed=1" in out


def test_seed_override(config, tmp_path):
    path, _ = config
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out), "--seed-override", "9"]) == 0
    with (out / "results.csv").open() as fh:
        rows = list(csv.reader(fh))[1:]
    assert all(r[2] == "9" for r in rows)


def test_unknown_key_rejected(config, tmp_path):
    path, cfg = config
    cfg["surprise"] = 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg), encoding="utf-8")
    assert main(["run", "--config", str(bad)]) == 2


def test_nested_unknown_key_rejected(config, tmp_path):
    path, cfg = config
    cfg["params"]["rho"] = 0.1
    bad = tmp_path / "bad2.json"
    bad.write_text(json.dumps(cfg), encoding="utf-8")
    assert main(["run", "--config", str(bad)]) == 2


def test_bad_policy_rejected(config, tmp_path):
    path, cfg = config
    cfg["policies"] = ["nash"]
    bad = tmp_path / "bad3.json"
    bad.write_text(json.dumps(cfg), encoding="utf-8")
    assert main(["run", "--config", str(bad)]) == 2


def test_bad_csv_dataset_rejected(config, tmp_path, capsys):
    path, cfg = config
    # a csv dataset without a path
    parameters = {"target_columns": ["v"], "lag_spec": {"v": [1]}}
    cfg["dataset"] = {"kind": "csv", "length": 5, "parameters": parameters}
    bad = tmp_path / "bad4.json"
    bad.write_text(json.dumps(cfg), encoding="utf-8")
    assert main(["run", "--config", str(bad)]) == 2
    assert "config error:" in capsys.readouterr().err


def test_missing_config(tmp_path):
    assert main(["run", "--config", str(tmp_path / "nope.json")]) == 2


def test_solver_failure_exit_code(config, tmp_path, capsys):
    # the full solver refuses N beyond its hard ceiling: a run-time
    # failure attributed to the cell, exit 3
    path, cfg = config
    cfg["policies"] = ["full"]
    cfg["n_grid"] = [64]
    bad = tmp_path / "big.json"
    bad.write_text(json.dumps(cfg), encoding="utf-8")
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert "policy=full N=64" in err


def test_solver_failure_keeps_completed_cells(config, tmp_path, capsys):
    path, cfg = config
    cfg["policies"] = ["full", "reduced"]
    cfg["n_grid"] = [64]
    mixed = tmp_path / "mixed.json"
    mixed.write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / "o"
    assert main(["run", "--config", str(mixed), "--out", str(out)]) == 3
    assert "solver failure in cell policy=full N=64 seed=1" in capsys.readouterr().err
    with (out / "results.csv").open() as fh:
        rows = list(csv.reader(fh))
    assert [row[:3] for row in rows[1:]] == [["reduced", "64", "1"]]
    assert (out / "run_reduced_N64_seed1.json").exists()
    assert [p.name for p in (out / "coeffs").glob("*.json")] == ["reduced_N64_seed1.json"]
    assert [c["policy"] for c in json.loads((out / "report.json").read_text())["cells"]] == ["reduced"]


RUNTIME = re.compile(r'"runtime_ms": [^,}]+')


def _cell_files(out, cell) -> dict:
    """name -> text of the files a cell wrote, runtime_ms blanked in its
    run_*.json summary."""
    policy, n, seed = cell
    name = f"{policy}_N{n}_seed{seed}"
    paths = {
        "run": out / f"run_{name}.json",
        "spawner": out / f"spawner_{name}.jsonl",
        "coeffs": out / "coeffs" / f"{name}.json",
    }
    files = {key: path.read_text(encoding="utf-8") for key, path in paths.items() if path.exists()}
    files["run"] = RUNTIME.sub('"runtime_ms": null', files["run"])
    return files


def _grid_rows(out) -> dict:
    """cell -> (results.csv row without runtime_ms, report.json entry)."""
    with (out / "results.csv").open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    entries = json.loads((out / "report.json").read_text())["cells"]
    return {
        (row[0], int(row[1]), int(row[2])): (row[:-1], entry)
        for row, entry in zip(rows, entries, strict=True)
    }


def _assert_cells_match_lone_runs(cfg, out, tmp_path):
    """Every cell of a grid's outputs is the same cell run alone, through
    run_episode and _write_cell, byte for byte but for runtime_ms."""
    from fedgames.cli import _write_cell, build_scenario, cell_grid
    from fedgames.harness import run_episode

    lone_out = tmp_path / "lone"
    (lone_out / "coeffs").mkdir(parents=True)
    grid = _grid_rows(out)
    cells = cell_grid(cfg)
    assert sorted(grid) == sorted(cells)
    for cell in cells:
        policy, n, seed = cell
        scenario = build_scenario(cfg, n)
        row, entry = _write_cell(lone_out, cell, scenario, run_episode(policy, scenario, seed))
        assert grid[cell] == ([str(v) for v in row[:-1]], entry), cell
        assert _cell_files(out, cell) == _cell_files(lone_out, cell), cell


# horizon 4: a sum over more than two steps is where a stacked reduction
# could take another summation order than a lone episode's
MIXED = dict(policies=["full", "reduced", "decentralized", "greedy"], seeds=[1, 2], horizon_T=4)
SPAWNER = {"retire_k": 1, "zeta1": 0.1, "zeta2": 0.5, "orthogonalize": True}


@pytest.mark.parametrize(
    "grid, group_agents, sizes",
    [
        (dict(policies=["full", "reduced", "decentralized"], n_grid=[1, 3, 8], seeds=[1, 2]), None, [6, 6, 6]),
        (
            dict(
                policies=["greedy", "decentralized"],
                n_grid=[3, 8],
                seeds=[1, 2],
                encoder={"kind": "esn", "sigma": 0.1},
                spawner={"retire_k": 2, "zeta1": 0.1, "zeta2": 0.5, "orthogonalize": True},
            ),
            None,
            [4, 4],
        ),
        # every policy over two seeds at each N: 8 cells per N, cut into
        # groups of GROUP_AGENTS // N cells, at least one
        (dict(MIXED, n_grid=[1, 3, 8]), None, [8, 8, 8]),
        (dict(MIXED, n_grid=[1, 3, 8]), 1, [1] * 24),
        (dict(MIXED, n_grid=[1, 3, 8]), 9, [8, 3, 3, 2] + [1] * 8),
        (dict(MIXED, n_grid=[2, 3, 8], encoder={"kind": "esn", "sigma": 0.1}, spawner=SPAWNER), None, [8, 8, 8]),
        (dict(MIXED, n_grid=[2, 3, 8], encoder={"kind": "esn", "sigma": 0.1}, spawner=SPAWNER), 1, [1] * 24),
        (dict(MIXED, n_grid=[2, 3, 8], encoder={"kind": "esn", "sigma": 0.1}, spawner=SPAWNER), 9, [4, 4] + [3, 3, 2] + [1] * 8),
    ],
    ids=[
        "solvers",
        "greedy-spawner",
        "mixed-default",
        "mixed-one-per-group",
        "mixed-short-last-group",
        "mixed-spawner-default",
        "mixed-spawner-one-per-group",
        "mixed-spawner-short-last-group",
    ],
)
def test_grid_cells_equal_lone_cells(config, tmp_path, monkeypatch, grid, group_agents, sizes):
    # a seed's cells share one dataset, one latent bank and one structured
    # pass (reduced N >= 2 and the limit), each built once per seed; the
    # cells of one N play as groups of stacked episodes; each cell's
    # outputs are those of the cell run alone
    import fedgames.cli as cli
    import fedgames.harness as harness

    path, cfg = config
    grid = dict(grid)
    cfg["params"]["horizon_T"] = T = grid.pop("horizon_T", 2)
    cfg.update(grid)
    cfg["dataset"]["length"] = 4 * T + 1  # 4 rounds
    path.write_text(json.dumps(cfg), encoding="utf-8")
    calls = {name: 0 for name in ("build_dataset", "_build_bank", "structured_pass")}
    groups = []

    def counted(name):
        original = getattr(harness, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return call

    def run_group(members, *args):
        groups.append(len(members))
        return harness.run_group(members, *args)

    with monkeypatch.context() as patched:
        for name in calls:
            patched.setattr(harness, name, counted(name))
        patched.setattr(cli, "run_group", run_group)
        if group_agents is not None:
            patched.setattr(cli, "GROUP_AGENTS", group_agents)
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    assert calls == {name: 2 for name in calls}  # one per seed
    assert groups == sizes
    _assert_cells_match_lone_runs(cfg, out, tmp_path)


def _failure_lines(capsys) -> list:
    return [line for line in capsys.readouterr().err.splitlines() if line.startswith("solver failure")]


@pytest.mark.parametrize("case", ["full-past-its-ceiling", "dynamics-error"])
def test_failing_member_runs_its_group_again_one_at_a_time(config, tmp_path, monkeypatch, capsys, case):
    # a member that raises fails its group, whose cells then run alone:
    # the failing cell prints the line a lone run prints, and every other
    # cell of the group writes its lone run's files
    import fedgames.cli as cli
    import fedgames.harness as harness
    from fedgames.errors import DynamicsError

    path, cfg = config
    if case == "full-past-its-ceiling":
        cfg.update(policies=["full", "reduced"], n_grid=[64], seeds=[1])
        failing = ("full", 64, 1)
    else:
        cfg.update(policies=["reduced", "decentralized", "greedy"], n_grid=[3], seeds=[1, 2])
        failing = ("decentralized", 3, 2)
        solve = harness._solve_episode

        def solve_with_blowup(policy, scenario, work):
            kind, solved, act = solve(policy, scenario, work)
            if (policy, work.seed) != (failing[0], failing[2]):
                return kind, solved, act

            def blow(c, r, t, *rest):
                # agent 1's action turns infinite in round 1
                out = act(c, r, t, *rest)
                if r == 1:
                    out[1] = np.inf
                return out

            return kind, solved, blow

        monkeypatch.setattr(harness, "_solve_episode", solve_with_blowup)
    cfg["dataset"]["length"] = 9
    path.write_text(json.dumps(cfg), encoding="utf-8")
    scenario = cli.build_scenario(cfg, failing[1])
    with pytest.raises((DynamicsError, ValueError)) as lone:
        harness.run_episode(failing[0], scenario, failing[2])
    policy, n, seed = failing
    want = f"solver failure in cell policy={policy} N={n} seed={seed}: {lone.value}"

    groups = []

    def run_group(members, *args):
        groups.append(len(members))
        return harness.run_group(members, *args)

    monkeypatch.setattr(cli, "run_group", run_group)
    capsys.readouterr()
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 3
    assert _failure_lines(capsys) == [want]
    assert groups == [len(cli.cell_grid(cfg))]  # one group, which failed
    completed = _grid_rows(out)
    assert sorted(completed) == sorted(set(cli.cell_grid(cfg)) - {failing})
    lone_out = tmp_path / "lone"
    (lone_out / "coeffs").mkdir(parents=True)
    for cell in completed:
        policy, n, seed = cell
        scenario = cli.build_scenario(cfg, n)
        row, entry = cli._write_cell(lone_out, cell, scenario, harness.run_episode(policy, scenario, seed))
        assert completed[cell] == ([str(v) for v in row[:-1]], entry), cell
        assert _cell_files(out, cell) == _cell_files(lone_out, cell), cell


def test_dense_pass_failing_after_round_0_runs_its_group_again(config, tmp_path, monkeypatch, capsys):
    # at N = 32 the dense full pass solves one round per chunk, as the loop
    # reaches it; the chunk of round 1 raises after the group has played
    # round 0. Each full cell at N = 32 prints its lone run's line, and
    # every other cell writes its lone run's files. (The line names "round
    # 0": a chunk's SolveError counts rounds from the chunk's first.)
    import dataclasses

    import fedgames.cli as cli
    import fedgames.harness as harness
    from fedgames.datasets import build_dataset
    from fedgames.errors import SolveError
    from fedgames.nash_full import rounds_per_pass

    path, cfg = config
    cfg.update(
        dataset={"kind": "logistic_map", "length": 7},  # 3 rounds
        policies=["full", "reduced", "decentralized"],
        n_grid=[4, 32],
        seeds=[1, 2],
    )
    path.write_text(json.dumps(cfg), encoding="utf-8")
    assert rounds_per_pass(32) == 1 < rounds_per_pass(4)
    T = cfg["params"]["horizon_T"]
    values = build_dataset(cli.build_scenario(cfg, 32).dataset)[0].values
    full_backward_pass = harness.full_backward_pass
    poisoned = []

    def failing_pass(params, moments, targets):
        # NaN moments for the chunk whose first round is round 1
        if np.array_equal(targets.values[:, 0], values[T : 2 * T + 1]):
            poisoned.append(params.population_N)
            moments = dataclasses.replace(moments, m1=np.full_like(moments.m1, np.nan))
        return full_backward_pass(params, moments, targets)

    monkeypatch.setattr(harness, "full_backward_pass", failing_pass)
    failing = [("full", 32, 1), ("full", 32, 2)]
    lone = {}
    for policy, n, seed in failing:
        with pytest.raises(SolveError) as err:
            harness.run_episode(policy, cli.build_scenario(cfg, n), seed)
        lone[policy, n, seed] = f"solver failure in cell policy={policy} N={n} seed={seed}: {err.value}"
    assert poisoned == [32, 32]

    capsys.readouterr()
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 3
    played = [cell for group in cli._groups(cli.cell_grid(cfg)) for cell in group]
    assert _failure_lines(capsys) == [lone[cell] for cell in played if cell in lone]
    completed = _grid_rows(out)
    assert sorted(completed) == sorted(set(played) - set(failing))
    lone_out = tmp_path / "lone"
    (lone_out / "coeffs").mkdir(parents=True)
    for cell in completed:
        policy, n, seed = cell
        scenario = cli.build_scenario(cfg, n)
        row, entry = cli._write_cell(lone_out, cell, scenario, harness.run_episode(policy, scenario, seed))
        assert completed[cell] == ([str(v) for v in row[:-1]], entry), cell
        assert _cell_files(out, cell) == _cell_files(lone_out, cell), cell


@pytest.mark.parametrize("failing_n", [None, 8, float("inf")], ids=["none", "N=8", "limit"])
def test_failing_population_fails_only_its_cells(config, tmp_path, monkeypatch, capsys, failing_n):
    # if a seed's stacked pass raises, its cells run alone, each solving
    # its own population as a stack of one: the cells of a population that
    # fails again are named with its lone stack's error, and only those;
    # every other cell completes with the outputs of an unbroken run
    import fedgames.harness as harness
    from fedgames.errors import SolveError

    path, cfg = config
    cfg["policies"] = ["reduced", "decentralized"]
    cfg["n_grid"] = [3, 8]
    path.write_text(json.dumps(cfg), encoding="utf-8")
    unbroken = tmp_path / "unbroken"
    assert main(["run", "--config", str(path), "--out", str(unbroken)]) == 0

    stacks = []  # the eps of each stacked pass
    structured_pass = harness.structured_pass

    def failing_pass(params, moments, targets, eps, *args):
        stacks.append(eps.ravel().tolist())
        if failing_n is not None and np.any(eps == 1 / failing_n):
            raise SolveError(f"injected in a stack of {eps.shape[0]}")
        return structured_pass(params, moments, targets, eps, *args)

    monkeypatch.setattr(harness, "structured_pass", failing_pass)
    capsys.readouterr()
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == (0 if failing_n is None else 3)
    failures = [line for line in capsys.readouterr().err.splitlines() if line.startswith("solver failure")]
    want = _grid_rows(unbroken)
    eps = [1 / 3, 1 / 8, 0.0]  # N = 3, 8 and the limit, solved once per seed
    if failing_n is None:
        assert stacks == [eps]
        assert failures == []
    else:
        # the seed's stack once, then each cell's own, in grid order
        assert stacks == [eps, [1 / 3], [0.0], [1 / 8], [0.0]]
        cells = [("reduced", 8, 1)] if failing_n == 8 else [("decentralized", 3, 1), ("decentralized", 8, 1)]
        assert failures == [
            f"solver failure in cell policy={policy} N={n} seed={seed}: injected in a stack of 1"
            for policy, n, seed in cells
        ]
        for cell in cells:
            del want[cell]
    assert _grid_rows(out) == want
    for cell in want:
        assert _cell_files(out, cell) == _cell_files(unbroken, cell), cell


def test_dataset_that_cannot_feed_the_game_fails_every_cell(config, tmp_path, capsys):
    # a one-column dataset for a game of dim_y 2: every seed's shared work
    # raises, and so does every cell run alone, each naming its own cell
    import fedgames.cli as cli

    path, cfg = config
    cfg["params"]["dim_y"] = 2
    cfg.update(
        dataset={"kind": "logistic_map", "length": 9},
        policies=["reduced", "decentralized", "greedy"],
        n_grid=[3, 8],
        seeds=[1, 2],
    )
    path.write_text(json.dumps(cfg), encoding="utf-8")
    capsys.readouterr()
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 3
    played = [cell for group in cli._groups(cli.cell_grid(cfg)) for cell in group]
    assert _failure_lines(capsys) == [
        f"solver failure in cell policy={policy} N={n} seed={seed}: dataset dim 1 != dim_y 2"
        for policy, n, seed in played
    ]
    assert (out / "results.csv").read_text(encoding="utf-8").splitlines() == [",".join(RESULTS_HEADER)]
    assert json.loads((out / "report.json").read_text())["cells"] == []


def test_seed_whose_shared_work_raises_fails_only_its_solving_cells(config, tmp_path, monkeypatch, capsys):
    # seed 2's latent bank raises: its work is built once, and its cells
    # run alone, so its greedy cells (which read no bank) write their lone
    # runs' files and its solving cells print the bank's error; seed 1's
    # cells are those of an unbroken run
    import fedgames.cli as cli
    import fedgames.harness as harness
    from fedgames.errors import MomentError

    path, cfg = config
    cfg.update(policies=["reduced", "decentralized", "greedy"], n_grid=[3, 8], seeds=[1, 2])
    cfg["dataset"]["length"] = 9
    path.write_text(json.dumps(cfg), encoding="utf-8")
    unbroken = tmp_path / "unbroken"
    assert main(["run", "--config", str(path), "--out", str(unbroken)]) == 0

    banks, works = [], []
    build_bank, seed_work = harness._build_bank, cli.SeedWork

    def failing_bank(scenario, inputs, seed):
        banks.append(seed)
        if seed == 2:
            raise MomentError("injected bank failure")
        return build_bank(scenario, inputs, seed)

    def counted_work(scenario, seed, cells):
        works.append(seed)
        return seed_work(scenario, seed, cells)

    monkeypatch.setattr(harness, "_build_bank", failing_bank)
    monkeypatch.setattr(cli, "SeedWork", counted_work)
    capsys.readouterr()
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 3
    assert works == [1, 2]
    assert banks == [1, 2, 2, 2, 2, 2]  # seed 2's shared work, then each of its solving cells alone
    failing = [(policy, n, 2) for n in (3, 8) for policy in ("reduced", "decentralized")]
    assert _failure_lines(capsys) == [
        f"solver failure in cell policy={policy} N={n} seed={seed}: injected bank failure"
        for policy, n, seed in failing
    ]
    completed = _grid_rows(out)
    want = _grid_rows(unbroken)
    assert sorted(completed) == sorted(set(want) - set(failing))
    for cell in completed:
        assert completed[cell] == want[cell], cell
        assert _cell_files(out, cell) == _cell_files(unbroken, cell), cell


def test_convergence_outputs(config, tmp_path):
    path, _ = config
    out = tmp_path / "conv"
    assert main(["convergence", "--config", str(path), "--out", str(out)]) == 0
    with (out / "convergence.csv").open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["N", "lambda_gap", "meanfield_gap", "stderr", "monotone_2se"]
    assert len(rows) == 4  # three grid points
    for row in rows[1:]:
        assert float(row[1]) >= 0.0
        assert float(row[2]) >= 0.0
        assert np.isfinite(float(row[3]))
    assert (out / "gap_report.csv").exists()
    with (out / "gap_report.csv").open() as fh:
        gap_rows = list(csv.reader(fh))
    assert gap_rows[0] == ["N", "t", "lambda_gap", "meanfield_gap", "stderr"]


@pytest.mark.parametrize(
    "key,value",
    [("n_grid", [1, 4]), ("n_grid", [0, 4]), ("n_grid", [4, 8, 4]), ("paths", 1), ("paths", 0)],
)
def test_convergence_rejects_bad_grid(config, tmp_path, capsys, key, value):
    # N < 2 has no finite-N game, a repeated N would be solved twice, and
    # fewer than two paths give no stderr
    _, cfg = config
    cfg["convergence"][key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / "conv"
    assert main(["convergence", "--config", str(path), "--out", str(out)]) == 2
    assert "config error:" in capsys.readouterr().err
    assert not (out / "convergence.csv").exists()


@pytest.mark.parametrize("seed", [2.5, -1, True, "3"])
def test_convergence_rejects_bad_seed(config, tmp_path, capsys, seed):
    # 2.5 ran as seed 2, and true as seed 1; the rule is `run`'s
    _, cfg = config
    cfg["seed"] = seed
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / "conv"
    assert main(["convergence", "--config", str(path), "--out", str(out)]) == 2
    assert f"config error: seed must be an integer >= 0, got {seed!r}" in capsys.readouterr().err
    assert not (out / "convergence.csv").exists()


@pytest.mark.parametrize(
    "key,value,message",
    [
        ("latent_half_width", float("nan"), "latent_half_width must be finite and >= 0"),
        ("latent_half_width", float("inf"), "latent_half_width must be finite and >= 0"),
        ("latent_half_width", -0.1, "latent_half_width must be finite and >= 0"),
        ("latent_mean", float("nan"), "latent_mean must be finite"),
        ("latent_mean", float("-inf"), "latent_mean must be finite"),
        ("latent_mean", [0.8], "convergence.latent_mean must be a number"),
        ("latent_half_width", True, "convergence.latent_half_width must be a number"),
    ],
)
def test_convergence_rejects_bad_latents(config, tmp_path, capsys, key, value, message):
    # a NaN or infinite half width exited 3 with non-finite coefficients
    # of the decentralized pass, and a negative one ran; a list stopped
    # the command with a TypeError, and true ran as 1.0
    _, cfg = config
    cfg["convergence"][key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / "conv"
    assert main(["convergence", "--config", str(path), "--out", str(out)]) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not (out / "convergence.csv").exists()


def test_convergence_nonfinite_prediction_exits_3(config, tmp_path, capsys):
    # theta 1e12 overflows the Riccati iterates; before the passes checked
    # their outputs, the NaN gains reached the Monte-Carlo loop, and before
    # that loop checked its means, this run exited 0 and wrote nan in every
    # column of convergence.csv
    _, cfg = config
    cfg["params"].update(theta=1e12, horizon_T=32, dim_y=2, dim_z=6)
    cfg["convergence"].update(n_grid=[4, 16], paths=3)
    path = tmp_path / "huge_theta.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / "conv"
    with np.errstate(all="ignore"):
        assert main(["convergence", "--config", str(path), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    # one pass solves the grid and the limit, which all overflow at t=19;
    # the error names the first of them in grid order
    assert "solver failure: reduced pass produced non-finite coefficients at N=4, t=19" in err
    assert not (out / "convergence.csv").exists()


def test_monotone_flag_fixture():
    gaps = [1.0, 0.6, 0.65, 0.2]
    ses = [0.01, 0.01, 0.01, 0.01]
    assert monotone_flags(gaps, ses) == [True, True, False, True]
    # large stderr absorbs the bump
    assert monotone_flags(gaps, [0.05, 0.05, 0.05, 0.05]) == [True, True, True, True]


def test_public_names_resolve():
    # a name dropped from the package's imports but left in __all__ fails
    # here, not at a user's star import
    missing = [name for name in fedgames.__all__ if not hasattr(fedgames, name)]
    assert not missing
    assert len(set(fedgames.__all__)) == len(fedgames.__all__)


def test_verify_passes(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 3


def test_coeff_dump_matches_fresh_round0_solve(config, tmp_path):
    from fedgames.cli import build_scenario
    from fedgames.datasets import build_dataset
    from fedgames.harness import _build_bank
    from fedgames.io import load_coeff_arrays
    from fedgames.model import TargetSeries, estimate_moments
    from fedgames.nash_full import full_backward_pass
    from fedgames.nash_meanfield import decentralized_backward_pass
    from fedgames.nash_reduced import reduced_backward_pass

    path, cfg = config
    cfg["policies"] = ["full", "reduced", "decentralized", "greedy"]
    cfg["n_grid"] = [2]
    path.write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0

    scenario = build_scenario(cfg, 2)
    T = scenario.params.horizon_T
    targets, inputs = build_dataset(scenario.dataset)
    bank = _build_bank(scenario, inputs, 1)
    moments = estimate_moments(bank[:T])
    y_round = TargetSeries(values=targets.values[: T + 1])
    solvers = {
        "full": full_backward_pass,
        "reduced": reduced_backward_pass,
        "decentralized": decentralized_backward_pass,
    }
    for policy, solve in solvers.items():
        fresh = solve(scenario.params, moments, y_round)
        dumped = load_coeff_arrays(out / "coeffs" / f"{policy}_N2_seed1.json")
        assert dumped["kind"] == policy
        arrays = vars(fresh)
        if policy == "full":
            # the full snapshot holds agent 1's value function only, and the
            # condition numbers of the step system matrices, not the matrices
            assert "P" not in dumped and "S" not in dumped and "system" not in dumped
            np.testing.assert_array_equal(dumped["P1"], fresh.P[0], err_msg="full P1")
            np.testing.assert_array_equal(dumped["S1"], fresh.S[0], err_msg="full S1")
            np.testing.assert_array_equal(
                dumped["condition_numbers"], fresh.condition_numbers, err_msg="full condition_numbers"
            )
            arrays = {name: value for name, value in arrays.items() if name not in ("P", "S", "system")}
        for name, value in arrays.items():
            if isinstance(value, np.ndarray):
                np.testing.assert_array_equal(dumped[name], value, err_msg=f"{policy} {name}")
    assert not (out / "coeffs" / "greedy_N2_seed1.json").exists()


def test_log_level_debug_logs_solver_conditioning(config, tmp_path):
    # a fresh process, so that the CLI's logging setup is not pre-empted
    # by the test runner's handlers
    path, cfg = config
    cfg["policies"] = ["reduced", "decentralized"]
    path.write_text(json.dumps(cfg), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(Path(fedgames.__file__).parents[1]))
    cmd = [sys.executable, "-m", "fedgames.cli", "--log-level", "DEBUG", "run"]
    proc = subprocess.run(
        cmd + ["--config", str(path), "--out", str(tmp_path / "o")],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    # the seed's reduced N 2, 3 and decentralized cells share one pass over
    # N 2, 3 and the limit; its line per step names the N and the round
    # where each condition number is largest
    where = r"\(max, at N=(2|3|inf), round [01]\)"
    assert re.search(rf"reduced t=0 cond\(F\)=\S+ {where} cond\(core\)=\S+ {where}$", proc.stderr, re.M)
    assert "max_t ||Pi3 - Pi4||" in proc.stderr  # the N = 3 cell
    assert "Logging error" not in proc.stderr
    assert main(["--log-level", "ERROR", "run", "--config", str(path), "--dry-run"]) == 0


def test_log_level_info_times_each_cell(config, tmp_path):
    path, _ = config
    out = tmp_path / "o"
    env = dict(os.environ, PYTHONPATH=str(Path(fedgames.__file__).parents[1]))
    cmd = [sys.executable, "-m", "fedgames.cli", "--log-level", "INFO", "run"]
    proc = subprocess.run(
        cmd + ["--config", str(path), "--out", str(out)], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    line = re.compile(
        r"cell policy=(\w+) N=(\d+) seed=(\d+): "
        r"episode ([\d.]+) s, output writing ([\d.]+) s, (\d+) bytes written"
    )
    logged = {m.group(1, 2, 3): m for m in map(line.search, proc.stderr.splitlines()) if m}
    cells = [(policy, n, "1") for policy in ("greedy", "reduced") for n in ("2", "3")]
    assert sorted(logged) == cells
    with (out / "results.csv").open() as fh:
        runtime_ms = {(r["policy"], r["N"], r["seed"]): float(r["runtime_ms"]) for r in csv.DictReader(fh)}
    for (policy, n, seed), m in logged.items():
        name = f"{policy}_N{n}_seed{seed}.json"
        files = [out / f"run_{name}", out / "coeffs" / name]  # greedy writes no coefficients
        assert int(m[6]) == sum(f.stat().st_size for f in files if f.exists())
        assert float(m[4]) == pytest.approx(runtime_ms[(policy, n, seed)] / 1000.0, abs=1e-3)
        assert float(m[5]) >= 0.0


def test_log_level_info_times_convergence(config, tmp_path):
    # the one pass over the grid and the limit, then each N's Monte-Carlo
    # loop report their wall time, in that order, and each N its batch size
    path, _ = config
    out = tmp_path / "conv"
    env = dict(os.environ, PYTHONPATH=str(Path(fedgames.__file__).parents[1]))
    cmd = [sys.executable, "-m", "fedgames.cli", "--log-level", "INFO", "convergence"]
    proc = subprocess.run(
        cmd + ["--config", str(path), "--out", str(out)], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    patterns = [
        r"convergence pass, 3 populations and the limit: [\d.]+ s$",
    ] + [rf"convergence N={n}: Monte-Carlo mean gap [\d.]+ s \(12 paths, 12 per batch, 1 thread\)$" for n in (4, 8, 16)]
    lines = [line for line in proc.stderr.splitlines() if "convergence " in line]
    assert len(lines) == len(patterns), proc.stderr
    for line, pattern in zip(lines, patterns):
        assert re.search(pattern, line), line


def test_spawner_events_logged_once(config, tmp_path):
    # the Gibbs posterior of each spawner round goes to the jsonl log only
    path, cfg = config
    cfg["policies"] = ["decentralized"]
    cfg["n_grid"] = [3]
    cfg["dataset"]["length"] = 9  # 4 rounds of T = 2, so 3 spawner rounds
    cfg["spawner"] = {"retire_k": 1}
    path.write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    summary = json.loads((out / "run_decentralized_N3_seed1.json").read_text())
    assert "spawn_events" not in summary
    events = [json.loads(line) for line in (out / "spawner_decentralized_N3_seed1.jsonl").read_text().splitlines()]
    assert [ev["round"] for ev in events] == [0, 1, 2]
    for ev in events:
        assert len(ev["weights"]) == 3 - 1  # N - retire_k retained agents
        assert sum(ev["weights"]) == pytest.approx(1.0)


def _greedy_spawn_series(tmp_path, policies, n, retire_k):
    """Config path of the logistic-map series (dataset seed 0) on which
    the greedy baseline diverges, at cell seed 577090037."""
    cfg = {
        "params": {
            "theta": 0.7,
            "theta_bar": 0.3,
            "kappa": 1.0,
            "kappa_bar": 0.5,
            "gamma": 1.0,
            "alpha": 0.01,
            "horizon_T": 4,
            "dim_y": 1,
            "dim_z": 4,
        },
        "mc_samples": 100,
        "dataset": {"kind": "logistic_map", "length": 201, "seed": 0},
        "encoder": {"kind": "esn"},
        "ridge": {"window_T": 3, "alpha": 0.1, "gamma": 0.1},
        "spawner": {"retire_k": retire_k, "zeta1": 0.1, "zeta2": 0.5, "orthogonalize": True},
        "policies": policies,
        "n_grid": [n],
        "seeds": [577090037],
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


def _divergence(out, policy, n):
    """(diverged, max_abs_prediction) of a cell from run_*.json, checked
    equal to its report.json cell."""
    run = json.loads((out / f"run_{policy}_N{n}_seed577090037.json").read_text())
    cells = json.loads((out / "report.json").read_text())["cells"]
    (cell,) = [c for c in cells if c["policy"] == policy]
    assert (cell["diverged"], cell["max_abs_prediction"]) == (run["diverged"], run["max_abs_prediction"])
    return run["diverged"], run["max_abs_prediction"]


def test_greedy_spawner_run_survives_weight_underflow(tmp_path):
    # the diverging greedy baseline drives lam x (score gap) past the
    # exponent range of a double; with linear pool weights this cell failed
    # a spawner round with DegenerateError and the run exited 3
    path = _greedy_spawn_series(tmp_path, ["greedy"], 8, 2)
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    with (out / "results.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    for key in ("rmse_agg", "rmse_worst", "regret"):
        assert np.isfinite(float(rows[0][key]))
    events = (out / "spawner_greedy_N8_seed577090037.jsonl").read_text().splitlines()
    assert len(events) == 49  # every round but the last
    # finite, but not a forecast: the cell is flagged
    assert _divergence(out, "greedy", 8)[0]


def test_diverged_flag_marks_the_greedy_cell_only(tmp_path):
    # the series of the benchmark's greedy_spawn workload at its seed 1:
    # the greedy cell writes regret ~4e13 and rmse_worst ~4e5 for targets
    # in [0, 1], the decentralized cell regret ~13
    path = _greedy_spawn_series(tmp_path, ["greedy", "decentralized"], 64, 8)
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    assert _divergence(out, "greedy", 64)[0]
    diverged, max_abs = _divergence(out, "decentralized", 64)
    assert not diverged and max_abs < 1.0
    with (out / "results.csv").open() as fh:
        assert next(csv.reader(fh)) == RESULTS_HEADER  # no flag column


def test_convergence_config_needs_no_dataset_or_policies(config, tmp_path, capsys):
    # only `run` reads them
    _, cfg = config
    del cfg["dataset"], cfg["policies"]
    path = tmp_path / "conv.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    assert main(["convergence", "--config", str(path), "--out", str(tmp_path / "conv")]) == 0
    capsys.readouterr()
    for dry_run in ([], ["--dry-run"]):
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")] + dry_run) == 2
        assert "config error: missing keys in config: ['dataset', 'policies']" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def _without_ridge(cfg):
    del cfg["ridge"]  # the fixture's grid has greedy cells


@pytest.mark.parametrize(
    "edit,message",
    [
        (lambda cfg: cfg.update(n_grid=[2.5]), "n_grid"),
        (lambda cfg: cfg.update(n_grid=[]), "n_grid"),
        (lambda cfg: cfg.update(seeds=[]), "seeds"),
        (lambda cfg: cfg.update(policies=[]), "policies must be"),
        (lambda cfg: cfg.update(policies="reduced"), "policies must be"),
        (_without_ridge, "needs a ridge section"),
        (lambda cfg: cfg.update(spawner={"retire_k": 2}), "retire_k"),  # N = 2 in the grid
        (lambda cfg: cfg.update(spawner={"retire_k": 0}), "retire_k"),
        (lambda cfg: cfg.update(mc_samples=0), "mc_samples"),
        (lambda cfg: cfg.update(mc_samples=-3), "mc_samples"),
        (lambda cfg: cfg.update(mc_samples=2.5), "mc_samples"),
        (lambda cfg: cfg["ridge"].update(window_T=0), "ridge.window_T"),
        (lambda cfg: cfg["ridge"].update(window_T=1.5), "ridge.window_T"),
        (lambda cfg: cfg["aggregation"].update(window_Ta=0), "aggregation.window_Ta"),
        (lambda cfg: cfg["aggregation"].update(window_Ta=2.5), "aggregation.window_Ta"),
        # a repeated entry ran its cells twice, and report.json averaged them twice
        (lambda cfg: cfg.update(n_grid=[2, 2]), "n_grid must be a non-empty list of distinct"),
        (lambda cfg: cfg.update(seeds=[1, 1]), "seeds must be a non-empty list of distinct"),
        (lambda cfg: cfg.update(policies=["reduced", "reduced", "greedy"]), "policies must be"),
    ],
    ids=["n_grid-float", "n_grid-empty", "seeds-empty", "policies-empty", "policies-string",
         "greedy-no-ridge", "retire_k-not-below-N", "retire_k-zero", "mc_samples-zero",
         "mc_samples-negative", "mc_samples-float", "window_T-zero", "window_T-float",
         "window_Ta-zero", "window_Ta-float", "n_grid-repeated", "seeds-repeated",
         "policies-repeated"],
)
def test_run_rejects_bad_grid(config, tmp_path, capsys, edit, message):
    # rejected before any cell runs, not in some cells at run time
    _, cfg = config
    edit(cfg)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / "o"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error:" in err and message in err
    assert not out.exists()


@pytest.mark.parametrize(
    "section,key,value",
    [
        ("spawner", "orthogonalize", "false"),  # ran with steering on
        ("params", "horizon_T", 4.5),  # a TypeError traceback, exit 1
        ("params", "dim_z", 2.0),  # a TypeError traceback, exit 1
        ("dataset", "seed", -1),  # every cell failed, exit 3
        ("encoder", "sigma", -0.1),  # every cell failed, exit 3
        ("spawner", "sigma_t", float("nan")),  # every cell failed, exit 3
        ("params", "theta", float("nan")),  # every cell failed, exit 3
        ("dataset", "length", 13.7),  # ran as 13
        ("params", "kappa", True),  # ran as 1.0
        # on a logistic_map series
        ("dataset", "parameters", {"typo": 1}),  # ran
        ("dataset", "parameters", {"c": True}),  # ran as 1.0
        ("dataset", "parameters", {"c": "x"}),  # every cell failed, exit 3
        ("dataset", "parameters", {"c": float("nan")}),  # every cell failed, exit 3
    ],
)
@pytest.mark.parametrize("dry_run", [False, True], ids=["run", "dry-run"])
def test_run_rejects_bad_value_before_any_cell(config, tmp_path, capsys, section, key, value, dry_run):
    _, cfg = config
    cfg["spawner"] = {"retire_k": 1}
    if key == "parameters":
        cfg["dataset"]["kind"] = "logistic_map"  # the synthetic kind that takes a parameter, c
    cfg[section][key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / "o"
    assert main(["run", "--config", str(path), "--out", str(out)] + ["--dry-run"] * dry_run) == 2
    assert f"config error: {section}.{key} " in capsys.readouterr().err
    assert not out.exists()


ROOT = Path(__file__).resolve().parents[1]


def _known_configs():
    """(command, config) of every config the repo runs: the benchmark's
    workloads, tiny and full, at seeds 1-10; the golden cases; and the
    README's example, under both commands."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclass looks its module up
    spec.loader.exec_module(workloads)
    configs = [
        pytest.param(w.command, w.config(seed, tiny), id=f"{name}-{'tiny' if tiny else 'full'}-{seed}")
        for name, w in workloads.WORKLOADS.items()
        for tiny in (True, False)
        for seed in range(1, 11)
    ]
    for path in sorted((ROOT / "tests" / "golden").glob("*/config.json")):
        command = "convergence" if path.parent.name == "convergence" else "run"
        cfg = json.loads(path.read_text(encoding="utf-8"))
        configs.append(pytest.param(command, cfg, id=f"golden-{path.parent.name}"))
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    example = json.loads(readme.split("Example config:\n\n```json\n", 1)[1].split("```", 1)[0])
    configs += [pytest.param(command, example, id=f"readme-{command}") for command in ("run", "convergence")]
    return configs


def _assert_built_as_given(built, given: dict, renames=None):
    for key, value in given.items():
        field = getattr(built, (renames or {}).get(key, key))
        if key in ("theta", "theta_bar"):
            value = np.asarray(value) * (1 if np.ndim(value) else np.eye(built.dim_y))
            np.testing.assert_array_equal(field, value)
        elif key != "population_N":
            assert field == value and type(field) is type(value), key


@pytest.mark.parametrize("command,cfg", _known_configs())
def test_known_configs_load_and_build(tmp_path, command, cfg):
    # a schema that rejected a benchmark config would otherwise show up only
    # as a refused benchmark run
    from fedgames.cli import _convergence_scenario, build_scenario, cell_grid, load_config

    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    loaded = load_config(path)
    assert loaded == cfg
    if command == "convergence":
        scenario = _convergence_scenario(loaded)
        conv = cfg.get("convergence", {})
        assert (scenario.n_grid, scenario.seed) == (tuple(conv.get("n_grid", [4, 16, 64])), cfg.get("seed", 0))
        assert np.all(scenario.latent_mean == conv.get("latent_mean", 0.8))
        _assert_built_as_given(scenario, {k: v for k, v in conv.items() if k in ("paths", "latent_half_width")})
        _assert_built_as_given(scenario.params, cfg["params"])
    # `run` too, whose setup time the benchmark takes with --dry-run on
    # every workload's config, the convergence command's included
    ns = cfg.get("n_grid", [cfg["params"].get("population_N", 2)])
    seeds = cfg.get("seeds", [cfg.get("seed", 0)])
    cells = cell_grid(loaded)
    assert cells == [(p, n, s) for p in cfg["policies"] for n in ns for s in seeds]
    for n in ns:
        scenario = build_scenario(loaded, n)
        assert scenario.params.population_N == n
        _assert_built_as_given(scenario.params, cfg["params"])
        for section in ("dataset", "encoder", "ridge", "spawner"):
            if section in cfg:
                _assert_built_as_given(getattr(scenario, section), cfg[section])
            else:
                assert getattr(scenario, section) == Scenario.__dataclass_fields__[section].default
        _assert_built_as_given(scenario, {k: v for k, v in cfg.items() if k == "mc_samples"})
        _assert_built_as_given(
            scenario, cfg.get("aggregation", {}), {"alpha_a": "aggregation_alpha", "window_Ta": "aggregation_window"}
        )
