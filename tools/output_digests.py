"""Digests of every output of a fixed matrix of ``fedgames`` commands, to
check that a change keeps the outputs byte for byte.

    python tools/output_digests.py [TREE] > manifest.txt
    python tools/output_digests.py --compare A B

The first form runs each config of the matrix in process, through
``fedgames.cli.main``, with the package imported from ``TREE/src`` (the
checkout that holds this file by default), and prints one line per output
file, config by config, each config's files sorted:

    <config id> <file> <sha256> exit=<code> stderr=<sha256>

The file digest is of its bytes with the measured ``runtime_ms`` blanked
(the results.csv column, the run_*.json key). The last two fields are the
command's exit code and a digest of its stderr, with the temporary
directory's path replaced and each warning cut to its category and
message; a command that writes no file prints one line
with ``-`` as its file and digest. The matrix is this file's, whichever
tree runs it: the three `run` workloads of ``perfbench/workloads.py`` at
seeds 1-10 and ``convergence_sweep`` at seed 1, the configs of
``tests/golden/``, and edge configs (ESN with an orthogonalizing spawner
at dim_y 2, a full-only grid at N 1-32, a theta that overflows, a dataset
that cannot feed its game).

``--compare A B`` prints every line that differs between two manifests
and exits 1 if any does. Compare manifests made on one machine with one
BLAS setup: another BLAS build may move the last bits of a solve.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import logging
import re
import sys
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
RUN_WORKLOADS = ("meanfield_large", "full_oracle", "greedy_spawn")
SEEDS = range(1, 11)
_RUNTIME_JSON = re.compile(r'("runtime_ms": )[^,}]+')

_PARAMS = {"theta": 0.7, "theta_bar": 0.3, "kappa": 1.0, "kappa_bar": 0.5, "gamma": 1.0, "alpha": 0.01}
EDGE_CONFIGS = {
    # a two-column series for dim_y 2, an ESN pool whose respawned agents
    # are steered by the QP with its target-tracking term (zeta1 > 0)
    "esn_ortho_dy2": {
        "params": dict(_PARAMS, horizon_T=2, dim_y=2, dim_z=3),
        "mc_samples": 12,
        "dataset": {"kind": "concept_drift", "length": 13, "seed": 4},
        "encoder": {"kind": "esn", "sigma": 0.2},
        "policies": ["reduced", "decentralized", "greedy"],
        "n_grid": [6],
        "seeds": [1, 2],
        "ridge": {"window_T": 3, "alpha": 0.1, "gamma": 0.5},
        "spawner": {"retire_k": 2, "lam": 1.0, "sigma_t": 0.1, "zeta1": 0.7, "zeta2": 0.4, "orthogonalize": True},
    },
    # the dense oracle at every N it takes, in one and in several rounds per chunk
    "full_n1_32": {
        "params": dict(_PARAMS, horizon_T=2, dim_y=1, dim_z=2),
        "mc_samples": 8,
        "dataset": {"kind": "logistic_map", "length": 7, "seed": 2},
        "encoder": {"kind": "rfn"},
        "policies": ["full"],
        "n_grid": list(range(1, 33)),
        "seeds": [1],
    },
    # every solving pass overflows, and the greedy predictions diverge
    "theta_1e160": {
        "params": dict(_PARAMS, theta=1e160, horizon_T=2, dim_y=1, dim_z=2),
        "mc_samples": 6,
        "dataset": {"kind": "logistic_map", "length": 9},
        "encoder": {"kind": "rfn"},
        "policies": ["full", "reduced", "decentralized", "greedy"],
        "n_grid": [3, 32],
        "seeds": [1],
        "ridge": {"window_T": 2, "alpha": 0.1, "gamma": 0.5},
    },
    # a one-column series for a game of dim_y 2: every cell fails
    "infeasible_dataset": {
        "params": dict(_PARAMS, horizon_T=2, dim_y=2, dim_z=2),
        "dataset": {"kind": "logistic_map", "length": 9},
        "policies": ["reduced", "decentralized", "greedy"],
        "n_grid": [3, 8],
        "seeds": [1, 2],
        "ridge": {"window_T": 2, "alpha": 0.1, "gamma": 0.5},
    },
}


def matrix() -> dict:
    """config id -> (fedgames command, config dict), in run order."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        from workloads import WORKLOADS
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    configs = {
        f"{name}/seed{seed}": ("run", WORKLOADS[name].config(seed, False)) for name in RUN_WORKLOADS for seed in SEEDS
    }
    configs["convergence_sweep/seed1"] = ("convergence", WORKLOADS["convergence_sweep"].config(1, False))
    for case in sorted(p.name for p in GOLDEN.iterdir()):
        cfg = json.loads((GOLDEN / case / "config.json").read_text(encoding="utf-8"))
        configs[f"golden/{case}"] = ("convergence" if "convergence" in cfg else "run", cfg)
    configs.update({f"edge/{name}": ("run", cfg) for name, cfg in EDGE_CONFIGS.items()})
    return configs


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def file_digest(path: Path) -> str:
    """sha256 of the file's bytes, the ``runtime_ms`` values blanked."""
    if path.name == "results.csv":
        with path.open(newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        idx = rows[0].index("runtime_ms")
        for row in rows[1:]:
            row[idx] = ""
        text = io.StringIO()
        csv.writer(text).writerows(rows)
        return _sha(text.getvalue().encode())
    if path.suffix == ".json":
        return _sha(_RUNTIME_JSON.sub(r"\1null", path.read_text(encoding="utf-8")).encode())
    return _sha(path.read_bytes())


def run_config(main, command: str, cfg: dict) -> list[str]:
    """The manifest lines of one config, run by ``main`` in a fresh
    temporary directory, as a fresh process would: a new stderr log
    handler, and each warning location shown once, as its category and
    message (its file and line are the tree's, not the outputs')."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "config.json").write_text(json.dumps(cfg), encoding="utf-8")
        out, err = tmp / "out", io.StringIO()
        root = logging.getLogger()
        handlers, level = root.handlers[:], root.level
        root.handlers = []
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), warnings.catch_warnings():
                warnings.simplefilter("default")
                warnings.showwarning = lambda message, category, *where, **_: print(
                    f"{category.__name__}: {message}", file=sys.stderr
                )
                code = main([command, "--config", str(tmp / "config.json"), "--out", str(out)])
        finally:
            root.handlers, root.level = handlers, level
        tail = f"exit={code} stderr={_sha(err.getvalue().replace(str(tmp), '<tmp>').encode())}"
        files = sorted(p for p in out.rglob("*") if p.is_file()) if out.exists() else []
        return [f"{p.relative_to(out).as_posix()} {file_digest(p)} {tail}" for p in files] or [f"- - {tail}"]


def manifest(configs: dict, tree: Path = ROOT) -> list[str]:
    """The manifest lines of ``configs`` (id -> (command, config)), with
    ``fedgames`` imported from ``tree``'s src (unless it is imported
    already)."""
    src = str(Path(tree) / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    from fedgames.cli import main

    return [f"{cid} {line}" for cid, (command, cfg) in configs.items() for line in run_config(main, command, cfg)]


def _entries(path) -> dict:
    entries = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        cid, name, rest = line.split(" ", 2)
        entries[cid, name] = rest
    return entries


def compare(a, b) -> list[str]:
    """The differences between two manifests, one line each."""
    left, right = _entries(a), _entries(b)
    diff = []
    for key in sorted(left.keys() | right.keys()):
        was, now = left.get(key, "missing"), right.get(key, "missing")
        if was != now:
            diff.append(f"{' '.join(key)}: {was} -> {now}")
    return diff


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("tree", nargs="?", default=str(ROOT), help="checkout whose src/fedgames runs the matrix")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"), help="diff two manifests")
    args = ap.parse_args(argv)
    if args.compare:
        diff = compare(*args.compare)
        print("\n".join(diff) if diff else "manifests equal")
        return 1 if diff else 0
    print("\n".join(manifest(matrix(), Path(args.tree))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
