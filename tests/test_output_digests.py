"""``tools/output_digests.py``: a manifest is deterministic, and a one-bit
change of a coefficient shows in its compare."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "output_digests.py"
SUBSET = ("golden/base", "edge/infeasible_dataset")


@pytest.fixture(scope="module")
def digests():
    spec = importlib.util.spec_from_file_location("output_digests", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def subset(digests):
    configs = digests.matrix()
    return {cid: configs[cid] for cid in SUBSET}


def _write(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_matrix_holds_every_listed_config(digests):
    configs = digests.matrix()
    for name in digests.RUN_WORKLOADS:
        assert [cid for cid in configs if cid.startswith(f"{name}/")] == [f"{name}/seed{s}" for s in range(1, 11)]
    assert {"convergence_sweep/seed1", "golden/base", "golden/esn_spawner", "golden/convergence"} <= configs.keys()
    assert {f"edge/{name}" for name in digests.EDGE_CONFIGS} <= configs.keys()


def test_manifest_is_the_same_twice(digests, subset, tmp_path):
    first, second = digests.manifest(subset), digests.manifest(subset)
    assert first == second
    by_config = {cid: [line for line in first if line.startswith(f"{cid} ")] for cid in SUBSET}
    # the base case writes files and exits 0; the infeasible one fails every cell
    assert all(" exit=0 " in line for line in by_config["golden/base"])
    assert any(" results.csv " in line for line in by_config["golden/base"])
    assert all(" exit=3 " in line for line in by_config["edge/infeasible_dataset"])
    a, b = _write(tmp_path / "a", first), _write(tmp_path / "b", second)
    assert digests.compare(a, b) == []
    assert digests.main(["--compare", str(a), str(b)]) == 0


def test_a_one_bit_flip_of_a_coefficient_shows_in_the_compare(digests, subset, tmp_path, monkeypatch):
    import fedgames.harness as harness

    configs = {"golden/base": subset["golden/base"]}
    before = digests.manifest(configs)
    take_round = harness.take_round

    def flipped(coeffs, r):
        coeffs = take_round(coeffs, r)
        # the last bit of one entry of the round's feedback gain
        gain = next(getattr(coeffs, name) for name in ("G", "G1N", "G1") if hasattr(coeffs, name))
        gain.view(np.int64).flat[0] ^= 1
        return coeffs

    monkeypatch.setattr(harness, "take_round", flipped)
    after = digests.manifest(configs)
    a, b = _write(tmp_path / "a", before), _write(tmp_path / "b", after)
    diff = digests.compare(a, b)
    # the round-0 snapshots hold the flipped entry; at the results' 17
    # digits the metrics need not move
    changed = {line.split(":")[0] for line in diff}
    assert {f"golden/base coeffs/{kind}_N4_seed1.json" for kind in ("full", "reduced", "decentralized")} <= changed
    assert digests.main(["--compare", str(a), str(b)]) == 1
