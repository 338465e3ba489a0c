"""Golden outputs of `fedgames run` on two small checked-in configs, and
of `fedgames convergence` on a third.

``tests/golden/<case>/`` holds a config, the ``results.csv`` it must
produce (compared at RTOL, the measured runtime_ms column ignored) and,
for the base case, the reduced and the full round-0 coefficient
snapshots, whose float values (arrays and ``max_asymmetry``) are
compared at RTOL with an absolute floor ATOL, their strings, ints and
lists exactly, and their keys in order.
``tests/golden/convergence/`` holds a config and the ``convergence.csv``
and ``gap_report.csv`` it must produce, every number compared at RTOL.
A change that moves these values on purpose regenerates them with

    PYTHONPATH=src python tests/test_golden.py

and says why in CHANGES.md.
"""

import csv
import shutil
from pathlib import Path

import numpy as np
import pytest

from fedgames.cli import main
from fedgames.io import load_coeff_arrays

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = ("base", "esn_spawner")
COEFFS = {"base": ("coeffs/reduced_N4_seed1.json", "coeffs/full_N4_seed1.json")}
CONVERGENCE = GOLDEN / "convergence"
CONVERGENCE_FILES = ("convergence.csv", "gap_report.csv")
RTOL = 1e-10
ATOL = 1e-14  # coefficient snapshots only: entries that are rounding noise


def _rows(path):
    with Path(path).open(newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    return {(r["policy"], r["N"], r["seed"]): r for r in rows}


def _run(case, out):
    assert main(["run", "--config", str(GOLDEN / case / "config.json"), "--out", str(out)]) == 0


@pytest.mark.parametrize("case", CASES)
def test_golden_results(case, tmp_path):
    _run(case, tmp_path)
    got, want = _rows(tmp_path / "results.csv"), _rows(GOLDEN / case / "results.csv")
    assert got.keys() == want.keys()
    for cell, row in want.items():
        for key in ("rmse_agg", "rmse_worst", "regret"):
            assert float(got[cell][key]) == pytest.approx(float(row[key]), rel=RTOL, abs=0), (cell, key)
    for snapshot in COEFFS.get(case, ()):
        got_c = load_coeff_arrays(tmp_path / snapshot)
        want_c = load_coeff_arrays(GOLDEN / case / snapshot)
        assert list(got_c) == list(want_c), snapshot
        for name, value in want_c.items():
            if isinstance(value, np.ndarray):
                np.testing.assert_allclose(got_c[name], value, rtol=RTOL, atol=ATOL, err_msg=(snapshot, name))
            elif isinstance(value, float):  # max_asymmetry, at rounding level
                assert got_c[name] == pytest.approx(value, rel=RTOL, abs=ATOL), (snapshot, name)
            else:
                assert got_c[name] == value, (snapshot, name)


def _run_convergence(out):
    assert main(["convergence", "--config", str(CONVERGENCE / "config.json"), "--out", str(out)]) == 0


def _csv_numbers(path):
    with Path(path).open(newline="", encoding="utf-8") as fh:
        return [{key: float(value) for key, value in row.items()} for row in csv.DictReader(fh)]


@pytest.mark.parametrize("name", CONVERGENCE_FILES)
def test_golden_convergence(name, tmp_path):
    _run_convergence(tmp_path)
    got, want = _csv_numbers(tmp_path / name), _csv_numbers(CONVERGENCE / name)
    assert len(got) == len(want)
    for i, (g, w) in enumerate(zip(got, want)):
        assert g.keys() == w.keys()
        for key, value in w.items():
            assert g[key] == pytest.approx(value, rel=RTOL, abs=0), (name, i, key)


def regenerate(work_dir: Path) -> None:
    for case in CASES:
        out = work_dir / case
        _run(case, out)
        shutil.copy(out / "results.csv", GOLDEN / case / "results.csv")
        for snapshot in COEFFS.get(case, ()):
            shutil.copy(out / snapshot, GOLDEN / case / snapshot)
    out = work_dir / "convergence"
    _run_convergence(out)
    for name in CONVERGENCE_FILES:
        shutil.copy(out / name, CONVERGENCE / name)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        regenerate(Path(tmp))
