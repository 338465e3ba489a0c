"""Golden outputs of `fedgames run` on two small checked-in configs.

``tests/golden/<case>/`` holds a config, the ``results.csv`` it must
produce (compared at RTOL, the measured runtime_ms column ignored) and,
for the base case, one round-0 coefficient snapshot. A change that moves
these values on purpose regenerates them with

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
COEFFS = {"base": "coeffs/reduced_N4_seed1.json"}
RTOL = 1e-10


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
    if case in COEFFS:
        got_c = load_coeff_arrays(tmp_path / COEFFS[case])
        want_c = load_coeff_arrays(GOLDEN / case / COEFFS[case])
        assert got_c.keys() == want_c.keys()
        for name, value in want_c.items():
            if isinstance(value, np.ndarray):
                np.testing.assert_allclose(got_c[name], value, rtol=RTOL, atol=1e-14, err_msg=name)
            else:
                assert got_c[name] == value, name


def regenerate(work_dir: Path) -> None:
    for case in CASES:
        out = work_dir / case
        _run(case, out)
        shutil.copy(out / "results.csv", GOLDEN / case / "results.csv")
        if case in COEFFS:
            shutil.copy(out / COEFFS[case], GOLDEN / case / COEFFS[case])


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        regenerate(Path(tmp))
