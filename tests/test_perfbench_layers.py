"""The names through which perfbench's tracer reaches fedgames must
resolve: a layer whose names are all gone is reported as absent, and
its metrics then vanish from the benchmark. This imports only the
tracer module and runs no workload; ``perfbench/smoke.py`` checks the
same names and also runs every workload at a tiny size."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]


def _tracer_layers():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.LAYERS


TARGETS = sorted({target for _, targets in _tracer_layers().values() for target in targets})


def test_tracer_has_layers():
    assert len(TARGETS) > 20


@pytest.mark.parametrize("target", TARGETS)
def test_tracer_target_resolves(target):
    module_name, attribute = target.split(":")
    module = importlib.import_module(module_name)
    assert Path(module.__file__).resolve().is_relative_to(ROOT / "src"), module.__file__
    assert callable(getattr(module, attribute, None)), f"{target} does not resolve"


def test_ortho_solve_reports_hard_case():
    # the tracer's spawner.ortho.hard_cases counter reads ``hard_case`` off
    # what ``fedgames.harness:ortho_solve`` returns; without the attribute
    # it would count nothing and no other test would notice
    from fedgames.harness import ortho_solve
    from fedgames.spawner import OrthoProblem, vec

    Q = np.diag([0.0, 1.0, 2.0, 3.0])
    xi_I = vec(np.eye(2))
    for bottom_force, hard in ((0.0, True), (1.0, False)):
        g = np.array([bottom_force, 1.0, 1.0, 1.0])
        prob = OrthoProblem(Q=Q, c=2.0 * (g - Q @ xi_I), xi_I=xi_I, d_z=2, zeta1=0.0)
        assert ortho_solve(prob, 2.0).hard_case is hard
