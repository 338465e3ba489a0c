"""The names through which perfbench's tracer reaches fedgames must
resolve: a layer whose names are all gone is reported as absent, and
its metrics then vanish from the benchmark. This imports only the
tracer module and runs no workload; ``perfbench/smoke.py`` checks the
same names and also runs every workload at a tiny size."""

import importlib
import importlib.util
from pathlib import Path

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
