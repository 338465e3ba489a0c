import json

import pytest


@pytest.fixture(autouse=True)
def coeff_snapshots_are_json_dumps_text(request):
    """After a test that has a tmp_path, check every coefficient snapshot it
    wrote under a ``coeffs`` folder: its text must be what ``json.dumps``
    writes, which holds exactly when ``json.dumps(json.loads(text))`` gives
    the text back."""
    if "tmp_path" not in request.fixturenames:
        yield
        return
    tmp_path = request.getfixturevalue("tmp_path")
    yield
    for path in tmp_path.rglob("coeffs/*.json"):
        text = path.read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text)), path
