"""Import hygiene: every name a ``fedgames`` module imports is used there.

No linter is assumed; the check parses each module under ``src/fedgames``
with ``ast``. A name counts as used when it is read anywhere in the module
(an attribute chain counts for its root name) or listed in ``__all__``. An
import kept on purpose, such as a name perfbench's tracer wraps on the
module, carries ``# noqa: F401`` and a reason on its line.
"""

import ast
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "fedgames"
NOQA = re.compile(r"#\s*noqa:\s*F401\b(.*)$")


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {elt.value for elt in node.value.elts}
    return set()


def unused_imports(path: Path) -> list[str]:
    """'<line>: <name>' for each imported name that ``path`` never reads
    and whose line carries no ``noqa: F401`` with a reason."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name.split(".")[0], a.lineno) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(a.asname or a.name, a.lineno) for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | _exported(tree)
    unused = []
    for name, line in imported:
        if name in used:
            continue
        noqa = NOQA.search(lines[line - 1])
        if noqa and noqa[1].strip():
            continue
        unused.append(f"{line}: {name}")
    return unused


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_check_flags_an_unused_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "import os\n"
        "import sys  # noqa: F401\n"
        "from math import pi, tau  # noqa: F401  (kept for callers)\n"
        "from json import dumps\n"
        "print(dumps(os.sep))\n",
        encoding="utf-8",
    )
    # a noqa without a reason does not excuse sys
    assert unused_imports(module) == ["2: sys"]
