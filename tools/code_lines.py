"""Count the code lines of ``src/fedgames``, per module and in total.

A code line holds at least one token of code: blank lines, comment lines
and the lines of docstrings (the string that opens a module, class or
function body) do not count. Run from anywhere:

    python tools/code_lines.py [TREE]

``TREE`` is the checkout whose ``src/fedgames`` is counted (the one that
holds this file by default), such as an extracted parent commit.
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, BODIES) and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    source = path.read_text(encoding="utf-8")
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("tree", nargs="?", default=str(ROOT), help="checkout whose src/fedgames is counted")
    src = Path(ap.parse_args(argv).tree) / "src" / "fedgames"
    counts = {path.name: code_lines(path) for path in sorted(src.glob("*.py"))}
    if not counts:
        raise SystemExit(f"no modules in {src}")
    width = max(map(len, counts))
    for name, n in counts.items():
        print(f"{name:<{width}} {n:5d}")
    print(f"{'total':<{width}} {sum(counts.values()):5d}")


if __name__ == "__main__":
    main()
