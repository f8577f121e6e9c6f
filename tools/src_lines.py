"""Count the lines of a Python package by kind: code, docstring, comment and blank.

Usage: ``python tools/src_lines.py [DIRECTORY]`` (default: the repository's ``src/catdcor``).

Every line of each ``*.py`` file falls in exactly one kind.  A line that
holds any token of code is code, a multi-line string that is not a
docstring included.  The remaining lines spanned by a docstring (the
leading string of a module, class or function body) are docstring lines,
its blank lines included.  A line holding only a comment is a comment
line; every other line is blank.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")
_LAYOUT = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER}


def _docstrings(tree: ast.AST) -> set[tuple[int, int]]:
    """Start positions ``(line, column)`` of every docstring in ``tree``."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add((first.value.lineno, first.value.col_offset))
    return starts


def count_lines(source: str) -> dict[str, int]:
    """The number of lines of ``source`` of each kind, with their total as ``"lines"``."""
    docstrings = _docstrings(ast.parse(source))
    kind_of: dict[int, str] = {}
    rank = {kind: k for k, kind in enumerate(KINDS)}
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            kind = "comment"
        elif tok.type == tokenize.STRING and tok.start in docstrings:
            kind = "docstring"
        elif tok.type in _LAYOUT:
            continue
        else:
            kind = "code"
        for line in range(tok.start[0], tok.end[0] + 1):
            if rank[kind] < rank[kind_of.get(line, "blank")]:
                kind_of[line] = kind
    total = len(source.splitlines())
    counts = {kind: sum(1 for k in kind_of.values() if k == kind) for kind in KINDS[:3]}
    counts["blank"] = total - sum(counts.values())
    return {"lines": total, **counts}


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "catdcor"
    columns = ("lines", *KINDS)
    totals = dict.fromkeys(columns, 0)

    def row(name: str, values) -> None:
        print(f"{name:<20}" + "".join(f"{v:>10}" for v in values))

    row("file", columns)
    for path in sorted(root.glob("*.py")):
        counts = count_lines(path.read_text(encoding="utf-8"))
        for c in columns:
            totals[c] += counts[c]
        row(path.name, (counts[c] for c in columns))
    row("total", totals.values())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
