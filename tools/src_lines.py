#!/usr/bin/env python3
"""Print physical and code lines per package of ``src/repro``.

A *physical* line is any line of a ``.py`` file.  A *code* line holds at
least one token that is not a comment and is not part of a docstring
(the first string statement of a module, class or function, found with
``ast``); blank lines, comment-only lines and docstring lines do not
count.  Tokens come from ``tokenize``, so a multi-line string that is
not a docstring counts every line it spans.  Top-level modules of
``repro`` are grouped under ``repro``.  Run from anywhere::

    python tools/src_lines.py

Two checkouts' outputs compared line by line give the lines of ``src/``
a change added or removed.
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: Token types that never make a line count as code.
_NON_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path: Path) -> tuple[int, int]:
    """``(physical, code)`` lines of one source file."""
    text = path.read_text(encoding="utf-8")
    code: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in _NON_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    code -= _docstring_lines(ast.parse(text))
    return len(text.splitlines()), len(code)


def main() -> None:
    totals: dict[str, list[int]] = {}
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC)
        package = relative.parts[0] if len(relative.parts) > 1 else "repro"
        entry = totals.setdefault(package, [0, 0, 0])
        physical, code = count(path)
        entry[0] += 1
        entry[1] += physical
        entry[2] += code
    print(f"{'package':<12} {'files':>5} {'physical':>9} {'code':>7}")
    for package, (files, physical, code) in sorted(totals.items()):
        print(f"{package:<12} {files:>5} {physical:>9} {code:>7}")
    files, physical, code = (sum(column) for column in zip(*totals.values()))
    print(f"{'total':<12} {files:>5} {physical:>9} {code:>7}")


if __name__ == "__main__":
    main()
