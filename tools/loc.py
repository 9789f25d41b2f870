"""Line counts of the `fou` package: total lines and code lines, per module
and for the whole package.

    python3 tools/loc.py [package_dir]        (default: src/fou)

A code line is non-blank, is not a comment, and lies outside every
string-expression statement (the docstrings, and any bare string used as
a statement).  Only the standard library is used.
"""
from __future__ import annotations

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fou"


def counts(source: str) -> tuple[int, int]:
    """(total lines, code lines) of one module's source."""
    strings = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            strings.update(range(node.lineno, node.end_lineno + 1))
    lines = source.splitlines()
    code = sum(1 for i, line in enumerate(lines, 1)
               if i not in strings and line.strip() and not line.lstrip().startswith("#"))
    return len(lines), code


def report(package: Path) -> list[tuple[str, int, int]]:
    """(name, total lines, code lines) of each module of `package`, by name,
    then of the whole package as "total"."""
    rows = [(path.name, *counts(path.read_text())) for path in sorted(package.glob("*.py"))]
    return [*rows, ("total", sum(r[1] for r in rows), sum(r[2] for r in rows))]


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    rows = report(Path(args[0]) if args else PACKAGE)
    width = max(len(name) for name in ["module", *(row[0] for row in rows)])
    print(f"{'module':<{width}}  {'lines':>6}  {'code':>6}")
    for name, total, code in rows:
        print(f"{name:<{width}}  {total:>6,}  {code:>6,}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
