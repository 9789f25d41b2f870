"""Every name imported by `src/fou` or the tests is read somewhere in its module.

A stdlib `ast` check in place of a linter: a name bound by `import` or
`from ... import` (under its alias, or its first dotted part) that no
`Name` node loads fails the test.  `__future__` imports are skipped.
"""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted([*(ROOT / "src" / "fou").glob("*.py"), *(ROOT / "tests").glob("*.py")])


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in read]


def test_check_flags_an_unused_import():
    source = "from __future__ import annotations\nimport os\nimport a.b as c\nfrom x import y, z\nz()\n"
    assert unused_imports(source) == ["line 2: os", "line 3: c", "line 4: y"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_import_is_read(path):
    assert unused_imports(path.read_text()) == []
