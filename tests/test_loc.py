"""`tools/loc.py` counts total and code lines of a synthetic package.

A code line is non-blank, not a comment, and outside every
string-expression statement; a string that is part of an expression or an
assignment is code."""
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("loc", ROOT / "tools" / "loc.py")
loc = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(loc)

SOURCE = '''"""Module docstring,
over two lines."""
import math  # a trailing comment leaves the line code

# a comment line
NAME = """an assigned
string is code"""


def f(x):
    """One-line docstring."""

    "a bare string statement"
    return math.sqrt(x)
'''


def test_counts_of_synthetic_source():
    assert loc.counts(SOURCE) == (14, 5)


def test_report_and_output_of_synthetic_package(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n\n")
    assert loc.report(tmp_path) == [("a.py", 14, 5), ("b.py", 2, 1), ("total", 16, 6)]
    assert loc.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "module   lines    code",
        "a.py        14       5",
        "b.py         2       1",
        "total       16       6",
    ]
