"""`numpy.fft` is referenced in `src/fou/fgn.py` only.

A stdlib `ast` check in the style of `test_imports.py`.  `fgn` owns the
circulant embedding of the fGn autocovariance: the sampler and the product
by the Gram matrix W (`fgn.toeplitz_product`).  Every other module takes
W y from there, so no second copy of the embedding can drift.  A module
references `numpy.fft` when it imports `numpy.fft` or a name from it, or
reads the attribute `fft` of a name bound to numpy.
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "fou"


def fft_references(source: str) -> list[int]:
    """Line numbers at which `source` references numpy.fft."""
    tree = ast.parse(source)
    numpy_names, lines = {"numpy"}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "numpy":
                    numpy_names.add(alias.asname or alias.name)
                elif alias.name.startswith("numpy.fft"):
                    lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.module.startswith("numpy.fft") or (
                    node.module == "numpy" and any(a.name == "fft" for a in node.names)):
                lines.append(node.lineno)
    lines.extend(node.lineno for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and node.attr == "fft"
                 and isinstance(node.value, ast.Name) and node.value.id in numpy_names)
    return sorted(lines)


def test_check_flags_every_form():
    source = ("import numpy as np\nimport numpy.fft\nfrom numpy import fft\n"
              "from numpy.fft import rfft\nx = np.fft.rfft\ny = np.linalg.norm\n")
    assert fft_references(source) == [2, 3, 4, 5]


def test_numpy_fft_only_in_fgn():
    users = {p.name for p in SRC.glob("*.py") if fft_references(p.read_text())}
    assert users == {"fgn.py"}
