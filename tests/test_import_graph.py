"""Importing the CLI loads no SciPy module at all.

The runtime needs numpy and the standard library only: the AR(1) scan,
the Toeplitz products, the incomplete gamma and 1F1 functions and the
normal CDF are written in `fou` itself, and SciPy is a test dependency.
Importing it took most of a command's start-up time.  The check runs in a
fresh interpreter, since the test process itself may have loaded SciPy.
"""
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_cli_import_leaves_out_unused_scipy_subpackages():
    code = "import sys, fou.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=path), check=True, timeout=120)
    assert out.stdout.strip() == "[]"
