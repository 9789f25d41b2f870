"""Importing the CLI loads none of the SciPy subpackages that it does not use.

`scipy.signal` (which also loads `scipy.stats`) and `scipy.integrate` took
most of a command's start-up time; the AR(1) scan and the b_T / c_T
integrals no longer need them.  The check runs in a fresh interpreter,
since the test process itself may have loaded them.
"""
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
UNUSED = ("scipy.signal", "scipy.integrate", "scipy.stats")


def test_cli_import_leaves_out_unused_scipy_subpackages():
    code = f"import sys, fou.cli; print([m for m in {UNUSED!r} if m in sys.modules])"
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=path), check=True, timeout=120)
    assert out.stdout.strip() == "[]"
