"""Importing the CLI loads no SciPy module, and none of the standard-library
packages that `fou` gave up.

The runtime needs numpy and the standard library only: the AR(1) scan,
the Toeplitz products, the incomplete gamma and 1F1 functions and the
normal CDF are written in `fou` itself, and SciPy is a test dependency.
Importing it took most of a command's start-up time.  Of the standard
library, `fou` needs nothing that numpy has not already loaded except a
few small modules: its records are `typing.NamedTuple`s, not dataclasses,
and `montecarlo.replicate` starts `threading.Thread`s itself, so neither
`dataclasses` nor `concurrent.futures` (which loads `logging`) is
imported.  numpy itself loads none of the three.  Each check runs in a
fresh interpreter, since the test process itself may have loaded them.
"""
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _loaded_after_import(packages) -> str:
    """The modules of `packages` that a fresh `import fou.cli` loads."""
    code = ("import sys, fou.cli; print(sorted(m for m in sys.modules if any("
            f"m == p or m.startswith(p + '.') for p in {packages!r})))")
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=path), check=True, timeout=120)
    return out.stdout.strip()


def test_cli_import_leaves_out_unused_scipy_subpackages():
    assert _loaded_after_import(("scipy",)) == "[]"


def test_cli_import_leaves_out_dataclasses_and_the_executor():
    assert _loaded_after_import(("dataclasses", "concurrent.futures", "logging")) == "[]"
