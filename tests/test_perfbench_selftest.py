"""The benchmark's own tests (`perfbench/selftest.py`) run with the suite,
so a change under `src/fou` that breaks a name the tracer binds to (such
as `fou.cli.sample_fgn` or `montecarlo.run`) fails here, not only in a
benchmark run."""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    res = subprocess.run([sys.executable, str(ROOT / "perfbench" / "selftest.py")],
                         cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stdout + res.stderr
