"""CLI outputs against stored goldens at relative 1e-12.

`goldens.json` maps a case name to the CLI argv and the `rows` of its
`--format json` output.  The sampling cases were written by the per-path
sampler with the full-length complex FFT, before the batched engine
replaced it; the estimate cases span several chunks at the last horizon,
so chunk boundaries are covered.  The `bounds` and `asymptotics` cases
were written by the six-product ingredient route, before the two-product
route replaced it; they cover H = 1/2, 0.6 and 3/4 (the log-scaled
quantity names) under both the fixed-n and the fixed-dt policy.  The two
H = 3/4 cases were rewritten when the kernel f took the sqrt(log T)
normalization of that H, so their f-columns describe the statistic
that `kolmogorov` samples; their b_T and g-columns did not move.  The
`rate-fit` case (three horizons at H = 0.6) was written by the code that
still carried the `--eps` flag, before the kernel coefficients moved to
`hilbert` and the dense oracles to `tests/oracles.py`.  A
deliberate change of numbers regenerates the file by running each argv
with `--format json` and keeping `rows`.
"""
import json
from pathlib import Path

import numpy as np
import pytest

from fou.cli import main

GOLDENS = json.loads((Path(__file__).parent / "goldens.json").read_text())
RTOL = 1e-12


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_cli_matches_golden(name, tmp_path):
    case = GOLDENS[name]
    out = tmp_path / "out.json"
    assert main([*case["argv"], "--format", "json", "--out", str(out)]) == 0
    rows = json.loads(out.read_text())["rows"]
    expected = case["rows"]
    assert len(rows) == len(expected)
    for column in expected[0]:
        got = [r[column] for r in rows]
        want = [r[column] for r in expected]
        # a column may mix floats and text: asymptotics writes "" for a
        # ratio against a zero limit
        numeric = [isinstance(w, float) for w in want]
        assert [isinstance(g, float) for g in got] == numeric, column
        np.testing.assert_allclose([g for g, x in zip(got, numeric) if x],
                                   [w for w, x in zip(want, numeric) if x],
                                   rtol=RTOL, atol=0, err_msg=column)
        assert ([g for g, x in zip(got, numeric) if not x]
                == [w for w, x in zip(want, numeric) if not x]), column
