"""CLI outputs against stored goldens at relative 1e-12.

`goldens.json` maps a case name to the CLI argv and the `rows` of its
`--format json` output, written by the per-path sampler with the
full-length complex FFT, before the batched engine replaced it.  The
estimate cases span several chunks at the last horizon, so chunk
boundaries are covered.  A deliberate change of numbers regenerates the
file by running each argv with `--format json` and keeping `rows`.
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
        if isinstance(want[0], float):
            np.testing.assert_allclose(got, want, rtol=RTOL, atol=0, err_msg=column)
        else:
            assert got == want, column
