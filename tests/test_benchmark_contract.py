"""The functions that `BENCHMARK.json` names as per-layer metrics exist.

The benchmark's tracer reads `<layer>.<function>.calls` and
`<layer>.<function>.self_s` from spans of `fou.<layer>.<function>`; a run
whose named function is gone or re-homed computes no metrics and fails.
Counters and aliases (`fgn.sample_fgn_batch.rows`,
`fgn.embedding_cache.hits`, `cli.main.cover_frac`) and whole-layer totals
(`cli.calls`) name no function of their own and are skipped.  The
`montecarlo.degenerate` counter reads the int count that both batch
statistics return next to their values, so that return shape is pinned too.
"""
import importlib
import json
from pathlib import Path

import numpy as np
import pytest

import fou.montecarlo as mc
import fou.process as process
from fou.constants import ModelParams, skorohod_correction
from fou.fgn import Grid, derive_seed, sample_fgn_batch

BENCHMARK = json.loads((Path(__file__).parents[1] / "BENCHMARK.json").read_text())
NAMED = sorted({tuple(m["name"].split(".")[:2]) for m in BENCHMARK["per_layer"]
                if m["name"].count(".") == 2 and m["name"].endswith((".calls", ".self_s"))})


def test_benchmark_names_functions():
    assert ("montecarlo", "_chaos_batch") in NAMED
    assert ("hilbert", "kernel_g") in NAMED


@pytest.mark.parametrize("layer,name", NAMED, ids=[".".join(n) for n in NAMED])
def test_named_function_is_defined_in_its_layer(layer, name):
    module = importlib.import_module(f"fou.{layer}")
    fn = getattr(module, name, None)
    assert callable(fn) and not isinstance(fn, type), f"fou.{layer}.{name} is not a function"
    assert fn.__module__ == f"fou.{layer}"


@pytest.mark.parametrize("floor_factor, degenerate", [(None, 0), (1e6, 4)],
                         ids=["sound", "all_degenerate"])
@pytest.mark.parametrize("name", ["_chaos_batch", "_pathwise_batch"])
def test_batch_statistics_return_values_and_int_count(name, floor_factor, degenerate,
                                                      monkeypatch):
    # the tracer's `montecarlo.degenerate` counter adds up result[1] of both
    # batch statistics; a degenerate row is NaN and counted
    if floor_factor is not None:
        monkeypatch.setattr(process, "DEGENERATE_DENOM_FACTOR", floor_factor)
    params, grid = ModelParams(theta=1.0, hurst=0.6, horizon=10.0), Grid(10.0, 64)
    xi = sample_fgn_batch(grid, 0.6, [derive_seed(1, 0, r) for r in range(4)])
    per_horizon = (mc._chaos_traces(params, grid) if name == "_chaos_batch"
                   else skorohod_correction(params))
    values, count = getattr(mc, name)(params, grid, xi, per_horizon)
    assert type(count) is int and count == degenerate
    assert values.shape == (4,) and int(np.isnan(values).sum()) == degenerate
