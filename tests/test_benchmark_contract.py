"""The functions that `BENCHMARK.json` names as per-layer metrics exist.

The benchmark's tracer reads `<layer>.<function>.calls` and
`<layer>.<function>.self_s` from spans of `fou.<layer>.<function>`; a run
whose named function is gone or re-homed computes no metrics and fails.
Counters and aliases (`fgn.sample_fgn_batch.rows`,
`fgn.embedding_cache.hits`, `cli.main.cover_frac`) and whole-layer totals
(`cli.calls`) name no function of their own and are skipped.
"""
import importlib
import json
from pathlib import Path

import pytest

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
