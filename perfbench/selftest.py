"""Tests of the benchmark's own code (tracer, self-time arithmetic, output check).

    python3 perfbench/selftest.py

The file name keeps pytest's default collection, and so the repository's
test suite, away from these tests.
"""
import functools
import sys
import tempfile
import threading
import types
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORK = HERE.parent / ".perfbench_work"
sys.path.insert(0, str(HERE))
sys.path.insert(1, str(HERE.parent / "src"))

import check  # noqa: E402
import tracer  # noqa: E402
from tracer import Tracer, layer_metrics, self_times_ns, union_ns  # noqa: E402


def _fake_package():
    """pkg.low defines functions; pkg.high imports one of them by name."""
    pkg = types.ModuleType("pkg")
    low = types.ModuleType("pkg.low")
    high = types.ModuleType("pkg.high")

    def leaf(x):
        return x + 1

    @functools.lru_cache(maxsize=4)
    def cached(x):
        return x * 2

    def outer(x):
        return low.leaf(x) + low.cached(x)

    for fn, mod in ((leaf, low), (cached, low), (outer, high)):
        fn.__module__ = mod.__name__
        setattr(mod, fn.__name__, fn)
    cached.__wrapped__.__module__ = low.__name__
    high.leaf = leaf
    pkg.low, pkg.high = low, high
    return {"pkg": pkg, "pkg.low": low, "pkg.high": high}


class TracerTest(unittest.TestCase):
    def setUp(self):
        self.modules = _fake_package()
        sys.modules.update(self.modules)
        self.addCleanup(lambda: [sys.modules.pop(k, None) for k in self.modules])

    def test_patches_every_binding_and_restores_originals(self):
        low, high = self.modules["pkg.low"], self.modules["pkg.high"]
        before = {name: dict(vars(m)) for name, m in self.modules.items()}
        t = Tracer(package="pkg", layers=("low", "high"))
        t.install()
        self.assertIsNot(low.leaf, before["pkg.low"]["leaf"])
        self.assertIsNot(high.leaf, before["pkg.high"]["leaf"])
        self.assertIs(high.leaf, low.leaf)
        t.restore()
        for name, module in self.modules.items():
            for attr, obj in before[name].items():
                self.assertIs(getattr(module, attr), obj, f"{name}.{attr}")

    def test_spans_parents_and_cache_counts(self):
        high = self.modules["pkg.high"]
        t = Tracer(package="pkg", layers=("low", "high"))
        t.install()
        try:
            high.outer(1)
            high.outer(1)
        finally:
            t.restore()
        names = [s[tracer.NAME] for s in t.spans]
        self.assertEqual(names.count("high.outer"), 2)
        self.assertEqual(names.count("low.cached"), 2)
        by_id = {s[tracer.SID]: s for s in t.spans}
        for s in t.spans:
            if s[tracer.NAME] != "high.outer":
                self.assertEqual(by_id[s[tracer.PARENT]][tracer.NAME], "high.outer")
        self.assertEqual(t.caches(), {"low.cached": {"hits": 1, "misses": 1}})

    def test_worker_thread_spans_hang_under_the_submitting_call(self):
        low, high = self.modules["pkg.low"], self.modules["pkg.high"]

        def fan_out(x):
            th = threading.Thread(target=low.leaf, args=(x,))
            th.start()
            th.join(timeout=10)
            self.assertFalse(th.is_alive())

        fan_out.__module__ = "pkg.high"
        high.fan_out = fan_out
        t = Tracer(package="pkg", layers=("low", "high"))
        t.install()
        try:
            high.fan_out(1)
        finally:
            t.restore()
        by_name = {s[tracer.NAME]: s for s in t.spans}
        leaf, parent = by_name["low.leaf"], by_name["high.fan_out"]
        self.assertEqual(leaf[tracer.PARENT], parent[tracer.SID])
        self.assertNotEqual(leaf[tracer.TID], parent[tracer.TID])

    def test_restores_real_fou(self):
        import fou.cli  # noqa: F401
        mods = {k: m for k, m in sys.modules.items() if k == "fou" or k.startswith("fou.")}
        before = {k: dict(vars(m)) for k, m in mods.items()}
        cached = sys.modules["fou.fgn"]._embedding_sqrt_eigs
        t = Tracer()
        t.install()
        self.assertIsNot(sys.modules["fou.montecarlo"].sample_fgn_batch,
                         before["fou.fgn"]["sample_fgn_batch"])
        self.assertIsNot(sys.modules["fou.cli"].sample_fgn, before["fou.fgn"]["sample_fgn"])
        self.assertIs(t.wrapped["fgn._embedding_sqrt_eigs"], cached)
        t.restore()
        for k, m in mods.items():
            for attr, obj in before[k].items():
                self.assertIs(getattr(m, attr), obj, f"{k}.{attr}")


class SelfTimeTest(unittest.TestCase):
    def test_union_merges_overlaps_and_clips(self):
        self.assertEqual(union_ns([(1, 3), (2, 5), (8, 12)], 0, 10), 6)
        self.assertEqual(union_ns([(5, 6), (1, 2)], 0, 10), 2)
        self.assertEqual(union_ns([], 0, 10), 0)
        self.assertEqual(union_ns([(11, 12)], 0, 10), 0)

    def test_self_time_subtracts_children_once(self):
        # root [0,100] on thread 1; two overlapping worker spans [10,60]
        # and [20,90] on threads 2 and 3; a grandchild [30,40] under the first.
        spans = [(1, None, "a.root", 1, 0, 100),
                 (2, 1, "b.work", 2, 10, 60),
                 (3, 1, "b.work", 3, 20, 90),
                 (4, 2, "c.leaf", 2, 30, 40)]
        self.assertEqual(self_times_ns(spans), {1: 20, 2: 40, 3: 70, 4: 10})

    def test_layer_metrics_busy_and_cover(self):
        spans = [(1, None, "cli.main", 1, 0, 1000),
                 (2, 1, "montecarlo.run", 1, 100, 900),
                 (3, 2, "fgn.sample_fgn_batch", 2, 100, 800),
                 (4, 2, "fgn.sample_fgn_batch", 3, 100, 500),
                 (5, 3, "fgn._check_hurst", 2, 100, 200)]
        dump = {"root_tid": 1, "wrapped": ["fgn.sample_fgn_batch", "montecarlo.run"],
                "counters": {"fgn.sample_fgn_batch.cells": 300, "fgn.sample_fgn_batch.rows": 3},
                "caches": {"fgn._embedding_sqrt_eigs": {"hits": 1, "misses": 1}},
                "spans": spans}
        m = layer_metrics(dump, wall_s=1000e-9, workers=2)
        self.assertAlmostEqual(m["montecarlo.run.self_s"] * 1e9, 100)
        self.assertAlmostEqual(m["fgn.sample_fgn_batch.self_s"] * 1e9, 600 + 400)
        self.assertAlmostEqual(m["fgn.sample_fgn_batch.ns_per_cell"], 1000 / 300)
        self.assertAlmostEqual(m["fgn.self_s"] * 1e9, 600 + 400 + 100)
        self.assertAlmostEqual(m["cli.self_s"] * 1e9, 200)
        self.assertAlmostEqual(m["montecarlo.busy_frac"], (700 + 400) / (2 * 800))
        self.assertAlmostEqual(m["cli.main.cover_frac"], 0.8)
        self.assertEqual(m["fgn.embedding_cache.misses"], 1)
        self.assertEqual(m["bounds.calls"], 0)


class OutputCheckTest(unittest.TestCase):
    def _write(self, header, rows):
        WORK.mkdir(exist_ok=True)
        fh = tempfile.NamedTemporaryFile("w", suffix=".csv", dir=WORK, delete=False)
        self.addCleanup(Path(fh.name).unlink)
        with fh:
            fh.write("\n".join(",".join(r) for r in [header, *rows]) + "\n")
        return fh.name

    def _reference(self, workload):
        return check.read_csv(check.REFERENCE_DIR / f"{workload}.csv")

    def test_references_pass(self):
        for workload in check.KEY_COLUMNS:
            path = check.REFERENCE_DIR / f"{workload}.csv"
            self.assertEqual(check.check_output(workload, check.REFERENCE_SEED, path), [])

    def test_rounding_of_the_last_printed_digit_passes(self):
        header, rows = self._reference("bounds_dense")
        col = header.index("measured")
        value = rows[0][col]
        rows[0][col] = value[:-1] + str((int(value[-1]) + 1) % 10)
        self.assertEqual(check.check_output("bounds_dense", 7, self._write(header, rows)), [])

    def test_perturbed_value_fails(self):
        for workload, column in (("bounds_dense", "measured"), ("mc_chaos", "ks_distance"),
                                 ("estimate_pathwise", "theta_hat")):
            header, rows = self._reference(workload)
            col = header.index(column)
            rows[-1][col] = repr(float(rows[-1][col]) * (1 + 1e-9))
            path = self._write(header, rows)
            self.assertNotEqual(check.check_output(workload, check.REFERENCE_SEED, path), [],
                                workload)

    def test_schema_and_row_count_fail(self):
        header, rows = self._reference("mc_chaos")
        self.assertNotEqual(check.check_output("mc_chaos", 42, self._write(header, rows[:-1])), [])
        renamed = ["t" if c == "T" else c for c in header]
        self.assertNotEqual(check.check_output("mc_chaos", 42, self._write(renamed, rows)), [])

    def test_other_seed_checks_invariants(self):
        header, rows = self._reference("mc_chaos")
        seed_col = header.index("seed")
        for r in rows:
            r[seed_col] = "7"
        self.assertEqual(check.check_output("mc_chaos", 7, self._write(header, rows)), [])
        self.assertNotEqual(check.check_output("mc_chaos", 8, self._write(header, rows)), [])
        rows[0][header.index("sample_mean")] = "0.9"
        self.assertNotEqual(check.check_output("mc_chaos", 7, self._write(header, rows)), [])

        header, rows = self._reference("estimate_pathwise")
        self.assertEqual(check.check_output("estimate_pathwise", 7, self._write(header, rows)), [])
        col = header.index("theta_hat")
        rows[5][col] = repr(float(rows[5][col]) + 1e-3)
        self.assertNotEqual(
            check.check_output("estimate_pathwise", 7, self._write(header, rows)), [])


if __name__ == "__main__":
    unittest.main()
