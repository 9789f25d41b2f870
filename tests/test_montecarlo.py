import math
import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from fou.constants import ModelParams, b_t_closed_form, skorohod_correction
from fou.errors import NumericsError
from fou.fgn import Grid, Workspace, derive_seed, gram_weights, sample_fgn_batch
import fou.montecarlo as mc
from fou.montecarlo import (
    CHAOS_RATIO,
    CHUNK_CELLS,
    MAX_THREADS,
    _chaos_batch,
    _chaos_traces,
    _pathwise_batch,
    ks_distance,
    rate_fit,
    replicate,
    run,
)
from fou.process import ar1_scan
from oracles import (
    horizon_pairs,
    kernel_f,
    kernel_g,
    normalized_pathwise_statistic,
    normalized_statistic,
)


def test_ks_distance_hand_computed():
    # hand evaluation with Phi(-1), Phi(0), Phi(1)
    assert ks_distance([-1.0, 0.0, 1.0]) == pytest.approx(0.17467807940187628, rel=1e-12)
    # scipy's one-sample statistic as an independent oracle
    rng = np.random.default_rng(0)
    samples = rng.normal(size=257)
    expect = scipy.stats.kstest(samples, "norm").statistic
    assert ks_distance(samples) == pytest.approx(expect, rel=1e-12)


def test_ks_distance_calibrated_quantiles():
    n = 100
    z = scipy.stats.norm.ppf((np.arange(1, n + 1) - 0.5) / n)
    assert ks_distance(z) == pytest.approx(1.0 / (2 * n), rel=1e-9)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=300))
def test_ks_distance_is_at_least_half_a_step(samples):
    # at each order statistic the two gaps to the empirical CDF sum to 1/N,
    # so no distance that `rate_fit` takes the log of is 0
    assert ks_distance(samples) >= (1 - 1e-12) / (2 * len(samples))


def test_ks_distance_point_mass_and_empty():
    assert ks_distance(np.zeros(10)) == pytest.approx(0.5, rel=1e-12)
    with pytest.raises(ValueError):
        ks_distance([])


def test_ks_distance_holds_no_python_float_per_sample():
    # a few float64 arrays of the sample's length (40 bytes per sample at the
    # peak); a Python list of floats would add 32 bytes per sample for each
    # list, which two lists made 72
    samples = np.random.default_rng(5).normal(size=100_000)
    tracemalloc.start()
    try:
        ks_distance(samples)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 48 * samples.size


def test_ks_distance_self_calibration():
    # median distance of true normal samples is about 0.82/sqrt(N)
    n, trials = 400, 40
    ds = []
    for k in range(trials):
        rng = np.random.default_rng(1000 + k)
        ds.append(ks_distance(rng.normal(size=n)))
    assert np.median(ds) <= 1.0 / math.sqrt(n)


def test_rate_fit_exact_power_laws():
    ts = [10.0, 100.0, 1000.0]
    fit = rate_fit([(t, t**-0.5) for t in ts])
    assert fit["beta_hat"] == pytest.approx(0.5, rel=1e-12)
    assert fit["r_squared"] == pytest.approx(1.0, abs=1e-12)
    fit = rate_fit([(t, 2.0 * t**-0.2) for t in ts])
    assert fit["beta_hat"] == pytest.approx(0.2, rel=1e-10)
    assert fit["c_hat"] == pytest.approx(2.0, rel=1e-10)


def test_fast_chaos_matches_dense_ops():
    theta, h, t, n = 1.2, 0.7, 10.0, 128
    grid = Grid(horizon=t, n=n)
    params = ModelParams(theta=theta, hurst=h, horizon=t)
    w = gram_weights(grid, h)
    f, gg = kernel_f(params, grid), kernel_g(params, grid)
    b = b_t_closed_form(params)
    seeds = [derive_seed(3, 0, r) for r in range(8)]
    xi = sample_fgn_batch(grid, h, seeds)
    fast, bad = _chaos_batch(params, grid, xi, _chaos_traces(params, grid))
    assert bad == 0
    for r in range(8):
        dense = normalized_statistic(grid, params, xi[r], f, gg, b, weights=w)
        assert fast[r] == pytest.approx(dense, rel=1e-10)


def test_fast_pathwise_matches_module_op():
    theta, h, t, n = 0.9, 0.6, 20.0, 256
    grid = Grid(horizon=t, n=n)
    params = ModelParams(theta=theta, hurst=h, horizon=t)
    from fou.constants import skorohod_correction

    c_t = skorohod_correction(params)
    seeds = [derive_seed(4, 0, r) for r in range(8)]
    xi = sample_fgn_batch(grid, h, seeds)
    fast, bad = _pathwise_batch(params, grid, xi, c_t)
    assert bad == 0
    for r in range(8):
        assert fast[r] == pytest.approx(normalized_pathwise_statistic(grid, params, xi[r]),
                                        rel=1e-10)


def test_run_small_config_sanity():
    rows = run(horizon_pairs(1.0, 0.5, (25.0, 50.0), dt=0.1), reps=400,
               seed=7, method=CHAOS_RATIO)
    assert len(rows) == 2
    for row in rows:
        assert row["samples"].shape == (400,)
        assert 0.0 <= row["ks_distance"] <= 1.0
        assert row["sample_var"] == pytest.approx(1.0, abs=0.35)


def test_run_deterministic_and_thread_invariant(monkeypatch):
    args = dict(horizons=horizon_pairs(1.0, 0.6, (10.0, 20.0), dt=0.1), reps=200,
                seed=11, method=CHAOS_RATIO)
    monkeypatch.setenv("FOU_THREADS", "1")
    r1 = run(**args)
    monkeypatch.setenv("FOU_THREADS", "8")
    r2 = run(**args)
    for a, b in zip(r1, r2):
        assert np.array_equal(a["samples"], b["samples"])
        assert a["ks_distance"] == b["ks_distance"]


def test_run_fits_rate_with_three_horizons():
    rows = run(horizon_pairs(1.0, 0.5, (10.0, 20.0, 40.0), dt=0.1),
               reps=300, seed=5, method=CHAOS_RATIO)
    fitted = rate_fit([(r["T"], r["ks_distance"]) for r in rows])
    assert fitted["beta_hat"] == fitted["beta_hat"]  # finite


def test_run_seed_median_trend():
    # median over 5 master seeds of ks_distance is nonincreasing in T
    for h in (0.5, 0.7):
        medians = []
        for i, t in enumerate((25.0, 100.0)):
            ds = [run(horizon_pairs(1.0, h, (t,), dt=0.1), reps=400,
                      seed=ms, method=CHAOS_RATIO)[0]["ks_distance"]
                  for ms in (1, 2, 3, 4, 5)]
            medians.append(np.median(ds))
        assert medians[1] <= medians[0], h


def test_statistic_methods_agree_in_distribution():
    # chaos and pathwise distances within 0.02 at T = 200; dt fine enough
    # that the pathwise order-dt bias does not separate the laws
    t, reps, dt = 200.0, 5000, 0.0125
    out = {}
    for method in ("chaos_ratio", "pathwise"):
        out[method] = run(horizon_pairs(1.0, 0.5, (t,), dt=dt), reps=reps,
                          seed=42, method=method)[0]["ks_distance"]
    assert abs(out["chaos_ratio"] - out["pathwise"]) <= 0.02


@pytest.mark.parametrize("method", ["pathwise", CHAOS_RATIO])
def test_warm_chunk_allocates_only_the_scan(method):
    # On a warm workspace one chunk's sampler allocates nothing path-sized
    # and the statistic reduces rows without temporaries, so the chunk peaks
    # at what the scan alone needs (its rows x n output, its block carries
    # and numpy's fixed-size ufunc buffers) plus per-row results.  The
    # sampler's own draws and coefficients would add 4 x 8 rows n bytes.
    ((params, grid),) = horizon_pairs(1.0, 0.7, [50.0], dt=0.05)
    rows = CHUNK_CELLS // grid.n
    seeds = [derive_seed(3, 0, r) for r in range(rows)]
    if method == CHAOS_RATIO:
        traces = _chaos_traces(params, grid)
        statistic = lambda xi: _chaos_batch(params, grid, xi, traces)  # noqa: E731
    else:
        c_t = skorohod_correction(params)
        statistic = lambda xi: _pathwise_batch(params, grid, xi, c_t)  # noqa: E731
    ws = Workspace()
    xi = sample_fgn_batch(grid, params.hurst, seeds, ws)
    statistic(xi)  # warm the buffers and the caches
    rho = math.exp(-params.theta * grid.step)
    peaks = []
    for chunk in (lambda: ar1_scan(xi, rho),
                  lambda: statistic(sample_fgn_batch(grid, params.hurst, seeds, ws))):
        tracemalloc.start()
        try:
            chunk()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    scan_peak, chunk_peak = peaks
    assert chunk_peak <= scan_peak + 16 * 8 * rows
    assert chunk_peak < 2 * 8 * rows * grid.n


def test_workspaces_stay_per_thread_under_contention(monkeypatch):
    # More workers than cores and a short switch interval: a workspace that
    # two threads shared would hand one chunk's rows to another's statistic.
    chunk_rows = []

    def statistic(params, grid, xi, prepared):
        chunk_rows.append(len(xi))
        return xi[:, ::5].copy(), 0

    args = (horizon_pairs(1.0, 0.7, [5.0, 10.0, 20.0], n=1024), 640, 11,
            lambda params, grid: None, statistic)
    monkeypatch.setenv("FOU_THREADS", "1")
    serial = replicate(*args)
    monkeypatch.setenv("FOU_THREADS", "8")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = replicate(*args)
    finally:
        sys.setswitchinterval(interval)
    assert chunk_rows == [64] * 60  # 10 chunks per horizon and run
    for one, many in zip(serial, threaded):
        assert one.shape == (640, 205)
        assert one.tobytes() == many.tobytes()


@pytest.mark.parametrize("cpus, workers", [(1000, MAX_THREADS), (3, 3), (None, 1)])
def test_default_worker_count_is_the_cpu_count_capped(cpus, workers, monkeypatch):
    # an unset FOU_THREADS starts the CPU count of workers, at most
    # MAX_THREADS, on a horizon of 100 one-row chunks; the threads are
    # stubs that refuse to start, so no thread runs
    made = []

    class NoThread:
        def __init__(self, **kwargs):
            made.append(self)

        def start(self):
            raise RuntimeError("no thread")

    monkeypatch.delenv("FOU_THREADS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(mc, "Thread", NoThread)
    with pytest.raises(RuntimeError, match="no thread"):
        replicate(horizon_pairs(1.0, 0.7, [5.0], n=CHUNK_CELLS), 100, 1,
                  lambda params, grid: None, None)
    assert len(made) == workers


def _failing_on_chunk_1(exc):
    # at n = 1024 a chunk is 64 rows: chunk 1 of horizon 0 is the one whose
    # first row is replication 64 of seed 3
    ((_, grid),) = horizon_pairs(1.0, 0.7, [5.0], n=1024)
    first = sample_fgn_batch(grid, 0.7, [derive_seed(3, 0, 64)])[0].copy()

    def statistic(params, grid, xi, prepared):
        if np.array_equal(xi[0], first):
            raise exc
        return xi[:, 0].copy(), 0

    return statistic


@pytest.mark.parametrize("threads", ["1", "2", "8"])
def test_failed_chunk_is_raised_after_every_worker_ends(threads, monkeypatch):
    # 256 rows are 4 chunks; the statistic fails on chunk 1 of T = 5, so
    # T = 10 is never drawn, and one worker draws no chunk after it
    drawn = []

    def sample(grid, hurst, seeds, workspace):
        drawn.append((grid.horizon, seeds[0]))
        return sample_fgn_batch(grid, hurst, seeds, workspace)

    monkeypatch.setenv("FOU_THREADS", threads)
    monkeypatch.setattr(mc, "sample_fgn_batch", sample)
    before = threading.active_count()
    with pytest.raises(KeyError, match="chunk 1"):
        replicate(horizon_pairs(1.0, 0.7, [5.0, 10.0], n=1024), 256, 3,
                  lambda params, grid: None, _failing_on_chunk_1(KeyError("chunk 1")))
    assert threading.active_count() == before
    chunk_of = {derive_seed(3, 0, 64 * k): k for k in range(4)}
    taken = sorted(chunk_of[s] for t, s in drawn if t == 5.0)
    assert {t for t, _ in drawn} == {5.0} and taken[:2] == [0, 1]
    if threads == "1":
        assert taken == [0, 1]


def test_floating_point_error_in_a_worker_names_theta_and_t(monkeypatch):
    monkeypatch.setenv("FOU_THREADS", "2")
    with pytest.raises(NumericsError, match=r"^overflow encountered in multiply in a "
                       r"replication chunk at theta = 1, T = 5$"):
        replicate(horizon_pairs(1.0, 0.7, [5.0, 10.0], n=1024), 256, 3,
                  lambda params, grid: None,
                  _failing_on_chunk_1(FloatingPointError("overflow encountered in multiply")))
