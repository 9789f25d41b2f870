"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one `ACCEPTANCE <nn> PASS|FAIL` line (run pytest -s to see
them on success).  Tolerances are pinned here and nowhere else; the heavy
Monte Carlo cases reuse the library's seeded streams so reruns are
bit-identical.
"""
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from fou.bounds import _ingredients, psi_terms
from fou.constants import (
    ModelParams,
    b_t_closed_form,
    delta_h,
    sigma2_h,
    skorohod_correction,
    stationary_variance,
)
from fou.fgn import Grid, derive_seed, gram_weights, sample_fgn_batch
from fou.montecarlo import (
    CHAOS_RATIO,
    _chaos_batch,
    _chaos_traces,
    _pathwise_batch,
    rate_fit,
    run,
)
from oracles import b_t_gram_quadrature, horizon_pairs, kernel_f, midpoints, norm2_h2

THETA = 1.0
SRC = Path(__file__).resolve().parent.parent / "src"


def report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_01_f_norm_quadrature_vs_closed_form():
    t0 = time.monotonic()
    p = ModelParams(theta=THETA, hurst=0.5, horizon=10.0)
    grid = Grid(horizon=10.0, n=2048)
    val = norm2_h2(kernel_f(p, grid), gram_weights(grid, 0.5))
    closed = (10.0 - (1.0 - math.exp(-20.0)) / 2.0) / (4.0 * sigma2_h(0.5) * 10.0)
    rel = abs(val - closed) / closed
    elapsed = time.monotonic() - t0
    report(1, rel <= 0.005 and elapsed < 30.0,
           f"norm2(f)={val:.8f} closed={closed:.8f} rel={rel:.2e} time={elapsed:.1f}s")


def test_criterion_02_b_t_consistency():
    details = []
    ok = True
    for h in (0.5, 0.6):
        p = ModelParams(theta=THETA, hurst=h, horizon=50.0)
        closed = b_t_closed_form(p)
        quad = b_t_gram_quadrature(p, Grid(horizon=50.0, n=2048))
        rel = abs(quad - closed) / closed
        ok &= rel <= 0.01
        details.append(f"H={h}: closed={closed:.6f} gram={quad:.6f} rel={rel:.2e}")
    for h in (0.5, 0.6):
        a = stationary_variance(ModelParams(THETA, h, 1.0))
        scaled = [t * abs(b_t_closed_form(ModelParams(THETA, h, t)) - a)
                  for t in (50.0, 100.0, 200.0)]
        spread = max(scaled) / min(scaled)
        ok &= spread < 2.0
        details.append(f"H={h}: T|b_T - a| spread={spread:.3f}")
    report(2, ok, "; ".join(details))


def test_criterion_03_f_norm_rate():
    h = 0.6
    a2 = stationary_variance(ModelParams(THETA, h, 1.0)) ** 2
    scaled = []
    for p, grid in horizon_pairs(THETA, h, (25.0, 50.0, 100.0), dt=0.025):
        nf2 = norm2_h2(kernel_f(p, grid), gram_weights(grid, h))
        scaled.append(abs(2.0 * nf2 - a2) * p.horizon ** (3.0 - 4.0 * h))
    ratios = [scaled[i + 1] / scaled[i] for i in range(2)]
    ok = all(0.5 <= r <= 2.0 for r in ratios)
    report(3, ok, f"scaled gaps={['%.5f' % s for s in scaled]} ratios={['%.3f' % r for r in ratios]}")


def test_criterion_04_g_kernel_limits():
    ok = True
    details = []
    for h in (0.5, 0.6):
        lim_g = delta_h(h) / (2.0 * THETA ** (1 + 4 * h))
        lim_fg = math.sqrt(THETA / sigma2_h(h)) * lim_g
        ing = {t: _ingredients(ModelParams(THETA, h, t), Grid(horizon=t, n=2048))[0]
               for t in (50.0, 100.0, 200.0)}
        rel_g = abs(200.0 * ing[200.0]["norm_g2"] - lim_g) / lim_g
        rel_fg = abs(math.sqrt(200.0) * ing[200.0]["inner_fg"] - lim_fg) / lim_fg
        ok &= rel_g <= 0.10 and rel_fg <= 0.10
        fg_trend = [math.sqrt(t) * ing[t]["norm_f1g"] for t in (50.0, 100.0, 200.0)]
        gg_trend = [math.sqrt(t) * ing[t]["norm_g1g"] for t in (50.0, 100.0, 200.0)]
        dec = all(a > b for a, b in zip(fg_trend, fg_trend[1:])) and \
            all(a > b for a, b in zip(gg_trend, gg_trend[1:]))
        ok &= dec
        details.append(f"H={h}: rel(T|g|^2)={rel_g:.3f} rel(sqrtT<f,g>)={rel_fg:.3f} "
                       f"contraction trends decreasing={dec}")
    report(4, ok, "; ".join(details))


def test_criterion_05_boundary_kernel_vanishes():
    ok = True
    details = []
    for h in (0.5, 0.75):
        vals = []
        for t in (25.0, 50.0, 100.0):
            grid = Grid(horizon=t, n=2048)
            v = np.exp(-THETA * (t - midpoints(grid)))
            w = gram_weights(grid, h)
            vals.append(float(v @ w @ v) ** 2 / t)
        ok &= vals[0] > vals[1] > vals[2]
        details.append(f"H={h}: |h|^2/T={['%.3g' % x for x in vals]}")
    report(5, ok, "; ".join(details))


def test_criterion_06_self_contraction_bounded():
    ok = True
    details = []
    for h, exponent in ((0.55, 0.5), (0.7, 3.0 - 4.0 * 0.7)):
        scaled = []
        for t in (25.0, 50.0, 100.0, 200.0):
            ing, _ = _ingredients(ModelParams(THETA, h, t), Grid(horizon=t, n=2048))
            scaled.append(ing["norm_f1f"] * t**exponent)
        spread = max(scaled) / min(scaled)
        ok &= spread < 3.0
        details.append(f"H={h}: scaled |f x1 f|={['%.4f' % s for s in scaled]} spread={spread:.2f}")
    report(6, ok, "; ".join(details))


def test_criterion_07_bound_terms_decreasing():
    ok = True
    details = []
    for h in (0.5, 0.6, 0.7):
        maxes = []
        for t in (25.0, 50.0, 100.0, 200.0):
            terms = psi_terms(ModelParams(THETA, h, t), Grid(horizon=t, n=2048))
            maxes.append(terms["max_psi"])
        dec = all(a > b for a, b in zip(maxes, maxes[1:]))
        ok &= dec
        details.append(f"H={h}: max_psi={['%.4f' % m for m in maxes]} decreasing={dec}")
    report(7, ok, "; ".join(details))


def test_criterion_08_i2_isometry():
    t0 = time.monotonic()
    reps, t, n = 100_000, 10.0, 256
    ok = True
    details = []
    for h in (0.5, 0.75):
        grid = Grid(horizon=t, n=n)
        p = ModelParams(theta=THETA, hurst=h, horizon=t)
        w = gram_weights(grid, h)
        f = kernel_f(p, grid)
        theory = 2.0 * norm2_h2(f, w)
        recenter = float(np.einsum("ij,ij->", f, w))
        chunks = []
        for c0 in range(0, reps, 20_000):
            seeds = [derive_seed(12, 0, r) for r in range(c0, c0 + 20_000)]
            xi = sample_fgn_batch(grid, h, seeds)
            chunks.append(np.einsum("ri,ri->r", xi @ f, xi) - recenter)
        vals = np.concatenate(chunks)
        rel = abs(vals.var() - theory) / theory
        ok &= rel <= 0.05
        details.append(f"H={h}: var={vals.var():.5f} 2tr(WKWK)={theory:.5f} rel={rel:.3f}")
    elapsed = time.monotonic() - t0
    ok &= elapsed < 300.0
    report(8, ok, "; ".join(details) + f"; time={elapsed:.0f}s")


def test_criterion_09_kolmogorov_distance_brownian():
    ok = True
    details = []
    # (a) single-horizon distance at T = 200
    rows = run(horizon_pairs(THETA, 0.5, (200.0,), dt=0.05), reps=5000,
               seed=42, method=CHAOS_RATIO)
    d200 = rows[0]["ks_distance"]
    ok &= d200 <= 0.05
    details.append(f"ks(T=200)={d200:.4f}")
    # (b) median over 5 master seeds, nonincreasing across T
    per_seed = [run(horizon_pairs(THETA, 0.5, (50.0, 100.0, 200.0), dt=0.05),
                    reps=5000, seed=ms, method=CHAOS_RATIO)
                for ms in (1, 2, 3, 4, 5)]
    medians = [float(np.median([rows[i]["ks_distance"] for rows in per_seed]))
               for i in range(3)]
    trend = all(a >= b for a, b in zip(medians, medians[1:]))
    ok &= trend
    details.append(f"seed-median ks={['%.4f' % m for m in medians]} nonincreasing={trend}")
    # (c) fitted decay exponent across four horizons
    rows = run(horizon_pairs(THETA, 0.5, (50.0, 100.0, 200.0, 400.0), dt=0.05),
               reps=10_000, seed=42, method=CHAOS_RATIO)
    beta = rate_fit([(r["T"], r["ks_distance"]) for r in rows])["beta_hat"]
    ok &= 0.3 <= beta <= 0.7
    details.append(f"beta_hat={beta:.3f} (distances={['%.4f' % r['ks_distance'] for r in rows]})")
    report(9, ok, "; ".join(details))


def test_criterion_10_log_normalization_at_three_quarters():
    # the estimator-error statistic with the sqrt(theta sigma2 log T) scaling
    t, reps, dt = 400.0, 5000, 0.05
    ((p, grid),) = horizon_pairs(THETA, 0.75, [t], dt=dt)
    c_t = skorohod_correction(p)
    chunks = []
    for c0 in range(0, reps, 500):
        seeds = [derive_seed(42, 0, r) for r in range(c0, c0 + 500)]
        xi = sample_fgn_batch(grid, 0.75, seeds)
        vals, bad = _pathwise_batch(p, grid, xi, c_t)
        assert bad == 0
        chunks.append(vals)
    unscaled = np.concatenate(chunks)          # sqrt(T/(theta sigma2)) (th - theta)
    scaled = unscaled / math.sqrt(math.log(t))
    v_with, v_without = scaled.var(), unscaled.var()
    ok = 0.8 <= v_with <= 1.2 and v_without > 1.2
    report(10, ok, f"var(log-scaled)={v_with:.4f} in [0.8, 1.2]; "
                   f"var(unscaled)={v_without:.3f} exits high")


def test_criterion_11_per_path_identity_refines():
    t, reps = 50.0, 400
    p_half = ModelParams(theta=THETA, hurst=0.5, horizon=t)
    med = {}
    for dt in (0.05, 0.0125):
        ((_, grid),) = horizon_pairs(THETA, 0.5, [t], dt=dt)
        seeds = [derive_seed(42, 0, r) for r in range(reps)]
        xi = sample_fgn_batch(grid, 0.5, seeds)
        chaos, bad = _chaos_batch(p_half, grid, xi, _chaos_traces(p_half, grid))
        assert bad == 0
        pathwise, _ = _pathwise_batch(p_half, grid, xi, skorohod_correction(p_half))
        rel = np.abs(pathwise - chaos) / np.maximum(np.abs(chaos), 1e-12)
        med[dt] = float(np.median(rel))
    ratio = med[0.0125] / med[0.05]
    ok = 0.25 <= ratio <= 0.75
    report(11, ok, f"median gap {med[0.05]:.4f} -> {med[0.0125]:.4f}, ratio={ratio:.3f}")


def test_criterion_12_byte_identical_output_across_threads(tmp_path):
    cases = [
        ["kolmogorov", "--theta", "1", "--hurst", "0.6", "--t", "10,20",
         "--reps", "300", "--dt", "0.1", "--seed", "9"],
        ["bounds", "--theta", "1", "--hurst", "0.7", "--t", "25", "--n", "256"],
        ["asymptotics", "--theta", "1", "--hurst", "0.5", "--t", "10,20", "--n", "128"],
    ]
    # the child imports `fou` from this checkout's src, installed or not
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    ok = True
    details = []
    for case in cases:
        blobs = {}
        for threads in ("1", "8"):
            out = str(tmp_path / f"{case[0]}_{threads}.csv")
            env = dict(os.environ, FOU_THREADS=threads, PYTHONPATH=path)
            res = subprocess.run([sys.executable, "-m", "fou.cli", *case, "--out", out],
                                 capture_output=True, text=True, env=env)
            assert res.returncode == 0, res.stderr
            blobs[threads] = open(out, "rb").read()
        same = blobs["1"] == blobs["8"]
        ok &= same
        details.append(f"{case[0]}: identical={same}")
    report(12, ok, "; ".join(details))
