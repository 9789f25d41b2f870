import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fou.constants import ModelParams, b_t_closed_form, skorohod_correction
from fou.errors import NumericsError
from fou.fgn import Grid, derive_seed, gram_weights, sample_fgn, sample_fgn_batch
from fou.process import (
    ar1_scan,
    degenerate_denominators,
    denominator_floor,
    estimate_pathwise,
    simulate_fou,
)
from oracles import (
    horizon_pairs,
    i2,
    kernel_f,
    kernel_g,
    norm2_h2,
    normalized_pathwise_statistic,
    normalized_statistic,
)


def test_simulate_zero_noise_is_zero():
    g = Grid(horizon=1.0, n=16)
    p = ModelParams(theta=1.0, hurst=0.6, horizon=1.0)
    x = simulate_fou(g, p, np.zeros((1, 16)))[0]
    assert np.all(x == 0.0)


def test_simulate_degenerates_to_fbm_as_theta_vanishes():
    g = Grid(horizon=1.0, n=32)
    p = ModelParams(theta=1e-12, hurst=0.7, horizon=1.0)
    xi = sample_fgn(g, 0.7, seed=5)
    x = simulate_fou(g, p, xi[None, :])[0]
    assert np.allclose(x[1:], np.cumsum(xi), rtol=1e-9)


def test_simulate_replays_bitwise():
    g = Grid(horizon=5.0, n=100)
    p = ModelParams(theta=0.8, hurst=0.6, horizon=5.0)
    xi = sample_fgn(g, 0.6, seed=21)
    path = simulate_fou(g, p, xi[None, :])[0]
    rho = math.exp(-p.theta * g.step)
    x = np.zeros(g.n + 1)
    for k in range(g.n):
        x[k + 1] = rho * x[k] + xi[k]
    assert np.allclose(path, x, rtol=1e-12, atol=1e-15)
    assert path[0] == 0.0


def test_simulate_stationary_variance():
    # Var X_T -> a = 0.5 at theta = 1, H = 1/2 (within discretization + MC error)
    t, n, reps = 20.0, 2000, 10000
    g = Grid(horizon=t, n=n)
    p = ModelParams(theta=1.0, hurst=0.5, horizon=t)
    seeds = [derive_seed(8, 0, r) for r in range(reps)]
    xi = sample_fgn_batch(g, 0.5, seeds)
    rho = math.exp(-p.theta * g.step)
    from scipy.signal import lfilter

    x_t = lfilter([1.0], [1.0, -rho], xi, axis=1)[:, -1]
    assert x_t.var() == pytest.approx(0.5, rel=0.05)


def test_estimate_ito_algebra():
    # X_T = 0 and int X^2 = T/2 force theta_hat = 1 exactly
    t, n = 4.0, 4
    g = Grid(horizon=t, n=n)
    p = ModelParams(theta=1.0, hurst=0.5, horizon=t)
    # choose symmetric node values with x0 = x4 = 0; trapezoid gives
    # dt (x1^2 + x2^2 + x3^2) = T/2 with x1 = x3
    x2 = 0.8
    x1 = math.sqrt((t / 2 / g.step - x2**2) / 2)
    x = np.array([0.0, x1, x2, x1, 0.0])
    xi = x[1:] - math.exp(-p.theta * g.step) * x[:-1]  # the noise that replays to x
    ((num, den),) = estimate_pathwise(g, p, xi[None, :], skorohod_correction(p))
    assert num / den == pytest.approx(1.0, rel=1e-12)
    assert den == pytest.approx(t / 2, rel=1e-12)


def test_estimate_consistency_brownian():
    # mean of theta_hat over 1000 paths at T = 500; dt small enough that the
    # order-dt noise-integral bias (about -theta^2 dt) stays inside the band
    theta, t, dt, reps = 1.0, 500.0, 0.0125, 1000
    ((p, g),) = horizon_pairs(theta, 0.5, [t], dt=dt)
    c_t = skorohod_correction(p)
    ests = []
    for c0 in range(0, reps, 250):
        seeds = [derive_seed(9, 0, r) for r in range(c0, c0 + 250)]
        num, den = estimate_pathwise(g, p, sample_fgn_batch(g, 0.5, seeds), c_t).T
        ests.extend(num / den)
    assert np.mean(ests) == pytest.approx(1.0, abs=0.02)


def test_estimate_consistency_fractional():
    theta, h, t, dt, reps = 1.0, 0.7, 500.0, 0.0125, 1000
    ((p, g),) = horizon_pairs(theta, h, [t], dt=dt)
    c_t = skorohod_correction(p)
    ests = []
    for c0 in range(0, reps, 125):
        seeds = [derive_seed(10, 0, r) for r in range(c0, c0 + 125)]
        num, den = estimate_pathwise(g, p, sample_fgn_batch(g, h, seeds), c_t).T
        ests.extend(num / den)
    assert np.mean(ests) == pytest.approx(1.0, abs=0.03)


def test_estimate_degenerate_path_raises():
    g = Grid(horizon=10.0, n=32)
    p = ModelParams(theta=1.0, hurst=0.5, horizon=10.0)
    den = estimate_pathwise(g, p, np.zeros((1, 32)), 0.0)[:, 1]
    assert degenerate_denominators(p, den).tolist() == [True]


def test_zero_denominator_is_degenerate_when_the_floor_underflows():
    # theta^-2H underflows, so the floor is 0 and cannot catch a 0 denominator
    p = ModelParams(theta=1e300, hurst=0.6, horizon=1.0)
    assert denominator_floor(p) == 0.0
    den = np.array([1.0, 0.0, -0.0, 2.0])
    assert degenerate_denominators(p, den).tolist() == [False, True, True, False]


def test_i2_zero_kernel():
    g = Grid(horizon=1.0, n=16)
    w = gram_weights(g, 0.6)
    xi = sample_fgn(g, 0.6, seed=2)
    zero = np.zeros((16, 16))
    assert i2(zero, xi, w) == 0.0


def test_i2_mean_zero_and_isometry():
    # E[i2] = 0 by construction; Var[i2] = 2 tr(WKWK) for symmetric K
    t, n, reps = 5.0, 64, 100000
    for h in (0.5, 0.75):
        g = Grid(horizon=t, n=n)
        p = ModelParams(theta=1.0, hurst=h, horizon=t)
        w = gram_weights(g, h)
        f = kernel_f(p, g)
        seeds = [derive_seed(12, 0, r) for r in range(reps)]
        xi = sample_fgn_batch(g, h, seeds)
        quad = np.einsum("ri,ri->r", xi @ f, xi)
        vals = quad - np.einsum("ij,ij->", f, w)
        theory = 2.0 * norm2_h2(f, w)
        assert abs(vals.mean()) < 4 * vals.std() / math.sqrt(reps)
        assert vals.var() == pytest.approx(theory, rel=0.05)


def test_i2_dimension_mismatch():
    g = Grid(horizon=1.0, n=16)
    w = gram_weights(g, 0.6)
    xi = sample_fgn(Grid(horizon=1.0, n=8), 0.6, seed=3)
    p = ModelParams(theta=1.0, hurst=0.6, horizon=1.0)
    with pytest.raises(ValueError):
        i2(kernel_f(p, Grid(horizon=1.0, n=16)), xi, w)


def test_normalized_statistic_zero_kernel_and_guards():
    t, n = 5.0, 32
    g = Grid(horizon=t, n=n)
    p = ModelParams(theta=1.0, hurst=0.5, horizon=t)
    xi = sample_fgn(g, 0.5, seed=4)
    f = kernel_f(p, g)
    gg = kernel_g(p, g)
    b = b_t_closed_form(p)
    zero = np.zeros((n, n))
    assert normalized_statistic(g, p, xi, zero, gg, b) == 0.0
    with pytest.raises(ValueError):
        normalized_statistic(g, p, xi, f, gg, 0.0)
    with pytest.raises(NumericsError):
        # force the denominator against -b so it is numerically zero
        bad = np.zeros((n, n))
        normalized_statistic(g, p, np.zeros(n), f, bad, 1e-12)


def test_normalized_statistic_matches_pathwise_per_path():
    # both discretize the same ratio; gap shrinks with dt (median <= 5%)
    theta, h, t = 1.0, 0.5, 25.0
    n = 2**13
    g = Grid(horizon=t, n=n)
    p = ModelParams(theta=theta, hurst=h, horizon=t)
    w = gram_weights(g, h)
    f, gg = kernel_f(p, g), kernel_g(p, g)
    b = b_t_closed_form(p)
    gaps = []
    for r in range(20):
        xi = sample_fgn(g, h, derive_seed(14, 0, r))
        chaos = normalized_statistic(g, p, xi, f, gg, b, weights=w)
        pathwise = normalized_pathwise_statistic(g, p, xi)
        gaps.append(abs(pathwise - chaos) / max(abs(chaos), 1e-12))
    assert np.median(gaps) <= 0.05


def test_statistic_mean_zero():
    theta, h, t, reps = 1.0, 0.5, 50.0, 2000
    ((p, g),) = horizon_pairs(theta, h, [t], dt=0.05)
    w = gram_weights(g, h)
    f, gg = kernel_f(p, g), kernel_g(p, g)
    b = b_t_closed_form(p)
    xi = sample_fgn_batch(g, h, [derive_seed(15, 0, r) for r in range(reps)])
    vals = -i2(f, xi, w) / (i2(gg, xi, w) + b)
    # centered up to the O(T^{-1/2}) skew of the finite-horizon law
    assert abs(vals.mean()) < 0.3
    assert vals.var() == pytest.approx(1.0, abs=0.15)


@settings(max_examples=30, deadline=None)
@given(rho=st.floats(0.9, 0.9999), n=st.integers(1, 8192), rows=st.integers(1, 6),
       seed=st.integers(0, 2**32 - 1))
def test_ar1_scan_matches_lfilter(rho, n, rows, seed):
    from scipy.signal import lfilter

    xi = np.random.default_rng(seed).standard_normal((rows, n))
    kept = xi.copy()
    u = ar1_scan(xi, rho)
    assert np.array_equal(xi, kept)  # `_chaos_batch` reads xi again after the scan
    # relative to the scale of the running sum, which bounds its rounding
    scale = lfilter([1.0], [1.0, -rho], np.abs(xi), axis=1)
    assert np.all(np.abs(u - lfilter([1.0], [1.0, -rho], xi, axis=1)) <= 1e-14 * scale)
    for r in range(rows):
        assert np.array_equal(ar1_scan(xi[r:r + 1], rho)[0], u[r])
