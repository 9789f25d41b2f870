import math

import numpy as np
import pytest
from scipy.linalg import toeplitz

from fou import hilbert
from fou.bounds import _ingredients
from fou.constants import ModelParams, b_t_closed_form, delta_h, sigma2_h
from fou.fgn import Grid, gram_weights
from fou.montecarlo import _chaos_traces
from oracles import (
    b_t_gram_quadrature,
    boundary_form_fft,
    boundary_vector,
    contract1,
    fbm_cov,
    inner_h,
    inner_h2,
    kernel_f,
    kernel_g,
    kernel_h,
    midpoints,
    norm2_h2,
)


def params_grid(theta, h, t, n):
    return ModelParams(theta=theta, hurst=h, horizon=t), Grid(horizon=t, n=n)


@pytest.mark.parametrize("theta, h, t, n", [
    (1.0, 0.5, 10.0, 64),
    (0.7, 0.6, 25.0, 100),
    (2.0, 0.75, 5.0, 33),
    (1.3, 0.6, 3.0, 2),
])
def test_compact_kernels_expand_to_the_dense_oracles(theta, h, t, n):
    p, g = params_grid(theta, h, t, n)
    f = toeplitz(hilbert.kernel_f(p, g))
    assert np.allclose(f, kernel_f(p, g), rtol=1e-13, atol=0)
    c1, c2 = hilbert.kernel_g(p, g)
    v = boundary_vector(p, g)
    assert np.allclose(c1 * f - c2 * np.outer(v, v), kernel_g(p, g), rtol=1e-13, atol=0)


@pytest.mark.parametrize("theta, h, t, n", [
    (1.0, 0.6, 200.0, 512), (0.5, 0.75, 8.0, 256), (0.01, 0.6, 1.0, 256),
    (1.0, 0.5, 50.0, 200), (1.3, 0.6, 3.0, 2), (3.0, 0.7, 800.0, 300),
])
def test_one_boundary_form_for_the_statistic_and_the_bounds(theta, h, t, n):
    # the chaos traces and ||h||^2 of the bound ingredients read the record's
    # v' W v = rho (M e)_{n-1}; the dense oracle's v[n-1] carries about
    # 2 eps theta T from T - t*, so the tolerance grows with theta T
    p, g = params_grid(theta, h, t, n)
    vwv = hilbert.horizon(p, g).vwv
    assert _chaos_traces(p, g)[1] == vwv
    assert _ingredients(p, g)[1] == vwv**2
    v, w = boundary_vector(p, g), gram_weights(g, h)
    tol = 1e-14 + 4 * np.finfo(float).eps * theta * t
    assert abs(vwv / float(v @ w @ v) - 1) <= tol
    assert abs(vwv / boundary_form_fft(p, g) - 1) <= tol


def test_kernel_f_diagonal_and_decay():
    p, g = params_grid(1.0, 0.5, 1.0, 64)
    f = kernel_f(p, g)
    assert np.allclose(np.diag(f), 1.0 / (2 * math.sqrt(2)), rtol=1e-13)
    assert f.max() == pytest.approx(1.0 / (2 * math.sqrt(2)), rel=1e-13)
    # corner decays by exp(-theta (T - dt)) relative to the diagonal
    assert f[0, -1] == pytest.approx(math.exp(-(1.0 - g.step)) * f[0, 0], rel=1e-12)
    assert np.allclose(f, f.T, atol=0)


def test_kernel_h_rank_one():
    p, g = params_grid(1.0, 0.6, 10.0, 128)
    h = kernel_h(p, g)
    # corner midpoint (T - dt/2, T - dt/2) -> exp(-theta dt)
    assert h[-1, -1] == pytest.approx(math.exp(-g.step), rel=1e-12)
    # interior value at t* = s* = 5 on this grid
    i = np.argmin(np.abs(midpoints(g) - 5.0))
    if abs(midpoints(g)[i] - 5.0) < 1e-12:
        assert h[i, i] == pytest.approx(math.exp(-10.0), rel=1e-10)
    # all 2x2 minors of a rank-one matrix vanish
    rng = np.random.default_rng(0)
    for _ in range(20):
        i, j, k, l = rng.integers(0, g.n, 4)
        minor = h[i, k] * h[j, l] - h[i, l] * h[j, k]
        assert abs(minor) <= 1e-12 * max(abs(h[i, k] * h[j, l]), 1e-300)


def test_kernel_g_is_the_stated_combination():
    p, g = params_grid(1.3, 0.7, 5.0, 32)
    f, h, gg = kernel_f(p, g), kernel_h(p, g), kernel_g(p, g)
    c1 = math.sqrt(sigma2_h(0.7) / (1.3 * 5.0))
    c2 = 1.0 / (2 * 1.3 * 5.0)
    assert np.allclose(gg, c1 * f - c2 * h, rtol=1e-13, atol=1e-16)


def test_kernel_g_diagonal_value():
    p, g = params_grid(1.0, 0.5, 1.0, 50)
    gg = kernel_g(p, g)
    t0 = midpoints(g)[0]
    expect = math.sqrt(2.0) * (1 / (2 * math.sqrt(2.0))) - math.exp(-2 * (1.0 - t0)) / 2.0
    assert gg[0, 0] == pytest.approx(expect, rel=1e-12)


def test_inner_h_total_mass():
    for h in (0.5, 0.6, 0.75):
        g = Grid(horizon=2.0, n=40)
        w = gram_weights(g, h)
        ones = np.ones(g.n)
        assert inner_h(ones, ones, w) == pytest.approx(2.0 ** (2 * h), rel=1e-12)


def test_inner_h_indicators_reproduce_fbm_cov_exactly():
    g = Grid(horizon=4.0, n=16)
    h = 0.75
    w = gram_weights(g, h)
    phi = (midpoints(g) < 1.0).astype(float)   # 1_[0,1]
    psi = (midpoints(g) < 2.0).astype(float)   # 1_[0,2]
    assert inner_h(phi, psi, w) == pytest.approx(fbm_cov(1.0, 2.0, h), rel=1e-13)
    assert inner_h(phi, psi, w) == pytest.approx(1.4142135623730951, rel=1e-12)


def test_inner_h_brownian_is_plain_l2():
    g = Grid(horizon=1.0, n=10)
    w = gram_weights(g, 0.5)
    rng = np.random.default_rng(1)
    phi, psi = rng.normal(size=10), rng.normal(size=10)
    assert inner_h(phi, psi, w) == pytest.approx(g.step * phi @ psi, rel=1e-12)
    with pytest.raises(ValueError):
        inner_h(phi[:5], psi, w)


def test_norm2_h2_zero_and_rank_one():
    g = Grid(horizon=1.0, n=16)
    w = gram_weights(g, 0.6)
    zero = np.zeros((16, 16))
    assert norm2_h2(zero, w) == 0.0
    v = np.exp(-0.7 * midpoints(g))
    rank1 = np.outer(v, v)
    assert norm2_h2(rank1, w) == pytest.approx(float(v @ w @ v) ** 2, rel=1e-12)


def test_norm2_h2_closed_form_brownian():
    # ||f||^2 = (T - (1 - e^{-2 theta T})/(2 theta)) / (4 theta sigma2 T) at H = 1/2
    p, g = params_grid(1.0, 0.5, 10.0, 512)
    w = gram_weights(g, 0.5)
    val = norm2_h2(kernel_f(p, g), w)
    assert val == pytest.approx(0.11875000001288221, rel=2e-3)


def test_norm2_h2_rank_one_exactness():
    p, g = params_grid(1.0, 0.75, 25.0, 256)
    w = gram_weights(g, 0.75)
    h = kernel_h(p, g)
    v = np.exp(-(25.0 - midpoints(g)))
    assert norm2_h2(h, w) == pytest.approx(float(v @ w @ v) ** 2, rel=1e-10)


def test_inner_h2_reduces_to_norm():
    p, g = params_grid(1.0, 0.6, 5.0, 64)
    w = gram_weights(g, 0.6)
    f = kernel_f(p, g)
    assert inner_h2(f, f, w) == pytest.approx(norm2_h2(f, w), rel=1e-12)
    gg = kernel_g(p, g)
    assert inner_h2(f, gg, w) == pytest.approx(inner_h2(gg, f, w), rel=1e-12)


def test_inner_h2_cauchy_schwarz_random():
    g = Grid(horizon=1.0, n=24)
    w = gram_weights(g, 0.7)
    rng = np.random.default_rng(3)
    for _ in range(10):
        a = rng.normal(size=(24, 24))
        a = a + a.T
        b = rng.normal(size=(24, 24))
        b = b + b.T
        lhs = abs(inner_h2(a, b, w))
        rhs = math.sqrt(norm2_h2(a, w) * norm2_h2(b, w))
        assert lhs <= rhs * (1 + 1e-12)


def test_inner_fg_scaled_limit():
    # sqrt(T) <f, g> -> sqrt(theta/sigma2) delta/(2 theta^(1+4H)) = 0.17678 at H=1/2
    limit = math.sqrt(1.0 / sigma2_h(0.5)) * delta_h(0.5) / 2.0
    assert limit == pytest.approx(0.17677669529663688, rel=1e-12)
    for t in (50.0, 100.0):
        p, g = params_grid(1.0, 0.5, t, 1024)
        w = gram_weights(g, 0.5)
        val = math.sqrt(t) * inner_h2(kernel_f(p, g), kernel_g(p, g), w)
        assert val == pytest.approx(limit, rel=0.05), t


def test_contract1_zero_and_brownian_composition():
    g = Grid(horizon=1.0, n=16)
    w = gram_weights(g, 0.5)
    rng = np.random.default_rng(4)
    k1 = rng.normal(size=(16, 16))
    k1 = k1 + k1.T
    zero = np.zeros((16, 16))
    assert np.allclose(contract1(k1, zero, w), 0.0, atol=0)
    k2 = rng.normal(size=(16, 16))
    k2 = k2 + k2.T
    # H = 1/2: contraction is dt times the matrix product
    assert np.allclose(contract1(k1, k2, w), g.step * k1 @ k2, rtol=1e-12)


def test_contract1_norm_against_brute_force_riemann():
    # 4-D midpoint Riemann sum of ||f (x)_1 f||^2 on a 40^4 grid, H = 1/2
    n = 40
    p, g = params_grid(1.0, 0.5, 1.0, n)
    w = gram_weights(g, 0.5)
    f = kernel_f(p, g)
    c = contract1(f, f, w)
    got = math.sqrt(norm2_h2(c, w))
    tm = midpoints(g)
    dt = g.step
    fk = f
    contraction = np.einsum("iu,ju->ij", fk, fk) * dt   # int f(t1,u) f(t2,u) du
    brute = math.sqrt(np.sum(contraction**2) * dt * dt)  # L2 norm on [0,T]^2
    assert got == pytest.approx(brute, rel=0.02)


def test_contract1_cauchy_schwarz_on_model_kernels():
    for h in (0.5, 0.7):
        p, g = params_grid(1.0, h, 25.0, 256)
        w = gram_weights(g, h)
        f, gg = kernel_f(p, g), kernel_g(p, g)
        for a, b in ((f, f), (f, gg), (gg, gg)):
            lhs = math.sqrt(norm2_h2(contract1(a, b, w), w))
            rhs = math.sqrt(norm2_h2(a, w)) * math.sqrt(norm2_h2(b, w))
            assert lhs <= rhs * (1 + 1e-10)


def test_contract1_cauchy_schwarz_random_psd():
    g = Grid(horizon=1.0, n=20)
    w = gram_weights(g, 0.65)
    rng = np.random.default_rng(5)
    for _ in range(5):
        m = rng.normal(size=(20, 20))
        a = m @ m.T
        m = rng.normal(size=(20, 20))
        b = m @ m.T
        lhs = math.sqrt(norm2_h2(contract1(a, b, w), w))
        rhs = math.sqrt(norm2_h2(a, w)) * math.sqrt(norm2_h2(b, w))
        assert lhs <= rhs * (1 + 1e-10)


@pytest.mark.parametrize("h", [0.5, 0.6, 0.75])
def test_refinement_is_contracting(h):
    # |v(2n) - v(n)| <= |v(n) - v(n/2)| for the f-norm quadrature
    p = ModelParams(theta=1.0, hurst=h, horizon=10.0)
    vals = {}
    for n in (256, 512, 1024):
        g = Grid(horizon=10.0, n=n)
        vals[n] = norm2_h2(kernel_f(p, g), gram_weights(g, h))
    assert abs(vals[1024] - vals[512]) <= abs(vals[512] - vals[256])


def test_norm_h_scaled_decreasing():
    for h in (0.5, 0.75):
        vals = []
        for t in (25.0, 50.0, 100.0):
            p, g = params_grid(1.0, h, t, 512)
            vals.append(norm2_h2(kernel_h(p, g), gram_weights(g, h)) / t)
        assert vals[0] > vals[1] > vals[2], h


def test_b_t_gram_quadrature_matches_closed_form():
    for h, rel in ((0.5, 5e-3), (0.6, 1e-2)):
        p, g = params_grid(1.0, h, 10.0, 512)
        assert b_t_gram_quadrature(p, g) == pytest.approx(b_t_closed_form(p), rel=rel), h


def test_kernel_dimension_mismatch():
    p, g = params_grid(1.0, 0.6, 5.0, 16)
    other = Grid(horizon=5.0, n=8)
    w = gram_weights(other, 0.6)
    f = kernel_f(p, g)
    with pytest.raises(ValueError):
        norm2_h2(f, w)
    with pytest.raises(ValueError):
        inner_h2(f, f, w)
