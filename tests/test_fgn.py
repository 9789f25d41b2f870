import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fou.fgn as fgn
from fou.errors import NumericsError
from fou.fgn import (
    Grid,
    Workspace,
    derive_seed,
    gram_weights,
    increment_autocov,
    sample_fgn,
    sample_fgn_batch,
    toeplitz_product,
)
from oracles import fbm_cov, fgn_autocov, sample_fgn_cholesky


def test_grid_basics():
    g = Grid(horizon=2.0, n=4)
    assert g.step == 0.5
    assert np.allclose(g.nodes, [0.0, 0.5, 1.0, 1.5, 2.0])
    assert np.allclose(g.midpoints, [0.25, 0.75, 1.25, 1.75])
    assert g.nodes[-1] == pytest.approx(g.horizon, abs=1e-15)
    g = Grid.from_step(10.0, 0.05)
    assert g.n == 200
    with pytest.raises(ValueError):
        Grid(horizon=-1.0, n=4)
    with pytest.raises(ValueError):
        Grid(horizon=1.0, n=1)


def test_from_step_rejects_fewer_than_two_cells():
    assert Grid.from_step(10.0, 4.0).n == 2  # 10 / 4 rounds to 2
    with pytest.raises(ValueError, match=r"dt=8\.0 .* T=10\.0"):
        Grid.from_step(10.0, 8.0)            # 10 / 8 rounds to 1


def test_fbm_cov_values():
    for h in (0.5, 0.6, 0.75):
        assert fbm_cov(1.0, 1.0, h) == pytest.approx(1.0, rel=1e-14)
    assert fbm_cov(2.0, 1.0, 0.5) == pytest.approx(1.0, rel=1e-14)
    assert fbm_cov(2.0, 1.0, 0.75) == pytest.approx(1.4142135623730951, rel=1e-13)
    with pytest.raises(ValueError):
        fbm_cov(-1.0, 1.0, 0.6)


def test_fgn_autocov_values():
    assert fgn_autocov(0, 1.0, 0.6) == pytest.approx(1.0, rel=1e-14)
    assert fgn_autocov(1, 1.0, 0.5) == 0.0
    assert fgn_autocov(1, 1.0, 0.75) == pytest.approx(0.41421356237309505, rel=1e-13)
    # direct substitution into gamma(2): (3^1.5 - 2*2^1.5 + 1)/2
    assert fgn_autocov(2, 1.0, 0.75) == pytest.approx(0.26964908660712584, rel=1e-13)


def test_gram_weights_brownian_is_diagonal():
    g = Grid(horizon=0.4, n=4)
    w = gram_weights(g, 0.5)
    assert np.allclose(w, 0.1 * np.eye(4), atol=1e-15)


@pytest.mark.parametrize("h", [0.5, 0.6, 0.75])
def test_gram_weights_total_variance(h):
    g = Grid(horizon=2.0, n=37)
    w = gram_weights(g, h)
    assert w.sum() == pytest.approx(2.0 ** (2 * h), rel=1e-12)


def test_gram_weights_structure():
    g = Grid(horizon=3.0, n=3)
    w = gram_weights(g, 0.75)
    assert np.allclose(w, w.T, atol=0)
    assert w[0, 0] == pytest.approx(1.0, rel=1e-13)
    assert w[0, 1] == pytest.approx(0.41421356237309505, rel=1e-13)
    assert w[0, 2] == pytest.approx(0.26964908660712584, rel=1e-13)
    # Toeplitz: value depends only on |i-j|
    assert w[1, 2] == w[0, 1]


@pytest.mark.parametrize("h", [0.5, 0.6, 0.75])
def test_gram_weights_psd(h):
    g = Grid(horizon=5.0, n=64)
    w = gram_weights(g, h)
    eig = np.linalg.eigvalsh(w)
    assert eig.min() >= -1e-10 * np.trace(w)


def test_gram_weights_row_sums_match_fbm_cov():
    g = Grid(horizon=2.0, n=8)
    h = 0.7
    w = gram_weights(g, h)
    t = g.nodes
    for i in range(g.n):
        expect = fbm_cov(t[i + 1], g.horizon, h) - fbm_cov(t[i], g.horizon, h)
        assert w[i].sum() == pytest.approx(expect, rel=1e-12)


def test_gram_weights_self_similar_scaling():
    n, h, c = 16, 0.65, 3.7
    w1 = gram_weights(Grid(horizon=1.0, n=n), h)
    w2 = gram_weights(Grid(horizon=c, n=n), h)
    assert np.allclose(w2, c ** (2 * h) * w1, rtol=1e-12)


@settings(max_examples=40, deadline=None)
@given(h=st.floats(0.5, 0.75), horizon=st.floats(1e-3, 1e3), n=st.integers(2, 400),
       rows=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
def test_toeplitz_product_matches_dense_gram(h, horizon, n, rows, seed):
    # y -> W y through the circulant embedding against the dense W y, for one
    # vector and for a block of rows; a block's rows are the same rows done
    # one at a time, bit for bit, so no result depends on how rows are grouped
    grid = Grid(horizon=horizon, n=n)
    w = gram_weights(grid, h)
    w_apply = toeplitz_product(increment_autocov(grid, h))
    y = np.random.default_rng(seed).standard_normal((rows, n))
    want = y @ w  # W is symmetric
    atol = 1e-13 * np.abs(y).max() * np.abs(w).sum(axis=1).max()
    block = w_apply(y)
    assert block.shape == (rows, n)
    np.testing.assert_allclose(block, want, rtol=0, atol=atol)
    np.testing.assert_allclose(w_apply(y[0]), w @ y[0], rtol=0, atol=atol)
    for r in range(rows):
        assert np.array_equal(block[r], w_apply(y[r]))


def test_derive_seed_is_stable_and_spreads():
    assert derive_seed(42, 0, 0) != derive_seed(42, 0, 1)
    assert derive_seed(42, 0, 1) != derive_seed(42, 1, 0)
    assert derive_seed(42, 3, 7) == derive_seed(42, 3, 7)
    # frozen so the documented stream derivation can never drift silently
    assert derive_seed(42) == 42
    assert derive_seed(42, 1, 2) == 13658133790647838728


def test_sample_fgn_deterministic():
    g = Grid(horizon=1.0, n=32)
    a = sample_fgn(g, 0.7, seed=99)
    b = sample_fgn(g, 0.7, seed=99)
    assert np.array_equal(a, b)
    c = sample_fgn(g, 0.7, seed=100)
    assert not np.array_equal(a, c)


def test_sample_fgn_owns_its_path():
    # A single path holds its n values, not a view that pins the sampler's 2n buffer.
    xi = sample_fgn(Grid(horizon=1.0, n=32), 0.7, seed=99)
    assert xi.flags.owndata and xi.flags.c_contiguous and xi.shape == (32,)


def test_sample_batch_matches_single():
    g = Grid(horizon=1.0, n=16)
    seeds = [derive_seed(5, 0, r) for r in range(3)]
    batch = sample_fgn_batch(g, 0.6, seeds)
    for r, s in enumerate(seeds):
        assert np.array_equal(batch[r], sample_fgn(g, 0.6, s))


def test_workspace_reused_across_shapes_matches_fresh_calls():
    # (rows, n) grow and shrink, so each call finds the last call's values
    # in its buffers; every row must still equal a fresh call's, bit for bit
    ws = Workspace()
    for rows, n in ((3, 16), (40, 64), (2, 8), (5, 128), (1, 16), (40, 64)):
        g = Grid(horizon=2.0, n=n)
        seeds = [derive_seed(21, n, r) for r in range(rows)]
        reused = sample_fgn_batch(g, 0.7, seeds, ws)
        assert reused.shape == (rows, n)
        assert reused.tobytes() == sample_fgn_batch(g, 0.7, seeds).tobytes()


def test_workspace_rows_live_until_its_next_call():
    g = Grid(horizon=1.0, n=32)
    ws = Workspace()
    first = sample_fgn_batch(g, 0.6, [1, 2, 3], ws)
    second = sample_fgn_batch(g, 0.6, [4, 5, 6], ws)
    assert np.shares_memory(first, second)  # the buffer is reused, not reallocated
    assert np.array_equal(first, sample_fgn_batch(g, 0.6, [4, 5, 6]))  # first is overwritten


def test_batch_without_workspace_is_never_aliased():
    g = Grid(horizon=1.0, n=32)
    owned = sample_fgn_batch(g, 0.6, [1, 2, 3])
    kept = owned.copy()
    ws = Workspace()
    for seeds in ([4, 5, 6], [7, 8, 9]):
        later = sample_fgn_batch(g, 0.6, seeds)
        assert not np.shares_memory(owned, later)
        assert not np.shares_memory(owned, sample_fgn_batch(g, 0.6, seeds, ws))
    assert np.array_equal(owned, kept)


@pytest.mark.parametrize("h", [0.5, 0.75])
def test_sample_variance_of_total_increment(h):
    # Var(sum xi) = Var(B^H_T) = T^(2H) = 1 at T = 1
    g = Grid(horizon=1.0, n=64)
    seeds = [derive_seed(11, 0, r) for r in range(20000)]
    xi = sample_fgn_batch(g, h, seeds)
    total = xi.sum(axis=1)
    se = np.sqrt(2.0 / len(seeds))  # sd of a variance estimate, Gaussian case
    assert total.var() == pytest.approx(1.0, abs=4 * se)
    assert abs(total.mean()) < 4.0 / np.sqrt(len(seeds))


def test_sample_lag_one_autocovariance():
    n, reps = 64, 20000
    g = Grid(horizon=float(n), n=n)  # unit step
    for h, expect in ((0.5, 0.0), (0.75, 0.41421356237309505)):
        seeds = [derive_seed(13, 0, r) for r in range(reps)]
        xi = sample_fgn_batch(g, h, seeds)
        lag1 = np.mean(xi[:, :-1] * xi[:, 1:], axis=1)
        se = lag1.std() / np.sqrt(reps)
        assert lag1.mean() == pytest.approx(expect, abs=4 * se)


@pytest.mark.parametrize("h", [0.5, 0.6, 0.75])
def test_circulant_and_cholesky_sampler_agree_in_distribution(h):
    # entrywise comparison of sample covariance matrices, 4 standard errors
    n, reps = 24, 60000
    g = Grid(horizon=1.0, n=n)
    w = gram_weights(g, h)
    seeds = [derive_seed(17, 0, r) for r in range(reps)]
    xi_c = sample_fgn_batch(g, h, seeds)
    xi_k = np.stack([sample_fgn_cholesky(g, h, s) for s in seeds[:reps]])
    for xi in (xi_c, xi_k):
        cov = xi.T @ xi / reps
        # se of a covariance entry: sqrt((w_ii w_jj + w_ij^2)/reps)
        se = np.sqrt((np.outer(np.diag(w), np.diag(w)) + w**2) / reps)
        assert np.all(np.abs(cov - w) < 4.5 * se)


def test_negative_embedding_eigenvalue_raises(monkeypatch):
    # lag-1 correlation 1.5 is no autocovariance: its circulant embedding
    # has eigenvalues 1 + 3 cos(2 pi k / 2n), negative near k = n
    monkeypatch.setattr(fgn, "_unit_autocov",
                        lambda kmax, hurst: np.r_[1.0, 1.5, np.zeros(kmax - 1)])
    fgn._embedding_sqrt_eigs.cache_clear()
    try:
        with pytest.raises(NumericsError, match="negative eigenvalue"):
            sample_fgn_batch(Grid(horizon=1.0, n=8), 0.6, [1])
    finally:
        fgn._embedding_sqrt_eigs.cache_clear()
