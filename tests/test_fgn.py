import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fou.fgn as fgn
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
from oracles import fbm_cov, fgn_autocov, horizon_pairs, midpoints, sample_fgn_cholesky


def test_grid_basics():
    g = Grid(horizon=2.0, n=4)
    assert g.step == 0.5
    assert np.allclose(g.nodes, [0.0, 0.5, 1.0, 1.5, 2.0])
    assert np.allclose(midpoints(g), [0.25, 0.75, 1.25, 1.75])
    assert g.nodes[-1] == pytest.approx(g.horizon, abs=1e-15)
    ((_, g),) = horizon_pairs(1.0, 0.5, [10.0], dt=0.05)
    assert g.n == 200


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


# The first normals of replication 0 at horizon 0 under master seed 42.
# Every golden draws through numpy's Generator.standard_normal on Philox,
# whose stream NEP 19 does not freeze across numpy versions.
STREAM_CANARY = [1.575913117532334, 0.9398646803394827, -0.5550608571527742,
                 1.1565905009076898, -1.0417366797056775, 0.5906480086728916,
                 -0.9621411425245527, -0.572223488662838]


def test_numpy_normal_stream_is_unchanged():
    bits = np.random.Philox(key=derive_seed(42, 0, 0))
    got = np.random.Generator(bits).standard_normal(len(STREAM_CANARY)).tolist()
    assert got == STREAM_CANARY, (
        f"numpy {np.__version__} draws another Philox standard_normal stream; NEP 19 "
        "lets a numpy release change it, and then every golden moves at once")


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


@pytest.mark.parametrize("h", [0.5, 0.6, 0.7, 0.75])
def test_embedding_eigenvalues_stay_above_a_floor(h):
    # the fact that lets the sampler go without a fallback: the length-2n
    # embedding is positive definite with room to spare (the lowest, 0.441,
    # is at H = 3/4 and n = 2)
    for n in (2, 3, 5, 64, 4096, 65536):
        f0, fn, fmid = fgn._embedding_sqrt_eigs(n, h)
        lam = np.r_[f0**2 * 2 * n, fn**2 * 2 * n, fmid**2 * 4 * n]
        assert lam.min() >= 0.4, n


def test_negative_embedding_eigenvalue_raises(monkeypatch):
    # lag-1 correlation 1.5 is no autocovariance: its circulant embedding
    # has eigenvalues 1 + 3 cos(2 pi k / 2n), negative near k = n, and the
    # square root of one is an invalid value under the error state of
    # `cli.main`
    monkeypatch.setattr(fgn, "_unit_autocov",
                        lambda kmax, hurst: np.r_[1.0, 1.5, np.zeros(kmax - 1)])
    fgn._embedding_sqrt_eigs.cache_clear()
    try:
        with np.errstate(invalid="raise"), pytest.raises(FloatingPointError, match="sqrt"):
            sample_fgn_batch(Grid(horizon=1.0, n=8), 0.6, [1])
    finally:
        fgn._embedding_sqrt_eigs.cache_clear()
