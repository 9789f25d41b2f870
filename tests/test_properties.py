"""Property tests of the batched engine against its oracles over random
small (theta, H, T, n): the half-spectrum sampler against a full-length
complex FFT, batch and chunk invariance of every row of the sampler, the
path and the pathwise estimate, the one-scan chaos statistic against the
dense quadratic forms, the chunked `estimate` rows against a batch of one,
and the generator-route bound ingredients against the dense tensor algebra
of `oracles`.
"""
import argparse
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import fou.montecarlo as mc
from fou.bounds import _ingredients, asymptotics_report
from fou.cli import _rows_estimate
from fou.constants import ModelParams, b_t_closed_form, skorohod_correction
from fou.fgn import Grid, derive_seed, gram_weights, sample_fgn, sample_fgn_batch
from fou.montecarlo import _chaos_batch, _chaos_traces, run
from fou.process import denominator_floor, estimate_pathwise, simulate_fou
from oracles import (
    contract1,
    fgn_autocov,
    horizon_pairs,
    i2,
    inner_h2,
    kernel_f,
    kernel_g,
    midpoints,
    norm2_h2,
)

SETTINGS = settings(max_examples=30, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

hursts = st.one_of(st.sampled_from([0.5, 0.625, 0.75]), st.floats(0.5, 0.75))
thetas = st.floats(0.2, 3.0)
horizons = st.floats(1.5, 60.0)
cells = st.integers(2, 160)
master_seeds = st.integers(0, 2**64 - 1)


def hermitian_vector(grid, hurst, seeds):
    """The full length-2n Hermitian vector of the circulant sampler: same
    draws, same layout [V0, Vn, Re_1..Re_{n-1}, Im_1..Im_{n-1}],
    eigenvalues computed here."""
    n, m = grid.n, 2 * grid.n
    gamma = fgn_autocov(np.arange(n + 1), 1.0, hurst)
    lam = np.fft.fft(np.concatenate([gamma[:n], gamma[n:n + 1], gamma[n - 1:0:-1]])).real
    draws = np.stack([np.random.Generator(np.random.Philox(key=s)).standard_normal(m)
                      for s in seeds])
    z = np.empty((len(seeds), m), dtype=complex)
    z[:, 0] = np.sqrt(lam[0] / m) * draws[:, 0]
    z[:, n] = np.sqrt(lam[n] / m) * draws[:, 1]
    z[:, 1:n] = np.sqrt(lam[1:n] / (2 * m)) * (draws[:, 2:n + 1] + 1j * draws[:, n + 1:])
    z[:, n + 1:] = np.conj(z[:, n - 1:0:-1])
    return z


def seeds_for(master, count):
    return [derive_seed(master, 0, r) for r in range(count)]


@SETTINGS
@given(hurst=hursts, horizon=horizons, n=cells, master=master_seeds)
def test_half_spectrum_sampler_matches_full_fft(hurst, horizon, n, master):
    grid = Grid(horizon, n)
    seeds = seeds_for(master, 3)
    fast = sample_fgn_batch(grid, hurst, seeds)
    z = hermitian_vector(grid, hurst, seeds)
    scale = grid.step**hurst
    oracle = scale * np.fft.fft(z, axis=1).real[:, :n]
    np.testing.assert_allclose(fast, oracle, rtol=0, atol=1e-13 * np.abs(oracle).max())
    # the sampler's irfft of the conjugate is hfft on the half spectrum, bit for bit
    half = scale * np.fft.hfft(z[:, :n + 1], n=2 * n, axis=1)[:, :n]
    assert np.array_equal(fast, half)


@SETTINGS
@given(theta=thetas, hurst=hursts, n=cells, master=master_seeds, data=st.data())
def test_sampler_rows_independent_of_batching(theta, hurst, n, master, data):
    # the noise, the path and the pathwise estimate of a row: cut parts of a
    # batch concatenate to the whole, and a row equals its batch of one
    grid = Grid(10.0, n)
    params = ModelParams(theta=theta, hurst=hurst, horizon=10.0)
    c_t = skorohod_correction(params)

    def stages(xi):
        num, den = estimate_pathwise(grid, params, xi, c_t).T
        return xi, simulate_fou(grid, params, xi), num, den

    seeds = seeds_for(master, 7)
    whole = stages(sample_fgn_batch(grid, hurst, seeds))
    cuts = sorted(data.draw(st.lists(st.integers(1, 6), max_size=3, unique=True)))
    parts = [stages(sample_fgn_batch(grid, hurst, seeds[a:b]))
             for a, b in zip([0, *cuts], [*cuts, len(seeds)])]
    r = data.draw(st.integers(0, len(seeds) - 1))
    one = stages(sample_fgn(grid, hurst, seeds[r])[None, :])
    for k, full in enumerate(whole):
        assert np.array_equal(np.concatenate([part[k] for part in parts]), full)
        assert np.array_equal(one[k][0], full[r])


@SETTINGS
@given(theta=thetas, hurst=hursts, horizon=horizons, n=st.integers(2, 96),
       master=master_seeds)
@example(theta=0.01, hurst=0.6, horizon=0.96, n=96, master=7)  # theta step = 1e-4
def test_one_scan_chaos_matches_dense_i2(theta, hurst, horizon, n, master):
    grid = Grid(horizon, n)
    params = ModelParams(theta=theta, hurst=hurst, horizon=horizon)
    b_t = b_t_closed_form(params)
    seeds = seeds_for(master, 3)
    xi = sample_fgn_batch(grid, hurst, seeds)
    fast, bad = _chaos_batch(params, grid, xi, _chaos_traces(params, grid))
    assert bad == np.isnan(fast).sum()
    w = gram_weights(grid, hurst)
    f, g = kernel_f(params, grid), kernel_g(params, grid)
    for r in range(len(seeds)):
        den = i2(g, xi[r], w) + b_t
        if np.isnan(fast[r]):  # a degenerate denominator (few cells), not divided by
            assert horizon * den <= denominator_floor(params) + 1e-9
        else:
            assert fast[r] == pytest.approx(-i2(f, xi[r], w) / den, rel=1e-9, abs=1e-9)


@SETTINGS
@given(theta=thetas, hurst=hursts, dt=st.sampled_from([0.05, 0.1, 0.25]),
       reps=st.integers(1, 12), chunk_cells=st.integers(1, 2000),
       seed=st.integers(0, 2**32))
def test_batched_estimate_rows_equal_single_path(theta, hurst, dt, reps, chunk_cells, seed):
    cfg = argparse.Namespace(command="estimate", theta=theta, hurst=hurst, t_list=(3.0, 7.0),
                             dt=dt, n=None, reps=reps, seed=seed, out="-",
                             format="csv", method=None)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mc, "CHUNK_CELLS", chunk_cells)
        horizons = horizon_pairs(theta, hurst, cfg.t_list, dt=dt)
        rows = _rows_estimate(cfg, horizons)
    assert [(row["T"], row["rep"]) for row in rows] == \
        [(t, r) for t in cfg.t_list for r in range(reps)]
    method = "pathwise_ito" if hurst == 0.5 else "skorohod_oracle"
    for row in rows:
        i = cfg.t_list.index(row["T"])
        params, grid = horizons[i]
        xi = sample_fgn(grid, hurst, derive_seed(seed, i, row["rep"]))
        ((num, den),) = estimate_pathwise(grid, params, xi[None, :],
                                          skorohod_correction(params))
        assert (row["theta_hat"], row["numerator"], row["denominator"], row["method"]) == \
            (float(num / den), float(num), float(den), method)


@settings(max_examples=8, deadline=None)
@given(chunk_cells=st.integers(1, 1500), method=st.sampled_from(["chaos_ratio", "pathwise"]))
def test_mc_samples_independent_of_chunk_budget(chunk_cells, method):
    args = dict(horizons=horizon_pairs(1.0, 0.7, (5.0, 10.0), dt=0.1), reps=100,
                seed=13, method=method)
    reference = run(**args)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mc, "CHUNK_CELLS", chunk_cells)
        chunked = run(**args)
    for a, b in zip(reference, chunked):
        assert np.array_equal(a["samples"], b["samples"])


@SETTINGS
@given(theta=thetas, hurst=hursts, horizon=horizons, n=st.integers(2, 96))
def test_two_product_ingredients_match_dense_oracles(theta, hurst, horizon, n):
    grid = Grid(horizon, n)
    params = ModelParams(theta=theta, hurst=hurst, horizon=horizon)
    ing, norm_h2 = _ingredients(params, grid)
    w = gram_weights(grid, hurst)
    f, g = kernel_f(params, grid), kernel_g(params, grid)
    dense = {
        "b_T": b_t_closed_form(params),
        "norm_f2": norm2_h2(f, w),
        "norm_f1f": math.sqrt(norm2_h2(contract1(f, f, w), w)),
        "norm_f1g": math.sqrt(norm2_h2(contract1(f, g, w), w)),
        "inner_fg": inner_h2(f, g, w),
        "norm_g2": norm2_h2(g, w),
        "norm_g1g": math.sqrt(norm2_h2(contract1(g, g, w), w)),
    }
    for name, want in dense.items():
        assert ing[name] == pytest.approx(want, rel=1e-10), name
    v = np.exp(-theta * (horizon - midpoints(grid)))
    vwv2 = float(v @ w @ v) ** 2
    assert norm_h2 == pytest.approx(vwv2, rel=1e-10)
    (row,) = [r for r in asymptotics_report(horizon_pairs(theta, hurst, [horizon], n=n))
              if r["quantity"] == "norm_h2/T"]
    assert row["measured"] * horizon == pytest.approx(vwv2, rel=1e-10)


@SETTINGS
@given(theta=st.floats(0.02, 5.0), hurst=hursts, horizon=st.floats(0.25, 200.0),
       n=st.integers(2, 512))
def test_generator_ingredients_match_dense_oracles(theta, hurst, horizon, n):
    # the f-terms over the whole theta T range; the g-terms from theta T = 1,
    # below which the float64 oracle itself cancels (the long-double test in
    # test_bounds.py covers that range)
    grid = Grid(horizon, n)
    params = ModelParams(theta=theta, hurst=hurst, horizon=horizon)
    ing, norm_h2 = _ingredients(params, grid)
    w = gram_weights(grid, hurst)
    f, g = kernel_f(params, grid), kernel_g(params, grid)
    ff = contract1(f, f, w)
    dense = {"norm_f2": norm2_h2(f, w), "norm_f1f": math.sqrt(norm2_h2(ff, w))}
    if theta * horizon >= 1.0:
        dense |= {
            "norm_f1g": math.sqrt(norm2_h2(contract1(f, g, w), w)),
            "inner_fg": inner_h2(f, g, w),
            "norm_g2": norm2_h2(g, w),
            "norm_g1g": math.sqrt(norm2_h2(contract1(g, g, w), w)),
        }
    for name, want in dense.items():
        assert ing[name] == pytest.approx(want, rel=1e-11), name
    v = np.exp(-theta * (horizon - midpoints(grid)))
    assert norm_h2 == pytest.approx(float(v @ w @ v) ** 2, rel=1e-11)
    assert ing["b_T"] == b_t_closed_form(params)
