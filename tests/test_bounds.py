import math
import tracemalloc

import numpy as np
import pytest

from fou.bounds import (
    _diagonal_sweep,
    _ingredients,
    asymptotics_report,
    psi_from_ingredients,
    psi_terms,
)
from fou.constants import ModelParams, delta_h, stationary_variance
from fou.fgn import Grid, gram_weights
from oracles import (
    boundary_vector,
    contract1,
    diagonal_sweep_rows,
    horizon_pairs,
    ingredients_long_double,
    inner_h2,
    kernel_f,
    kernel_g,
    norm2_h2,
    theoretical_rate_curve,
)


def ing(**kw):
    base = dict(b_T=1.0, norm_f2=0.0, norm_f1f=0.0, norm_f1g=0.0,
                inner_fg=0.0, norm_g2=0.0, norm_g1g=0.0)
    base.update(kw)
    return base


def quantities(rows):
    """(measured, paper_limit, ratio) by quantity name, from the
    asymptotics rows of one horizon."""
    return {r["quantity"]: (r["measured"], r["paper_limit"], r["ratio"]) for r in rows}


def test_psi1_vanishes_on_balanced_ingredients():
    # b^2 = 2 ||f||^2 and no contraction -> Psi1 = 0
    psi1, _, _ = psi_from_ingredients(ing(b_T=math.sqrt(2.0), norm_f2=1.0))
    assert psi1 == pytest.approx(0.0, abs=1e-15)


def test_psi3_synthetic_arithmetic():
    _, _, psi3 = psi_from_ingredients(ing(b_T=1.0, norm_g2=3.0, norm_g1g=4.0))
    assert psi3 == pytest.approx(2.0 * math.sqrt(9.0 + 32.0), rel=1e-14)


def test_psi2_synthetic_arithmetic():
    _, psi2, _ = psi_from_ingredients(ing(b_T=2.0, norm_f1g=1.0, inner_fg=3.0))
    assert psi2 == pytest.approx(2.0 * math.sqrt(2.0 + 9.0) / 4.0, rel=1e-14)


def test_psi_terms_ingredients_match_one_op_route():
    p = ModelParams(theta=1.0, hurst=0.6, horizon=10.0)
    g = Grid(horizon=10.0, n=256)
    w = gram_weights(g, 0.6)
    f, gg = kernel_f(p, g), kernel_g(p, g)
    terms = psi_terms(p, g)
    assert terms["norm_f2"] == pytest.approx(norm2_h2(f, w), rel=1e-10)
    assert terms["norm_g2"] == pytest.approx(norm2_h2(gg, w), rel=1e-10)
    assert terms["inner_fg"] == pytest.approx(inner_h2(f, gg, w), rel=1e-10)
    assert terms["norm_f1f"] == pytest.approx(
        math.sqrt(norm2_h2(contract1(f, f, w), w)), rel=1e-10)
    assert terms["norm_f1g"] == pytest.approx(
        math.sqrt(norm2_h2(contract1(f, gg, w), w)), rel=1e-10)
    assert terms["norm_g1g"] == pytest.approx(
        math.sqrt(norm2_h2(contract1(gg, gg, w), w)), rel=1e-10)
    p1, p2, p3 = psi_from_ingredients(_ingredients(p, g)[0])
    assert terms["psi1"] == p1 and terms["psi2"] == p2 and terms["psi3"] == p3
    assert terms["max_psi"] == max(p1, p2, p3)
    assert min(terms["psi1"], terms["psi2"], terms["psi3"]) >= 0.0


@pytest.mark.parametrize("theta", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("horizon", [1.0, 10.0, 100.0])
def test_norm_f2_converges_to_closed_form_brownian(theta, horizon):
    # At H = 1/2, sigma2_H = 2 and f = s_f exp(-theta |t - s|) with
    # s_f^2 = 1 / (8 theta T), so ||f||^2 = s_f^2 (T/theta - (1 - e^{-2 theta T}) / (2 theta^2)).
    # The quadrature error is O(step^2): it falls by 4 per halving, and the
    # Richardson value of the two finest grids is the closed form.
    p = ModelParams(theta=theta, hurst=0.5, horizon=horizon)
    exact = (horizon / theta + math.expm1(-2.0 * theta * horizon) / (2.0 * theta**2)) \
        / (8.0 * theta * horizon)
    n0 = 64
    while n0 < 10.0 * theta * horizon:  # theta step <= 0.1
        n0 *= 2
    vals = [_ingredients(p, Grid(horizon=horizon, n=n0 * k))[0]["norm_f2"] for k in (1, 2, 4)]
    errors = [v - exact for v in vals]
    assert errors[0] / errors[1] == pytest.approx(4.0, abs=0.01)
    assert errors[1] / errors[2] == pytest.approx(4.0, abs=0.01)
    assert (4.0 * vals[2] - vals[1]) / 3.0 == pytest.approx(exact, rel=1e-7)


@pytest.mark.parametrize("n, theta_t, hurst", [(1024, 1.0, 0.75), (2048, 4.0, 0.6)])
def test_ingredients_near_unit_ar1_coefficient(n, theta_t, hurst):
    # theta * step <= 2e-3 puts rho = exp(-theta step) near 1, where the
    # factor's sqrt(1 - rho^2) is small
    p = ModelParams(theta=0.5, hurst=hurst, horizon=theta_t / 0.5)
    g = Grid(horizon=p.horizon, n=n)
    assert p.theta * g.step <= 2e-3
    ing, norm_h2 = _ingredients(p, g)
    w = gram_weights(g, hurst)
    f, gg = kernel_f(p, g), kernel_g(p, g)
    # inner_h2 = tr(W K1 W K2), with each product W K formed once
    wk = {name: w @ k for name, k in (("f", f), ("g", gg), ("ff", contract1(f, f, w)),
                                          ("gg", contract1(gg, gg, w)))}

    def inner(a, b):
        return float(np.einsum("ij,ji->", wk[a], wk[b]))

    dense = {
        "norm_f2": inner("f", "f"),
        "norm_f1f": math.sqrt(inner("ff", "ff")),
        "norm_f1g": math.sqrt(inner("ff", "gg")),  # tr(W f W g W g W f)
        "inner_fg": inner("f", "g"),
        "norm_g2": inner("g", "g"),
        "norm_g1g": math.sqrt(inner("gg", "gg")),
    }
    for name, want in dense.items():
        assert ing[name] == pytest.approx(want, rel=1e-11), name
    v = boundary_vector(p, g)
    assert norm_h2 == pytest.approx(float(v @ w @ v) ** 2, rel=1e-11)


@pytest.mark.parametrize("theta, hurst, horizon, n", [
    (1.0, 0.6, 200.0, 256), (0.5, 0.75, 8.0, 256), (0.1, 0.7, 0.25, 128), (0.01, 0.6, 1.0, 256),
    (1.0, 0.6, 2.0, 2), (1.0, 0.6, 2.0, 3), (3.0, 0.7, 800.0, 300), (1.0, 0.5, 50.0, 200)])
def test_ingredients_match_long_double_reference(theta, hurst, horizon, n):
    # at theta T << 1 (the third and fourth cases) g = c2 (K - v v') is a small
    # difference of near-ones matrices, where float64 dense algebra loses digits;
    # at n = 2 and 3 the last row and column are most of the swept matrix, at
    # theta T = 2400 the sweep flushes tiny generator entries, and H = 1/2
    # makes W the identity
    p = ModelParams(theta=theta, hurst=hurst, horizon=horizon)
    ing, norm_h2 = _ingredients(p, Grid(horizon=horizon, n=n))
    ref = ingredients_long_double(p, Grid(horizon=horizon, n=n))
    got = {name: ing[name] for name in ref if name != "norm_h2"} | {"norm_h2": norm_h2}
    for name, want in ref.items():
        assert abs(float(got[name] / want - 1)) <= 5e-12, name


def assert_sweeps_agree(left, right):
    # the blocked sweep against the row oracle on one generator pair
    total, diag, last = _diagonal_sweep(left, right)
    total_ref, diag_ref, last_ref = diagonal_sweep_rows(left, right)
    np.testing.assert_allclose(total, total_ref, rtol=1e-13)
    np.testing.assert_allclose(diag, diag_ref, rtol=1e-13)
    # Y[k, n-1] spans hundreds of decades at theta T > 708: measure it
    # against its largest
    scale = np.abs(last_ref).max()
    np.testing.assert_allclose(last / scale, last_ref / scale, rtol=1e-13, atol=1e-13)


BLOCK = 8


@pytest.mark.parametrize("n", [2, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 1])
def test_blocked_sweep_matches_row_oracle(n, monkeypatch):
    # SWEEP_CELLS = BLOCK n makes every block BLOCK rows (fewer when n < BLOCK),
    # so n = 3 BLOCK + 1 ends on a block of one row
    monkeypatch.setattr("fou.bounds.SWEEP_CELLS", BLOCK * n)
    left, right = np.random.default_rng(n).random((2, 2, n, 9))
    for pair in zip(left, right):  # two generator sets, one at a time
        assert_sweeps_agree(*pair)


def test_blocked_sweep_matches_row_oracle_past_underflow(monkeypatch):
    # at theta T = 800 the generators span exp(-800), so the sweep flushes
    # their entries below 1e-150 of each column's largest; the oracle keeps
    # them.  n = 600 makes five blocks of 109 rows and one of 55.
    seen = []
    monkeypatch.setattr("fou.bounds._diagonal_sweep",
                        lambda left, right: seen.append((left, right)) or _diagonal_sweep(left, right))
    _ingredients(ModelParams(theta=1.0, hurst=0.6, horizon=800.0), Grid(horizon=800.0, n=600))
    (left, right), = seen  # one sweep per horizon
    column_max = np.abs(left).max(axis=0)
    assert ((left != 0.0) & (np.abs(left) < 1e-150 * column_max)).any()
    assert_sweeps_agree(left, right)


def test_ingredients_peak_is_linear_in_n():
    # no n x n array: at n = 4096 the peak stays within 1/8 of one (16 MiB)
    p = ModelParams(theta=1.0, hurst=0.6, horizon=200.0)
    for n in (1024, 4096):
        tracemalloc.start()
        try:
            _ingredients(p, Grid(horizon=200.0, n=n))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4096 * n, n


def test_ingredients_hold_two_dense_arrays_at_peak():
    # the bound of the dense route this replaced; the generator route holds
    # no n x n array (test_ingredients_peak_is_linear_in_n)
    n = 1024
    p = ModelParams(theta=1.0, hurst=0.6, horizon=50.0)
    tracemalloc.start()
    try:
        _ingredients(p, Grid(horizon=50.0, n=n))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.25 * 8 * n * n


def test_psi_decreasing_trend_light():
    vals = []
    for t in (25.0, 100.0):
        p = ModelParams(theta=1.0, hurst=0.5, horizon=t)
        vals.append(psi_terms(p, Grid(horizon=t, n=512)))
    assert vals[1]["psi1"] < vals[0]["psi1"] < 1.0
    assert vals[1]["max_psi"] < vals[0]["max_psi"]


def test_psi_refinement_stability():
    # doubling n changes each Psi by no more than twice the previous change
    p = ModelParams(theta=1.0, hurst=0.6, horizon=25.0)
    out = {n: psi_terms(p, Grid(horizon=25.0, n=n)) for n in (256, 512, 1024)}
    for attr in ("psi1", "psi2", "psi3"):
        d1 = abs(out[512][attr] - out[256][attr])
        d2 = abs(out[1024][attr] - out[512][attr])
        assert d2 <= 2.0 * d1 + 1e-12, attr


def test_psi1_gap_term_grows_against_contraction():
    # at H = 0.7 the (b^2 - 2||f||^2) part of Psi1 decays at the slower
    # T^-(3-4H) rate, so its ratio to the contraction part increases in T
    ratios = []
    for p, grid in horizon_pairs(1.0, 0.7, (25.0, 50.0, 100.0, 200.0), dt=0.1):
        i = psi_terms(p, grid)
        gap = abs(i["b_T"]**2 - 2.0 * i["norm_f2"])
        ratios.append(gap / i["norm_f1f"])
    assert all(r1 < r2 for r1, r2 in zip(ratios, ratios[1:]))


def test_asymptotics_report_brownian_limits():
    p = ModelParams(theta=1.0, hurst=0.5, horizon=100.0)
    rows = asymptotics_report(horizon_pairs(p.theta, p.hurst, [100.0], n=2048))
    q = quantities(rows)
    a = stationary_variance(p)
    meas, lim, ratio = q["2*norm_f2"]
    assert lim == pytest.approx(a * a, rel=1e-12)
    assert meas == pytest.approx(0.25, rel=0.02)
    assert ratio == pytest.approx(meas / lim, rel=1e-12)
    meas, lim, _ = q["T*norm_g2"]
    assert lim == pytest.approx(delta_h(0.5) / 2.0, rel=1e-12)
    assert meas == pytest.approx(0.25, rel=0.10)
    meas, lim, _ = q["b_T"]
    assert lim == pytest.approx(0.5, rel=1e-12)
    assert meas == pytest.approx(0.4975, rel=1e-10)


def test_asymptotics_report_zhou_trend():
    p = ModelParams(theta=1.0, hurst=0.6, horizon=100.0)
    rows = asymptotics_report(horizon_pairs(p.theta, p.hurst, [25.0, 50.0, 100.0], dt=0.05))
    scaled = [math.sqrt(r["T"]) * r["measured"] for r in rows if r["quantity"] == "norm_f1f"]
    assert max(scaled) / min(scaled) < 2.0


def test_asymptotics_report_log_branch_names():
    p = ModelParams(theta=1.0, hurst=0.75, horizon=50.0)
    rows = asymptotics_report(horizon_pairs(p.theta, p.hurst, [50.0], n=256))
    names = set(quantities(rows))
    assert "T/log(T)*norm_g2" in names
    assert "sqrt(T/log(T))*inner_fg" in names
    lim = quantities(rows)["T/log(T)*norm_g2"][1]
    assert lim == pytest.approx(delta_h(0.75) / 2.0, rel=1e-12)


def test_theoretical_rate_curve_values():
    assert theoretical_rate_curve(ModelParams(1.0, 0.5, 1.0), [100.0], 1.0)[0][1] \
        == pytest.approx(0.1, rel=1e-12)
    assert theoretical_rate_curve(ModelParams(1.0, 0.7, 1.0), [100.0], 1.0)[0][1] \
        == pytest.approx(0.39810717055349725, rel=1e-12)
    t = math.exp(2.0)
    assert theoretical_rate_curve(ModelParams(1.0, 0.75, 1.0), [t], 1.0)[0][1] \
        == pytest.approx(0.5, rel=1e-12)
    with pytest.raises(ValueError):
        theoretical_rate_curve(ModelParams(1.0, 0.5, 1.0), [10.0], -1.0)


@pytest.mark.parametrize("h", [0.5, 0.625, 0.7, 0.75])
def test_theoretical_rate_curve_decreasing(h):
    p = ModelParams(theta=1.0, hurst=h, horizon=1.0)
    curve = theoretical_rate_curve(p, [10.0, 50.0, 250.0, 1250.0], 2.0)
    bounds = [b for _, b in curve]
    assert all(b1 > b2 for b1, b2 in zip(bounds, bounds[1:]))
