import math

import mpmath as mp
import numpy as np
import pytest
import scipy.special
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import fou.constants as constants
from fou.cli import main
from fou.constants import (
    ModelParams,
    b_t_closed_form,
    delta_h,
    gamma_p,
    kummer_1f1,
    sigma2_h,
    skorohod_correction,
    stationary_variance,
)
from fou.errors import NumericsError
from fou.montecarlo import normal_cdf
from oracles import alpha_h, rate_exponent

mp.mp.dps = 30


def mp_sigma2(h):
    h = mp.mpf(h)
    return float((4*h - 1) * (1 + mp.gamma(3 - 4*h) * mp.gamma(4*h - 1)
                              / (mp.gamma(2*h) * mp.gamma(2 - 2*h))))


def mp_delta(h):
    h = mp.mpf(h)
    return float(h**2 * (4*h - 1) * (mp.gamma(2*h)**2 + mp.gamma(2*h)
                 * mp.gamma(3 - 4*h) * mp.gamma(4*h - 1) / mp.gamma(2 - 2*h)))


def test_gamma_binding_accuracy():
    # the bound gamma function must be good to >= 12 significant digits
    assert math.gamma(1.0) == pytest.approx(1.0, rel=1e-13)
    assert math.gamma(1.5) == pytest.approx(math.sqrt(math.pi) / 2, rel=1e-13)
    assert math.gamma(2.0) == pytest.approx(1.0, rel=1e-13)


def test_alpha_h_values():
    assert alpha_h(0.5) == 0.0
    assert alpha_h(0.75) == pytest.approx(0.375, rel=1e-14)
    assert alpha_h(0.6) == pytest.approx(0.12, rel=1e-14)


@pytest.mark.parametrize("h", [0.49, 0.76, -1.0, 2.0])
def test_hurst_domain_errors(h):
    for fn in (alpha_h, rate_exponent):
        with pytest.raises(ValueError):
            fn(h)


def test_sigma2_h_values():
    assert sigma2_h(0.5) == pytest.approx(2.0, rel=1e-13)
    assert sigma2_h(0.75) == pytest.approx(4.0 / math.pi, rel=1e-13)
    # independent gamma oracle (mpmath): 3.1304951684997052
    assert sigma2_h(0.6) == pytest.approx(mp_sigma2(0.6), rel=1e-12)
    assert sigma2_h(0.6) == pytest.approx(3.1304951684997052, rel=1e-12)


def test_delta_h_values():
    assert delta_h(0.5) == pytest.approx(0.5, rel=1e-13)
    assert delta_h(0.75) == pytest.approx(0.5625, rel=1e-14)
    # independent gamma oracle (mpmath): 0.95008081013963427
    assert delta_h(0.6) == pytest.approx(mp_delta(0.6), rel=1e-12)
    assert delta_h(0.6) == pytest.approx(0.95008081013963427, rel=1e-12)


def test_delta_sigma_identity_at_half():
    # delta_{1/2} = sigma^2_{1/2} / 4, i.e. 0.5 = 2/4
    assert delta_h(0.5) == pytest.approx(sigma2_h(0.5) / 4.0, rel=1e-14)


def test_stationary_variance_values():
    assert stationary_variance(ModelParams(1.0, 0.5, 1.0)) == pytest.approx(0.5, rel=1e-13)
    # 0.75 * Gamma(1.5) * 2^(-1.5) via the gamma oracle
    expect = float(mp.mpf("0.75") * mp.gamma(mp.mpf("1.5")) * mp.mpf(2) ** mp.mpf("-1.5"))
    assert expect == pytest.approx(0.2349964007466563, rel=1e-13)
    assert stationary_variance(ModelParams(2.0, 0.75, 1.0)) == pytest.approx(expect, rel=1e-12)
    assert stationary_variance(ModelParams(1.0, 0.75, 1.0)) == pytest.approx(
        0.66467019408956851, rel=1e-12)


def test_rate_exponent_branches():
    r = rate_exponent(0.55)
    assert r.beta == 0.5 and not r.log_corrected
    r = rate_exponent(0.7)
    assert r.beta == pytest.approx(0.2, rel=1e-12) and not r.log_corrected
    r = rate_exponent(0.625, epsilon=0.01)
    assert r.beta == pytest.approx(0.365, rel=1e-12)
    assert r.epsilon == 0.01
    r = rate_exponent(0.75)
    assert r.log_corrected


def test_rate_exponent_monotone_away_from_borderline():
    # nonincreasing across the two closed-form branches; the isolated
    # H = 5/8 value sits below its left limit (the table is not monotone
    # through that single borderline point)
    hs = [0.5, 0.55, 0.6, 0.63, 0.66, 0.68, 0.7, 0.72, 0.74]
    betas = [rate_exponent(h).beta for h in hs]
    assert all(b1 >= b2 for b1, b2 in zip(betas, betas[1:]))
    assert rate_exponent(0.625).beta <= 0.5


def test_constants_positive():
    for h in (0.55, 0.6, 0.7, 0.75):
        assert sigma2_h(h) > 0
        assert delta_h(h) > 0
        assert alpha_h(h) > 0
        assert stationary_variance(ModelParams(1.0, h, 1.0)) > 0
    assert alpha_h(0.5) == 0.0


def test_b_t_elementary_branch():
    p = ModelParams(theta=1.0, hurst=0.5, horizon=10.0)
    assert b_t_closed_form(p) == pytest.approx(0.5 - (1 - math.exp(-20)) / 40, rel=1e-13)
    # long-horizon limit is the stationary variance
    p = ModelParams(theta=1.0, hurst=0.5, horizon=1e6)
    assert b_t_closed_form(p) == pytest.approx(0.5, rel=1e-6)


def test_b_t_fractional_against_quadrature_oracle():
    # frozen mpmath values of the same three-integral closed form
    frozen = {
        (1.0, 0.6, 50.0): 0.54318862800369836,
        (1.0, 0.6, 100.0): 0.54704493672177736,
        (1.0, 0.75, 50.0): 0.65137679020777714,
        (2.0, 0.6, 50.0): 0.23811513890571794,
        (1.0, 0.55, 25.0): 0.51068509326454081,
    }
    for (theta, h, t), expect in frozen.items():
        got = b_t_closed_form(ModelParams(theta, h, t))
        assert got == pytest.approx(expect, rel=1e-9), (theta, h, t)


def test_b_t_converges_at_rate_one_over_t():
    # T |b_T - a| should not vary by more than a factor 2 across T doublings
    for h in (0.5, 0.6, 0.75):
        a = stationary_variance(ModelParams(1.0, h, 1.0))
        scaled = [t * abs(b_t_closed_form(ModelParams(1.0, h, t)) - a)
                  for t in (50.0, 100.0, 200.0)]
        assert max(scaled) / min(scaled) < 2.0, h


def test_skorohod_correction_values():
    # T/2 at H = 1/2, where the divergence integral is the Ito integral
    assert skorohod_correction(ModelParams(1.0, 0.5, 10.0)) == pytest.approx(5.0, rel=2e-15)
    # frozen mpmath quadrature of alpha_H int_0^T (T-u) e^{-theta u} u^{2H-2} du
    assert skorohod_correction(ModelParams(1.0, 0.7, 10.0)) == pytest.approx(
        5.9624157330407187, rel=1e-9)
    assert skorohod_correction(ModelParams(1.0, 0.6, 50.0)) == pytest.approx(
        27.434882022904847, rel=1e-9)


@pytest.mark.parametrize("theta", [0.01, 1.0, 50.0])
def test_closed_forms_continuous_at_half(theta):
    # H = 1/2 is the a = 0 end of the same closed forms.  The step 1e-13 in H
    # moves b_T and c_T by at most 3e-12 relative over this range (the slope
    # in H is about 2 log T), so anything beyond 1e-11 is a jump.
    for x in np.geomspace(1e-3, 1e5, 33):
        half, above = ModelParams(theta, 0.5, x / theta), ModelParams(theta, 0.5 + 1e-13, x / theta)
        assert b_t_closed_form(half) == pytest.approx(b_t_closed_form(above), rel=1e-11), x
        assert skorohod_correction(half) == pytest.approx(skorohod_correction(above),
                                                          rel=1e-11), x


def test_model_params_validation(tmp_path, capsys):
    # `ModelParams` is a plain record: `cli.resolve_horizons` admits theta, H
    # and T, and each violation exits 2 with its message and writes nothing
    out = tmp_path / "out.csv"
    for theta, hurst, t, message in [
            ("0", "0.6", "1", "theta must be finite and positive, got 0.0"),
            ("1", "0.8", "1", "hurst must be in [0.5, 0.75], got 0.8"),
            ("1", "0.6", "0", "horizon must be finite and positive, got 0.0")]:
        assert main(["bounds", "--theta", theta, "--hurst", hurst, "--t", t, "--n", "16",
                     "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


def mp_b_t_and_c_t(theta, h, horizon):
    """b_T and c_T from their defining time integrals, by mpmath quadrature.

    After u = t^a (a = 2H-1), int_0^T f(t) t^(a-1) dt = (1/a) int_0^(T^a)
    f(u^(1/a)) du has no endpoint singularity; the u-range is split at the
    images of multiples of the decay length 1/theta (and, for I_b, at the
    same distances below T), where the integrands turn.  b_T's bracket
    cancels twice at theta T << 1, losing 2 log10(1 / (theta T)) digits, so
    the working precision is raised by as many.
    """
    extra = max(0, math.ceil(-2 * math.log10(theta * horizon)))
    with mp.workdps(mp.mp.dps + extra):
        return _mp_b_t_and_c_t(theta, h, horizon)


def _mp_b_t_and_c_t(theta, h, horizon):
    theta, h, horizon = mp.mpf(theta), mp.mpf(h), mp.mpf(horizon)
    a = 2 * h - 1
    ts = {mp.mpf(0), horizon}
    ts |= {s / theta for s in (0.25, 1, 4, 16, 64) if s / theta < horizon}
    ts |= {horizon - s / theta for s in (1, 4, 16) if s / theta < horizon}
    us = [t**a for t in sorted(ts)]

    def integral(f):
        return mp.quad(lambda u: f(u ** (1 / a)), us) / a

    i_a = integral(lambda t: mp.exp(-theta * t))
    i_b = integral(lambda t: mp.exp(theta * (t - 2 * horizon)))
    i_c = integral(lambda t: mp.exp(-theta * t) * (1 + 2 * theta * t))
    j = integral(lambda t: t * mp.exp(-theta * t))
    alpha = h * a
    b_t = alpha / theta * (i_a + (i_b - i_c) / (2 * theta * horizon))
    return float(b_t), float(alpha * (horizon * i_a - j))


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(theta=st.floats(0.1, 5.0), h=st.floats(0.5001, 0.75), horizon=st.floats(1e-7, 2000.0))
@example(theta=1.0, h=0.7, horizon=1e-8)
@example(theta=1.0, h=0.7, horizon=1e-6)
@example(theta=0.1, h=0.5001, horizon=1e-6)
@example(theta=5.0, h=0.75, horizon=2e-5)
@example(theta=1.0, h=0.6, horizon=0.999)
def test_closed_forms_match_mpmath_time_integrals(theta, h, horizon):
    p = ModelParams(theta, h, horizon)
    b_t, c_t = mp_b_t_and_c_t(theta, h, horizon)
    assert b_t_closed_form(p) == pytest.approx(b_t, rel=1e-11)
    assert skorohod_correction(p) == pytest.approx(c_t, rel=1e-11)


# a in (0, 3/2] and x over 14 decades for P; the 1F1 range starts at x = 1,
# where `b_t_closed_form` leaves its series, and runs across the crossover
P_A = (1e-6, 1e-3, 0.05, 0.2, 0.5, 0.999, 1.0, 1.2, 1.5)
P_X = (*np.geomspace(1e-8, 1e6, 29).tolist(), 1.0, 2.0, 2.5, 39.9, 40.0)
F_A = (1e-8, 1e-4, 0.01, 0.1, 0.2, 0.35, 0.5)
F_X = (*np.geomspace(1.0, 1e6, 25).tolist(), 40.0, 60.0, 79.9, 80.0, 80.1)


@pytest.mark.parametrize("a", P_A)
def test_gamma_p_matches_mpmath(a):
    for x in P_X:
        expect = float(mp.gammainc(mp.mpf(a), 0, mp.mpf(x), regularized=True))
        assert gamma_p(a, x) == pytest.approx(expect, rel=1e-14), x


@pytest.mark.parametrize("a", F_A)
def test_kummer_1f1_matches_mpmath(a):
    for x in F_X:
        expect = float(mp.hyp1f1(1, mp.mpf(a) + 1, -mp.mpf(x)))
        assert kummer_1f1(a, x) == pytest.approx(expect, rel=2e-13), x


def test_special_functions_at_huge_and_infinite_x():
    # an overflowed theta*T must give the limit, not a hang or NaN
    for a in (1e-6, 0.2, 0.5, 1.5):
        assert gamma_p(a, 1e300) == 1.0 and gamma_p(a, math.inf) == 1.0
    for a in (1e-8, 0.2, 0.5):
        assert kummer_1f1(a, 1e300) == pytest.approx(a / 1e300, rel=1e-15)
        assert kummer_1f1(a, math.inf) == 0.0
    assert gamma_p(0.5, 0.0) == 0.0 and kummer_1f1(0.5, 0.0) == 1.0


# the documented a ranges of the two series, x log-spaced over the whole
# domain, and the longest run of each branch: just below its cutover
SERIES_P_A = (0.0, 1e-8, 1e-4, 0.01, 0.1, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5)
SERIES_F_A = (0.0, 1e-8, 1e-4, 0.01, 0.1, 0.25, 0.5)
SERIES_X = (*np.geomspace(1e-8, 1e6, 400).tolist(), math.nextafter(40.0, 0.0),
            math.nextafter(80.0, 0.0))


def test_series_converge_well_within_max_terms(monkeypatch):
    # the longest runs are 106 terms (gamma_p) and 252 (kummer_1f1 at a = 0
    # just below x = 80), so the cap of 500 has room; a cap below them
    # still says so instead of returning a truncated sum
    assert constants.MAX_TERMS == 500
    monkeypatch.setattr(constants, "MAX_TERMS", 260)
    for a in SERIES_P_A:
        for x in SERIES_X:
            gamma_p(a, x)
    for a in SERIES_F_A:
        for x in SERIES_X:
            kummer_1f1(a, x)
    monkeypatch.setattr(constants, "MAX_TERMS", 100)
    with pytest.raises(NumericsError, match="did not converge"):
        for x in SERIES_X:
            kummer_1f1(0.0, x)


def test_normal_cdf_matches_ndtr():
    z = np.concatenate([np.linspace(-38.0, 9.0, 4001), [-1e-300, 0.0, 1e-300]])
    got, expect = normal_cdf(z), scipy.special.ndtr(z)
    assert np.all(np.abs(got - expect) <= 1e-15 * np.maximum(expect, 1e-300) + 1e-16)
