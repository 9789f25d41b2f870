"""Closed-form constants and rate exponents for fractional OU drift estimation.

Everything here is a deterministic function of (theta, H, T).  The Hurst
range covered is H in [1/2, 3/4]; H = 1/2 always takes the elementary
Brownian branch and H = 3/4 takes its own dedicated branch where the
generic-H formulas degenerate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.integrate import quad

from .errors import QuadratureError

HURST_MIN = 0.5
HURST_MAX = 0.75

# Absolute tolerance for the 1-D time integrals behind b_T and the
# Skorohod correction.
QUAD_ABS_TOL = 1e-10


def _check_hurst(hurst: float) -> None:
    if not (HURST_MIN <= hurst <= HURST_MAX):
        raise ValueError(f"hurst must be in [{HURST_MIN}, {HURST_MAX}], got {hurst}")


@dataclass(frozen=True)
class ModelParams:
    """Drift theta > 0, Hurst index H in [1/2, 3/4], horizon T > 0 (unit volatility)."""

    theta: float
    hurst: float
    horizon: float

    def __post_init__(self) -> None:
        if self.theta <= 0:
            raise ValueError(f"theta must be positive, got {self.theta}")
        _check_hurst(self.hurst)
        if self.horizon <= 0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")


def check_log_horizons(hurst: float, t_list) -> None:
    """At H = 3/4 the normalized statistic and the denominator-kernel
    quantities carry a 1/sqrt(log T) or 1/log T scaling, which needs T > 1."""
    if hurst == HURST_MAX:
        bad = [t for t in t_list if t <= 1.0]
        if bad:
            raise ValueError(f"at H = {HURST_MAX} the scaling by log T needs every "
                             f"horizon T > 1, got T = {bad[0]}")


@dataclass(frozen=True)
class RateExponent:
    """Kolmogorov-distance decay: C/T^beta, or C/log T when log_corrected.

    beta is meaningful only when log_corrected is False; epsilon records the
    user-supplied loss at the H = 5/8 boundary, where only the open rate
    "3/8 minus something" is known.
    """

    beta: float
    log_corrected: bool
    epsilon: float = 0.0

    def __post_init__(self) -> None:
        if not self.log_corrected and not (0.0 < self.beta <= 0.5):
            raise ValueError(f"beta must be in (0, 1/2], got {self.beta}")
        if self.epsilon < 0:
            raise ValueError(f"epsilon must be nonnegative, got {self.epsilon}")


def alpha_h(hurst: float) -> float:
    """H(2H-1); the weight of the |t-s|^(2H-2) singular kernel.  Zero at H=1/2."""
    _check_hurst(hurst)
    return hurst * (2.0 * hurst - 1.0)


def sigma2_h(hurst: float) -> float:
    """Asymptotic variance constant of the normalized drift estimator.

    (4H-1) * (1 + Gamma(3-4H)Gamma(4H-1) / (Gamma(2H)Gamma(2-2H))) for
    H in [1/2, 3/4); the generic formula diverges as H -> 3/4 and the value
    there is 4/pi.
    """
    _check_hurst(hurst)
    if hurst == HURST_MAX:
        return 4.0 / math.pi
    g = math.gamma
    return (4 * hurst - 1) * (1 + g(3 - 4 * hurst) * g(4 * hurst - 1) / (g(2 * hurst) * g(2 - 2 * hurst)))


def delta_h(hurst: float) -> float:
    """Limit constant of the T-scaled denominator-kernel norms.

    H^2 (4H-1) (Gamma(2H)^2 + Gamma(2H)Gamma(3-4H)Gamma(4H-1)/Gamma(2-2H))
    for H in [1/2, 3/4), and 9/16 at H = 3/4.
    """
    _check_hurst(hurst)
    if hurst == HURST_MAX:
        return 9.0 / 16.0
    g = math.gamma
    return hurst**2 * (4 * hurst - 1) * (
        g(2 * hurst) ** 2 + g(2 * hurst) * g(3 - 4 * hurst) * g(4 * hurst - 1) / g(2 - 2 * hurst)
    )


def stationary_variance(params: ModelParams) -> float:
    """a = H Gamma(2H) theta^(-2H), the T -> infinity limit of b_T."""
    h = params.hurst
    return h * math.gamma(2 * h) * params.theta ** (-2 * h)


def rate_exponent(hurst: float, epsilon: float = 0.01) -> RateExponent:
    """Decay exponent of the Kolmogorov distance over the admissible H range.

    beta = 1/2 on [1/2, 5/8), 3/8 - epsilon at H = 5/8 (the exact loss is
    open; epsilon is reported, not guessed), 3 - 4H on (5/8, 3/4).  At
    H = 3/4 the bound is C/log T and beta is unused.
    """
    _check_hurst(hurst)
    if epsilon < 0:
        raise ValueError(f"epsilon must be nonnegative, got {epsilon}")
    if hurst == HURST_MAX:
        return RateExponent(beta=0.0, log_corrected=True)
    if hurst < 0.625:
        return RateExponent(beta=0.5, log_corrected=False)
    if hurst == 0.625:
        return RateExponent(beta=0.375 - epsilon, log_corrected=False, epsilon=epsilon)
    return RateExponent(beta=3.0 - 4.0 * hurst, log_corrected=False)


def _integral_pow(f, hurst: float, upper: float) -> float:
    """int_0^upper f(t) t^(2H-2) dt for H in (1/2, 3/4].

    The substitution u = t^(2H-1) removes the endpoint singularity exactly:
    the integral equals (1/(2H-1)) int_0^(upper^(2H-1)) f(u^(1/(2H-1))) du.
    """
    p = 2.0 * hurst - 1.0
    val, err = quad(lambda u: f(u ** (1.0 / p)), 0.0, upper**p,
                    epsabs=QUAD_ABS_TOL, epsrel=1e-12, limit=200)
    if err > max(QUAD_ABS_TOL * 10, 1e-8 * abs(val)):
        raise QuadratureError(f"time integral did not converge: estimate {val}, error {err}")
    return val / p


def b_t_closed_form(params: ModelParams) -> float:
    """Deterministic centering b_T of the estimator's denominator.

    b_T is the time average over [0, T] of the squared weighted norm of
    s -> exp(-theta(t-s)) on [0, t].  For H = 1/2 this is elementary:

        b_T = 1/(2 theta) - (1 - exp(-2 theta T)) / (4 theta^2 T).

    For H > 1/2 it reduces by integration by parts to three 1-D integrals
    with an integrable t^(2H-2) endpoint:

        b_T = (alpha_H/theta) { I_a + (I_b - I_c) / (2 theta T) },
        I_a = int_0^T exp(-theta t) t^(2H-2) dt,
        I_b = int_0^T exp(theta(t - 2T)) t^(2H-2) dt,
        I_c = int_0^T exp(-theta t) (1 + 2 theta t) t^(2H-2) dt.

    Converges to stationary_variance at rate 1/T.
    """
    theta, h, horizon = params.theta, params.hurst, params.horizon
    if h == HURST_MIN:
        return 0.5 / theta - (1.0 - math.exp(-2 * theta * horizon)) / (4 * theta**2 * horizon)
    i_a = _integral_pow(lambda t: math.exp(-theta * t), h, horizon)
    i_b = _integral_pow(lambda t: math.exp(theta * (t - 2 * horizon)), h, horizon)
    i_c = _integral_pow(lambda t: math.exp(-theta * t) * (1 + 2 * theta * t), h, horizon)
    return (alpha_h(h) / theta) * (i_a + (i_b - i_c) / (2 * theta * horizon))


def skorohod_correction(params: ModelParams) -> float:
    """Trace correction turning the Young integral of X against B into a
    divergence integral:

        c_T = alpha_H int_0^T int_0^t exp(-theta(t-s)) (t-s)^(2H-2) ds dt
            = alpha_H int_0^T (T-u) exp(-theta u) u^(2H-2) du.

    Depends on the true theta, so the corrected estimator is a simulation
    instrument, not a feasible statistic.  Zero at H = 1/2.
    """
    theta, h, horizon = params.theta, params.hurst, params.horizon
    if h == HURST_MIN:
        return 0.0
    return alpha_h(h) * _integral_pow(
        lambda t: (horizon - t) * math.exp(-theta * t), h, horizon)
