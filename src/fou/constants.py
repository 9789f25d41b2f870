"""Closed-form constants for fractional OU drift estimation, and the
numeric domain of every command.

Everything here is a deterministic function of (theta, H, T) on the
domain that `cli.resolve_horizons` admits once per command; nothing here
checks it again.  H lies in [1/2, 3/4], and per horizon theta, T and
theta*step = theta T / n lie in the ranges of `DOMAIN`:

    theta        [1e-6, 1e6]
    T            [1e-6, 1e9]
    theta*step   [1e-9, 10]

* theta*step >= 1e-9: the g-terms of the bounds carry an error of about
  eps / (theta*step) from the rounded rho = exp(-theta step) (6.4e-13 at
  theta*step = 3.9e-5, 1.8e-10 at 3.9e-7), about 1e-7 at the floor.
* theta*step <= 10: a grid much coarser than 1/theta gives a wrong answer
  with no sign of it.  At theta = 100, H = 1/2, T = 20 and 200
  replications, `kolmogorov` writes sample_var 1.21, 2.04, 4.54 and 8.49
  at theta*step = 0.5, 2, 5 and 10, and 170.9 at 125.  The ceiling
  rejects the gross cases only and is not an accuracy bound: it still
  admits a coarse grid such as `simulate --theta 1 --t 10 --dt 4`, and
  the bias up to 10 is discretization error that no bound here limits.
* theta and T: twelve and fifteen decades around the unit scale.  With
  the theta*step range and at most 2^22 cells (theta T between 2e-9 and
  4.2e7), every power that the closed forms and the products below take
  (theta^(-2H), theta^(1+4H), T^(2H+1), step^(2H), b_T^2, sums of squares
  over a path) stays between 1e-30 and 1e30, far inside float64's range.
  So no module guards an overflow, an underflow or a degenerate rho: a
  value outside these ranges exits 2 before any work.

H = 1/2 is decided as the a = 0 end (a = 2H - 1) of the same closed forms,
where b_T and c_T are continuous in H; only H = 3/4 takes its own dedicated
branch, where the generic-H formulas for sigma2_H and delta_H degenerate.
There the estimator is normalized by sqrt(T / log T) instead of sqrt(T),
and `log_factor` is that extra sqrt(log T), 1 below 3/4.  It is the one
place the normalization lives: `hilbert.kernel_f` divides f by it (so the
bound terms describe the normalized statistic), `hilbert.kernel_g`
multiplies c1 by it (so g stays as it is), and the pathwise statistic of
`montecarlo` divides by it.  It needs T > 1, which `resolve_horizons`
checks for every command that reads it.

b_T and c_T are closed forms, not numerical integrals: the incomplete gamma
function P (`gamma_p`) and Kummer's transform 1F1(1; a+1; -theta T)
(`kummer_1f1`) of a 1F1 that would carry exp(theta T) and overflow at
theta T > 709, both summed here from series of positive terms.  Against
mpmath at 40 digits, both stay within 4e-15 relative over their stated a
ranges and x up to 1e6 (`test_gamma_p_matches_mpmath` and
`test_kummer_1f1_matches_mpmath` pin 1e-14 and 2e-13).

Below theta T = 1, where the closed form of b_T cancels, b_T is a power
series of positive terms.
"""
from __future__ import annotations

import math
from typing import NamedTuple

from .errors import NumericsError

HURST_MIN = 0.5
HURST_MAX = 0.75
MAX_TERMS = 500  # iteration cap of the series in `gamma_p` and `kummer_1f1`
# the numeric domain of every horizon, closed ranges (module docstring)
DOMAIN = {"theta": (1e-6, 1e6), "T": (1e-6, 1e9), "theta*step": (1e-9, 10.0)}


class ModelParams(NamedTuple):
    """Drift theta > 0, Hurst index H in [1/2, 3/4], horizon T > 0 (unit
    volatility).  A plain record: `cli.resolve_horizons` admits all three."""

    theta: float
    hurst: float
    horizon: float


def sigma2_h(hurst: float) -> float:
    """Asymptotic variance constant of the normalized drift estimator.

    (4H-1) * (1 + Gamma(3-4H)Gamma(4H-1) / (Gamma(2H)Gamma(2-2H))) for
    H in [1/2, 3/4); the generic formula diverges as H -> 3/4 and the value
    there is 4/pi.
    """
    if hurst == HURST_MAX:
        return 4.0 / math.pi
    g = math.gamma
    return (4 * hurst - 1) * (1 + g(3 - 4 * hurst) * g(4 * hurst - 1) / (g(2 * hurst) * g(2 - 2 * hurst)))


def delta_h(hurst: float) -> float:
    """Limit constant of the T-scaled denominator-kernel norms.

    H^2 (4H-1) (Gamma(2H)^2 + Gamma(2H)Gamma(3-4H)Gamma(4H-1)/Gamma(2-2H))
    for H in [1/2, 3/4), and 9/16 at H = 3/4.
    """
    if hurst == HURST_MAX:
        return 9.0 / 16.0
    g = math.gamma
    return hurst**2 * (4 * hurst - 1) * (
        g(2 * hurst) ** 2 + g(2 * hurst) * g(3 - 4 * hurst) * g(4 * hurst - 1) / g(2 - 2 * hurst)
    )


def log_factor(params: ModelParams) -> float:
    """sqrt(log T) at H = 3/4, exactly 1.0 below it (module docstring)."""
    return math.sqrt(math.log(params.horizon)) if params.hurst == HURST_MAX else 1.0


def stationary_variance(params: ModelParams) -> float:
    """a = H Gamma(2H) theta^(-2H), the T -> infinity limit of b_T."""
    h = params.hurst
    return h * math.gamma(2 * h) * params.theta ** (-2 * h)


def gamma_p(a: float, x: float) -> float:
    """Regularized lower incomplete gamma P(a, x) for 0 <= a <= 3/2, x >= 0: the
    series x^a e^-x / Gamma(a+1) sum_k x^k / ((a+1)...(a+k)) of positive terms
    (DLMF 8.7.1).  From x = 40 on, 1 - P < x^(a-1) e^-x (1 + 1/x) < 3e-17 and
    P rounds to 1, which also covers x = inf.  At a = 0 the series is
    e^-x e^x, and P(0, x) = 1, the limit as a decreases to 0."""
    if x >= 40.0:
        return 1.0
    term = total = 1.0
    for k in range(1, MAX_TERMS):
        term *= x / (a + k)
        total += term
        if term <= 1e-17 * total:
            return x**a * math.exp(-x) / math.gamma(a + 1.0) * total
    raise NumericsError(f"P(a, x) series did not converge at a = {a}, x = {x}")


def kummer_1f1(a: float, x: float) -> float:
    """1F1(1; a+1; -x) for 0 <= a <= 1/2, x >= 0.  Below x = 80 Kummer's
    transform e^-x 1F1(a; a+1; x) = sum_k a/(a+k) e^-x x^k/k! of positive
    terms; above it the asymptotic series a/x sum_k (1-a)_k/x^k (DLMF 13.7.2),
    whose neglected part is below Gamma(a+1) e^-x x^(1-a)/a relative.  Its
    limit at x = inf is 0.  At a = 0 the value is e^-x: math.exp(-x) below
    x = 80, and 0 above it, an absolute error below e^-80."""
    if x < 80.0:
        weight = total = math.exp(-x)
        for k in range(1, MAX_TERMS):
            weight *= x / k
            total += weight * a / (a + k)
            if k > x and weight <= 1e-17 * total:
                return total
    else:
        term = total = 1.0
        for k in range(1, MAX_TERMS):
            term *= (k - a) / x
            total += term
            if term <= 1e-17 * total:
                return a / x * total
    raise NumericsError(f"1F1(1; a+1; -x) did not converge at a = {a}, x = {x}")


def _gamma_factors(params: ModelParams) -> tuple[float, float]:
    """(A, J) = (a I_a, J): the incomplete gamma factors of `b_t_closed_form`,
    a = 2H-1.  A is 1 at a = 0."""
    theta, x, a = params.theta, params.theta * params.horizon, 2.0 * params.hurst - 1.0
    return (theta ** -a * math.gamma(a + 1) * gamma_p(a, x),
            theta ** -(a + 1) * math.gamma(a + 1) * gamma_p(a + 1, x))


def b_t_closed_form(params: ModelParams) -> float:
    """Deterministic centering b_T of the estimator's denominator.

    b_T is the time average over [0, T] of the squared weighted norm of
    s -> exp(-theta(t-s)) on [0, t].  It reduces by integration by parts to
    three 1-D integrals with an integrable t^(a-1) endpoint (a = 2H-1), each
    in closed form once multiplied by a, which also carries the weight
    alpha_H = H a of the singular kernel:

        b_T = (H/theta) { A + (B - A - 2 theta a J) / (2 theta T) },
        A = a int_0^T exp(-theta t) t^(a-1) dt = theta^-a Gamma(a+1) P(a, theta T),
        B = a int_0^T exp(theta(t - 2T)) t^(a-1) dt = exp(-theta T) T^a 1F1(1; a+1; -theta T),
        J = int_0^T exp(-theta t) t^a dt = theta^-(a+1) Gamma(a+1) P(a+1, theta T).

    H = 1/2 is the a = 0 end of the same form, not a branch: A = 1 and
    B = exp(-2 theta T) there, which gives the Brownian
    1/(2 theta) - (1 - exp(-2 theta T)) / (4 theta^2 T), and b_T is
    continuous in H at 1/2.

    The form cancels twice at x = theta T << 1 (b_T is O(x) while A and
    the 1/(2x) term are O(1)), so the error grows like eps / x^2; at
    theta = 1, H = 0.7 it is 8.6e-9 at x = 1e-4 and a factor 4.5 at
    x = 1e-8.  Below x = 1 it takes instead the series of positive terms

        b_T = (H/theta) T^a exp(-x) sum_{m>=2} 2 floor(m/2) x^(m-1) / ((a+1)...(a+m)),

    from expanding the integrand of the time average in powers of x.  Its
    19 terms are within 5.6e-16 of a 60-digit quadrature for theta in
    {0.1, 1, 5}, H in [0.5001, 3/4] and x in [1e-8, 1), and within 2.2e-16
    of the Brownian form at H = 1/2.  Converges to stationary_variance at
    rate 1/T.
    """
    theta, h, horizon = params.theta, params.hurst, params.horizon
    a, x = 2.0 * h - 1.0, theta * horizon
    if x < 1.0:
        term, total = 1.0 / (a + 1.0), 0.0
        for m in range(2, 21):
            term *= x / (a + m)
            total += 2 * (m // 2) * term
        return h / theta * horizon**a * math.exp(-x) * total
    big_a, j = _gamma_factors(params)
    big_b = math.exp(-x) * horizon**a * kummer_1f1(a, x)
    return h / theta * (big_a + (big_b - big_a - 2 * theta * a * j) / (2 * theta * horizon))


def skorohod_correction(params: ModelParams) -> float:
    """Trace correction turning the Young integral of X against B into a
    divergence integral:

        c_T = H a int_0^T int_0^t exp(-theta(t-s)) (t-s)^(a-1) ds dt
            = H a int_0^T (T-u) exp(-theta u) u^(a-1) du
            = H (T A - a J),  with A and J as in `b_t_closed_form`.

    At H = 1/2 (a = 0) this is T/2, the limit as H decreases to 1/2: there
    the divergence integral is the Ito integral, and the corrected
    estimator is the Ito one.  Depends on the true theta, so the corrected
    estimator is a simulation instrument, not a feasible statistic.
    """
    big_a, j = _gamma_factors(params)
    return params.hurst * (params.horizon * big_a - (2.0 * params.hurst - 1.0) * j)
