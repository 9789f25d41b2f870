"""Dense reference implementations that the tests check the production
routes against.  No `fou` command calls any of them.

* `kernel_f`, `kernel_g`, `boundary_vector` and `kernel_h` are the kernels
  as dense midpoint samples, each from its own closed form.  They check the
  compact kernels of `fou.hilbert` (the Toeplitz row of f, and g as
  (c1, c2) with v formed here).  `boundary_form_fft` is v' W v through the
  circulant embedding of W: a second route to `fou.hilbert.Horizon.vwv`,
  which takes it from the AR(1) scans.  `log_scale` is the paper's
  sqrt(log T) normalization at H = 3/4 that f and c1 carry, written out
  apart from `fou.constants.log_factor`.
* `inner_h`, `norm2_h2`, `inner_h2` and `contract1` are the generic
  weighted tensor algebra on midpoint-sampled kernels.  They check
  `fou.bounds._ingredients`, which never forms f, g or any n x n array
  (every quantity there comes from the displacement generators of one
  squared AR(1) factor, that of W g up to scale, and O(n) vectors).  `ingredients_long_double` is the
  same algebra in long double, the reference where float64 loses digits:
  the g-terms at theta T << 1.  `diagonal_sweep_rows` is the row-by-row
  form of the generator sweep: it checks the blocked
  `fou.bounds._diagonal_sweep`.
* `b_t_gram_quadrature` evaluates b_T from its defining time average.  It
  cross-checks `fou.constants.b_t_closed_form`.
* `i2` and `normalized_statistic` form the second-chaos statistic
  -I2(f) / (I2(g) + b_T) as dense quadratic forms; `i2` also takes a batch
  of paths, one per row.  They check the one-scan
  `fou.montecarlo._chaos_batch` and the Toeplitz recentering traces of
  `fou.montecarlo._chaos_traces`.
  `normalized_pathwise_statistic` is the pathwise value of one path, a
  batch of one of `fou.process.estimate_pathwise`; it checks
  `fou.montecarlo._pathwise_batch`.
* `rate_exponent` is the paper's decay exponent of the Kolmogorov distance
  over the admissible H range, and `theoretical_rate_curve` the decay curve
  C / T^beta (C / log T at H = 3/4) on it.  No command reports either, so
  both live here.  So does `alpha_h`, the weight H(2H-1) of the singular
  kernel, which `fou.constants` folds into its gamma factors.
* `horizon_pairs` is the (params, grid) list of `fou.cli.resolve_horizons`
  itself, for the tests that need a grid at a step dt or call
  `fou.montecarlo.run`, `fou.montecarlo.replicate`,
  `fou.bounds.asymptotics_report` or a row builder of `fou.cli` directly.
* `fbm_cov` and `fgn_autocov` are the covariances in closed form.  They
  check `fou.fgn.gram_weights` and the sampled moments.
  `sample_fgn_cholesky` draws exact fGn through a dense Cholesky factor:
  the distributional oracle for the circulant-embedding
  `fou.fgn.sample_fgn_batch`.

The weighted-matrix reduction behind the tensor algebra, with W the Gram
matrix of exact cell covariances (`fou.fgn.gram_weights`) and K a plain
n x n array of midpoint samples:

    <phi, psi>        = phi' W psi
    <K1, K2>          = tr(W K1 W K2)
    ||K||^2           = tr(W K W K')           (K' = K when K equals its transpose)
    K1 (x)_1 K2       = K1 W K2
"""
from __future__ import annotations

import argparse
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from fou.cli import resolve_horizons
from fou.constants import HURST_MAX, HURST_MIN, ModelParams, sigma2_h, skorohod_correction
from fou.errors import NumericsError
from fou.fgn import _MASK64, Grid, _unit_autocov, gram_weights, increment_autocov, toeplitz_product
from fou.process import estimate_pathwise


def horizon_pairs(theta: float, hurst: float, t_list, n: int | None = None,
                  dt: float | None = None) -> list[tuple[ModelParams, Grid]]:
    """(params, grid) per horizon, on n cells or at step dt, as `fou.cli`
    admits them for `simulate` (the MAX_CELLS ceiling, no log T rule)."""
    return resolve_horizons(argparse.Namespace(command="simulate", theta=theta, hurst=hurst,
                                               t_list=tuple(t_list), n=n, dt=dt))


def midpoints(grid: Grid) -> np.ndarray:
    """Cell midpoints t*_k = (k + 1/2) * step (k = 0..n-1), where the dense
    kernels are sampled."""
    return (np.arange(grid.n) + 0.5) * grid.step


# `normalized_statistic` treats a chaos denominator I2(g) + b_T smaller
# than this in magnitude as numerically zero.  It is the oracle's own
# guard; production applies `fou.process.degenerate_denominators`.
NEAR_ZERO_DENOM = 1e-9


def log_scale(params: ModelParams) -> float:
    """The paper's extra normalization at H = 3/4: the estimator error is
    scaled by sqrt(T / log T) there, so f, c1 and the statistics take
    sqrt(log T); 1 below 3/4."""
    if params.hurst == HURST_MAX:
        return math.sqrt(math.log(params.horizon))
    return 1.0


def kernel_f(params: ModelParams, grid: Grid) -> np.ndarray:
    """Numerator kernel f[i, j] = exp(-theta step |i - j|) / (2 sqrt(theta sigma2_H T) l),
    as midpoints i and j are |i - j| steps apart, with l = `log_scale`."""
    scale = 1.0 / (2.0 * math.sqrt(params.theta * sigma2_h(params.hurst) * params.horizon)
                   * log_scale(params))
    idx = np.arange(grid.n)
    return scale * np.exp(-params.theta * grid.step * np.abs(idx[:, None] - idx[None, :]))


def boundary_vector(params: ModelParams, grid: Grid) -> np.ndarray:
    """Midpoint samples v_i = exp(-theta (T - t*_i)); the boundary kernel is h = v v'."""
    return np.exp(-params.theta * (params.horizon - midpoints(grid)))


def boundary_form_fft(params: ModelParams, grid: Grid) -> float:
    """v' W v with W v by the circulant embedding of W (`fou.fgn.toeplitz_product`).
    v[n-1] carries about eps theta T of rounding from T - t*_{n-1}."""
    v = boundary_vector(params, grid)
    return float(v @ toeplitz_product(increment_autocov(grid, params.hurst))(v))


def kernel_g(params: ModelParams, grid: Grid) -> np.ndarray:
    """Denominator-fluctuation kernel

        g = sqrt(sigma2_H / (theta T)) l f - (1 / (2 theta T)) h,

    with l = `log_scale`, so g itself does not depend on l.
    """
    theta_t = params.theta * params.horizon
    c1 = math.sqrt(sigma2_h(params.hurst) / theta_t) * log_scale(params)
    c2 = 1.0 / (2.0 * theta_t)
    v = boundary_vector(params, grid)
    return c1 * kernel_f(params, grid) - c2 * np.outer(v, v)


def kernel_h(params: ModelParams, grid: Grid) -> np.ndarray:
    """Boundary kernel exp(-theta(T-t) - theta(T-s)); rank one by construction."""
    v = boundary_vector(params, grid)
    return np.outer(v, v)


def inner_h(phi: np.ndarray, psi: np.ndarray, w: np.ndarray) -> float:
    """Weighted inner product phi' W psi of two midpoint-sampled functions.

    On 0/1 indicator vectors this reproduces the fBm covariance exactly,
    since W's entries are the exact cell-pair integrals.
    """
    phi = np.asarray(phi, dtype=float)
    psi = np.asarray(psi, dtype=float)
    n = w.shape[0]
    if phi.shape != (n,) or psi.shape != (n,):
        raise ValueError(f"vectors must have length {n}, got {phi.shape} and {psi.shape}")
    return float(phi @ w @ psi)


def norm2_h2(k: np.ndarray, w: np.ndarray) -> float:
    """Squared weighted tensor norm tr(W K W K') of a two-variable kernel.

    Nonnegative for PSD W; a result below -1e-12 * scale signals a broken
    weight matrix and raises.
    """
    a = w @ k
    b = a if np.array_equal(k, k.T) else w @ k.T
    val = float(np.einsum("ij,ji->", a, b))
    scale = float(np.einsum("ij,ij->", a, a))  # tr(A A') >= |tr(A A)|
    if val < -1e-12 * max(scale, 1.0):
        raise NumericsError(f"weighted norm came out negative ({val}); weights not PSD")
    return max(val, 0.0)


def inner_h2(k1: np.ndarray, k2: np.ndarray, w: np.ndarray) -> float:
    """Weighted tensor inner product tr(W K1 W K2); symmetric in (K1, K2)."""
    return float(np.einsum("ij,ji->", w @ k1, w @ k2))


def contract1(k1: np.ndarray, k2: np.ndarray, w: np.ndarray) -> np.ndarray:
    """1-contraction K1 W K2: one argument pair integrated against the weight.

    Not symmetric in general, even for symmetric inputs.
    """
    return k1 @ w @ k2


def ingredients_long_double(params: ModelParams, grid: Grid) -> dict:
    """The six matrix ingredients and ||h||^2 = (v' W v)^2 from dense
    long-double products: w, K, v and every product in np.longdouble, with
    the float64 scale of f and the float64 c1 and c2 of g = c1 f - c2 v v'.
    O(n^3) without BLAS; meant for n <= 256."""
    ld = np.longdouble
    theta, hurst, t = params.theta, params.hurst, params.horizon
    scale = 1.0 / (2.0 * math.sqrt(theta * sigma2_h(hurst) * t) * log_scale(params))
    c1 = math.sqrt(sigma2_h(hurst) / (theta * t)) * log_scale(params)
    c2 = 1.0 / (2.0 * theta * t)
    k = np.arange(grid.n, dtype=ld)
    two_h, step = 2 * ld(hurst), ld(t) / grid.n
    w = step**two_h * (((k + 1) ** two_h - 2 * k**two_h + np.abs(k - 1) ** two_h) / 2)
    lag = np.abs(k[:, None] - k[None, :])
    weights = w[lag.astype(int)]
    f = ld(scale) * np.exp(-ld(theta) * step * lag)
    v = np.exp(-ld(theta) * (ld(t) - (k + ld(0.5)) * step))
    a_f, a_g = weights @ f, weights @ (ld(c1) * f - ld(c2) * np.outer(v, v))
    ff, gg, fg, gf = a_f @ a_f, a_g @ a_g, a_f @ a_g, a_g @ a_f
    return {
        "norm_f2": np.trace(ff),
        "norm_f1f": np.sqrt(np.sum(ff * ff.T)),      # tr(W f W f W f W f)
        "norm_f1g": np.sqrt(np.sum(fg * gf.T)),      # tr(W f W g W g W f)
        "inner_fg": np.trace(fg),
        "norm_g2": np.trace(gg),
        "norm_g1g": np.sqrt(np.sum(gg * gg.T)),
        "norm_h2": (v @ weights @ v) ** 2,
    }


def diagonal_sweep_rows(left: np.ndarray, right: np.ndarray):
    """Row by row, the upper triangle of the symmetric Y with displacement
    Y - Z Y Z' = left right': row k is its displacement row plus row k-1
    shifted one place.  Returns sum Y[k, l]^2 over k <= l < n-1, the
    diagonal and the last column of Y.  One small product per row and no
    flush of tiny generator entries."""
    n = left.shape[0]
    total, diag, last = 0.0, np.empty(n), np.empty(n)
    prev = np.zeros(n + 1)
    for k in range(n):
        row = right[k:] @ left[k] + prev[:-1]
        total += row[:-1] @ row[:-1]
        diag[k], last[k], prev = row[0], row[-1], row
    return total, diag, last


def b_t_gram_quadrature(params: ModelParams, grid: Grid) -> float:
    """Denominator centering b_T evaluated from its defining time average,

        b_T = (1/T) int_0^T || exp(-theta(t - .)) 1_[0,t] ||^2 dt,

    with the inner squared norms taken against the Gram weights and the
    outer integral by the trapezoid rule on the grid nodes.
    """
    w = gram_weights(grid, params.hurst)
    nodes = grid.nodes
    tm = midpoints(grid)
    # e[i, j] = exp(-theta (t_i - t*_j)) for t*_j < t_i, else 0
    diff = nodes[:, None] - tm[None, :]
    e = np.where(diff > 0, np.exp(-params.theta * np.maximum(diff, 0.0)), 0.0)
    d = np.einsum("ij,ij->i", e @ w, e)  # d_i = e_i' W e_i
    return float(np.trapezoid(d, nodes) / params.horizon)


def i2(k: np.ndarray, xi: np.ndarray, w: np.ndarray):
    """Discrete double Wiener-Ito integral of a midpoint-sampled kernel:

        sum_ij K[i,j] (xi_i xi_j - W[i,j]),

    a quadratic form recentred with the exact increment covariances, so
    its expectation is zero by construction.  xi is one path (n,), giving
    a float, or a batch of paths (rows, n), giving one value per row; the
    recentering trace is taken once.
    """
    if k.shape != w.shape or xi.shape[-1:] != w.shape[:1]:
        raise ValueError("kernel, noise and weights must share one grid")
    return np.einsum("...i,...i->...", xi @ k, xi) - float(np.einsum("ij,ij->", k, w))


def normalized_statistic(grid: Grid, params: ModelParams, xi: np.ndarray, kernel_f,
                         kernel_g, b_t: float, weights: np.ndarray | None = None) -> float:
    """sqrt(T / (theta sigma2_H)) (theta_hat - theta) / l in second-chaos form,
    l = `log_scale`, when kernel_f and kernel_g are this module's f and g.

    Equals -I2(f) / (I2(g) + b_T) on the path's noise xi: the numerator
    kernel enters with a minus sign because the estimator error is minus
    the divergence integral over the denominator.  b_t must come from the
    closed form (positive).
    """
    if b_t <= 0:
        raise ValueError(f"b_t must be positive, got {b_t}")
    if weights is None:
        weights = gram_weights(grid, params.hurst)
    numerator = -i2(kernel_f, xi, weights)
    denominator = i2(kernel_g, xi, weights) + b_t
    if abs(denominator) < NEAR_ZERO_DENOM:
        raise NumericsError(f"chaos denominator {denominator} is numerically zero")
    return numerator / denominator


def normalized_pathwise_statistic(grid: Grid, params: ModelParams, xi: np.ndarray) -> float:
    """sqrt(T / (theta sigma2_H)) (theta_hat - theta) / l from estimate_pathwise
    on the path of noise xi, a batch of one, with l = `log_scale`."""
    p = params
    ((num, den),) = estimate_pathwise(grid, p, xi[None, :], skorohod_correction(p))
    theta_hat = float(num / den)
    scale = math.sqrt(p.horizon / (p.theta * sigma2_h(p.hurst))) / log_scale(p)
    return scale * (theta_hat - p.theta)


def _check_hurst(hurst: float) -> None:
    """The oracles' own domain check; `fou` admits H once, in `cli.resolve_horizons`."""
    if not (HURST_MIN <= hurst <= HURST_MAX):
        raise ValueError(f"hurst must be in [{HURST_MIN}, {HURST_MAX}], got {hurst}")


def alpha_h(hurst: float) -> float:
    """H(2H-1); the weight of the |t-s|^(2H-2) singular kernel.  Zero at H=1/2."""
    _check_hurst(hurst)
    return hurst * (2.0 * hurst - 1.0)


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


def theoretical_rate_curve(params: ModelParams, t_list, c: float,
                           epsilon: float = 0.01) -> list[tuple[float, float]]:
    """Reference decay curve: C / T^beta, or C / log T at H = 3/4.

    C is descriptive (the true constants are existential); the curve is for
    overlaying on measured distances.
    """
    if c <= 0:
        raise ValueError(f"C must be positive, got {c}")
    r = rate_exponent(params.hurst, epsilon)
    out = []
    for t in t_list:
        t = float(t)
        bound = c / math.log(t) if r.log_corrected else c / t**r.beta
        out.append((t, bound))
    return out


def fbm_cov(t: float, s: float, hurst: float) -> float:
    """E[B^H_t B^H_s] = (t^2H + s^2H - |t-s|^2H) / 2."""
    _check_hurst(hurst)
    if t < 0 or s < 0:
        raise ValueError(f"times must be nonnegative, got ({t}, {s})")
    two_h = 2.0 * hurst
    return 0.5 * (t**two_h + s**two_h - abs(t - s) ** two_h)


def fgn_autocov(k, dt: float, hurst: float):
    """Lag-k autocovariance of fGn on step dt.

    gamma(k) = dt^2H (|k+1|^2H - 2|k|^2H + |k-1|^2H) / 2; gamma(0) = dt^2H.
    Accepts scalar or array lags.
    """
    _check_hurst(hurst)
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    k = np.abs(np.asarray(k, dtype=float))
    two_h = 2.0 * hurst
    out = 0.5 * dt**two_h * ((k + 1) ** two_h - 2 * k**two_h + np.abs(k - 1) ** two_h)
    return float(out) if out.ndim == 0 else out


@lru_cache(maxsize=8)
def _unit_cholesky(n: int, hurst: float) -> np.ndarray:
    gamma = _unit_autocov(n - 1, hurst)
    idx = np.arange(n)
    return np.linalg.cholesky(gamma[np.abs(idx[:, None] - idx[None, :])])


def sample_fgn_cholesky(grid: Grid, hurst: float, seed: int) -> np.ndarray:
    """Dense-Cholesky sampler; the distributional oracle for the FFT route."""
    _check_hurst(hurst)
    rng = np.random.Generator(np.random.Philox(key=seed & _MASK64))
    chol = _unit_cholesky(grid.n, hurst)
    return grid.step**hurst * (chol @ rng.standard_normal(grid.n))
