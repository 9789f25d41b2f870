"""Dense reference implementations that the tests check the production
routes against.  No `fou` command calls any of them.

* `inner_h`, `norm2_h2`, `inner_h2`, `contract1` and `kernel_h` are the
  generic weighted tensor algebra on midpoint-sampled kernels.  They check
  `fou.bounds._ingredients`, which never forms f or g (every quantity
  there is a trace of the AR(1) factor S of W f, of S S, or of a low-rank
  update of S S).
* `b_t_gram_quadrature` evaluates b_T from its defining time average.  It
  cross-checks `fou.constants.b_t_closed_form`.
* `i2` and `normalized_statistic` form the second-chaos statistic
  -I2(f) / (I2(g) + b_T) as dense quadratic forms.  They check the
  one-scan `fou.montecarlo._chaos_batch` and the Toeplitz recentering
  traces of `fou.montecarlo._chaos_traces`.
  `normalized_pathwise_statistic` is the single-path pathwise value that
  `fou.montecarlo._pathwise_batch` batches.
* `theoretical_rate_curve` is the paper's decay curve C / T^beta (C / log T
  at H = 3/4) on the exponents of `fou.constants.rate_exponent`.
* `fbm_cov` and `fgn_autocov` are the covariances in closed form.  They
  check `fou.fgn.gram_weights` and the sampled moments.
  `sample_fgn_cholesky` draws exact fGn through a dense Cholesky factor:
  the distributional oracle for the circulant-embedding
  `fou.fgn.sample_fgn_batch`.

The weighted-matrix reduction behind the tensor algebra, with W the Gram
matrix of exact cell covariances:

    <phi, psi>        = phi' W psi
    <K1, K2>          = tr(W K1 W K2)
    ||K||^2           = tr(W K W K')           (K' = K when symmetric)
    K1 (x)_1 K2       = K1 W K2
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from fou.constants import ModelParams, _check_hurst, rate_exponent, sigma2_h
from fou.errors import NumericsError
from fou.fgn import _MASK64, GramWeights, Grid, NoisePath, _unit_autocov, gram_weights
from fou.hilbert import KernelMatrix, boundary_vector
from fou.process import NEAR_ZERO_DENOM, FouPath, estimate_pathwise


def _check_grid(grid: Grid, *objs) -> None:
    for o in objs:
        if o.grid != grid:
            raise ValueError("operands must share one grid")


def kernel_h(params: ModelParams, grid: Grid) -> KernelMatrix:
    """Boundary kernel exp(-theta(T-t) - theta(T-s)); rank one by construction."""
    v = boundary_vector(params, grid)
    return KernelMatrix(grid=grid, k=np.outer(v, v), symmetric=True)


def inner_h(phi: np.ndarray, psi: np.ndarray, weights: GramWeights) -> float:
    """Weighted inner product phi' W psi of two midpoint-sampled functions.

    On 0/1 indicator vectors this reproduces the fBm covariance exactly,
    since W's entries are the exact cell-pair integrals.
    """
    phi = np.asarray(phi, dtype=float)
    psi = np.asarray(psi, dtype=float)
    n = weights.grid.n
    if phi.shape != (n,) or psi.shape != (n,):
        raise ValueError(f"vectors must have length {n}, got {phi.shape} and {psi.shape}")
    return float(phi @ weights.w @ psi)


def norm2_h2(kernel: KernelMatrix, weights: GramWeights) -> float:
    """Squared weighted tensor norm tr(W K W K') of a two-variable kernel.

    Nonnegative for PSD W; a result below -1e-12 * scale signals a broken
    weight matrix and raises.
    """
    _check_grid(weights.grid, kernel)
    a = weights.w @ kernel.k
    if kernel.symmetric:
        val = float(np.einsum("ij,ji->", a, a))
    else:
        b = weights.w @ kernel.k.T
        val = float(np.einsum("ij,ji->", a, b))
    scale = float(np.einsum("ij,ij->", a, a))  # tr(A A') >= |tr(A A)|
    if val < -1e-12 * max(scale, 1.0):
        raise NumericsError(f"weighted norm came out negative ({val}); weights not PSD")
    return max(val, 0.0)


def inner_h2(k1: KernelMatrix, k2: KernelMatrix, weights: GramWeights) -> float:
    """Weighted tensor inner product tr(W K1 W K2); symmetric in (K1, K2)."""
    _check_grid(weights.grid, k1, k2)
    return float(np.einsum("ij,ji->", weights.w @ k1.k, weights.w @ k2.k))


def contract1(k1: KernelMatrix, k2: KernelMatrix, weights: GramWeights) -> KernelMatrix:
    """1-contraction K1 W K2: one argument pair integrated against the weight.

    Not symmetric in general, even for symmetric inputs.
    """
    _check_grid(weights.grid, k1, k2)
    k = k1.k @ weights.w @ k2.k
    sym = k1.symmetric and k2.symmetric and k1.k is k2.k
    return KernelMatrix(grid=weights.grid, k=k, symmetric=sym)


def b_t_gram_quadrature(params: ModelParams, grid: Grid) -> float:
    """Denominator centering b_T evaluated from its defining time average,

        b_T = (1/T) int_0^T || exp(-theta(t - .)) 1_[0,t] ||^2 dt,

    with the inner squared norms taken against the Gram weights and the
    outer integral by the trapezoid rule on the grid nodes.
    """
    w = gram_weights(grid, params.hurst).w
    nodes = grid.nodes
    tm = grid.midpoints
    # e[i, j] = exp(-theta (t_i - t*_j)) for t*_j < t_i, else 0
    diff = nodes[:, None] - tm[None, :]
    e = np.where(diff > 0, np.exp(-params.theta * np.maximum(diff, 0.0)), 0.0)
    d = np.einsum("ij,ij->i", e @ w, e)  # d_i = e_i' W e_i
    return float(np.trapezoid(d, nodes) / params.horizon)


def i2(kernel, noise: NoisePath, weights: GramWeights) -> float:
    """Discrete double Wiener-Ito integral of a midpoint-sampled kernel:

        sum_ij K[i,j] (xi_i xi_j - W[i,j]),

    a quadratic form recentred with the exact increment covariances, so
    its expectation is zero by construction.
    """
    k = kernel.k
    if noise.grid != weights.grid or kernel.grid != weights.grid:
        raise ValueError("kernel, noise and weights must share one grid")
    if noise.hurst != weights.hurst:
        raise ValueError(f"noise hurst {noise.hurst} != weights hurst {weights.hurst}")
    xi = noise.xi
    return float(xi @ k @ xi - np.einsum("ij,ij->", k, weights.w))


def normalized_statistic(path: FouPath, kernel_f, kernel_g, b_t: float,
                         weights: GramWeights | None = None) -> float:
    """sqrt(T / (theta sigma2_H)) (theta_hat - theta) in second-chaos form.

    Equals -I2(f) / (I2(g) + b_T) on the path's own noise: the numerator
    kernel enters with a minus sign because the estimator error is minus
    the divergence integral over the denominator.  b_t must come from the
    closed form (positive).
    """
    if b_t <= 0:
        raise ValueError(f"b_t must be positive, got {b_t}")
    if weights is None:
        weights = gram_weights(path.grid, path.params.hurst)
    numerator = -i2(kernel_f, path.noise, weights)
    denominator = i2(kernel_g, path.noise, weights) + b_t
    if abs(denominator) < NEAR_ZERO_DENOM:
        raise NumericsError(f"chaos denominator {denominator} is numerically zero")
    return numerator / denominator


def normalized_pathwise_statistic(path: FouPath) -> float:
    """sqrt(T / (theta sigma2_H)) (theta_hat - theta) from estimate_pathwise."""
    p = path.params
    est = estimate_pathwise(path)
    return math.sqrt(p.horizon / (p.theta * sigma2_h(p.hurst))) * (est.theta_hat - p.theta)


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


def sample_fgn_cholesky(grid: Grid, hurst: float, seed: int) -> NoisePath:
    """Dense-Cholesky sampler; the distributional oracle for the FFT route."""
    _check_hurst(hurst)
    rng = np.random.Generator(np.random.Philox(key=seed & _MASK64))
    chol = _unit_cholesky(grid.n, hurst)
    xi = grid.step**hurst * (chol @ rng.standard_normal(grid.n))
    return NoisePath(grid=grid, hurst=hurst, xi=xi, seed=seed)
