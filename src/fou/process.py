"""Fractional OU paths and the least-squares drift estimator.

The path solves dX = -theta X dt + dB^H, X_0 = 0, discretized with the
exact integrating factor: x[k+1] = exp(-theta dt) x[k] + dB_k.  This is
unconditionally stable; the remaining error is the order-dt approximation
of the noise integral over each cell.

The estimator -int X dX / int X^2 dt comes in two computable forms:

* pathwise_ito (H = 1/2):    theta_hat = (T - X_T^2) / (2 int X^2 dt)
* skorohod_oracle (H > 1/2): theta_hat = -(Y - c_T(theta)) / int X^2 dt,
  where Y is the Young integral of X against itself and c_T(theta) is the
  divergence-trace correction.  c_T needs the true theta, so this form is
  a simulation instrument only.

Path simulation and the pathwise estimator are batched, one row per path
(`simulate_fou_batch`, `pathwise_terms`); the single-path functions are a
batch of one.

The same error, normalized by sqrt(T / (theta sigma2_H)), equals a ratio
of two recentred quadratic forms in the driving noise (second-chaos form);
`i2` and `normalized_statistic` evaluate that ratio on the discrete grid.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.signal import lfilter

from .constants import (
    ModelParams,
    sigma2_h,
    skorohod_correction,
    stationary_variance,
)
from .errors import DegeneratePathError, NumericsError
from .fgn import Grid, GramWeights, NoisePath, gram_weights

PATHWISE_ITO = "pathwise_ito"
SKOROHOD_ORACLE = "skorohod_oracle"
CHAOS_RATIO = "chaos_ratio"

DEGENERATE_DENOM_FACTOR = 1e-12
NEAR_ZERO_DENOM = 1e-9


@dataclass(frozen=True)
class FouPath:
    """Node values of the simulated process; x[0] = 0, replayable from noise."""

    grid: Grid
    params: ModelParams
    x: np.ndarray = field(repr=False)
    noise: NoisePath = field(repr=False)


@dataclass(frozen=True)
class EstimatorResult:
    theta_hat: float
    numerator: float
    denominator: float
    method: str

    def __post_init__(self) -> None:
        if self.denominator <= 0:
            raise ValueError(f"denominator must be positive, got {self.denominator}")


def simulate_fou_batch(grid: Grid, params: ModelParams, xi: np.ndarray) -> np.ndarray:
    """Node values of one path per row of noise xi (rows x n): the
    exact-factor recursion x[k+1] = exp(-theta dt) x[k] + xi[k], x[0] = 0."""
    rho = math.exp(-params.theta * grid.step)
    x = np.empty((xi.shape[0], grid.n + 1))
    x[:, 0] = 0.0
    x[:, 1:] = lfilter([1.0], [1.0, -rho], xi, axis=1)
    return x


def simulate_fou(grid: Grid, params: ModelParams, noise: NoisePath) -> FouPath:
    """One path of the exact-factor recursion; a batch of one."""
    if noise.grid != grid:
        raise ValueError("noise was generated on a different grid")
    if noise.hurst != params.hurst:
        raise ValueError(f"noise hurst {noise.hurst} != params hurst {params.hurst}")
    if grid.horizon != params.horizon:
        raise ValueError(f"grid horizon {grid.horizon} != params horizon {params.horizon}")
    x = simulate_fou_batch(grid, params, noise.xi[None, :])[0]
    return FouPath(grid=grid, params=params, x=x, noise=noise)


def denominator_floor(params: ModelParams) -> float:
    """Smallest int X^2 dt a genuine path can produce; below it the path is degenerate."""
    return DEGENERATE_DENOM_FACTOR * params.horizon * stationary_variance(params)


def check_denominators(params: ModelParams, denominator: np.ndarray) -> None:
    """Raise DegeneratePathError if any row's int X^2 dt is below the floor."""
    floor = denominator_floor(params)
    low = np.flatnonzero(denominator < floor)
    if low.size:
        raise DegeneratePathError(
            f"int X^2 dt = {denominator[low[0]]} below {floor} at T={params.horizon}; "
            "wiring or RNG problem")


def pathwise_terms(grid: Grid, params: ModelParams, x: np.ndarray,
                   c_t: float) -> tuple[np.ndarray, np.ndarray, str]:
    """Least-squares drift estimate theta_hat = numerator / denominator for
    each row of node values x (rows x n+1); returns (numerator, denominator,
    method).  c_t is skorohod_correction(params), unused at H = 1/2.

    The denominator is the trapezoid rule for int X^2 dt.  H = 1/2 uses the
    Ito identity directly.  H > 1/2 evaluates the Young integral of X dX by
    the trapezoid sum, which telescopes exactly to X_T^2 / 2, then subtracts
    the theta-dependent trace correction.  (A left-point sum differs by half
    the discrete quadratic variation, which at step dt decays only like
    dt^(2H-1) and visibly biases the estimate; the trapezoid sum is the same
    Riemann-Stieltjes limit without that defect.)
    """
    x2 = x * x
    denominator = grid.step * (0.5 * x2[:, 0] + x2[:, 1:-1].sum(axis=1) + 0.5 * x2[:, -1])
    if params.hurst == 0.5:
        return 0.5 * (params.horizon - x2[:, -1]), denominator, PATHWISE_ITO
    return -(0.5 * x2[:, -1] - c_t), denominator, SKOROHOD_ORACLE


def estimate_pathwise(path: FouPath) -> EstimatorResult:
    """Least-squares drift estimate from one trajectory; a batch of one of
    `pathwise_terms`.  Raises DegeneratePathError below the denominator floor."""
    p = path.params
    num, den, method = pathwise_terms(path.grid, p, path.x[None, :], skorohod_correction(p))
    check_denominators(p, den)
    return EstimatorResult(theta_hat=float(num[0] / den[0]), numerator=float(num[0]),
                           denominator=float(den[0]), method=method)


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
