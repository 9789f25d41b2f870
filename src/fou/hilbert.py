"""The two kernels of the second-chaos statistic and of the bound terms.

f is the numerator kernel (1 / (2 sqrt(theta sigma2_H T))) exp(-theta|t-s|)
and g = c1 f - c2 v v' the denominator-fluctuation kernel, with v the
boundary vector v_i = exp(-theta (T - t*_i)).  Both are sampled at the grid
midpoints.  Every consumer takes the scale of f, the coefficients c1, c2 and
v from here: the bound ingredients in `bounds`, which take the weighted
tensor norms of f and g from the AR(1) factor of f, and the O(n)
per-replication statistic in `montecarlo`.  The dense kernels and the tensor
algebra on them (norms and 1-contractions against W) are test oracles only.

The singular kernel is never evaluated pointwise: W's entries are its
exact integrals over cell pairs, which also makes H = 1/2 (W = dt * I)
a uniform special case rather than a removable limit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import toeplitz

from .constants import ModelParams, sigma2_h
from .fgn import Grid

# The bound ingredients hold two n x n arrays and take n^3 flops; this is the
# supported ceiling, enforced on every horizon by `bounds.horizon_grids`.
MAX_DENSE_N = 4096


@dataclass(frozen=True)
class KernelMatrix:
    """Midpoint samples k[i, j] = kappa(t*_i, t*_j) of a two-variable kernel."""

    grid: Grid
    k: np.ndarray = field(repr=False)
    symmetric: bool = True

    def __post_init__(self) -> None:
        if self.k.shape != (self.grid.n, self.grid.n):
            raise ValueError(f"kernel shape {self.k.shape} does not match grid n={self.grid.n}")
        if not np.all(np.isfinite(self.k)):
            raise ValueError("kernel entries must be finite")


def kernel_f_scale(params: ModelParams) -> float:
    """The scale 1 / (2 sqrt(theta sigma2_H T)) of the numerator kernel f."""
    return 1.0 / (2.0 * math.sqrt(params.theta * sigma2_h(params.hurst) * params.horizon))


def kernel_f(params: ModelParams, grid: Grid) -> KernelMatrix:
    """Numerator kernel kernel_f_scale(params) exp(-theta|t-s|), Toeplitz as
    midpoints i and j are |i - j| steps apart.  Like `kernel_g`, called by no
    command: kept for the test oracles and BENCHMARK.json's per-layer names."""
    k = kernel_f_scale(params) * np.exp(-params.theta * grid.step * np.arange(grid.n))
    return KernelMatrix(grid=grid, k=toeplitz(k), symmetric=True)


def boundary_vector(params: ModelParams, grid: Grid) -> np.ndarray:
    """Midpoint samples v_i = exp(-theta (T - t*_i)); the boundary kernel is h = v v'."""
    return np.exp(-params.theta * (params.horizon - grid.midpoints))


def kernel_g_coefficients(params: ModelParams) -> tuple[float, float]:
    """(c1, c2) with g = c1 f - c2 h: c1 = sqrt(sigma2_H / (theta T)),
    c2 = 1 / (2 theta T)."""
    theta_t = params.theta * params.horizon
    return math.sqrt(sigma2_h(params.hurst) / theta_t), 1.0 / (2.0 * theta_t)


def kernel_g(params: ModelParams, grid: Grid) -> KernelMatrix:
    """Denominator-fluctuation kernel:

    g = sqrt(sigma2_H / (theta T)) f - (1 / (2 theta T)) h.
    """
    f = kernel_f(params, grid)
    v = boundary_vector(params, grid)
    c1, c2 = kernel_g_coefficients(params)
    return KernelMatrix(grid=grid, k=c1 * f.k - c2 * np.outer(v, v), symmetric=True)
