"""The two kernels of the second-chaos statistic and of the bound terms,
in the compact form every consumer reads.

f is the numerator kernel (1 / (2 sqrt(theta sigma2_H T))) exp(-theta|t-s|)
and g = c1 f - c2 v v' the denominator-fluctuation kernel, with v the
boundary vector v_i = exp(-theta (T - t*_i)), both sampled at the grid
midpoints.  f is Toeplitz, as midpoints i and j are |i - j| steps apart, so
`kernel_f` returns its first row; `kernel_g` returns (c1, c2, v).  No n x n
kernel is formed: the bound ingredients in `bounds` take the weighted
tensor norms of f and g from the scale of f, c1, c2 and v[n-1], through
the displacement generators of the AR(1) factor of f, and the O(n)
per-replication statistic in `montecarlo` takes its recentering traces
from the Toeplitz row.  The dense kernels and the tensor algebra on them
are test oracles only (`tests/oracles.py`).
"""
from __future__ import annotations

import math

import numpy as np

from .constants import ModelParams, sigma2_h
from .fgn import Grid


def kernel_f(params: ModelParams, grid: Grid) -> np.ndarray:
    """First row of the Toeplitz numerator kernel, f[i, j] = row[|i - j|]:
    row[k] = exp(-theta step k) / (2 sqrt(theta sigma2_H T))."""
    scale = 1.0 / (2.0 * math.sqrt(params.theta * sigma2_h(params.hurst) * params.horizon))
    return scale * np.exp(-params.theta * grid.step * np.arange(grid.n))


def kernel_g(params: ModelParams, grid: Grid) -> tuple[float, float, np.ndarray]:
    """(c1, c2, v) with g = c1 f - c2 v v': c1 = sqrt(sigma2_H / (theta T)),
    c2 = 1 / (2 theta T) and v_i = exp(-theta (T - t*_i))."""
    theta_t = params.theta * params.horizon
    v = np.exp(-params.theta * (params.horizon - grid.midpoints))
    return math.sqrt(sigma2_h(params.hurst) / theta_t), 1.0 / (2.0 * theta_t), v
