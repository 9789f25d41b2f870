"""The per-horizon record that the second-chaos statistic and the bound
terms both read: the two kernels in compact form, b_T and the Gram
matrix W of the grid, built once per horizon by `horizon`.

f is the numerator kernel exp(-theta|t-s|) / (2 sqrt(theta sigma2_H T) l_T),
with l_T = `constants.log_factor`, sqrt(log T) at H = 3/4 and 1 below it,
so -I2(f) / (I2(g) + b_T) is the estimator error under the paper's
normalization, sqrt(T / log T) at H = 3/4; and g = c1 f - c2 v v' is the
denominator-fluctuation kernel, with v the boundary vector
v_i = exp(-theta (T - t*_i)), both sampled at the grid midpoints.  As
c1 f[0] = c2 = 1 / (2 theta T), g does not depend on l_T.  f is Toeplitz,
as midpoints i and j are |i - j| steps apart, so `kernel_f` returns its
first row; `kernel_g` returns (c1, c2).  No n x n kernel and no v is
formed.  With rho = exp(-theta step), L = (I - rho Z)^-1 the AR(1) factor
(Z the down shift) and e = e_{n-1}, v = sqrt(rho) L' e, so
v' W v = rho (M e)_{n-1} with M = L W L'.  The dense kernels and the tensor
algebra on them are test oracles only (`tests/oracles.py`).

`Horizon`, the record, holds:

    rho, lam    exp(-theta step) and lam = 1 - rho = -expm1(-theta step)
    f_row       the Toeplitz row of f (`kernel_f`)
    c1, c2      g = c1 f - c2 v v' (`kernel_g`)
    b_t         b_T in closed form (`constants.b_t_closed_form`)
    w           the first row of W (`fgn.increment_autocov`)
    m_apply     y -> M y along the columns of y: two AR(1) scans
                (`process.ar1_scan`) and a product by W (`fgn.toeplitz_product`)
    m_ends      M e_0 and M e_{n-1}, as the two columns of an n x 2 array
    vwv         v' W v = rho (M e)_{n-1}

`montecarlo._chaos_traces` and `bounds._ingredients` read it, so the chaos
statistic and the bound terms use the same record of the same (theta, T,
n).  It checks nothing: `cli.resolve_horizons` admits theta, T and
theta*step into the domain of `constants`, where rho < 1, b_T > 0 and
every product here is finite.
"""
from __future__ import annotations

import math
from collections.abc import Callable
from typing import NamedTuple

import numpy as np

from .constants import ModelParams, b_t_closed_form, log_factor, sigma2_h
from .fgn import Grid, increment_autocov, toeplitz_product
from .process import ar1_scan


def kernel_f(params: ModelParams, grid: Grid) -> np.ndarray:
    """First row of the Toeplitz numerator kernel, f[i, j] = row[|i - j|]:
    row[k] = exp(-theta step k) / (2 sqrt(theta sigma2_H T) l_T)."""
    scale = 1.0 / (2.0 * math.sqrt(params.theta * sigma2_h(params.hurst) * params.horizon)
                   * log_factor(params))
    return scale * np.exp(-params.theta * grid.step * np.arange(grid.n))


def kernel_g(params: ModelParams, grid: Grid) -> tuple[float, float]:
    """(c1, c2) with g = c1 f - c2 v v': c1 = sqrt(sigma2_H / (theta T)) l_T and
    c2 = 1 / (2 theta T)."""
    theta_t = params.theta * params.horizon
    c1 = math.sqrt(sigma2_h(params.hurst) / theta_t) * log_factor(params)
    return c1, 1.0 / (2.0 * theta_t)


class Horizon(NamedTuple):
    """The record of one horizon (module docstring)."""

    rho: float
    lam: float
    f_row: np.ndarray
    c1: float
    c2: float
    b_t: float
    w: np.ndarray
    m_apply: Callable[[np.ndarray], np.ndarray]
    m_ends: np.ndarray
    vwv: float


def horizon(params: ModelParams, grid: Grid) -> Horizon:
    """The record of (theta, H, T) on the grid (module docstring)."""
    x = params.theta * grid.step
    rho = math.exp(-x)
    w = increment_autocov(grid, params.hurst)
    w_apply = toeplitz_product(w)

    def m_apply(y):  # M y, column by column: backward scan, product by W, forward scan
        u = ar1_scan(y.T[:, ::-1], rho)[:, ::-1]
        return ar1_scan(w_apply(u), rho).T

    ends = np.zeros((grid.n, 2))
    ends[0, 0] = ends[-1, 1] = 1.0
    m_ends = m_apply(ends)
    return Horizon(rho, -math.expm1(-x), kernel_f(params, grid), *kernel_g(params, grid),
                   b_t_closed_form(params), w, m_apply, m_ends, rho * float(m_ends[-1, 1]))
