"""The per-horizon record that the second-chaos statistic and the bound
terms both read: the two kernels in compact form, b_T and the Gram
matrix W of the grid, built and checked once per horizon by `horizon`.

f is the numerator kernel (1 / (2 sqrt(theta sigma2_H T))) exp(-theta|t-s|)
and g = c1 f - c2 v v' the denominator-fluctuation kernel, with v the
boundary vector v_i = exp(-theta (T - t*_i)), both sampled at the grid
midpoints.  f is Toeplitz, as midpoints i and j are |i - j| steps apart, so
`kernel_f` returns its first row; `kernel_g` returns (c1, c2).  No n x n
kernel and no v is formed.  With rho = exp(-theta step), L = (I - rho Z)^-1
the AR(1) factor (Z the down shift) and e = e_{n-1}, v = sqrt(rho) L' e, so
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
statistic and the bound terms run the same checks on the same (theta, T,
n).  The sampling commands check theta*T first (`montecarlo.replicate`):
where it overflows, `kolmogorov` names theta*T and `bounds` on the same
argv names theta*step (check 1).  Checks, in order:

1. `kernel_f`: where rho rounds to 1 or theta step overflows, the AR(1)
   factor is degenerate, a NumericsError.  Where rho < 1, s_f, c1 and c2
   are finite too, as theta T >= theta step.
2. b_T > 0, else a ValueError.
3. The arithmetic: under the error state that `cli.main` sets, an
   overflow, a division by zero or an invalid value raises
   FloatingPointError, which `errors.arithmetic` turns into a NumericsError
   naming theta and T.  It sets no error state itself; the bound
   ingredients, int X^2 dt, each replication chunk and each horizon's
   summary in `montecarlo.run` use it too.
"""
from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .constants import ModelParams, b_t_closed_form, sigma2_h
from .errors import NumericsError, arithmetic
from .fgn import Grid, increment_autocov, toeplitz_product
from .process import ar1_scan


def kernel_f(params: ModelParams, grid: Grid) -> np.ndarray:
    """First row of the Toeplitz numerator kernel, f[i, j] = row[|i - j|]:
    row[k] = exp(-theta step k) / (2 sqrt(theta sigma2_H T)).  Raises
    NumericsError where the AR(1) factor degenerates (module docstring).
    exp(-x k) is 0 in float64 for every k >= 1 once x >= 746, so x is
    capped there and x k stays finite."""
    x = params.theta * grid.step
    if not (math.exp(-x) < 1.0 and math.isfinite(x)):
        raise NumericsError(f"theta*step = {x:.6g} leaves the AR(1) factor of the kernels "
                            f"degenerate (rho = exp(-theta*step) = {math.exp(-x)})")
    scale = 1.0 / (2.0 * math.sqrt(params.theta * sigma2_h(params.hurst) * params.horizon))
    return scale * np.exp(-min(x, 746.0) * np.arange(grid.n))


def kernel_g(params: ModelParams, grid: Grid) -> tuple[float, float]:
    """(c1, c2) with g = c1 f - c2 v v': c1 = sqrt(sigma2_H / (theta T)) and
    c2 = 1 / (2 theta T)."""
    theta_t = params.theta * params.horizon
    return math.sqrt(sigma2_h(params.hurst) / theta_t), 1.0 / (2.0 * theta_t)


@dataclass(frozen=True)
class Horizon:
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
    """The record of (theta, H, T) on the grid, checked in the order of the
    module docstring."""
    f_row = kernel_f(params, grid)
    b_t = b_t_closed_form(params)
    if b_t <= 0:
        raise ValueError(f"b_T must be positive, got {b_t}")
    x = params.theta * grid.step
    rho = math.exp(-x)
    with arithmetic(params.theta, params.horizon, "the products by W"):
        w = increment_autocov(grid, params.hurst)
        w_apply = toeplitz_product(w)

        def m_apply(y):  # M y, column by column: backward scan, product by W, forward scan
            u = ar1_scan(y.T[:, ::-1], rho)[:, ::-1]
            return ar1_scan(w_apply(u), rho).T

        ends = np.zeros((grid.n, 2))
        ends[0, 0] = ends[-1, 1] = 1.0
        m_ends = m_apply(ends)
        return Horizon(rho, -math.expm1(-x), f_row, *kernel_g(params, grid), b_t, w,
                       m_apply, m_ends, rho * float(m_ends[-1, 1]))
