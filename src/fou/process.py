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

`simulate_fou` and `estimate_pathwise` take noise rows (rows x n), one
path per row, and a single path is a batch of one.  A row's result does
not depend on the other rows of its batch.  The recursion is a blocked
numpy scan (`ar1_scan`), the same scan that `montecarlo._chaos_batch`
and the products by M = L W L' of `hilbert.Horizon` use;
`estimate_pathwise` reduces the scan's rows directly, without the node
array that `simulate_fou` returns.
"""
from __future__ import annotations

import math

import numpy as np

from .constants import HURST_MIN, ModelParams, stationary_variance
from .errors import DegeneratePathError, NumericsError
from .fgn import Grid

PATHWISE_ITO = "pathwise_ito"
SKOROHOD_ORACLE = "skorohod_oracle"

DEGENERATE_DENOM_FACTOR = 1e-12
NEAR_ZERO_DENOM = 1e-9
SCAN_BLOCK = 8  # cells per block of `ar1_scan`


def ar1_scan(xi: np.ndarray, rho: float) -> np.ndarray:
    """u[:, k] = rho u[:, k-1] + xi[:, k] along each row of xi (rows x n).

    Rows are cut into blocks of SCAN_BLOCK cells.  A block's end, scanned from
    zero, is one weighted sum; scanning the ends with rho^SCAN_BLOCK gives the
    value entering each block, and the recursion then runs in all blocks at
    once.  Every step is elementwise within a row, so no row depends on the
    others, and numpy releases the GIL throughout.  The error is a few units
    of rounding of the running sum of |xi|.
    """
    rows, n = xi.shape
    b = min(SCAN_BLOCK, n)
    m = -(-n // b)  # blocks per row; only the last may be short
    out, prev, tmp = np.empty((rows, n)), np.zeros((rows, m)), np.empty((rows, m))
    if m > 1:  # prev[:, k]: the value entering block k
        powers = rho ** np.arange(b)
        ends = np.einsum("rkj,j->rk", xi[:, :(m - 1) * b].reshape(rows, m - 1, b), powers[::-1])
        prev[:, 1:] = ar1_scan(ends, rho * powers[-1])
    for j in range(b):
        c = -(-(n - j) // b)  # blocks that hold a cell at offset j
        np.multiply(prev[:, :c], rho, out=tmp[:, :c])
        np.add(tmp[:, :c], xi[:, j::b], out=out[:, j::b])
        prev = out[:, j::b]
    return out


def simulate_fou(grid: Grid, params: ModelParams, xi: np.ndarray) -> np.ndarray:
    """Node values of one path per row of noise xi (rows x n), rows x n+1:
    the exact-factor recursion x[k+1] = exp(-theta dt) x[k] + xi[k], x[0] = 0."""
    return np.pad(ar1_scan(xi, math.exp(-params.theta * grid.step)), ((0, 0), (1, 0)))


def denominator_floor(params: ModelParams) -> float:
    """Smallest int X^2 dt a genuine path can produce; below it the path is
    degenerate.  DEGENERATE_DENOM_FACTOR times min(T a, T^(2H+1) / (2H+1)),
    the scale of E int X^2 dt at finite T: T a, with a the stationary
    variance, once theta T >> 1, and T^(2H+1) / (2H+1) while theta T << 1.
    T^2H is not formed past T = 1e200, where it would overflow."""
    h, t = params.hurst, params.horizon
    early = t ** (2.0 * h) / (2.0 * h + 1.0) if t < 1e200 else math.inf
    return DEGENERATE_DENOM_FACTOR * t * min(stationary_variance(params), early)


def degenerate_denominators(params: ModelParams, denominator: np.ndarray) -> np.ndarray:
    """Rows whose int X^2 dt is not positive or is below `denominator_floor`.
    Both tests are needed: the floor itself underflows to 0 where the
    denominator does."""
    return ~(denominator > 0.0) | (denominator < denominator_floor(params))


def check_denominators(params: ModelParams, denominator: np.ndarray) -> None:
    """Raise DegeneratePathError naming T if any row's int X^2 dt is degenerate."""
    low = np.flatnonzero(degenerate_denominators(params, denominator))
    if low.size:
        raise DegeneratePathError(
            f"int X^2 dt = {denominator[low[0]]} is not positive or below "
            f"{denominator_floor(params)} at T={params.horizon}; wiring or RNG problem")


def estimate_pathwise(grid: Grid, params: ModelParams, xi: np.ndarray,
                      c_t: float) -> tuple[np.ndarray, np.ndarray, str]:
    """Least-squares drift estimate theta_hat = numerator / denominator of
    the path that `simulate_fou` builds from each row of noise xi (rows x n);
    returns (numerator, denominator, method).  c_t is
    skorohod_correction(params), unused at H = 1/2.  The caller decides
    what a degenerate denominator (`degenerate_denominators`) means; one
    that overflows raises NumericsError.

    The denominator is the trapezoid rule for int X^2 dt.  H = 1/2 uses the
    Ito identity directly.  H > 1/2 evaluates the Young integral of X dX by
    the trapezoid sum, which telescopes exactly to X_T^2 / 2, then subtracts
    the theta-dependent trace correction.  (A left-point sum differs by half
    the discrete quadratic variation, which at step dt decays only like
    dt^(2H-1) and visibly biases the estimate; the trapezoid sum is the same
    Riemann-Stieltjes limit without that defect.)

    Both come from the scan u = x[1..n] alone: with x_0 = 0 the trapezoid
    sum is step * (sum_k u_k^2 - u_T^2 / 2), and the numerator needs only
    u_T, so the node array and its square are never formed.
    """
    u = ar1_scan(xi, math.exp(-params.theta * grid.step))
    u_t2 = u[:, -1] ** 2
    denominator = grid.step * (np.einsum("ij,ij->i", u, u) - 0.5 * u_t2)
    if not np.isfinite(denominator).all():
        raise NumericsError(f"int X^2 dt overflows at T={params.horizon}")
    if params.hurst == HURST_MIN:
        return 0.5 * (params.horizon - u_t2), denominator, PATHWISE_ITO
    return -(0.5 * u_t2 - c_t), denominator, SKOROHOD_ORACLE
