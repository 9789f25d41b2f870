"""Fractional OU paths and the least-squares drift estimator.

The path solves dX = -theta X dt + dB^H, X_0 = 0, discretized with the
exact integrating factor: x[k+1] = exp(-theta dt) x[k] + dB_k.  This is
unconditionally stable; the remaining error is the order-dt approximation
of the noise integral over each cell.

The estimator -int X dX / int X^2 dt has one computable form for every H
in [1/2, 3/4]: theta_hat = -(Y - c_T(theta)) / int X^2 dt, where Y is the
Young integral of X against itself and c_T(theta) is the divergence-trace
correction (`constants.skorohod_correction`).  c_T needs the true theta, so
this form is a simulation instrument only.  At H = 1/2 c_T = T/2 and the
form is the Ito estimator (T - X_T^2) / (2 int X^2 dt).

`simulate_fou` and `estimate_pathwise` take noise rows (rows x n), one
path per row, and a single path is a batch of one.  A row's result does
not depend on the other rows of its batch.  The recursion is a blocked
numpy scan (`ar1_scan`), the same scan that the products by M = L W L'
of `hilbert.Horizon` use.  `scan_sums` reduces the scan's rows to the
two sums that `estimate_pathwise` and `montecarlo._chaos_batch` need,
without the node array that `simulate_fou` returns.
"""
from __future__ import annotations

import math

import numpy as np

from .constants import ModelParams, stationary_variance
from .errors import NumericsError, arithmetic
from .fgn import Grid

DEGENERATE_DENOM_FACTOR = 1e-12
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


def scan_sums(xi: np.ndarray, rho: float) -> tuple[np.ndarray, np.ndarray]:
    """(u_T^2, sum_k u_k^2) of each row's scan u = ar1_scan(xi, rho).  An
    overflow in u_T^2 signals under the caller's error state; the sum
    overflows to inf without a signal.  The sum is an einsum, not BLAS: its
    per-row sum does not depend on how many rows share the call, so no
    value depends on chunk boundaries."""
    u = ar1_scan(xi, rho)
    u_t2 = u[:, -1] ** 2
    return u_t2, np.einsum("ij,ij->i", u, u)


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
    denominator does.  This is the one rule for a degenerate denominator:
    the statistic of `estimate` and both statistics of `montecarlo.run`
    count its rows, the chaos statistic applying it to T times its
    denominator, the chaos form of (1/T) int X^2 dt, and
    `montecarlo.replicate` aborts on any."""
    return ~(denominator > 0.0) | (denominator < denominator_floor(params))


def estimate_pathwise(grid: Grid, params: ModelParams, xi: np.ndarray,
                      c_t: float) -> np.ndarray:
    """Least-squares drift estimate theta_hat = numerator / denominator of
    the path that `simulate_fou` builds from each row of noise xi (rows x n);
    returns rows x 2, (numerator, denominator) per row.  c_t is
    skorohod_correction(params), T/2 at H = 1/2.  A degenerate
    denominator (`degenerate_denominators`) is left to the caller to count;
    one that overflows raises NumericsError.

    The denominator is the trapezoid rule for int X^2 dt.  The numerator
    evaluates the Young integral of X dX by the trapezoid sum, which
    telescopes exactly to X_T^2 / 2, then subtracts the theta-dependent
    trace correction; at H = 1/2 that is the Ito identity.  (A left-point
    sum differs by half the discrete quadratic variation, which at step dt
    decays only like dt^(2H-1) and visibly biases the estimate; the
    trapezoid sum is the same Riemann-Stieltjes limit without that defect.)

    Both come from the scan u = x[1..n] alone (`scan_sums`): with x_0 = 0
    the trapezoid sum is step * (sum_k u_k^2 - u_T^2 / 2), and the
    numerator needs only u_T.
    """
    u_t2, sum_u2 = scan_sums(xi, math.exp(-params.theta * grid.step))
    with arithmetic(params.theta, params.horizon, "int X^2 dt"):
        denominator = grid.step * (sum_u2 - 0.5 * u_t2)
    if not np.isfinite(denominator).all():  # the einsum of `scan_sums` does not signal
        raise NumericsError(f"int X^2 dt overflows at T={params.horizon}")
    return np.stack((c_t - 0.5 * u_t2, denominator), axis=1)
