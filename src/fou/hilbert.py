"""Weighted-matrix reduction of the fBm Hilbert-space geometry.

Scalar kernels live on the grid midpoints; all inner products, norms and
1-contractions against the |t-s|^(2H-2) weight reduce to matrix algebra
with the Gram matrix W of exact cell covariances:

    <phi, psi>        = phi' W psi
    <K1, K2>          = tr(W K1 W K2)
    ||K||^2           = tr(W K W K')           (K' = K when symmetric)
    K1 (x)_1 K2       = K1 W K2

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
from .errors import NumericsError
from .fgn import Grid, GramWeights, gram_weights

# Dense chains are O(n^3) in time and hold a few n x n arrays; this is the
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


def _check_grid(grid: Grid, *objs) -> None:
    for o in objs:
        if o.grid != grid:
            raise ValueError("operands must share one grid")


def kernel_f(params: ModelParams, grid: Grid) -> KernelMatrix:
    """Numerator kernel (1 / (2 sqrt(theta sigma2_H T))) exp(-theta|t-s|);
    Toeplitz, since midpoints i and j are |i - j| steps apart."""
    scale = 1.0 / (2.0 * math.sqrt(params.theta * sigma2_h(params.hurst) * params.horizon))
    k = scale * np.exp(-params.theta * grid.step * np.arange(grid.n))
    return KernelMatrix(grid=grid, k=toeplitz(k), symmetric=True)


def boundary_vector(params: ModelParams, grid: Grid) -> np.ndarray:
    """Midpoint samples v_i = exp(-theta (T - t*_i)); the boundary kernel is v v'."""
    return np.exp(-params.theta * (params.horizon - grid.midpoints))


def kernel_h(params: ModelParams, grid: Grid) -> KernelMatrix:
    """Boundary kernel exp(-theta(T-t) - theta(T-s)); rank one by construction."""
    v = boundary_vector(params, grid)
    return KernelMatrix(grid=grid, k=np.outer(v, v), symmetric=True)


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
    h = kernel_h(params, grid)
    c1, c2 = kernel_g_coefficients(params)
    return KernelMatrix(grid=grid, k=c1 * f.k - c2 * h.k, symmetric=True)


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
    outer integral by the trapezoid rule on the grid nodes.  Cross-check
    for the closed form, not the production path.
    """
    w = gram_weights(grid, params.hurst).w
    nodes = grid.nodes
    tm = grid.midpoints
    # e[i, j] = exp(-theta (t_i - t*_j)) for t*_j < t_i, else 0
    diff = nodes[:, None] - tm[None, :]
    e = np.where(diff > 0, np.exp(-params.theta * np.maximum(diff, 0.0)), 0.0)
    d = np.einsum("ij,ij->i", e @ w, e)  # d_i = e_i' W e_i
    return float(np.trapezoid(d, nodes) / params.horizon)
