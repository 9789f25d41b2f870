"""Computable Kolmogorov-distance bound terms and deterministic asymptotics.

For a ratio of second-chaos variables I2(f)/(I2(g) + b), the distance to
the standard normal is controlled by the maximum of three terms built from
weighted norms, inner products and 1-contractions of f and g:

    Psi1 = sqrt((b^2 - 2||f||^2)^2 + 8 ||f x1 f||^2) / b^2
    Psi2 = 2 sqrt(2 ||f x1 g||^2 + <f, g>^2) / b^2
    Psi3 = 2 sqrt(||g||^4 + 2 ||g x1 g||^2) / b^2

b enters through the closed form, not the matrix quadrature, so that the
bound terms do not compound discretization error.

f is s_f times the Kac-Murdock-Szego matrix K[i, j] = rho^|i-j| (1953),
rho = exp(-theta step), whose AR(1) factor makes W f and W g, with W the
Toeplitz Gram matrix of the grid, similar to symmetric S_f and S_g.  Every
ingredient is a trace, a Frobenius norm or a weighted entrywise product of
X = S_f S_f and Y = S_g S_g (`_ingredients`).  Neither S nor its square is
formed.  The displacement S S - Z S S Z' (Z the down shift) has 9
generator columns, each one product by S: two AR(1) scans and a Toeplitz
product through the length-2n circulant of the row of W (Kailath, Kung
and Morf 1979).  X[k, k+d] is then a prefix sum along diagonal d, and one
sweep over the rows, carrying the running sum of every diagonal, yields X
and Y together: O(n^2) flops and O(n) memory.

Largest relative error of the six matrix ingredients against a long-double
dense reference (the same float64 s_f, c1 and c2; w, K, v and every product
in long double), for the dense factor route this replaced (S formed, S S from
one `dsyrk`, the g-terms as low-rank updates of its traces) and for the
generator route:

    theta  H     T     n    theta step  factor   generator
    1      0.6   200   512  0.39        2.0e-16  1.1e-15
    0.5    0.75  8     256  0.016       4.1e-15  3.0e-15
    0.5    0.6   2     512  0.0020      1.9e-14  2.1e-14
    0.1    0.7   0.25  128  0.00020     3.6e-10  1.8e-14
    0.01   0.6   1     256  0.000039    2.7e-9   6.4e-13

At theta T << 1, g = c2 (K - v v') (c1 s_f = c2) is a small difference of
matrices near all-ones.  The factor route took each g-term as a difference
of traces and lost digits (the last two rows); here the difference sits in
one scalar, lam = -expm1(-theta step), computed without cancelling.  What
remains is the rounding of rho, ~eps / (theta step) in the g-terms.

s_f, c1, c2 and v come from the compact kernels of `hilbert`, once per
horizon.  `horizon_grids` resolves every horizon's grid and enforces the
cell ceiling `MAX_BOUND_CELLS`, set from measured time (see there), before
any n-sized array exists.  The asymptotics report re-measures each
ingredient across a T grid against its known limit; the bound constants
themselves are existential and never claimed, so rate checks are
ratio-based.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dtbtrs

from .constants import (
    HURST_MAX,
    ModelParams,
    b_t_closed_form,
    delta_h,
    sigma2_h,
    stationary_variance,
)
from .errors import NumericsError
from .fgn import Grid, increment_autocov
from .hilbert import kernel_f, kernel_g

# The largest power of two at which one horizon of `_ingredients` takes no
# longer than the dense n^3 route it replaced took at n = 4096 (1.1-1.5 s):
# 0.33-0.44 s at n = 8192 and 1.5-1.8 s at 16384 (theta = 1, H = 0.6, 2 vCPUs,
# OpenBLAS on 2 threads).  Enforced on every horizon by `horizon_grids`.
MAX_BOUND_CELLS = 8192


@dataclass(frozen=True)
class Ingredients:
    """The seven scalars the bound terms are assembled from."""

    b_t: float
    norm_f2: float      # ||f||^2
    norm_f1f: float     # ||f x1 f||
    norm_f1g: float     # ||f x1 g||
    inner_fg: float     # <f, g>
    norm_g2: float      # ||g||^2
    norm_g1g: float     # ||g x1 g||


@dataclass(frozen=True)
class BoundTerms:
    psi1: float
    psi2: float
    psi3: float
    max_psi: float
    ingredients: Ingredients


@dataclass(frozen=True)
class AsymptoticsRow:
    """Measured scaled quantities at one horizon, with their limits.

    `quantities` maps a scaled-quantity name to (measured, limit, ratio);
    ratio is measured/limit where the limit is nonzero, else None.
    """

    t: float
    quantities: dict


def psi_from_ingredients(ing: Ingredients) -> tuple[float, float, float]:
    """Assemble (Psi1, Psi2, Psi3) from raw ingredient values."""
    b2 = ing.b_t * ing.b_t
    psi1 = math.sqrt((b2 - 2.0 * ing.norm_f2) ** 2 + 8.0 * ing.norm_f1f**2) / b2
    psi2 = 2.0 * math.sqrt(2.0 * ing.norm_f1g**2 + ing.inner_fg**2) / b2
    psi3 = 2.0 * math.sqrt(ing.norm_g2**2 + 2.0 * ing.norm_g1g**2) / b2
    return psi1, psi2, psi3


def horizon_grids(t_list, n: int | None = None, dt: float | None = None) -> list[Grid]:
    """The grid of every horizon under the discretization policy (see
    `Grid.for_horizon`), each checked against `MAX_BOUND_CELLS` before
    any n-sized array is built; a violation is a ValueError."""
    grids = [Grid.for_horizon(float(t), n=n, dt=dt) for t in t_list]
    for g in grids:
        if g.n > MAX_BOUND_CELLS:
            raise ValueError(f"horizon T={g.horizon} needs n={g.n} cells, above the "
                             f"ceiling of {MAX_BOUND_CELLS} cells for the bound terms")
    return grids


def _diagonal_sweep(left: np.ndarray, right: np.ndarray):
    """Row by row, the upper triangles of the symmetric X and Y whose
    displacements are X - Z X Z' = left[0] right[0]' and Y - Z Y Z' =
    left[1] right[1]'.  Row k of X is its displacement row plus row k-1
    shifted one place: X[k, k+d] is the prefix sum over i <= k of
    left[i] . right[i+d] along diagonal d.  Returns, per row k, the Gram
    matrix of (X[k, k:], Y[k, k:]) and their first and last entries."""
    n, r = left.shape[1:]
    # Entries below 1e-150 of their column's largest cannot move a float64
    # sum; left in, they underflow to subnormals, which made the sweep
    # three times slower at theta T > 708.
    left, right = (np.where(np.abs(x) < 1e-150 * np.abs(x).max(axis=1, keepdims=True), 0.0, x)
                   for x in (left, right))
    rows = np.zeros((n, 2, 2 * r))
    rows[:, 0, :r], rows[:, 1, r:] = left[0], left[1]
    cols = np.ascontiguousarray(np.concatenate([right[0], right[1]], axis=1).T)
    gram, first, last = np.empty((n, 2, 2)), np.empty((n, 2)), np.empty((n, 2))
    prev = np.zeros((2, n + 1))
    for k in range(n):
        row = rows[k] @ cols[:, k:]
        row += prev[:, :-1]
        gram[k] = row @ row.T
        first[k], last[k], prev = row[:, 0], row[:, -1], row
    return gram, first, last


def _ingredients(params: ModelParams, grid: Grid) -> tuple[Ingredients, float]:
    """All seven ingredients from one sweep over X = S_f S_f and Y = S_g S_g.

    K = C C' with C = L' D^, L = (I - rho Z)^-1 and D^ = diag(sqrt(1 - rho^2),
    ..., sqrt(1 - rho^2), 1), so W f is similar to S_f = s_f D^ M D^ with
    M = L W L'.  As v = v[n-1] C e (e = e_{n-1}), g = c2 C E C' with
    E = diag(1, ..., 1, lam), lam = 1 - v[n-1]^2 = -expm1(-theta step), and
    W g is similar to S_g = c2 E^1/2 D^ M D^ E^1/2.  Then
        ||f||^2 = tr X,  ||f x1 f||^2 = ||X||_F^2,  ||g||^2 = tr Y,
        ||g x1 g||^2 = ||Y||_F^2,  <f, g> = (c2 / s_f) sum_i E_ii X_ii,
        ||f x1 g||^2 = sum_ij sqrt(E_ii / E_jj) X_ij Y_ij,
        ||h||^2 = s^2,  s = v' W v = v[n-1]^2 (S_f)_{n-1,n-1} / s_f.
    For H >= 1/2 every entry of W, L, X and Y is nonnegative, so no g-term
    is a difference.  Returns (Ingredients, ||h||^2).
    """
    n, x = grid.n, params.theta * grid.step
    rho, lam = math.exp(-x), -math.expm1(-x)
    c1, c2, v = kernel_g(params, grid)
    s_f = kernel_f(params, grid)[0]
    if not (rho < 1.0 and math.isfinite(s_f) and math.isfinite(c1) and math.isfinite(c2)):
        raise NumericsError(f"theta*step = {x:.6g} leaves the AR(1) factor of the kernels "
                            f"degenerate (rho = {rho}, s_f = {s_f}, c1 = {c1}, c2 = {c2})")
    w = increment_autocov(grid, params.hurst)
    band = np.zeros((2, n))
    band[1, :-1] = -rho
    spectrum = np.fft.rfft(np.r_[w, 0.0, w[:0:-1]])  # the circulant embedding of W

    def m_apply(y):  # M y: backward scan, Toeplitz product, forward scan
        u = dtbtrs(band, y, uplo="L", trans="T", diag="U")[0]
        u = np.fft.irfft(spectrum[:, None] * np.fft.rfft(u, 2 * n, axis=0), 2 * n, axis=0)
        return dtbtrs(band, u[:n], uplo="L", diag="U")[0]

    ends = np.zeros((n, 2))
    ends[0, 0] = ends[-1, 1] = 1.0
    a, m = m_apply(ends).T  # L w and M e, as L' e_0 = e_0
    # M - Z M Z' = L (W - Z W Z') L' = a l' + l a' - w_0 l l' with l = L e_0, and
    # S = D M D, D = diag(d, ..., d, d_last), adds the last row and column:
    # S - Z S Z' = g0 j g0'.  With h0 = g0 j and z = Z S e,
    # S S - Z S S Z' = (S g0) h0' + g0 (S h0 - h0 g0' h0)' - z z'.
    g0 = np.column_stack([a, rho ** np.arange(n), ends[:, 1], m])
    left, right = [], []
    for scale, scale_last in ((s_f, s_f), (c2, c2 * lam)):  # S_f, then S_g
        d, d_last = math.sqrt(scale * (1.0 - rho) * (1.0 + rho)), math.sqrt(scale_last)
        cross = d * (d_last - d)
        j = np.array([[0.0, d * d, 0.0, 0.0],
                      [d * d, -w[0] * d * d, 0.0, 0.0],
                      [0.0, 0.0, (d_last - d) ** 2 * m[-1], cross],
                      [0.0, 0.0, cross, 0.0]])
        dv = np.r_[np.full(n - 1, d), d_last][:, None]
        sg0 = dv * m_apply(dv * g0)
        z = np.r_[0.0, sg0[:-1, 2]]
        left.append(np.column_stack([sg0, g0, z]))
        right.append(np.column_stack([g0 @ j, (sg0 - g0 @ (j @ (g0.T @ g0))) @ j, -z]))
    gram, first, last = _diagonal_sweep(np.stack(left), np.stack(right))
    sq = 2.0 * gram.sum(axis=0) - first.T @ first  # off-diagonal pairs count twice
    root = math.sqrt(lam)  # pair weight on the last column: root + 1/root = 2 + (1 - root)^2/root
    f1g2 = sq[0, 1] + (1.0 - root) ** 2 / root * float(last[:-1, 0] @ last[:-1, 1])
    s = v[-1] ** 2 * left[0][-1, 2] / s_f  # left[0][:, 2] = S_f e
    ing = Ingredients(
        b_t=b_t_closed_form(params),
        norm_f2=float(first[:, 0].sum()),
        norm_f1f=math.sqrt(sq[0, 0]),
        norm_f1g=math.sqrt(f1g2),
        inner_fg=c2 / s_f * float(first[:-1, 0].sum() + lam * first[-1, 0]),
        norm_g2=float(first[:, 1].sum()),
        norm_g1g=math.sqrt(sq[1, 1]),
    )
    return ing, float(s * s)


def psi_terms(params: ModelParams, grid: Grid) -> BoundTerms:
    """Evaluate the three bound terms at (theta, H, T) on the given grid."""
    ing, _ = _ingredients(params, grid)
    if ing.b_t <= 0:
        raise ValueError(f"b_T must be positive, got {ing.b_t}")
    psi1, psi2, psi3 = psi_from_ingredients(ing)
    return BoundTerms(psi1=psi1, psi2=psi2, psi3=psi3,
                      max_psi=max(psi1, psi2, psi3), ingredients=ing)


def asymptotics_report(theta: float, hurst: float, t_list, n: int | None = None,
                       dt: float | None = None) -> list[AsymptoticsRow]:
    """Measure every bound ingredient at (theta, H) across a horizon grid.

    Quantity names carry the scaling actually applied; at H = 3/4 the
    denominator-kernel quantities take their log-corrected scalings and
    the affected names change accordingly.  Discretization policy: fixed
    n (step grows with T) or fixed dt (cell count grows with T).  The
    caller validates the horizons (`cli.parse_args`).
    """
    h = hurst
    a = stationary_variance(ModelParams(theta=theta, hurst=h, horizon=1.0))
    lim_g2 = delta_h(h) / (2.0 * theta ** (1 + 4 * h))
    lim_fg = math.sqrt(theta / sigma2_h(h)) * lim_g2
    log_case = h == HURST_MAX
    label = "T/log(T)" if log_case else "T"
    rows = []
    for grid in horizon_grids(t_list, n=n, dt=dt):
        t = grid.horizon
        p = ModelParams(theta=theta, hurst=h, horizon=t)
        ing, norm_h2 = _ingredients(p, grid)
        lt = math.log(t)
        scale = t / lt if log_case else t
        q = {
            "b_T": (ing.b_t, a),
            "2*norm_f2": (2.0 * ing.norm_f2 / lt if log_case else 2.0 * ing.norm_f2,
                          a * a),
            "norm_f1f": (ing.norm_f1f, 0.0),
            "norm_h2/T": (norm_h2 / t, 0.0),
            f"{label}*norm_g2": (scale * ing.norm_g2, lim_g2),
            f"sqrt({label})*inner_fg": (math.sqrt(scale) * ing.inner_fg, lim_fg),
            f"sqrt({label})*norm_f1g": (math.sqrt(scale) * ing.norm_f1g, 0.0),
            f"sqrt({label})*norm_g1g": (math.sqrt(scale) * ing.norm_g1g, 0.0),
        }
        quantities = {
            name: (meas, lim, meas / lim if lim != 0.0 else None)
            for name, (meas, lim) in q.items()
        }
        rows.append(AsymptoticsRow(t=t, quantities=quantities))
    return rows

