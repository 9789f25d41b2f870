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
Toeplitz Gram matrix of the grid, similar to symmetric S_f and S_g.  The two
differ only by a diagonal scaling, S_g = kappa E^1/2 S_f E^1/2 with
kappa = c2 / s_f, E = diag(1, ..., 1, lam) and lam = 1 - rho.  So
Y = S_g S_g = kappa^2 Y~ with Y~ = E^1/2 S_f E S_f E^1/2, and X = S_f S_f
is E^-1/2 Y~ E^-1/2 plus the rank-one rho z z', z = S_f e_{n-1}.  Every
ingredient is then a sum of squares over a part of Y~, a part of its
trace, or an inner product of O(n) vectors (`_ingredients`).  Neither S
nor its square is formed.  The displacement Y~ - Z Y~ Z' (Z the down
shift) has 9 generator columns, each one product by E^1/2 S_f E^1/2: the
product by M = L W L' of `hilbert.Horizon`, two AR(1) scans around a
product by W, between two diagonal scalings (Kailath, Kung and Morf 1979).
Y~[k, k+d] is then a prefix sum along diagonal d, and one sweep over
blocks of rows, carrying the running sum of every diagonal, yields what
the ingredients read: one product per block gives the displacement rows,
and the running sums go down the block a row at a time.  O(n^2) flops and
O(n) memory, one sweep per horizon.

The six matrix ingredients agree with a long-double dense reference (the
same float64 s_f, c1 and c2; w, K, v and every product in long double)
within 5e-12 relative down to theta step = 4e-5
(`test_ingredients_match_long_double_reference`; the routes this replaced
are compared in CHANGES.md).  At theta T << 1, g = c2 (K - v v') is a
small difference of matrices near all-ones; here that difference sits in
one scalar, lam = -expm1(-theta step), computed without cancelling, and
the rounding of rho leaves ~eps / (theta step) in the g-terms, which sets
the theta*step floor of the domain (`constants`).  For H >= 1/2 every
term the one-sweep route adds up is nonnegative, and it divides only by
lam in (0, 1], so deriving X from Y~ cancels nothing.

s_f, c2, b_T, W and M come from the record of the horizon,
`hilbert.horizon`.  `cli.resolve_horizons` admits every horizon into the
numeric domain and checks its grid against the cell ceiling
`MAX_BOUND_CELLS`, set from measured time (see there), before any
n-sized array exists.  The asymptotics report re-measures each ingredient
across a T grid against its known limit; the bound constants themselves
are existential and never claimed, so rate checks are ratio-based.
"""
from __future__ import annotations

import math

import numpy as np

from .constants import HURST_MAX, ModelParams, delta_h, log_factor, sigma2_h, stationary_variance
from .fgn import Grid
from .hilbert import horizon

# Cell ceiling of `bounds` and `asymptotics`, enforced on every horizon by
# `cli.resolve_horizons`: one horizon here takes no longer than the retired
# dense n^3 route did at n = 4096, a mark the sweep now meets up to 16384
# (timings in CHANGES.md).
MAX_BOUND_CELLS = 8192

# Rows per block of `_diagonal_sweep` are SWEEP_CELLS // n (at most n), so
# its scratch, rows x (n + rows + 1) doubles, stays within about 1 MiB.  A
# block's product, at most 9 SWEEP_CELLS multiply-adds, then runs on one
# OpenBLAS thread, and so do the row dot products (fewer than n cells, at
# most 8191 up to MAX_BOUND_CELLS).  Larger blocks let OpenBLAS thread the
# product for more CPU time and no speed, and smaller ones were no faster
# (timings in CHANGES.md).
SWEEP_CELLS = 2**16


def psi_from_ingredients(ing: dict) -> tuple[float, float, float]:
    """Assemble (Psi1, Psi2, Psi3) from b_T and the six ingredients, keyed
    by their `bounds` column names."""
    b2 = ing["b_T"] * ing["b_T"]
    psi1 = math.sqrt((b2 - 2.0 * ing["norm_f2"]) ** 2 + 8.0 * ing["norm_f1f"] ** 2) / b2
    psi2 = 2.0 * math.sqrt(2.0 * ing["norm_f1g"] ** 2 + ing["inner_fg"] ** 2) / b2
    psi3 = 2.0 * math.sqrt(ing["norm_g2"] ** 2 + 2.0 * ing["norm_g1g"] ** 2) / b2
    return psi1, psi2, psi3


def _diagonal_sweep(left: np.ndarray, right: np.ndarray):
    """Block by block, the upper triangle of the symmetric Y whose
    displacement is Y - Z Y Z' = left right' (n x 9 each).  Row k of Y is its
    displacement row plus row k-1 shifted one place: Y[k, k+d] is the prefix
    sum over i <= k of left[i] . right[i+d] along diagonal d.  A block of h
    rows k0, ... takes D = left[k0:k0+h] right[k0:]' from one product, read
    through a skewed view so that row i sees D[i, i+d] at diagonal d; the
    running sums then go down the block one row at a time.  Returns
    sum Y[k, l]^2 over k <= l < n-1 (the upper triangle without the last
    column), the diagonal and the last column of Y."""
    n = left.shape[0]
    # Entries below 1e-150 of their column's largest cannot move a float64
    # sum; left in, they underflow to subnormals, which made the sweep
    # three times slower at theta T > 708.
    left, right = (np.where(np.abs(x) < 1e-150 * np.abs(x).max(axis=0), 0.0, x)
                   for x in (left, right))
    right = np.ascontiguousarray(right.T)
    b = max(1, min(n, SWEEP_CELLS // n))
    flat, upper = np.zeros(b * (n + b + 1)), np.triu(np.ones((b, b)))
    total, diag, last, carry = 0.0, np.empty(n), np.empty(n), np.zeros(n)
    for k0 in range(0, n, b):
        h, m = min(b, n - k0), n - k0
        w = m + h  # row i of the skewed view reaches column i + m - 1
        skew = flat[:h * (w + 1)].reshape(h, w + 1)  # skew[i, d] = block[i, i + d]
        block = flat[:h * w].reshape(h, w)
        np.matmul(left[k0:k0 + h], right[:, k0:], out=block[:, :m])
        rows = skew[:, :m]  # Y[k0+i, k0+i+d] for d < m - i
        rows[0] += carry[:m]
        for prev, row in zip(rows, rows[1:]):
            np.add(row, prev, out=row)
        block[:, m:] = 0.0  # past d = m - i row i holds stale sums; cleared, they cannot grow
        block[:, :h] *= upper[:h, :h]  # D below the diagonal is not part of Y
        total += np.vecdot(block[:, :m - 1], block[:, :m - 1]).sum()
        diag[k0:k0 + h], last[k0:k0 + h] = rows[:, 0], block[:, m - 1]
        carry = rows[h - 1, :m - h].copy()
    return total, diag, last


def _ingredients(params: ModelParams, grid: Grid) -> tuple[dict, float]:
    """All seven ingredients from one sweep over Y~ = E^1/2 S_f E S_f E^1/2.

    K = C C' with C = L' D^, L = (I - rho Z)^-1 and D^ = diag(sqrt(1 - rho^2),
    ..., sqrt(1 - rho^2), 1), so W f is similar to S_f = s_f D^ M D^ with
    M = L W L'.  As v = v[n-1] C e (e = e_{n-1}), g = c2 C E C' with
    E = diag(1, ..., 1, lam), lam = 1 - v[n-1]^2 = -expm1(-theta step), and
    W g is similar to S_g = kappa E^1/2 S_f E^1/2, kappa = c2 / s_f.  So
    Y = S_g S_g = kappa^2 Y~, and X = S_f S_f = S_f E S_f + rho z z' =
    E^-1/2 Y~ E^-1/2 + rho z z' with z = S_f e and rho = 1 - lam.  Split Y~
    at its last row and column: I = sum_{k,l < n-1} Y~_kl^2,
    B = sum_{k < n-1} Y~_{k,n-1}^2, C = Y~_{n-1,n-1}; and with p = S_f z,
    q = S_f E z,
        ||g||^2 = tr Y = kappa^2 tr Y~,  ||g x1 g||^2 = ||Y||_F^2 = kappa^4 (I + 2B + C^2),
        ||f||^2 = tr X = sum_{k < n-1} Y~_kk + C / lam + rho z'z,
        ||f x1 f||^2 = ||X||_F^2 = I + 2B/lam + C^2/lam^2 + 2 rho p'E p + rho^2 (z'z)^2,
        <f, g> = kappa tr(E X) = kappa (tr Y~ + rho z'E z),
        ||f x1 g||^2 = sum_ij sqrt(E_ii / E_jj) X_ij Y_ij
                     = kappa^2 (I + (1 + lam) B/lam + C^2/lam + rho q'E p),
        ||h||^2 = s^2,  s = v' W v = v[n-1]^2 (M e)_{n-1} = rho (M e)_{n-1}, as v[n-1]^2 = rho.
    For H >= 1/2 every entry of W, L, M, Y~, z, p and q is nonnegative, so
    each ingredient is a sum of nonnegative terms, and it divides only by
    lam in (0, 1].  rho, lam, s_f, c2, b_T, w, M and M e come from the
    record of the horizon (`hilbert.horizon`).
    Returns the `bounds` columns b_T and the six ingredients, and ||h||^2.
    """
    rec = horizon(params, grid)
    n, rho, lam, s_f, w = grid.n, rec.rho, rec.lam, rec.f_row[0], rec.w
    a, m = rec.m_ends.T  # L w and M e, as L' e_0 = e_0
    # M - Z M Z' = L (W - Z W Z') L' = a l' + l a' - w_0 l l' with l = L e_0, and
    # S = D M D, D = diag(d, ..., d, d_last), adds the last row and column:
    # S - Z S Z' = g0 j g0'.  With h0 = g0 j and zs = Z S e,
    # S S - Z S S Z' = (S g0) h0' + g0 (S h0 - h0 g0' h0)' - zs zs'.
    g0 = np.column_stack([a, rho ** np.arange(n), np.r_[np.zeros(n - 1), 1.0], m])
    d, d_last = math.sqrt(s_f * (1.0 - rho) * (1.0 + rho)), math.sqrt(s_f * lam)
    # D of S~ = E^1/2 S_f E^1/2 for its generators, D of S_f for p and q
    dv, dv_f = (np.r_[np.full(n - 1, d), end] for end in (d_last, math.sqrt(s_f)))
    e_diag = np.r_[np.ones(n - 1), lam]  # E
    z = dv_f * math.sqrt(s_f) * m  # S_f e
    scale = np.c_[dv, dv, dv, dv, dv_f, dv_f]
    # S~ g0, and p = S_f z and q = S_f E z, in one pass
    sg0, pq = np.hsplit(scale * rec.m_apply(scale * np.c_[g0, z, e_diag * z]), [4])
    cross = d * (d_last - d)
    j = np.array([[0.0, d * d, 0.0, 0.0],
                  [d * d, -w[0] * d * d, 0.0, 0.0],
                  [0.0, 0.0, (d_last - d) ** 2 * m[-1], cross],
                  [0.0, 0.0, cross, 0.0]])
    zs = np.r_[0.0, sg0[:-1, 2]]
    left = np.column_stack([sg0, g0, zs])
    right = np.column_stack([g0 @ j, (sg0 - g0 @ (j @ (g0.T @ g0))) @ j, -zs])
    upper, diag, last = _diagonal_sweep(left, right)
    p, q = pq.T
    inner = 2.0 * upper - diag[:-1] @ diag[:-1]  # off-diagonal pairs count twice
    side, corner, zz = last[:-1] @ last[:-1], last[-1], z @ z
    kappa, trace = rec.c2 / s_f, diag.sum()
    return {
        "b_T": rec.b_t,
        "norm_f2": float(diag[:-1].sum() + corner / lam + rho * zz),
        "norm_f1f": math.sqrt(inner + 2.0 * side / lam + (corner / lam) ** 2
                              + 2.0 * rho * (p @ (e_diag * p)) + (rho * zz) ** 2),
        "norm_f1g": kappa * math.sqrt(inner + (1.0 + lam) * side / lam
                                      + corner * corner / lam + rho * (q @ (e_diag * p))),
        "inner_fg": kappa * float(trace + rho * (z @ (e_diag * z))),
        "norm_g2": kappa * kappa * float(trace),
        "norm_g1g": kappa * kappa * math.sqrt(inner + 2.0 * side + corner * corner),
    }, rec.vwv ** 2


def psi_terms(params: ModelParams, grid: Grid) -> dict:
    """The `bounds` row at (theta, H, T) on the grid: Psi1-3, max_psi and the ingredients."""
    ing, _ = _ingredients(params, grid)
    psi = dict(zip(("psi1", "psi2", "psi3"), psi_from_ingredients(ing)))
    return {"T": grid.horizon, **psi, "max_psi": max(psi.values()), **ing}


def asymptotics_report(horizons) -> list[dict]:
    """Measure every bound ingredient at (theta, H) across the (params,
    grid) pairs of `horizons`, one theta and H; returns the long-format
    `asymptotics` rows, ratio "" at a zero limit.

    Quantity names carry the scaling actually applied.  The g-quantities
    are scaled by T / l_T^2 (l_T = `constants.log_factor`): T below 3/4,
    and T / log T at H = 3/4, where their names change accordingly.  The
    f-quantities take no scaling of their own: f already carries 1 / l_T
    (`hilbert.kernel_f`), so 2*norm_f2 tends to a^2 at every H.  The caller
    resolves and validates the horizons and their grids (`cli.parse_args`,
    `cli.resolve_horizons`).
    """
    first = horizons[0][0]
    theta, h = first.theta, first.hurst
    a = stationary_variance(first)
    lim_g2 = delta_h(h) / (2.0 * theta ** (1 + 4 * h))
    lim_fg = math.sqrt(theta / sigma2_h(h)) * lim_g2
    label = "T/log(T)" if h == HURST_MAX else "T"
    rows = []
    for params, grid in horizons:
        t = params.horizon
        ing, norm_h2 = _ingredients(params, grid)
        scale = t / log_factor(params) ** 2
        q = {
            "b_T": (ing["b_T"], a),
            "2*norm_f2": (2.0 * ing["norm_f2"], a * a),
            "norm_f1f": (ing["norm_f1f"], 0.0),
            "norm_h2/T": (norm_h2 / t, 0.0),
            f"{label}*norm_g2": (scale * ing["norm_g2"], lim_g2),
            f"sqrt({label})*inner_fg": (math.sqrt(scale) * ing["inner_fg"], lim_fg),
            f"sqrt({label})*norm_f1g": (math.sqrt(scale) * ing["norm_f1g"], 0.0),
            f"sqrt({label})*norm_g1g": (math.sqrt(scale) * ing["norm_g1g"], 0.0),
        }
        rows.extend({"T": t, "quantity": name, "measured": meas, "paper_limit": lim,
                     "ratio": meas / lim if lim != 0.0 else ""}
                    for name, (meas, lim) in q.items())
    return rows
