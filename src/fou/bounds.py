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
rho = exp(-theta step), whose factor C (K = C C') is the AR(1) recursion of
`process.ar1_scan`.  So A = W f, with W the Gram weights of the grid, is
similar to the symmetric S = s_f C' W C, which two O(n^2) scans build in
place of W; S S is one `dsyrk`, n^3 flops.  As g = c1 f - c2 v v' is f plus
a rank-one term, every g-ingredient is a trace of a low-rank update of S S,
through matrix-vector products by

    tr((a X + P Q')(b X + R S'))
        = a b tr(X X) + a tr(S' X R) + b tr(Q' X P) + tr((Q' R)(S' P)).

Largest relative error of the six matrix ingredients against a long-double
dense reference, for this route and the W f, (W f)^2 products it replaced:

    theta  H     T     n    theta step  dense    factor
    1      0.6   200   512  0.39        2.9e-16  4.7e-16
    0.5    0.75  8     256  0.016       5.3e-16  4.1e-15
    0.5    0.6   2     512  0.0020      5.7e-15  1.8e-14
    0.1    0.7   0.25  128  0.00020     5.9e-9   2.2e-9
    0.01   0.6   1     256  0.000039    2.4e-8   4.4e-8

The scans use rho rounded: error ~ eps / (theta step).  g = c2 (K - v v')
(c1 s_f = c2) cancels at theta T << 1 in both routes (the last two rows).

`horizon_grids` resolves every horizon's grid and enforces the dense
ceiling `hilbert.MAX_DENSE_N` before any n x n array exists.  The
asymptotics report re-measures each ingredient across a T grid against
its known limit and decay rate; the bound constants themselves are
existential and never claimed, so rate checks are ratio-based.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dsyrk
from scipy.linalg.lapack import dtbtrs

from . import hilbert
from .constants import (
    HURST_MAX,
    ModelParams,
    b_t_closed_form,
    check_log_horizons,
    delta_h,
    rate_exponent,
    sigma2_h,
    stationary_variance,
)
from .fgn import Grid, gram_weights
from .hilbert import boundary_vector, kernel_f_scale, kernel_g_coefficients


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
    ratio is measured/limit where the limit is finite and nonzero, else
    None.  `rates` records the known decay exponent of the gap to the
    limit where one is stated, else None.
    """

    t: float
    quantities: dict
    rates: dict


def psi_from_ingredients(ing: Ingredients) -> tuple[float, float, float]:
    """Assemble (Psi1, Psi2, Psi3) from raw ingredient values."""
    b2 = ing.b_t * ing.b_t
    psi1 = math.sqrt((b2 - 2.0 * ing.norm_f2) ** 2 + 8.0 * ing.norm_f1f**2) / b2
    psi2 = 2.0 * math.sqrt(2.0 * ing.norm_f1g**2 + ing.inner_fg**2) / b2
    psi3 = 2.0 * math.sqrt(ing.norm_g2**2 + 2.0 * ing.norm_g1g**2) / b2
    return psi1, psi2, psi3


def horizon_grids(t_list, n: int | None = None, dt: float | None = None) -> list[Grid]:
    """The grid of every horizon under the discretization policy (see
    `Grid.for_horizon`), each checked against `hilbert.MAX_DENSE_N` before
    any n x n array is built; a violation is a ValueError."""
    grids = [Grid.for_horizon(float(t), n=n, dt=dt) for t in t_list]
    for g in grids:
        if g.n > hilbert.MAX_DENSE_N:
            raise ValueError(f"horizon T={g.horizon} needs n={g.n} cells, above the dense "
                             f"ceiling of {hilbert.MAX_DENSE_N} cells for the bound terms")
    return grids


def _trace_update(x: np.ndarray, tr_x2: float, a: float, p: np.ndarray, q: np.ndarray,
                  b: float, r: np.ndarray, s: np.ndarray) -> float:
    """tr((a X + P Q')(b X + R S')) for X = x x, x symmetric, and n x k factors
    P, Q, R, S, given tr(X X); the only n x n work is x (x P) and x (x R)."""
    return float(a * b * tr_x2
                 + a * np.einsum("ik,ik->", s, x @ (x @ r))
                 + b * np.einsum("ik,ik->", q, x @ (x @ p))
                 + np.einsum("ij,ji->", q.T @ r, s.T @ p))


def _ingredients(params: ModelParams, grid: Grid, *,
                 with_norm_h2: bool = False) -> Ingredients | tuple[Ingredients, float]:
    """All seven ingredients from the factor S = s_f C' W C of A = W f.

    C = L' D, with L = (I - rho shift)^-1 the forward AR(1) scan and
    D = diag(sqrt(1 - rho^2), ..., sqrt(1 - rho^2), 1): the stationary
    recursion run back from the last cell.  S = s_f D (L W L') D is built in
    place of W: a banded solve applies L to the columns of W' = W, which read
    by rows is W L', and a row scan applies L again.  v is v[n-1] times the
    last column of K, so v~ = C^-1 v = v[n-1] e_{n-1};
    with u~ = C' W v = S v~ / s_f, q~ = S v~, p~ = S u~ and s = v~'u~:
        ||f||^2 = tr(S S),  ||f x1 f||^2 = tr((S S)^2),  ||h||^2 = s^2
        <f, g>  = c1 tr(S S) - c2 v~'p~
        ||g||^2 = c1^2 tr(S S) - 2 c1 c2 v~'p~ + c2^2 s^2
        ||f x1 g||^2 = tr((c1 S S - c2 p~ v~')(c1 S S - c2 u~ q~'))
        ||g x1 g||^2 = tr(Y Y), Y = c1^2 S S + c2 (c2 s u~ - c1 p~) v~' - c1 c2 u~ q~'
    Returns the Ingredients, or (Ingredients, ||h||^2) when `with_norm_h2` is set.
    """
    if params.horizon != grid.horizon:
        raise ValueError(f"params horizon {params.horizon} != grid horizon {grid.horizon}")
    c1, c2 = kernel_g_coefficients(params)
    s_f, n, rho = kernel_f_scale(params), grid.n, math.exp(-params.theta * grid.step)
    d = np.sqrt(s_f * np.r_[np.full(n - 1, (1.0 - rho) * (1.0 + rho)), 1.0])
    band = np.zeros((2, n))
    band[1, :-1] = -rho
    w = gram_weights(grid, params.hurst).w
    sm = dtbtrs(band, w.T, uplo="L", diag="U", overwrite_b=1)[0].T  # W L', in place
    for i in range(1, n):
        sm[i] += rho * sm[i - 1]  # L W L'
    sm *= d
    sm *= d[:, None]
    s2 = dsyrk(1.0, sm.T).ravel(order="K")  # S S, upper triangle only
    tr_s2 = float(sm.ravel() @ sm.ravel())
    tr_s4 = 2.0 * float(s2 @ s2) - float(s2[::n + 1] @ s2[::n + 1])
    vt = np.zeros(n)
    vt[-1] = boundary_vector(params, grid)[-1]
    qt = sm @ vt
    ut = qt / s_f
    pt = sm @ ut
    s, vp = float(vt @ ut), float(vt @ pt)
    f1g2 = _trace_update(sm, tr_s4, c1, -c2 * pt[:, None], vt[:, None],
                         c1, -c2 * ut[:, None], qt[:, None])
    yp = np.column_stack([c2 * (c2 * s * ut - c1 * pt), -c1 * c2 * ut])
    yq = np.column_stack([vt, qt])
    g1g2 = _trace_update(sm, tr_s4, c1 * c1, yp, yq, c1 * c1, yp, yq)
    ing = Ingredients(
        b_t=b_t_closed_form(params),
        norm_f2=tr_s2,
        norm_f1f=math.sqrt(tr_s4),
        norm_f1g=math.sqrt(max(f1g2, 0.0)),
        inner_fg=c1 * tr_s2 - c2 * vp,
        norm_g2=c1 * c1 * tr_s2 - 2.0 * c1 * c2 * vp + c2 * c2 * s * s,
        norm_g1g=math.sqrt(max(g1g2, 0.0)),
    )
    return (ing, s * s) if with_norm_h2 else ing


def psi_terms(params: ModelParams, grid: Grid) -> BoundTerms:
    """Evaluate the three bound terms at (theta, H, T) on the given grid."""
    ing = _ingredients(params, grid)
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
    n (step grows with T) or fixed dt (cell count grows with T).
    """
    t_list = list(t_list)
    if any(t2 <= t1 for t1, t2 in zip(t_list, t_list[1:])):
        raise ValueError("t_list must be strictly increasing")
    h = hurst
    check_log_horizons(h, t_list)
    a = stationary_variance(ModelParams(theta=theta, hurst=h, horizon=1.0))
    lim_g2 = delta_h(h) / (2.0 * theta ** (1 + 4 * h))
    lim_fg = math.sqrt(theta / sigma2_h(h)) * lim_g2
    exp_f1f = rate_exponent(h)
    log_case = h == HURST_MAX
    label = "T/log(T)" if log_case else "T"
    rows = []
    for grid in horizon_grids(t_list, n=n, dt=dt):
        t = grid.horizon
        p = ModelParams(theta=theta, hurst=h, horizon=t)
        ing, norm_h2 = _ingredients(p, grid, with_norm_h2=True)
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
            name: (meas, lim, meas / lim if lim not in (0.0, None) else None)
            for name, (meas, lim) in q.items()
        }
        rates = {
            "b_T": 1.0,
            "2*norm_f2": None if log_case else 3.0 - 4.0 * h,
            "norm_f1f": None if exp_f1f.log_corrected else exp_f1f.beta,
        }
        rows.append(AsymptoticsRow(t=t, quantities=quantities, rates=rates))
    return rows

