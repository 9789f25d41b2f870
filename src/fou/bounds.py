"""Computable Kolmogorov-distance bound terms and deterministic asymptotics.

For a ratio of second-chaos variables I2(f)/(I2(g) + b), the distance to
the standard normal is controlled by the maximum of three terms built from
weighted norms, inner products and 1-contractions of f and g:

    Psi1 = sqrt((b^2 - 2||f||^2)^2 + 8 ||f x1 f||^2) / b^2
    Psi2 = 2 sqrt(2 ||f x1 g||^2 + <f, g>^2) / b^2
    Psi3 = 2 sqrt(||g||^4 + 2 ||g x1 g||^2) / b^2

b enters through the closed form, not the matrix quadrature, so that the
bound terms do not compound discretization error.

Only two n x n products are formed per horizon: A = W f and A A, with W
the Gram weights of the grid.  The denominator kernel g = c1 f - c2 v v'
is f plus a rank-one term, so B = W g = c1 A - c2 u v' with u = W v, and
every ingredient that involves g is a trace of a low-rank update of A or
A A, evaluated through matrix-vector products by

    tr((a X + P Q')(b X + R S'))
        = a b tr(X X) + a tr(S' X R) + b tr(Q' X P) + tr((Q' R)(S' P)).

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

from . import hilbert
from .constants import (
    ModelParams,
    b_t_closed_form,
    check_log_horizons,
    delta_h,
    rate_exponent,
    sigma2_h,
    stationary_variance,
)
from .fgn import Grid, gram_weights
from .hilbert import boundary_vector, kernel_f, kernel_g_coefficients


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
    """tr((a X + P Q')(b X + R S')) for n x k factors P, Q, R, S, given
    tr(X X); the only n x n work is the products X P and X R."""
    return float(a * b * tr_x2
                 + a * np.einsum("ik,ik->", s, x @ r)
                 + b * np.einsum("ik,ik->", q, x @ p)
                 + np.einsum("ij,ji->", q.T @ r, s.T @ p))


def _ingredients(params: ModelParams, grid: Grid, *,
                 with_norm_h2: bool = False) -> Ingredients | tuple[Ingredients, float]:
    """All seven ingredients from the two products A = W f and A A.

    With u = W v, p = A u, q = A' v and s = v' u (so that ||h||^2 = s^2):
        ||f||^2      = tr(A A)
        ||f x1 f||^2 = tr((A A)^2)
        <f, g>       = tr(A B) = c1 tr(A A) - c2 v'p
        ||g||^2      = tr(B B) = c1^2 tr(A A) - 2 c1 c2 v'p + c2^2 s^2
        ||f x1 g||^2 = tr((A B)(B A)),  A B = c1 A A - c2 p v',
                                        B A = c1 A A - c2 u q'
        ||g x1 g||^2 = tr((B B)^2),     B B = c1^2 A A + c2 (c2 s u - c1 p) v'
                                                       - c1 c2 u q'
    The last two are low-rank updates of A A and go through
    `_trace_update`.  Returns the Ingredients, or (Ingredients, ||h||^2)
    when `with_norm_h2` is set.  The grid is not checked against the
    dense ceiling here; `horizon_grids` does that for every command.
    """
    if params.horizon != grid.horizon:
        raise ValueError(f"params horizon {params.horizon} != grid horizon {grid.horizon}")
    c1, c2 = kernel_g_coefficients(params)
    w = gram_weights(grid, params.hurst).w
    v = boundary_vector(params, grid)
    u = w @ v
    a = w @ kernel_f(params, grid).k
    aa = a @ a
    p, q, s = a @ u, v @ a, float(v @ u)
    tr_a2 = float(np.trace(aa))
    tr_a4 = float(np.einsum("ij,ji->", aa, aa))
    vp = float(v @ p)
    f1g2 = _trace_update(aa, tr_a4, c1, -c2 * p[:, None], v[:, None],
                         c1, -c2 * u[:, None], q[:, None])
    bb_p = np.column_stack([c2 * (c2 * s * u - c1 * p), -c1 * c2 * u])
    bb_q = np.column_stack([v, q])
    g1g2 = _trace_update(aa, tr_a4, c1 * c1, bb_p, bb_q, c1 * c1, bb_p, bb_q)
    ing = Ingredients(
        b_t=b_t_closed_form(params),
        norm_f2=tr_a2,
        norm_f1f=math.sqrt(max(tr_a4, 0.0)),
        norm_f1g=math.sqrt(max(f1g2, 0.0)),
        inner_fg=c1 * tr_a2 - c2 * vp,
        norm_g2=c1 * c1 * tr_a2 - 2.0 * c1 * c2 * vp + c2 * c2 * s * s,
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


def asymptotics_report(params: ModelParams, t_list, n: int | None = None,
                       dt: float | None = None) -> list[AsymptoticsRow]:
    """Measure every bound ingredient across a horizon grid.

    Quantity names carry the scaling actually applied; at H = 3/4 the
    denominator-kernel quantities take their log-corrected scalings and
    the affected names change accordingly.  Discretization policy: fixed
    n (step grows with T) or fixed dt (cell count grows with T).
    """
    t_list = list(t_list)
    if any(t2 <= t1 for t1, t2 in zip(t_list, t_list[1:])):
        raise ValueError("t_list must be strictly increasing")
    theta, h = params.theta, params.hurst
    check_log_horizons(h, t_list)
    a = stationary_variance(params)
    lim_g2 = delta_h(h) / (2.0 * theta ** (1 + 4 * h))
    lim_fg = math.sqrt(theta / sigma2_h(h)) * lim_g2
    exp_f1f = rate_exponent(h)
    log_case = h == 0.75
    rows = []
    for grid in horizon_grids(t_list, n=n, dt=dt):
        t = grid.horizon
        p = ModelParams(theta=theta, hurst=h, horizon=t)
        ing, norm_h2 = _ingredients(p, grid, with_norm_h2=True)
        st = math.sqrt(t)
        lt = math.log(t)
        q = {
            "b_T": (ing.b_t, a),
            "2*norm_f2": (2.0 * ing.norm_f2 / lt if log_case else 2.0 * ing.norm_f2,
                          a * a),
            "norm_f1f": (ing.norm_f1f, 0.0),
            "norm_h2/T": (norm_h2 / t, 0.0),
        }
        if log_case:
            q["T/log(T)*norm_g2"] = (t / lt * ing.norm_g2, lim_g2)
            q["sqrt(T/log(T))*inner_fg"] = (math.sqrt(t / lt) * ing.inner_fg, lim_fg)
            q["sqrt(T/log(T))*norm_f1g"] = (math.sqrt(t / lt) * ing.norm_f1g, 0.0)
            q["sqrt(T/log(T))*norm_g1g"] = (math.sqrt(t / lt) * ing.norm_g1g, 0.0)
        else:
            q["T*norm_g2"] = (t * ing.norm_g2, lim_g2)
            q["sqrt(T)*inner_fg"] = (st * ing.inner_fg, lim_fg)
            q["sqrt(T)*norm_f1g"] = (st * ing.norm_f1g, 0.0)
            q["sqrt(T)*norm_g1g"] = (st * ing.norm_g1g, 0.0)
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


def theoretical_rate_curve(params: ModelParams, t_list, c: float,
                           epsilon: float = 0.01) -> list[tuple[float, float]]:
    """Reference decay curve: C / T^beta, or C / log T at H = 3/4.

    C is descriptive (the true constants are existential); the curve is for
    overlaying on measured distances.
    """
    if c <= 0:
        raise ValueError(f"C must be positive, got {c}")
    r = rate_exponent(params.hurst, epsilon)
    out = []
    for t in t_list:
        t = float(t)
        bound = c / math.log(t) if r.log_corrected else c / t**r.beta
        out.append((t, bound))
    return out
