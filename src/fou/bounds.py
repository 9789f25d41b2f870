"""Computable Kolmogorov-distance bound terms and deterministic asymptotics.

For a ratio of second-chaos variables I2(f)/(I2(g) + b), the distance to
the standard normal is controlled by the maximum of three terms built from
weighted norms, inner products and 1-contractions of f and g:

    Psi1 = sqrt((b^2 - 2||f||^2)^2 + 8 ||f x1 f||^2) / b^2
    Psi2 = 2 sqrt(2 ||f x1 g||^2 + <f, g>^2) / b^2
    Psi3 = 2 sqrt(||g||^4 + 2 ||g x1 g||^2) / b^2

b enters through the closed form, not the matrix quadrature, so that the
bound terms do not compound discretization error.  The asymptotics report
re-measures each ingredient across a T grid against its known limit and
decay rate; the bound constants themselves are existential and never
claimed, so rate checks are ratio-based.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
from .hilbert import kernel_f, kernel_g


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


def _ingredients(params: ModelParams, grid: Grid) -> Ingredients:
    """All seven ingredients through shared W-products.

    With A = W f and B = W g:
        ||f||^2      = tr(A A)        <f, g>  = tr(A B)
        ||g||^2      = tr(B B)
        ||f x1 f||^2 = tr((A A)^2)    ||g x1 g||^2 = tr((B B)^2)
        ||f x1 g||^2 = tr((A B)(B A))
    which is six n^3 products instead of one chain per quantity.
    """
    if params.horizon != grid.horizon:
        raise ValueError(f"params horizon {params.horizon} != grid horizon {grid.horizon}")
    w = gram_weights(grid, params.hurst).w
    f = kernel_f(params, grid).k
    g = kernel_g(params, grid).k
    a = w @ f
    b = w @ g
    aa = a @ a
    bb = b @ b
    ab = a @ b
    ba = b @ a
    tr = lambda x, y: float(np.einsum("ij,ji->", x, y))
    return Ingredients(
        b_t=b_t_closed_form(params),
        norm_f2=tr(a, a),
        norm_f1f=math.sqrt(max(tr(aa, aa), 0.0)),
        norm_f1g=math.sqrt(max(tr(ab, ba), 0.0)),
        inner_fg=tr(a, b),
        norm_g2=tr(b, b),
        norm_g1g=math.sqrt(max(tr(bb, bb), 0.0)),
    )


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
    for t in t_list:
        p = ModelParams(theta=theta, hurst=h, horizon=float(t))
        grid = Grid.for_horizon(float(t), n=n, dt=dt)
        ing = _ingredients(p, grid)
        # h is rank one, so its tensor norm is (v' W v)^2 at O(n^2)
        v = np.exp(-theta * (t - grid.midpoints))
        norm_h2 = float(v @ gram_weights(grid, h).w @ v) ** 2
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
        rows.append(AsymptoticsRow(t=float(t), quantities=quantities, rates=rates))
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
