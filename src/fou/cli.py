"""Command-line front end: parse flags, orchestrate, emit CSV/JSON reports.

Commands:
    simulate     one path per horizon            (columns T,t,x), a batch of
                 one of the `process` functions
    estimate     per-replication drift estimates (columns T,rep,theta_hat,...),
                 drawn by `montecarlo.replicate` with one Skorohod
                 correction per horizon; method pathwise_ito at H = 1/2,
                 skorohod_oracle above it
    bounds       bound terms per horizon         (fixed schema, see below)
    asymptotics  measured quantities vs limits   (long format, fixed schema)
    kolmogorov   Monte Carlo distance per horizon
    rate-fit     kolmogorov + fitted log-log rate (at least 3 horizons)

Input is checked in two stages, both before any work.  `parse_args`, on
one argparse parser (the command is its first positional, and every flag
is registered once for all commands, --t repeatable and comma separated,
--dt and --n mutually exclusive), checks each flag and the lists: only
`kolmogorov` and `rate-fit` take --method (the other commands reject it,
and their resolved method is None), --seed lies in [0, 2**64), the range
of the 64-bit stream key (`fgn.derive_seed`), --reps, dt > 0, at least
one --t horizon, and strictly increasing horizons for `SERIES_COMMANDS`.
`resolve_horizons` then admits the model and each horizon, in order: a
finite theta > 0 and H in [1/2, 3/4] once, then per horizon a finite
T > 0, T > 1 at H = 3/4 for `SERIES_COMMANDS`, a cell count n (--n, or
T/dt rounded) with 2 <= n <= the command's ceiling,
`bounds.MAX_BOUND_CELLS` for `bounds` and `asymptotics` and
`fgn.MAX_CELLS` otherwise, and last theta, T and theta*step = theta T / n
inside the numeric domain that `constants` declares, with its reasons.  A
violation exits 2 before any n-sized array exists, at any horizon.  The
row builders below take its (params, grid) list, and nothing below
re-checks that domain.

Exit codes: 0 success, 2 usage, 3 numerical failure, 4 I/O.  Inside the
domain the one numerical failure left is a degenerate denominator in some
replication (`process.degenerate_denominators`, the one rule), which
aborts its horizon in `montecarlo.replicate` with a NumericsError.  `main`
builds the rows under numpy's error state divide/over/invalid = "raise"
(underflow left alone), which `replicate` carries into its workers, so an
overflow, a division by zero or an invalid value fails loudly as a
FloatingPointError, exit 3, instead of writing a NaN.  No command prints
a RuntimeWarning.  The resolved configuration (defaults included) is
echoed to stderr before any work, and numbers are printed with 12
significant digits.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys

# numpy's idle OpenBLAS worker busy-waits 2^28 clock ticks (0.13 s on a 2-vCPU
# VM) from its start, on into a command's work, burning a core for nothing;
# 2^20 ends it within numpy's import.  Set before numpy loads, if unset.
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "20")

import numpy as np  # noqa: E402  (after the variable above)

from . import bounds as bounds_mod  # noqa: E402
from . import montecarlo as mc
from . import fgn
from .constants import DOMAIN, HURST_MAX, HURST_MIN, ModelParams, skorohod_correction
from .errors import NumericsError
from .fgn import Grid, derive_seed, sample_fgn
from .process import degenerate_denominators, estimate_pathwise, simulate_fou

COMMANDS = ("simulate", "estimate", "bounds", "asymptotics", "kolmogorov", "rate-fit")
MC_COMMANDS = ("kolmogorov", "rate-fit")
# read their horizons as one series in T: strictly increasing, log T > 0 at H = 3/4
SERIES_COMMANDS = ("kolmogorov", "rate-fit", "asymptotics")

CSV_COLUMNS = {
    "simulate": ["T", "t", "x"],
    "estimate": ["T", "rep", "theta_hat", "numerator", "denominator", "method"],
    "bounds": ["T", "psi1", "psi2", "psi3", "max_psi", "b_T", "norm_f2",
               "norm_f1f", "norm_f1g", "inner_fg", "norm_g2", "norm_g1g"],
    "asymptotics": ["T", "quantity", "measured", "paper_limit", "ratio"],
    "kolmogorov": ["T", "ks_distance", "sample_mean", "sample_var", "reps", "seed"],
    "rate-fit": ["T", "ks_distance", "beta_hat", "c_hat", "r_squared"],
}


def horizons(text: str) -> list[float]:
    """The horizons of one --t value: comma separated, blanks skipped."""
    return [float(part) for part in text.split(",") if part.strip()]


def parse_args(argv) -> argparse.Namespace:
    """Translate argv into the validated configuration, defaults resolved in
    place on the parsed namespace; exits with status 2 on unknown flags,
    missing values, or invariant violations, among them --method on a
    command other than `kolmogorov` and `rate-fit` and a --seed outside
    [0, 2**64)."""
    parser = argparse.ArgumentParser(
        prog="fou",
        description="Fractional Ornstein-Uhlenbeck drift-estimation experiments")
    # registered in the field order of the resolved config (stderr echo, JSON)
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--theta", type=float, required=True, help="drift parameter, > 0")
    parser.add_argument("--hurst", type=float, required=True, help="Hurst index in [0.5, 0.75]")
    parser.add_argument("--t", dest="t_list", action="extend", type=horizons, default=None,
                        metavar="T[,T...]", help="horizon(s); repeatable or comma separated")
    step = parser.add_mutually_exclusive_group()
    step.add_argument("--dt", type=float, default=None, help="fixed step (default 0.05)")
    step.add_argument("--n", type=int, default=None, help="fixed cell count per horizon")
    parser.add_argument("--reps", type=int, default=1000, help="replications (default 1000)")
    parser.add_argument("--seed", type=int, default=42,
                        help="master seed in [0, 2**64) (default 42)")
    parser.add_argument("--out", default=None, help="output path (default <command>.<format>)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--method", choices=(mc.CHAOS_RATIO, mc.PATHWISE), default=None,
                        help="Monte Carlo statistic of kolmogorov and rate-fit "
                             "(default chaos_ratio)")
    ns = parser.parse_args(argv)

    t_list = ns.t_list = tuple(ns.t_list or ())
    ns.dt = ns.dt if (ns.dt is not None or ns.n is not None) else 0.05
    try:
        if ns.method is not None and ns.command not in MC_COMMANDS:
            raise ValueError(f"unrecognized arguments: --method {ns.method} "
                             "(only kolmogorov and rate-fit take it)")
        if not 0 <= ns.seed < 2**64:  # `derive_seed` keys on 64 bits
            raise ValueError(f"seed must be in [0, 2**64), got {ns.seed}")
        if ns.reps <= 0:
            raise ValueError(f"reps must be positive, got {ns.reps}")
        if ns.command in MC_COMMANDS and ns.reps < 100:
            raise ValueError(f"distance estimation needs at least 100 replications, got {ns.reps}")
        if ns.command == "rate-fit" and len(t_list) < 3:
            raise ValueError(f"rate-fit needs at least 3 horizons, got {len(t_list)}")
        if not t_list:
            raise ValueError(f"{ns.command} requires at least one --t horizon")
        if ns.command in SERIES_COMMANDS and any(t2 <= t1 for t1, t2 in zip(t_list, t_list[1:])):
            raise ValueError(f"{ns.command} needs strictly increasing horizons")
        if ns.dt is not None and not ns.dt > 0:  # NaN fails too
            raise ValueError(f"dt must be positive, got {ns.dt}")
    except ValueError as exc:
        parser.error(str(exc))
    ns.out = ns.out if ns.out is not None else f"{ns.command}.{ns.format}"
    ns.method = (ns.method or mc.CHAOS_RATIO) if ns.command in MC_COMMANDS else None
    return ns


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def resolve_horizons(cfg) -> list[tuple[ModelParams, Grid]]:
    """The (params, grid) pair of every horizon: a fixed cell count --n (the
    step grows with T) or a fixed step --dt (the cell count grows with T).
    The one place the model and a horizon are admitted, before any row is
    built: a finite theta > 0 and H in [HURST_MIN, HURST_MAX], then per
    horizon a finite T > 0, T > 1 at H = 3/4 for `SERIES_COMMANDS`,
    2 <= n <= the command's cell ceiling, and theta, T and theta*step in
    the numeric domain of `constants`.  A violation is a ValueError."""
    dense = cfg.command in ("bounds", "asymptotics")
    ceiling = bounds_mod.MAX_BOUND_CELLS if dense else fgn.MAX_CELLS  # read here: tests patch them
    if not (math.isfinite(cfg.theta) and cfg.theta > 0):
        raise ValueError(f"theta must be finite and positive, got {cfg.theta}")
    if not HURST_MIN <= cfg.hurst <= HURST_MAX:
        raise ValueError(f"hurst must be in [{HURST_MIN}, {HURST_MAX}], got {cfg.hurst}")
    pairs = []
    for t in cfg.t_list:
        if not (math.isfinite(t) and t > 0):
            raise ValueError(f"horizon must be finite and positive, got {t}")
        if cfg.command in SERIES_COMMANDS and cfg.hurst == HURST_MAX and t <= 1.0:
            raise ValueError(f"at H = {HURST_MAX} the scaling by log T needs every "
                             f"horizon T > 1, got T = {t}")
        n = cfg.n if cfg.n is not None else t / cfg.dt
        n = round(n) if n < math.inf else n  # a T/dt that overflowed is not rounded
        if not 2 <= n <= ceiling:
            raise ValueError(f"horizon T={t} needs n={n} cells; {cfg.command} takes "
                             f"2 to {ceiling} cells")
        grid = Grid(t, n)
        point = {"theta": cfg.theta, "T": t, "theta*step": cfg.theta * grid.step}
        if not all(lo <= point[k] <= hi for k, (lo, hi) in DOMAIN.items()):
            ranges = ", ".join(f"{k} in [{lo:g}, {hi:g}]" for k, (lo, hi) in DOMAIN.items())
            raise ValueError(", ".join(f"{k} = {v:.6g}" for k, v in point.items())
                             + f" must lie in the domain {ranges}")
        pairs.append((ModelParams(cfg.theta, cfg.hurst, t), grid))
    return pairs


def _rows_simulate(cfg, horizons):
    rows = []
    for i, (params, grid) in enumerate(horizons):
        xi = sample_fgn(grid, params.hurst, derive_seed(cfg.seed, i, 0))
        x = simulate_fou(grid, params, xi[None, :])[0]
        rows.extend({"T": params.horizon, "t": float(tk), "x": float(xk)}
                    for tk, xk in zip(grid.nodes, x))
    return rows


def _estimate_batch(params, grid, xi, c_t):
    """(numerator, denominator) rows of `estimate_pathwise` and their degenerate count."""
    terms = estimate_pathwise(grid, params, xi, c_t)
    return terms, int(degenerate_denominators(params, terms[:, 1]).sum())


def _rows_estimate(cfg, horizons):
    draws = mc.replicate(horizons, cfg.reps, cfg.seed,
                         lambda params, grid: skorohod_correction(params), _estimate_batch)
    rows = []
    for (params, _), terms in zip(horizons, draws):
        method = "pathwise_ito" if params.hurst == HURST_MIN else "skorohod_oracle"
        rows.extend({"T": params.horizon, "rep": r, "theta_hat": float(a / b),
                     "numerator": float(a), "denominator": float(b), "method": method}
                    for r, (a, b) in enumerate(terms))
    return rows


def _rows_bounds(cfg, horizons):
    return [bounds_mod.psi_terms(params, grid) for params, grid in horizons]


def _rows_asymptotics(cfg, horizons):
    return bounds_mod.asymptotics_report(horizons)


def _rows_kolmogorov(cfg, horizons):
    rows = mc.run(horizons, cfg.reps, cfg.seed, cfg.method)
    return [{**r, "reps": cfg.reps, "seed": cfg.seed} for r in rows]


def _rows_rate_fit(cfg, horizons):
    rows = mc.run(horizons, cfg.reps, cfg.seed, cfg.method)
    fit = mc.rate_fit([(r["T"], r["ks_distance"]) for r in rows])
    return [{**r, **fit} for r in rows]


_ROW_BUILDERS = {
    "simulate": _rows_simulate,
    "estimate": _rows_estimate,
    "bounds": _rows_bounds,
    "asymptotics": _rows_asymptotics,
    "kolmogorov": _rows_kolmogorov,
    "rate-fit": _rows_rate_fit,
}


def emit_report(rows, cfg) -> str:
    """Write rows to cfg.out in the fixed schema for cfg.command; returns the path."""
    columns = CSV_COLUMNS[cfg.command]
    if cfg.format == "csv":
        lines = [",".join(columns)]
        lines.extend(",".join(_fmt(row[c]) for c in columns) for row in rows)
        with open(cfg.out, "w", newline="") as fh:
            fh.write("\n".join(lines) + "\n")
    else:
        payload = {"command": cfg.command,
                   "config": vars(cfg),
                   "columns": columns,
                   "rows": [{c: row[c] for c in columns} for row in rows]}
        with open(cfg.out, "w") as fh:
            json.dump(payload, fh, indent=1)
            fh.write("\n")
    return cfg.out


def main(argv=None) -> int:
    try:
        cfg = parse_args(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    print(f"[fou] resolved config: {json.dumps(vars(cfg), sort_keys=True)}", file=sys.stderr)
    try:
        horizons = resolve_horizons(cfg)
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            rows = _ROW_BUILDERS[cfg.command](cfg, horizons)
        path = emit_report(rows, cfg)
    except (NumericsError, ArithmeticError) as exc:
        print(f"[fou] numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"[fou] I/O error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"[fou] invalid configuration: {exc}", file=sys.stderr)
        return 2
    print(f"[fou] wrote {len(rows)} row(s) to {path}", file=sys.stderr)
    return 0


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
