"""Command-line front end: parse flags, orchestrate, emit CSV/JSON reports.

Commands:
    simulate     one path per horizon            (columns T,t,x), a batch of
                 one of the `process` functions
    estimate     per-replication drift estimates (columns T,rep,theta_hat,...),
                 drawn like kolmogorov by `montecarlo.replicate`, on the
                 FOU_THREADS pool, with one Skorohod correction per horizon
    bounds       bound terms per horizon         (fixed schema, see below)
    asymptotics  measured quantities vs limits   (long format, fixed schema)
    kolmogorov   Monte Carlo distance per horizon
    rate-fit     kolmogorov + fitted log-log rate (at least 3 horizons)

Only `kolmogorov` and `rate-fit` take --method; the other commands reject
it, and their RunConfig.method is None.  Every argv check runs once, in
`parse_args`.  Every command needs a --t horizon; `kolmogorov`, `rate-fit`
and `asymptotics` need them strictly increasing, and T > 1 at H = 3/4.  A
grid above `fgn.MAX_CELLS` cells, or in `bounds` and `asymptotics` above
`bounds.MAX_BOUND_CELLS`, is rejected where it is built (exit 2), before any
n-sized array exists.

Exit codes: 0 success, 2 usage, 3 numerical failure (a `NumericsError`,
or an `ArithmeticError` such as an overflow), 4 I/O.  The resolved
configuration (defaults included) is echoed to stderr before any work, and
numbers are printed with 12 significant digits.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

from . import bounds as bounds_mod
from . import montecarlo as mc
from .constants import ModelParams, check_log_horizons, skorohod_correction
from .errors import NumericsError
from .fgn import Grid, derive_seed, sample_fgn
from .process import check_denominators, estimate_pathwise, simulate_fou

COMMANDS = ("simulate", "estimate", "bounds", "asymptotics", "kolmogorov", "rate-fit")
MC_COMMANDS = ("kolmogorov", "rate-fit")

CSV_COLUMNS = {
    "simulate": ["T", "t", "x"],
    "estimate": ["T", "rep", "theta_hat", "numerator", "denominator", "method"],
    "bounds": ["T", "psi1", "psi2", "psi3", "max_psi", "b_T", "norm_f2",
               "norm_f1f", "norm_f1g", "inner_fg", "norm_g2", "norm_g1g"],
    "asymptotics": ["T", "quantity", "measured", "paper_limit", "ratio"],
    "kolmogorov": ["T", "ks_distance", "sample_mean", "sample_var", "reps", "seed"],
    "rate-fit": ["T", "ks_distance", "beta_hat", "c_hat", "r_squared"],
}


@dataclass(frozen=True)
class RunConfig:
    command: str
    theta: float
    hurst: float
    t_list: tuple
    dt: float | None
    n: int | None
    reps: int
    seed: int
    out: str
    format: str
    method: str | None


def _parse_horizons(values) -> tuple:
    out = []
    for v in values:
        for part in str(v).split(","):
            part = part.strip()
            if part:
                out.append(float(part))
    return tuple(out)


def parse_args(argv) -> RunConfig:
    """Translate argv into a validated RunConfig; exits with status 2 on
    unknown flags, missing values, or invariant violations."""
    parser = argparse.ArgumentParser(
        prog="fou",
        description="Fractional Ornstein-Uhlenbeck drift-estimation experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--theta", type=float, required=True, help="drift parameter, > 0")
        p.add_argument("--hurst", type=float, required=True, help="Hurst index in [0.5, 0.75]")
        p.add_argument("--t", action="append", default=None, metavar="T[,T...]",
                       help="horizon(s); repeatable or comma separated")
        p.add_argument("--dt", type=float, default=None, help="fixed step (default 0.05)")
        p.add_argument("--n", type=int, default=None, help="fixed cell count per horizon")
        p.add_argument("--reps", type=int, default=1000, help="replications (default 1000)")
        p.add_argument("--seed", type=int, default=42, help="master seed (default 42)")
        p.add_argument("--out", default=None, help="output path (default <command>.<format>)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        if name in MC_COMMANDS:
            p.add_argument("--method", choices=(mc.CHAOS_RATIO, mc.PATHWISE),
                           default=mc.CHAOS_RATIO, help="Monte Carlo statistic")
    ns = parser.parse_args(argv)

    t_list = _parse_horizons(ns.t or [])
    if ns.dt is not None and ns.n is not None:
        parser.error("--dt and --n are mutually exclusive")
    dt = ns.dt if (ns.dt is not None or ns.n is not None) else 0.05
    try:
        for t in t_list:
            ModelParams(theta=ns.theta, hurst=ns.hurst, horizon=t)
        if ns.reps <= 0:
            raise ValueError(f"reps must be positive, got {ns.reps}")
        if ns.command in MC_COMMANDS and ns.reps < 100:
            raise ValueError(f"distance estimation needs at least 100 replications, got {ns.reps}")
        if ns.command == "rate-fit" and len(t_list) < 3:
            raise ValueError(f"rate-fit needs at least 3 horizons, got {len(t_list)}")
        if not t_list:
            raise ValueError(f"{ns.command} requires at least one --t horizon")
        if ns.command in ("kolmogorov", "rate-fit", "asymptotics"):
            if any(t2 <= t1 for t1, t2 in zip(t_list, t_list[1:])):
                raise ValueError(f"{ns.command} needs strictly increasing horizons")
            check_log_horizons(ns.hurst, t_list)
        if dt is not None and not dt > 0:  # NaN fails too
            raise ValueError(f"dt must be positive, got {dt}")
        if ns.n is not None and ns.n < 2:
            raise ValueError(f"n must be at least 2, got {ns.n}")
    except ValueError as exc:
        parser.error(str(exc))
    out = ns.out if ns.out is not None else f"{ns.command}.{ns.format}"
    return RunConfig(command=ns.command, theta=ns.theta, hurst=ns.hurst,
                     t_list=t_list, dt=dt, n=ns.n, reps=ns.reps, seed=ns.seed,
                     out=out, format=ns.format, method=getattr(ns, "method", None))


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _rows_simulate(cfg: RunConfig):
    rows = []
    for i, t in enumerate(cfg.t_list):
        grid = Grid.for_horizon(t, n=cfg.n, dt=cfg.dt)
        params = ModelParams(theta=cfg.theta, hurst=cfg.hurst, horizon=t)
        xi = sample_fgn(grid, cfg.hurst, derive_seed(cfg.seed, i, 0))
        x = simulate_fou(grid, params, xi[None, :])[0]
        rows.extend({"T": t, "t": float(tk), "x": float(xk)} for tk, xk in zip(grid.nodes, x))
    return rows


def _rows_estimate(cfg: RunConfig):
    def setup(params, grid):
        c_t = skorohod_correction(params)

        def statistic(xi):
            terms = estimate_pathwise(grid, params, xi, c_t)
            check_denominators(params, terms[1])
            return terms

        return statistic

    rows = []
    for t, chunks in zip(cfg.t_list, mc.replicate(setup, cfg.theta, cfg.hurst, cfg.t_list,
                                                  cfg.reps, cfg.seed, n=cfg.n, dt=cfg.dt)):
        terms = [(a, b, method) for num, den, method in chunks for a, b in zip(num, den)]
        rows.extend({"T": t, "rep": r, "theta_hat": float(a / b), "numerator": float(a),
                     "denominator": float(b), "method": method}
                    for r, (a, b, method) in enumerate(terms))
    return rows


def _rows_bounds(cfg: RunConfig):
    rows = []
    for grid in bounds_mod.horizon_grids(cfg.t_list, n=cfg.n, dt=cfg.dt):
        t = grid.horizon
        params = ModelParams(theta=cfg.theta, hurst=cfg.hurst, horizon=t)
        terms = bounds_mod.psi_terms(params, grid)
        ing = terms.ingredients
        rows.append({"T": t, "psi1": terms.psi1, "psi2": terms.psi2,
                     "psi3": terms.psi3, "max_psi": terms.max_psi,
                     "b_T": ing.b_t, "norm_f2": ing.norm_f2,
                     "norm_f1f": ing.norm_f1f, "norm_f1g": ing.norm_f1g,
                     "inner_fg": ing.inner_fg, "norm_g2": ing.norm_g2,
                     "norm_g1g": ing.norm_g1g})
    return rows


def _rows_asymptotics(cfg: RunConfig):
    rows = []
    for row in bounds_mod.asymptotics_report(cfg.theta, cfg.hurst, cfg.t_list,
                                             n=cfg.n, dt=cfg.dt):
        for name, (measured, limit, ratio) in row.quantities.items():
            rows.append({"T": row.t, "quantity": name, "measured": measured,
                         "paper_limit": limit,
                         "ratio": ratio if ratio is not None else ""})
    return rows


def _rows_kolmogorov(cfg: RunConfig):
    rows = mc.run(cfg.theta, cfg.hurst, cfg.t_list, cfg.reps, cfg.seed, cfg.n, cfg.dt, cfg.method)
    return [{"T": r.t, "ks_distance": r.ks_distance, "sample_mean": r.sample_mean,
             "sample_var": r.sample_var, "reps": cfg.reps, "seed": cfg.seed}
            for r in rows]


def _rows_rate_fit(cfg: RunConfig):
    rows = mc.run(cfg.theta, cfg.hurst, cfg.t_list, cfg.reps, cfg.seed, cfg.n, cfg.dt, cfg.method)
    if not all(r.ks_distance > 0 for r in rows):  # NaN fails too
        raise NumericsError("rate fit needs positive distances at every horizon")
    fit = mc.rate_fit([(r.t, r.ks_distance) for r in rows])
    return [{"T": r.t, "ks_distance": r.ks_distance, "beta_hat": fit.beta_hat,
             "c_hat": fit.c_hat, "r_squared": fit.r_squared}
            for r in rows]


_ROW_BUILDERS = {
    "simulate": _rows_simulate,
    "estimate": _rows_estimate,
    "bounds": _rows_bounds,
    "asymptotics": _rows_asymptotics,
    "kolmogorov": _rows_kolmogorov,
    "rate-fit": _rows_rate_fit,
}


def emit_report(rows, cfg: RunConfig) -> str:
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
        rows = _ROW_BUILDERS[cfg.command](cfg)
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
