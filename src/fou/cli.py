"""Command-line front end: parse flags, orchestrate, emit CSV/JSON reports.

Commands:
    simulate     one path per horizon            (columns T,t,x)
    estimate     per-replication drift estimates (columns T,rep,theta_hat,...),
                 batched: chunks of replications go through the batched
                 sampler, fOU recursion and pathwise kernel, with one
                 Skorohod correction per horizon
    bounds       bound terms per horizon         (fixed schema, see below)
    asymptotics  measured quantities vs limits   (long format, fixed schema)
    kolmogorov   Monte Carlo distance per horizon
    rate-fit     kolmogorov + fitted log-log rate (at least 3 horizons)

`bounds` and `asymptotics` reject any horizon whose grid exceeds the dense
ceiling `hilbert.MAX_DENSE_N` before building an n x n array.

Exit codes: 0 success, 2 usage, 3 numerical failure, 4 I/O.  The resolved
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
from .constants import ModelParams, skorohod_correction
from .errors import NumericsError
from .fgn import Grid, derive_seed, sample_fgn, sample_fgn_batch
from .process import check_denominators, pathwise_terms, simulate_fou, simulate_fou_batch

COMMANDS = ("simulate", "estimate", "bounds", "asymptotics", "kolmogorov", "rate-fit")

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
    eps: float
    out: str
    format: str
    method: str


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
        p.add_argument("--eps", type=float, default=0.01, help="rate loss at H=5/8 (default 0.01)")
        p.add_argument("--out", default=None, help="output path (default <command>.<format>)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--method", choices=(mc.CHAOS_RATIO, mc.PATHWISE),
                       default=mc.CHAOS_RATIO, help="statistic method for MC commands")
    ns = parser.parse_args(argv)

    t_list = _parse_horizons(ns.t or [])
    if not t_list and ns.command in ("simulate", "estimate", "bounds"):
        parser.error(f"{ns.command} requires at least one --t horizon")
    if ns.dt is not None and ns.n is not None:
        parser.error("--dt and --n are mutually exclusive")
    dt = ns.dt if (ns.dt is not None or ns.n is not None) else 0.05
    try:
        for t in t_list or [1.0]:
            ModelParams(theta=ns.theta, hurst=ns.hurst, horizon=t)
        if ns.reps <= 0:
            raise ValueError(f"reps must be positive, got {ns.reps}")
        if ns.command in ("kolmogorov", "rate-fit") and ns.reps < 100:
            raise ValueError(f"distance estimation needs at least 100 replications, got {ns.reps}")
        if ns.command == "rate-fit" and len(t_list) < 3:
            raise ValueError(f"rate-fit needs at least 3 horizons, got {len(t_list)}")
        if ns.eps < 0:
            raise ValueError(f"eps must be nonnegative, got {ns.eps}")
        if dt is not None and dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        if ns.n is not None and ns.n < 2:
            raise ValueError(f"n must be at least 2, got {ns.n}")
    except ValueError as exc:
        parser.error(str(exc))
    out = ns.out if ns.out is not None else f"{ns.command}.{ns.format}"
    return RunConfig(command=ns.command, theta=ns.theta, hurst=ns.hurst,
                     t_list=t_list, dt=dt, n=ns.n, reps=ns.reps, seed=ns.seed,
                     eps=ns.eps, out=out, format=ns.format, method=ns.method)


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _rows_simulate(cfg: RunConfig):
    rows = []
    for i, t in enumerate(cfg.t_list):
        grid = Grid.for_horizon(t, n=cfg.n, dt=cfg.dt)
        params = ModelParams(theta=cfg.theta, hurst=cfg.hurst, horizon=t)
        noise = sample_fgn(grid, cfg.hurst, derive_seed(cfg.seed, i, 0))
        path = simulate_fou(grid, params, noise)
        rows.extend({"T": t, "t": float(tk), "x": float(xk)}
                    for tk, xk in zip(grid.nodes, path.x))
    return rows


def _rows_estimate(cfg: RunConfig):
    rows = []
    for i, t in enumerate(cfg.t_list):
        grid = Grid.for_horizon(t, n=cfg.n, dt=cfg.dt)
        params = ModelParams(theta=cfg.theta, hurst=cfg.hurst, horizon=t)
        c_t = skorohod_correction(params)
        for r0, r1 in mc.row_chunks(cfg.reps, grid.n):
            xi = sample_fgn_batch(grid, cfg.hurst,
                                  [derive_seed(cfg.seed, i, r) for r in range(r0, r1)])
            x = simulate_fou_batch(grid, params, xi)
            num, den, method = pathwise_terms(grid, params, x, c_t)
            check_denominators(params, den)
            rows.extend({"T": t, "rep": r, "theta_hat": float(a / b), "numerator": float(a),
                         "denominator": float(b), "method": method}
                        for r, a, b in zip(range(r0, r1), num, den))
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
    if not cfg.t_list:
        return []
    params = ModelParams(theta=cfg.theta, hurst=cfg.hurst, horizon=cfg.t_list[-1])
    report = bounds_mod.asymptotics_report(params, cfg.t_list, n=cfg.n,
                                           dt=cfg.dt if cfg.n is None else None)
    rows = []
    for row in report:
        for name, (measured, limit, ratio) in row.quantities.items():
            rows.append({"T": row.t, "quantity": name, "measured": measured,
                         "paper_limit": limit,
                         "ratio": ratio if ratio is not None else ""})
    return rows


def _mc_report(cfg: RunConfig):
    config = mc.MCConfig(theta=cfg.theta, hurst=cfg.hurst, t_list=cfg.t_list,
                         replications=cfg.reps, master_seed=cfg.seed,
                         dt=cfg.dt if cfg.n is None else None,
                         n_per_t=cfg.n, statistic_method=cfg.method)
    return mc.run(config)


def _rows_kolmogorov(cfg: RunConfig):
    report = _mc_report(cfg)
    return [{"T": r.t, "ks_distance": r.ks_distance, "sample_mean": r.sample_mean,
             "sample_var": r.sample_var, "reps": cfg.reps, "seed": cfg.seed}
            for r in report.rows]


def _rows_rate_fit(cfg: RunConfig):
    report = _mc_report(cfg)
    if report.fitted is None:
        raise NumericsError("rate fit needs at least 3 horizons with positive distances")
    fit = report.fitted
    return [{"T": r.t, "ks_distance": r.ks_distance, "beta_hat": fit.beta_hat,
             "c_hat": fit.c_hat, "r_squared": fit.r_squared}
            for r in report.rows]


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
                   "config": {k: (list(v) if isinstance(v, tuple) else v)
                              for k, v in vars(cfg).items()},
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
    print(f"[fou] resolved config: "
          f"{json.dumps({k: (list(v) if isinstance(v, tuple) else v) for k, v in vars(cfg).items()}, sort_keys=True)}",
          file=sys.stderr)
    try:
        rows = _ROW_BUILDERS[cfg.command](cfg)
        path = emit_report(rows, cfg)
    except (NumericsError, FloatingPointError) as exc:
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
